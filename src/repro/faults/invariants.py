"""Runtime invariant checking for the chaos and migration harnesses.

The robustness story is only as strong as what we *assert* while faults
fly.  This module provides :class:`InvariantChecker`, a passive observer
wired into the datapath at three points:

* **ServiceLib emission** (:meth:`on_data_emitted`): every receive-path
  DATA nqe carries a stable per-flow ``flow_uid`` and a monotonic
  ``rx_seq`` stamped at emission time.  The checker records what each
  flow emitted, and how many bytes.
* **CoreEngine forwarding** (:meth:`on_data_forwarded`): when the switch
  forwards that nqe to the guest, the checker asserts the per-flow
  sequence is *exactly* the next one expected — catching duplicates,
  reordering, gaps, and bytes fabricated out of thin air (forwarded but
  never emitted).
* **ServiceLib EOF** (:meth:`on_eof`): the flow's stream is complete.
  Once every DATA nqe it emitted has been forwarded (at once, or when a
  DATA nqe the EOF overtook during a migration arrives), the flow is
  *settled*: its byte-conservation check runs and all its state is
  dropped, so the checker's memory is proportional to the open flows,
  not to every flow the run ever carried.  A later nqe of a settled
  flow has nothing left to match and is flagged.

A flow's ``uid`` survives migration even though its cID changes, so a
migrated connection's stream is checked end-to-end across the handoff.

:meth:`audit` runs the conservation check on the flows still open and
adds the structural invariants: connection-table ownership uniqueness
(two NSMs must never claim one cID — the split-brain hazard) and
huge-page descriptor accounting (``0 <= used <= capacity`` per
registered region; a region over capacity means a descriptor is owned
twice).

All violations accumulate in :attr:`violations` as human-readable
strings; an empty list at the end of a chaos run is the pass criterion.
The checker is optional and costs nothing when absent — every hook is
``None``-guarded at its call site.
"""

from __future__ import annotations

from typing import Dict, List, Set

__all__ = ["InvariantChecker"]

#: Stop appending after this many violations: a broken run would
#: otherwise flood memory with one string per packet.
_MAX_VIOLATIONS = 200


class InvariantChecker:
    """Datapath invariant observer (byte conservation, no-dup/no-reorder,
    ownership uniqueness).  One instance watches one CoreEngine."""

    def __init__(self) -> None:
        self.violations: List[str] = []
        #: flow uid -> count of DATA nqes emitted by a ServiceLib.
        self._emitted_seqs: Dict[int, int] = {}
        #: flow uid -> next rx_seq CoreEngine must forward.
        self._next_forward: Dict[int, int] = {}
        #: flow uid -> bytes emitted / forwarded (conservation ledger).
        self._emitted_bytes: Dict[int, int] = {}
        self._forwarded_bytes: Dict[int, int] = {}
        #: Flows whose EOF was seen while DATA nqes were still in flight.
        self._eof_pending: Set[int] = set()
        #: Running totals over the settled flows, for :meth:`report`.
        self._settled_flows = 0
        self._settled_bytes = 0
        self._coreengines: list = []
        self._regions: list = []

    # -- wiring -------------------------------------------------------------
    def install(self, coreengine) -> None:
        """Attach to a CoreEngine and all its current NSMs' ServiceLibs.

        NSMs attached *after* install pick the checker up automatically:
        ``CoreEngine.attach_nsm`` copies ``invariant_checker`` onto each
        new ServiceLib.
        """
        coreengine.invariant_checker = self
        for queues in coreengine._nsms.values():
            queues.servicelib.invariants = self
        self._coreengines.append(coreengine)

    def watch_region(self, name: str, region) -> None:
        """Track a huge-page region for :meth:`audit` accounting checks."""
        self._regions.append((name, region))

    # -- datapath hooks -----------------------------------------------------
    def on_data_emitted(self, uid: int, seq: int, nbytes: int) -> None:
        """A ServiceLib pushed receive-path DATA ``seq`` for flow ``uid``."""
        expected = self._emitted_seqs.get(uid, 0)
        if seq != expected:
            self._violate(
                f"flow {uid}: emitted seq {seq}, expected {expected} "
                f"(ServiceLib-side dup or skip)"
            )
        self._emitted_seqs[uid] = max(expected, seq + 1)
        self._emitted_bytes[uid] = self._emitted_bytes.get(uid, 0) + nbytes

    def on_data_forwarded(self, uid: int, seq: int, nbytes: int) -> None:
        """CoreEngine forwarded receive-path DATA ``seq`` to the guest."""
        emitted = self._emitted_seqs.get(uid)
        if emitted is None or seq >= emitted:
            self._violate(
                f"flow {uid}: forwarded seq {seq} that was never emitted"
            )
        expected = self._next_forward.get(uid, 0)
        if seq < expected:
            self._violate(f"flow {uid}: duplicate delivery of seq {seq}")
        elif seq > expected:
            self._violate(
                f"flow {uid}: gap/reorder — forwarded seq {seq}, "
                f"expected {expected}"
            )
        forwarded = self._next_forward[uid] = max(expected, seq + 1)
        self._forwarded_bytes[uid] = self._forwarded_bytes.get(uid, 0) + nbytes
        if uid in self._eof_pending and forwarded >= emitted:
            # The EOF overtook this nqe (a migration): the flow is done.
            self._eof_pending.discard(uid)
            self._settle(uid)

    def on_eof(self, uid: int) -> None:
        """A ServiceLib emitted flow ``uid``'s EOF: it emits no more DATA.

        The flow settles once every DATA nqe it emitted has been
        forwarded: now, or when the last one arrives.
        """
        if self._next_forward.get(uid, 0) >= self._emitted_seqs.get(uid, 0):
            self._settle(uid)
        else:
            self._eof_pending.add(uid)

    def _settle(self, uid: int) -> None:
        """Check flow ``uid``'s conservation and drop all of its state."""
        if self._emitted_seqs.pop(uid, None) is not None:
            self._settled_flows += 1
        self._next_forward.pop(uid, None)
        emitted = self._emitted_bytes.pop(uid, 0)
        fwd = self._forwarded_bytes.pop(uid, 0)
        self._settled_bytes += fwd
        if fwd > emitted:
            self._violate(_overdrawn(uid, fwd, emitted))

    # -- structural audit ---------------------------------------------------
    def audit(self) -> List[str]:
        """Run the end-state structural checks; returns new violations.

        Call when the simulation has quiesced: per-flow forwarded bytes of
        every open flow (settled flows were checked as they settled) must
        never exceed emitted bytes (conservation — the switch cannot
        deliver bytes no stack produced), every connection table must
        pass its ownership audit, and every watched huge-page region must
        be within ``[0, capacity]``.
        """
        found: List[str] = []
        for uid, fwd in self._forwarded_bytes.items():
            emitted = self._emitted_bytes.get(uid, 0)
            if fwd > emitted:
                found.append(_overdrawn(uid, fwd, emitted))
        for ce in self._coreengines:
            found.extend(ce.table.audit())
        for name, region in self._regions:
            if region.used < 0:
                found.append(
                    f"region {name}: negative usage {region.used}B (double free)"
                )
            if region.used > region.capacity:
                found.append(
                    f"region {name}: used {region.used}B exceeds capacity "
                    f"{region.capacity}B (descriptor owned twice)"
                )
        for v in found:
            self._violate(v)
        return found

    # -- reporting ----------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        if not self.violations:
            return (
                f"invariants: OK ({self._flows()} flows, "
                f"{self._settled_bytes + sum(self._forwarded_bytes.values())}"
                f" bytes forwarded)"
            )
        lines = [f"invariants: {len(self.violations)} violation(s)"]
        lines.extend(f"  {v}" for v in self.violations[:20])
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)

    def _flows(self) -> int:
        """Flows that emitted DATA, settled or open."""
        return self._settled_flows + len(self._emitted_seqs)

    def _violate(self, message: str) -> None:
        if len(self.violations) < _MAX_VIOLATIONS:
            self.violations.append(message)

    def __repr__(self) -> str:
        return (
            f"<InvariantChecker flows={self._flows()} "
            f"violations={len(self.violations)}>"
        )


def _overdrawn(uid: int, fwd: int, emitted: int) -> str:
    return f"flow {uid}: forwarded {fwd}B but only {emitted}B emitted"
