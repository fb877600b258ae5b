"""CoreEngine's connection mapping table.

Maps ``<VM ID, fd>`` to ``<NSM ID, cID>`` and back (Figure 3).  CoreEngine
assigns fds on behalf of VMs (for both socket() calls and incoming accepts)
and cIDs on behalf of NSMs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["ConnectionTable"]

VmKey = Tuple[int, int]  # (vm_id, fd)
NsmKey = Tuple[int, int]  # (nsm_id, cid)


class ConnectionTable:
    """Bidirectional <VM ID, fd> <-> <NSM ID, cID> map with ID allocation.

    Per-VM and per-NSM membership indexes keep ``connections_of_*`` (and
    therefore NSM failover eviction) O(own connections) instead of
    scanning the whole table — the table is shared by every tenant on
    the host, so at 10k+ connections a full scan per eviction hurts.
    """

    def __init__(self) -> None:
        self._vm_to_nsm: Dict[VmKey, NsmKey] = {}
        self._nsm_to_vm: Dict[NsmKey, VmKey] = {}
        self._next_fd: Dict[int, int] = {}
        self._next_cid: Dict[int, int] = {}
        # Insertion-ordered membership (dict-as-ordered-set), so eviction
        # notification order is identical to the old full-table scan.
        self._by_vm: Dict[int, Dict[VmKey, None]] = {}
        self._by_nsm: Dict[int, Dict[NsmKey, None]] = {}
        #: Which stack family serves each mapping — connections are keyed
        #: by (tenant, family) now that tenants pick protocol stacks.
        self._family: Dict[VmKey, str] = {}
        #: Migration aliases: the *old* <NSM ID, cID> of a re-pointed
        #: mapping -> its <VM ID, fd>.  Late completions issued by the
        #: source NSM before the freeze still resolve through here;
        #: receive-path traffic matching an alias identifies a stale
        #: (fenced) source.
        self._alias: Dict[NsmKey, VmKey] = {}

    def __len__(self) -> int:
        return len(self._vm_to_nsm)

    # -- allocation ---------------------------------------------------------
    def allocate_fd(self, vm_id: int) -> int:
        """New guest-side fd (CoreEngine assigns these immediately, §3.2)."""
        fd = self._next_fd.get(vm_id, 3)
        self._next_fd[vm_id] = fd + 1
        return fd

    def allocate_cid(self, nsm_id: int) -> int:
        cid = self._next_cid.get(nsm_id, 1)
        self._next_cid[nsm_id] = cid + 1
        return cid

    # -- mapping ---------------------------------------------------------------
    def insert(
        self, vm_id: int, fd: int, nsm_id: int, cid: int, family: str = "tcp"
    ) -> None:
        vm_key, nsm_key = (vm_id, fd), (nsm_id, cid)
        if vm_key in self._vm_to_nsm:
            raise KeyError(f"duplicate mapping for VM{vm_id} fd{fd}")
        if nsm_key in self._nsm_to_vm:
            raise KeyError(f"duplicate mapping for NSM{nsm_id} cid{cid}")
        self._vm_to_nsm[vm_key] = nsm_key
        self._nsm_to_vm[nsm_key] = vm_key
        self._by_vm.setdefault(vm_id, {})[vm_key] = None
        self._by_nsm.setdefault(nsm_id, {})[nsm_key] = None
        self._family[vm_key] = family

    def to_nsm(self, vm_id: int, fd: int) -> Optional[NsmKey]:
        return self._vm_to_nsm.get((vm_id, fd))

    def to_vm(self, nsm_id: int, cid: int) -> Optional[VmKey]:
        return self._nsm_to_vm.get((nsm_id, cid))

    def remove_by_vm(self, vm_id: int, fd: int) -> None:
        vm_key = (vm_id, fd)
        nsm_key = self._vm_to_nsm.pop(vm_key, None)
        if nsm_key is not None:
            self._nsm_to_vm.pop(nsm_key, None)
            self._unindex(vm_key, nsm_key)

    def _unindex(self, vm_key: VmKey, nsm_key: NsmKey) -> None:
        members = self._by_vm.get(vm_key[0])
        if members is not None:
            members.pop(vm_key, None)
        members = self._by_nsm.get(nsm_key[0])
        if members is not None:
            members.pop(nsm_key, None)
        self._family.pop(vm_key, None)

    def evict_nsm(self, nsm_id: int) -> list[Tuple[VmKey, NsmKey]]:
        """Drop every mapping served by ``nsm_id`` (NSM failover).

        Returns the removed ``((vm_id, fd), (nsm_id, cid))`` pairs so
        CoreEngine can notify each affected guest socket.
        """
        pairs = []
        for nsm_key in self.connections_of_nsm(nsm_id):
            vm_key = self._nsm_to_vm.pop(nsm_key)
            self._vm_to_nsm.pop(vm_key, None)
            self._unindex(vm_key, nsm_key)
            pairs.append((vm_key, nsm_key))
        return pairs

    def connections_of_vm(
        self, vm_id: int, family: Optional[str] = None
    ) -> list[VmKey]:
        keys = self._by_vm.get(vm_id, ())
        if family is None:
            return list(keys)
        return [key for key in keys if self._family.get(key) == family]

    def connections_of_nsm(self, nsm_id: int) -> list[NsmKey]:
        return list(self._by_nsm.get(nsm_id, ()))

    # -- migration re-pointing ----------------------------------------------
    def repoint(self, vm_id: int, fd: int, nsm_id: int, cid: int) -> NsmKey:
        """Remap one live connection to a new ``<NSM ID, cID>``.

        The old NSM-side key is remembered as an *alias* so completions
        the source NSM emitted before the freeze still resolve to the
        guest socket, and so stale source traffic is recognizable.  The
        migration coordinator calls this for every connection of a
        (tenant, family) group within one simulated instant, which makes
        the group re-point atomic as far as the datapath can observe.
        Returns the old NSM key.
        """
        vm_key = (vm_id, fd)
        old_nsm_key = self._vm_to_nsm.get(vm_key)
        if old_nsm_key is None:
            raise KeyError(f"no mapping for VM{vm_id} fd{fd}")
        new_nsm_key = (nsm_id, cid)
        if new_nsm_key in self._nsm_to_vm:
            raise KeyError(f"duplicate mapping for NSM{nsm_id} cid{cid}")
        self._nsm_to_vm.pop(old_nsm_key, None)
        members = self._by_nsm.get(old_nsm_key[0])
        if members is not None:
            members.pop(old_nsm_key, None)
        self._vm_to_nsm[vm_key] = new_nsm_key
        self._nsm_to_vm[new_nsm_key] = vm_key
        self._by_nsm.setdefault(nsm_id, {})[new_nsm_key] = None
        self._alias[old_nsm_key] = vm_key
        return old_nsm_key

    def alias_to_vm(self, nsm_id: int, cid: int) -> Optional[VmKey]:
        """Resolve a re-pointed connection's *old* NSM key, if aliased."""
        return self._alias.get((nsm_id, cid))

    def drop_alias(self, nsm_id: int, cid: int) -> None:
        self._alias.pop((nsm_id, cid), None)

    def audit(self) -> list[str]:
        """Ownership-uniqueness self-check (invariant checker hook).

        Returns human-readable violations: the two direction maps must be
        exact inverses, membership indexes must agree with them, and no
        alias may collide with a live NSM-side key (two NSMs claiming one
        cID space — the split-brain signature).
        """
        problems: list[str] = []
        for vm_key, nsm_key in self._vm_to_nsm.items():
            if self._nsm_to_vm.get(nsm_key) != vm_key:
                problems.append(f"forward {vm_key}->{nsm_key} has no inverse")
        for nsm_key, vm_key in self._nsm_to_vm.items():
            if self._vm_to_nsm.get(vm_key) != nsm_key:
                problems.append(f"inverse {nsm_key}->{vm_key} has no forward")
            members = self._by_nsm.get(nsm_key[0], {})
            if nsm_key not in members:
                problems.append(f"{nsm_key} missing from NSM index")
        for nsm_key in self._alias:
            if nsm_key in self._nsm_to_vm:
                problems.append(
                    f"alias {nsm_key} collides with a live mapping "
                    "(two NSMs claim one cID)"
                )
        return problems
