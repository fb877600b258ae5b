"""Every ``repro`` experiment by name: the one list the CLI is built from.

An entry names the harness module that declares the experiment, the line
``repro list`` prints for it and its command-line options; importing this
module imports no harness, so a run loads only the one it runs.  Each
harness module declares one :class:`Experiment`, ``EXPERIMENT``:

* ``points(**params)``: the runs, as ``(key, argument tuple)`` pairs (a
  :class:`UsageError` for parameters it cannot run: a usage error at the
  command line);
* ``measure(*args)``: one run (module level, so a worker can unpickle it);
* ``result(values, **params)``: the measured values, in point order, made
  into its result (a :class:`~repro.experiments.table.Table`, or a
  harness result that renders through one);
* optionally ``text`` (how the result prints, if not ``result.text()``)
  and ``check``: ``(label, failures)`` for a run that can fail, which
  prints ``<label> OK`` or exits with ``<label> FAILED: ...``.

One runner fans every experiment's points through
:func:`repro.parallel.parallel_map`, so ``--jobs N`` means the same thing
everywhere and ``jobs=N`` prints exactly what ``jobs=1`` prints.  A new
experiment is one module with an ``EXPERIMENT`` plus one entry here.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Entry", "Experiment", "ENTRIES", "UsageError", "ablations", "load"]

#: One command-line option: ``(flags, add_argument keywords)``.
Option = Tuple[Tuple[str, ...], Dict[str, Any]]


class UsageError(ValueError):
    """Parameters an experiment cannot run, raised by its ``points``."""


def _only_value(values: List[Any], **_params) -> Any:
    return values[0]


def _own_text(result, **_params) -> str:
    return result.text()


@dataclass(frozen=True)
class Experiment:
    points: Callable[..., List[Tuple[str, tuple]]]
    measure: Callable[..., Any]
    result: Callable[..., Any] = _only_value
    text: Callable[..., str] = _own_text
    check: Optional[Callable[..., Optional[Tuple[str, List[str]]]]] = None

    def _params(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``params`` with every default of ``points`` filled in."""
        bound = inspect.signature(self.points).bind(**params)
        bound.apply_defaults()
        return dict(bound.arguments)

    def run(self, jobs: int = 1, **params) -> Any:
        """Measure every point (``jobs`` workers) and build the result."""
        from ..parallel import parallel_map

        params = self._params(params)
        points = self.points(**params)
        values = parallel_map(
            self.measure,
            [args for _key, args in points],
            jobs=jobs,
            keys=[key for key, _args in points],
        )
        return self.result(values, **params)

    def report(self, jobs: int = 1, **params) -> str:
        """The printed report; exits nonzero when a check fails."""
        params = self._params(params)
        result = self.run(jobs, **params)
        text = self.text(result, **params)
        verdict = self.check(result, **params) if self.check is not None else None
        if verdict is None:
            return text
        label, failures = verdict
        if failures:
            print(text)
            raise SystemExit(f"{label} FAILED: " + "; ".join(failures))
        return f"{text}\n{label} OK"


@dataclass(frozen=True)
class Entry:
    #: The harness module under ``repro.experiments``.
    module: str
    #: What ``repro list`` says the experiment is (ablations share a line).
    summary: str = ""
    options: Sequence[Option] = ()
    #: A paper artifact's name: its ``--help`` line and its banner in
    #: ``repro all``.  Ablations and fault harnesses have none.
    title: Optional[str] = None


JOBS: Option = (
    ("--jobs",),
    dict(type=int, default=1, metavar="N",
         help="fan independent runs across N worker processes "
              "(results bit-identical to --jobs 1)"),
)
FIDELITY: Option = (
    ("--fidelity",),
    dict(choices=["packet", "auto"], default="packet",
         help="engine fidelity: packet (exact, default) or auto "
              "(fluid fast path with packet-accurate promotion)"),
)

#: ``repro <name>`` (``repro ablation <name>`` for an ``ablation_*``
#: module), in the order ``repro list`` and ``repro all`` go through them.
ENTRIES: Dict[str, Entry] = {
    "table1": Entry("table1", "Table 1: memory copy latency", title="Table 1"),
    "micro": Entry(
        "microbench", "§4.2: nqe copy cost + channel throughput",
        title="§4.2 microbenchmarks",
    ),
    "figure4": Entry(
        "figure4",
        "Figure 4: Cubic native vs Cubic NSM on 40 GbE",
        options=(
            (("--duration",), dict(type=float, default=0.35,
                                   help="seconds of simulated time per point")),
            FIDELITY,
            JOBS,
        ),
        title="Figure 4",
    ),
    "figure5": Entry(
        "figure5",
        "Figure 5: Windows VM + BBR NSM on the WAN path",
        options=(
            (("--duration",), dict(type=float, default=40.0)),
            (("--seeds",), dict(type=int, nargs="+", default=[1, 2, 3],
                                help="loss-process realizations to average")),
            FIDELITY,
            JOBS,
        ),
        title="Figure 5",
    ),
    "form": Entry("ablation_nsm_form"),
    "priority": Entry("ablation_priority"),
    "notify": Entry("ablation_notify"),
    "multiplex": Entry("ablation_multiplexing"),
    "containers": Entry("ablation_containers"),
    "qos": Entry("ablation_qos"),
    "fastpass": Entry("ablation_fastpass"),
    "connscale": Entry("ablation_connscale"),
    "chaos": Entry(
        "chaos",
        "figure4 workload under a seeded fault plan"
        " (NSM crash/failover, timeouts); --fuzz N for a sweep",
        options=(
            (("--smoke",), dict(action="store_true",
                                help="CI mode: scripted NSM crash; nonzero exit "
                                     "if any flow fails to recover")),
            (("--seed",), dict(type=int, default=7,
                               help="fault-plan seed (deterministic)")),
            (("--flows",), dict(type=int, default=2, help="concurrent bulk flows")),
            (("--faults",), dict(type=int, default=6,
                                 help="faults drawn into the random plan")),
            (("--duration",), dict(type=float, default=0.35,
                                   help="seconds of simulated time")),
            (("--fuzz",), dict(type=int, default=0, metavar="N",
                               help="run a sweep of N seeded random fault plans "
                                    "(seeds derived from --seed); nonzero exit "
                                    "if any run crashes")),
            JOBS,
        ),
    ),
    "stackswap": Entry(
        "stackswap",
        "same guest app on TCP vs QUIC NSMs (0-RTT setup"
        " latency) + hostile-tenant isolation on a shared NSM",
        options=(
            (("--quick",), dict(action="store_true",
                                help="CI mode: fewer flows, shorter runs")),
            (("--flows",), dict(type=int, default=20,
                                help="measured short flows per stack family")),
            (("--duration",), dict(type=float, default=0.15,
                                   help="seconds of simulated time per "
                                        "isolation run")),
        ),
    ),
    "migrate": Entry(
        "migration",
        "live NSM migration mid-transfer (zero-loss handoff);"
        " --chaos sweeps faults across every phase boundary",
        options=(
            (("--smoke",), dict(action="store_true",
                                help="CI mode: full TCP boundary sweep plus an "
                                     "abbreviated QUIC sweep; nonzero exit on "
                                     "any lost byte, guest error or invariant "
                                     "violation")),
            (("--chaos",), dict(action="store_true",
                                help="inject every migration fault kind at "
                                     "every phase boundary (pilot-learned "
                                     "times)")),
            (("--family",), dict(choices=["tcp", "quic"], default="tcp",
                                 help="protocol stack family to migrate")),
            (("--flows",), dict(type=int, default=2,
                                help="concurrent finite bulk flows")),
            (("--total-mb",), dict(type=int, default=8, dest="total_mb",
                                   help="byte budget per flow (MB) — zero-loss "
                                        "is checked against this exact count")),
        ),
    ),
}


def ablations() -> List[str]:
    """The ``repro ablation`` names, in registry order."""
    return [name for name, entry in ENTRIES.items()
            if entry.module.startswith("ablation_")]


def load(name: str) -> Experiment:
    """Import ``name``'s harness module (only it) and return its experiment."""
    module = importlib.import_module(f"{__package__}.{ENTRIES[name].module}")
    return module.EXPERIMENT
