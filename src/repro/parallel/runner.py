"""Deterministic multiprocessing executor for independent simulation runs.

Every experiment in this repository is a pure function of its arguments:
it builds a fresh :class:`~repro.sim.Simulator`, runs it, and returns
plain data.  That makes sweeps (figure points, ablation grids, chaos fuzz
seeds, bench repetitions) embarrassingly parallel — *if* the execution
layer preserves two properties the test suite enforces:

* **Bit-identity** — ``jobs=N`` merges to exactly what ``jobs=1``
  produces for the same specs.  Each run builds its own simulator, and
  every run (inline or in a worker) starts from
  :func:`repro.runstate.reset_run_ids`, so a run is a pure function of
  its spec rather than of process history — module-global id counters
  (NSM ids, packet ids, nqe tokens) would otherwise drift apart between
  the serial and forked schedules.
* **Failure isolation** — one run raising (or its worker dying outright)
  yields a typed :class:`RunFailure` in that run's slot; the rest of the
  sweep completes.

``jobs > 1`` runs ``jobs`` long-lived workers that each execute many
runs, calling :func:`~repro.runstate.reset_run_ids` before every one —
all the run-to-run isolation pure-function runs need, which is also why
no module may keep a cache that outlives a run.  This amortizes process
startup + module import over the sweep.  A worker that dies outright —
``os._exit``, a segfault in an extension, the OOM killer — fails only the
run it was executing and is respawned.  (Why not a process per run:
docs/PERFORMANCE.md §3, "One pool policy".)

Results come back pickled over the worker's pipe.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "RunSpec",
    "RunFailure",
    "RunResult",
    "ParallelRunner",
    "derive_seed",
    "parallel_map",
]


def derive_seed(base_seed: int, index: int) -> int:
    """Derive run ``index``'s seed from a sweep's base seed.

    Deterministic, collision-free for any realistic sweep width, and
    *not* simply ``base + index`` so that neighbouring sweeps (base 7 and
    base 8) do not share almost all of their runs.
    """
    return (base_seed * 1_000_003 + index * 7_919) % (2**31 - 1)


@dataclass(frozen=True)
class RunSpec:
    """One unit of work: ``fn(*args)`` in a worker.

    ``fn`` must be picklable by reference (a module-level callable) so
    spawn-based platforms work too; forked workers don't care.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple = ()


@dataclass(frozen=True)
class RunFailure:
    """Typed description of why a run produced no value."""

    kind: str  # exception class name, or "worker-crashed"
    message: str
    traceback: str = ""

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class RunResult:
    """Outcome slot for one :class:`RunSpec`, in spec order."""

    key: str
    value: Any = None
    error: Optional[RunFailure] = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


ProgressFn = Callable[[int, int, RunResult], None]


def _pool_worker_main(conn) -> None:
    """Pool worker: loop over (fn, args) jobs until EOF."""
    from ..runstate import reset_run_ids

    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:  # orderly shutdown
            return
        fn, args = job
        reset_run_ids()
        started = time.perf_counter()
        try:
            value = fn(*args)
        except BaseException as exc:  # noqa: BLE001 — isolation is the point
            conn.send(
                (
                    "err",
                    RunFailure(type(exc).__name__, str(exc), traceback.format_exc()),
                    time.perf_counter() - started,
                )
            )
            continue
        wall = time.perf_counter() - started
        try:
            conn.send(("ok", value, wall))
        except Exception as exc:
            conn.send(
                (
                    "err",
                    RunFailure(type(exc).__name__, f"result not sendable: {exc}"),
                    wall,
                )
            )


class ParallelRunner:
    """Fan :class:`RunSpec`\\ s across worker processes, merge in order."""

    def __init__(self, jobs: int = 1, progress: Optional[ProgressFn] = None) -> None:
        self.jobs = max(1, jobs)
        self.progress = progress
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    # -- public ---------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute every spec; results align 1:1 with ``specs``."""
        if self.jobs == 1:
            return self._run_inline(specs)
        return self._run_pooled(specs)

    # -- inline (the reference semantics) --------------------------------------
    def _run_inline(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        from ..runstate import reset_run_ids

        results: List[RunResult] = []
        for done, spec in enumerate(specs, start=1):
            reset_run_ids()
            started = time.perf_counter()
            try:
                value = spec.fn(*spec.args)
                result = RunResult(
                    spec.key, value=value, wall_s=time.perf_counter() - started
                )
            except BaseException as exc:  # noqa: BLE001
                result = RunResult(
                    spec.key,
                    error=RunFailure(
                        type(exc).__name__, str(exc), traceback.format_exc()
                    ),
                    wall_s=time.perf_counter() - started,
                )
            results.append(result)
            if self.progress is not None:
                self.progress(done, len(specs), result)
        return results

    # -- worker pool -----------------------------------------------------------
    def _spawn_pool_worker(self):
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child,),
            name="repro-pool-worker",
        )
        proc.start()
        child.close()
        return parent, proc

    def _run_pooled(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        results: List[Optional[RunResult]] = [None] * len(specs)
        pending = list(enumerate(specs))
        workers: Dict[Any, Tuple[Any, Optional[int]]] = {}  # conn -> (proc, index)
        done = 0

        for _ in range(min(self.jobs, max(1, len(specs)))):
            conn, proc = self._spawn_pool_worker()
            workers[conn] = (proc, None)

        def assign() -> None:
            for conn, (proc, index) in list(workers.items()):
                if index is None and pending:
                    next_index, spec = pending.pop(0)
                    conn.send((spec.fn, spec.args))
                    workers[conn] = (proc, next_index)

        try:
            assign()
            while any(index is not None for _proc, index in workers.values()):
                busy = [c for c, (_p, index) in workers.items() if index is not None]
                for conn in multiprocessing.connection.wait(busy):
                    proc, index = workers[conn]
                    spec = specs[index]
                    try:
                        status, payload, wall = conn.recv()
                    except EOFError:
                        # The worker died mid-run: fail this run only,
                        # replace the worker, keep the sweep going.
                        conn.close()
                        proc.join()
                        del workers[conn]
                        result = RunResult(
                            spec.key,
                            error=RunFailure(
                                "worker-crashed",
                                f"pool worker exited with code {proc.exitcode} "
                                f"while running {spec.key!r}",
                            ),
                        )
                        if pending:
                            new_conn, new_proc = self._spawn_pool_worker()
                            workers[new_conn] = (new_proc, None)
                    else:
                        workers[conn] = (proc, None)
                        if status == "ok":
                            result = RunResult(spec.key, value=payload, wall_s=wall)
                        else:
                            result = RunResult(spec.key, error=payload, wall_s=wall)
                    results[index] = result
                    done += 1
                    if self.progress is not None:
                        self.progress(done, len(specs), result)
                assign()
        finally:
            for conn, (proc, _index) in workers.items():
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                conn.close()
            for _conn, (proc, _index) in workers.items():
                proc.join(timeout=10.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join()
        return results  # type: ignore[return-value]


def parallel_map(
    fn: Callable[..., Any],
    argtuples: Sequence[Tuple],
    jobs: int = 1,
    keys: Optional[Sequence[str]] = None,
) -> List[Any]:
    """Map ``fn`` over argument tuples; raise on the first failed run.

    The strict-raise merge suits experiment grids where any failure
    invalidates the figure; sweeps that tolerate failures (chaos fuzz)
    use :class:`ParallelRunner` directly and inspect ``error`` slots.
    """
    specs = [
        RunSpec(
            key=keys[i] if keys is not None else f"{fn.__name__}[{i}]",
            fn=fn,
            args=tuple(args),
        )
        for i, args in enumerate(argtuples)
    ]
    outcomes = ParallelRunner(jobs=jobs).run(specs)
    for outcome in outcomes:
        if outcome.error is not None:
            raise RuntimeError(
                f"parallel run {outcome.key!r} failed — {outcome.error}\n"
                f"{outcome.error.traceback}"
            )
    return [outcome.value for outcome in outcomes]
