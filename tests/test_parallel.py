"""repro.parallel: deterministic fan-out of independent simulation runs.

The hard guarantee under test: ``jobs=N`` produces results bit-identical
to ``jobs=1`` (the inline reference path), because every run re-derives
its own seed and runs its own simulator — workers share nothing.  Plus
the failure-isolation contract: one crashed or raising run becomes a
typed error in its slot, and the rest of the sweep still completes.
"""

import dataclasses
import os

import pytest

from repro.parallel import (
    ParallelRunner,
    RunFailure,
    RunSpec,
    derive_seed,
    parallel_map,
)


# Worker functions must be module-level (picklable by reference).
def _square(x):
    return x * x


def _raise_value_error(x):
    raise ValueError(f"boom {x}")


def _hard_exit(_x):
    os._exit(42)


def _seeded_tuple(seed):
    import random

    rng = random.Random(seed)
    return tuple(rng.random() for _ in range(4))


# ---------------------------------------------------------------- seeds --
def test_derive_seed_is_deterministic_and_distinct():
    seeds = [derive_seed(7, i) for i in range(64)]
    assert seeds == [derive_seed(7, i) for i in range(64)]
    assert len(set(seeds)) == 64
    # Neighbouring bases must not collide index-for-index either.
    other = [derive_seed(8, i) for i in range(64)]
    assert not set(seeds) & set(other)


# ------------------------------------------------------------ bit-identity --
def test_parallel_map_matches_inline():
    args = [(i,) for i in range(10)]
    serial = parallel_map(_square, args, jobs=1)
    fanned = parallel_map(_square, args, jobs=4)
    assert serial == fanned == [i * i for i in range(10)]


def test_parallel_map_seeded_runs_bit_identical():
    args = [(derive_seed(123, i),) for i in range(8)]
    serial = parallel_map(_seeded_tuple, args, jobs=1)
    fanned = parallel_map(_seeded_tuple, args, jobs=3)
    assert serial == fanned


# -------------------------------------------------------- failure isolation --
def test_runner_isolates_raising_run():
    runner = ParallelRunner(jobs=2)
    specs = [
        RunSpec(key="ok", fn=_square, args=(3,)),
        RunSpec(key="bad", fn=_raise_value_error, args=(1,)),
        RunSpec(key="also-ok", fn=_square, args=(4,)),
    ]
    results = {r.key: r for r in runner.run(specs)}
    assert results["ok"].value == 9
    assert results["also-ok"].value == 16
    failure = results["bad"].error
    assert isinstance(failure, RunFailure)
    assert failure.kind == "ValueError"
    assert "boom" in failure.message
    assert "raise ValueError" in failure.traceback


def test_runner_isolates_crashed_worker():
    runner = ParallelRunner(jobs=2)
    specs = [
        RunSpec(key="dead", fn=_hard_exit, args=(0,)),
        RunSpec(key="alive", fn=_square, args=(5,)),
    ]
    results = {r.key: r for r in runner.run(specs)}
    assert results["alive"].value == 25
    failure = results["dead"].error
    assert isinstance(failure, RunFailure)
    assert failure.kind == "worker-crashed"
    assert "42" in failure.message


def test_parallel_map_raises_on_failure():
    with pytest.raises(RuntimeError, match="boom"):
        parallel_map(_raise_value_error, [(1,)], jobs=2)


def test_inline_jobs1_does_not_fork():
    # jobs=1 is the reference semantics: same process, same interpreter.
    runner = ParallelRunner(jobs=1)
    pid_spec = RunSpec(key="pid", fn=os.getpid)
    (result,) = runner.run([pid_spec])
    assert result.value == os.getpid()


# ------------------------------------------------- experiment-level identity --
def test_chaos_fuzz_parallel_matches_serial():
    """4-way parallel chaos fuzz equals the serial sweep run-for-run."""
    from repro.experiments.chaos import run_chaos_fuzz

    kwargs = dict(count=4, base_seed=11, flows=2, duration=0.05, faults=2)
    serial = run_chaos_fuzz(jobs=1, **kwargs)
    fanned = run_chaos_fuzz(jobs=4, **kwargs)
    assert [r.key for r in serial] == [r.key for r in fanned]
    for a, b in zip(serial, fanned):
        assert a.error is None, a.error
        assert b.error is None, b.error
        assert dataclasses.asdict(a.value) == dataclasses.asdict(b.value)


def test_figure4_parallel_matches_serial():
    from repro.experiments.figure4 import run_figure4

    serial = run_figure4(flow_counts=(1,), duration=0.05, warmup=0.01, jobs=1)
    fanned = run_figure4(flow_counts=(1,), duration=0.05, warmup=0.01, jobs=2)
    assert serial.rows == fanned.rows


# ------------------------------------------------------------- worker reuse --
# ``jobs > 1`` is one policy: ``jobs`` long-lived workers, each executing
# many runs.  These pin what reuse must not cost.
def _next_nqe_token(_index):
    from repro.netkernel.nqe import Nqe, NqeOp

    return (Nqe(NqeOp.SOCKET).token, os.getpid())


def _pid_or_raise(index):
    if index == 1:
        raise ValueError(f"boom {index}")
    return os.getpid()


def test_persistent_pool_matches_fork_pool():
    """Twelve runs over three reused workers merge, in spec order, to
    exactly the inline (``jobs=1``) results."""
    args = [(i,) for i in range(12)]
    inline = parallel_map(_square, args, jobs=1)
    pooled = parallel_map(_square, args, jobs=3)
    assert inline == pooled == [i * i for i in range(12)]


def test_persistent_pool_seeded_runs_bit_identical():
    """Reused workers must reset run-scoped state between runs: every
    run's first nqe token is 1 however many runs its worker already
    executed, as it is inline."""
    args = [(i,) for i in range(8)]
    serial = parallel_map(_next_nqe_token, args, jobs=1)
    pooled = parallel_map(_next_nqe_token, args, jobs=2)
    assert [token for token, _pid in serial] == [1] * 8
    assert [token for token, _pid in pooled] == [1] * 8
    assert len({pid for _token, pid in pooled}) <= 2  # workers were reused


def test_persistent_pool_isolates_raising_run():
    """A raising run fails its own slot and does not cost its worker: the
    sweep finishes on the ``jobs`` processes it started with."""
    runner = ParallelRunner(jobs=2)
    specs = [RunSpec(key=f"run{i}", fn=_pid_or_raise, args=(i,)) for i in range(6)]
    results = runner.run(specs)
    assert results[1].error.kind == "ValueError"
    pids = {r.value for r in results if r.ok}
    assert len([r for r in results if r.ok]) == 5
    assert len(pids) <= 2 and os.getpid() not in pids


def test_persistent_pool_respawns_after_crash():
    """A dying worker fails only its own run; the pool refills and the
    remaining queue still completes."""
    runner = ParallelRunner(jobs=2)
    specs = [RunSpec(key=f"ok{i}", fn=_square, args=(i,)) for i in range(4)]
    specs.insert(1, RunSpec(key="dead", fn=_hard_exit, args=(0,)))
    results = {r.key: r for r in runner.run(specs)}
    failure = results["dead"].error
    assert isinstance(failure, RunFailure)
    assert failure.kind == "worker-crashed"
    for i in range(4):
        assert results[f"ok{i}"].value == i * i
