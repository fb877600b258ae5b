"""Deterministic scale-out execution: run independent sweeps on cores."""

from .runner import (
    ParallelRunner,
    RunFailure,
    RunResult,
    RunSpec,
    derive_seed,
    parallel_map,
)

__all__ = [
    "ParallelRunner",
    "RunFailure",
    "RunResult",
    "RunSpec",
    "derive_seed",
    "parallel_map",
]
