"""Benchmark harness conventions.

Every benchmark regenerates one of the paper's tables/figures (or one of
the DESIGN.md ablations) on the simulated testbed, prints the rows the
paper reports and asserts the paper's shape on them.  The printed tables
are the scientific output — see EXPERIMENTS.md for the comparison against
the published numbers.  Host time is measured by the ledger
(``benchmarks/ledger``), not here.

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks -s
"""


def emit(title: str, table: str) -> None:
    """Print a regenerated table under a clear banner."""
    banner = "=" * 72
    print(f"\n{banner}\n{title}\n{banner}\n{table}\n")
