"""Experiment harnesses regenerating every table and figure in the paper.

Each harness module declares one
:class:`~repro.experiments.registry.Experiment`: the points it measures,
the function that measures one, and the
:class:`~repro.experiments.table.Table` (or report) the values fill.
:data:`~repro.experiments.registry.ENTRIES` names them all (Table 1, the
§4.2 microbenchmarks, Figures 4 and 5, the eight §5 ablations, and the
chaos, migration and stack-swap harnesses), and the ``repro`` CLI is
built from it; a new experiment is one module and one entry there.
:mod:`.common` holds the LAN, WAN and cluster testbeds they build on.

The package re-exports nothing: import a harness from its module
(``from repro.experiments.figure4 import run_figure4``), so a run loads
only the harness it runs.
"""
