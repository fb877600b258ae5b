"""CLI: parsing, dispatch, and one real regeneration."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "figure4" in out and "ablation" in out


def test_table1_command_prints_table(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "809" in out and "8ns" in out


def test_micro_command(capsys):
    assert main(["micro"]) == 0
    assert "12.0 ns" in capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_ablation():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["ablation", "nonsense"])


@pytest.mark.parametrize(
    "argv",
    [
        ["figure4", "--shards", "2"],
        ["figure4", "--shard-plan", "plane"],
        ["figure4", "--ring-latency", "40e-6"],
        ["figure4", "--adaptive"],
        ["figure4", "--shard-executor", "process"],
        ["figure5", "--shards", "2"],
        ["figure5", "--shard-plan", "plane"],
        ["bench", "datapath", "--shards", "2"],
        ["bench", "scale", "--no-sharded"],
        ["trace", "figure4", "--shards", "2"],
        ["trace", "figure4", "--adaptive"],
    ],
)
def test_intra_run_sharding_flags_are_gone(argv):
    """One simulator per run: the flags that selected anything else are
    argparse errors."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "datapath"],
        ["bench", "scale", "--quick"],
        ["bench", "scale", "--repeats", "2"],
    ],
)
def test_bench_datapath_and_its_flags_are_gone(argv):
    """Per-workload timing is the ledger's job (benchmarks/ledger/)."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "scale"],
        ["figure4", "--pool", "persistent"],
        ["figure4", "--fidelity", "fluid"],
        ["chaos", "--fuzz", "2", "--pool", "fork"],
    ],
)
def test_second_benchmark_system_and_its_options_are_gone(argv):
    """One benchmark system (the ledger), one worker-pool policy, two
    fidelities: the subcommand, flag and value that chose otherwise are
    usage errors."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "field",
    [
        "ring_hop_latency",
        "compact_conntable",
        "per_batch_ns",
        "per_nqe_ns",
        "guestlib_per_batch_ns",
        "guestlib_per_nqe_ns",
        "servicelib_per_batch_ns",
        "servicelib_per_nqe_ns",
        # The batched drain model went with its dial; the rest had one
        # value at every caller and became module constants or went.
        "batch_size",
        "op_retries",
        "op_backoff",
        "op_jitter_seed",
        "tenant_weights",
        "ring_capacity",
        "nqe_copy_ns",
        "heartbeat_grace",
        "tenant_cycle_s",
    ],
)
def test_coreengine_config_rejects_removed_fields(field):
    from repro.netkernel import CoreEngineConfig

    with pytest.raises(TypeError):
        CoreEngineConfig(**{field: None})


def test_coreengine_config_keeps_only_the_knobs_a_caller_turns():
    import dataclasses
    import importlib
    import inspect

    from repro.netkernel import CoreEngineConfig
    from repro.netkernel.queues import RingPump

    assert [f.name for f in dataclasses.fields(CoreEngineConfig)] == [
        "notify_mode",
        "priority_queues",
        "inline_rx_copy",
        "op_timeout",
        "heartbeat_interval",
        "heartbeat_miss",
        "tenant_quota_nqes",
    ]
    with pytest.raises(ImportError):
        importlib.import_module("repro.netkernel.batching")
    params = inspect.signature(RingPump).parameters
    assert "cost" in params
    assert not {"burst", "per_batch", "per_nqe"} & set(params)


@pytest.mark.parametrize("field", ["qos", "use_sriov", "stack_config"])
def test_nsm_spec_rejects_removed_fields(field):
    from repro.netkernel import NsmSpec

    with pytest.raises(TypeError):
        NsmSpec(**{field: None})


def test_drr_scheduling_and_its_knobs_are_gone():
    """QoS is the per-tenant rate cap: no DRR op scheduler, no policy
    object, no per-tenant weight."""
    import repro.netkernel
    from repro.experiments.common import make_lan_testbed
    from repro.netkernel import NsmSpec

    assert not hasattr(repro.netkernel, "DrrScheduler")
    assert not hasattr(repro.netkernel, "QosPolicy")
    hyp = make_lan_testbed().hypervisor_a
    nsm = hyp.boot_nsm(NsmSpec())
    with pytest.raises(TypeError):
        hyp.boot_netkernel_vm("t", nsm, qos_weight=2.0)
    with pytest.raises(TypeError):
        hyp.boot_legacy_vm("l", stack_config=None)


def test_calendar_queue_is_gone():
    """One scheduler (a heapq list in the Simulator): no second queue
    class to select or tune."""
    import importlib

    import repro.sim

    assert not hasattr(repro.sim, "CalendarQueue")
    with pytest.raises(ImportError):
        importlib.import_module("repro.sim.wheel")


def test_figure5_seed_argument():
    args = build_parser().parse_args(["figure5", "--seeds", "7", "8"])
    assert args.seeds == [7, 8]


def test_figure4_duration_argument():
    args = build_parser().parse_args(["figure4", "--duration", "0.2"])
    assert args.duration == 0.2


def test_trace_command_writes_chrome_trace(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    summary_out = tmp_path / "summary.json"
    assert main([
        "trace", "figure4",
        "--duration", "0.02",
        "--out", str(out),
        "--summary-out", str(summary_out),
    ]) == 0
    printed = capsys.readouterr().out
    assert "coreengine.switch_ns" in printed
    trace = json.loads(out.read_text())
    layers = {e["cat"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert {"guestlib", "queue", "coreengine", "servicelib", "tcp"} <= layers
    report = json.loads(summary_out.read_text())
    assert report["histograms_ns"]["coreengine.switch_ns"]["p99"] > 0


def test_trace_parser_defaults():
    args = build_parser().parse_args(["trace", "figure4"])
    assert args.out == "trace.json"
    assert args.sample == 1
    assert args.duration is None


@pytest.mark.parametrize("period", ["0", "-3"])
def test_trace_sample_below_one_is_a_usage_error(period):
    """--sample N is a 1-in-N period: N < 1 used to trace every span."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["trace", "figure4", "--sample", period])
    assert excinfo.value.code == 2


def test_trace_sample_one_means_every_span():
    args = build_parser().parse_args(["trace", "figure4", "--sample", "1"])
    assert args.sample == 1


def test_chaos_parser_defaults():
    args = build_parser().parse_args(["chaos"])
    assert args.seed == 7 and args.flows == 2 and not args.smoke


def test_chaos_smoke_command_passes(capsys):
    assert main(["chaos", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "chaos --smoke OK" in out
    assert "failover" in out


def test_chaos_random_plan_command(capsys):
    assert main(["chaos", "--seed", "3", "--duration", "0.15", "--faults", "2"]) == 0
    out = capsys.readouterr().out
    assert "fault plan: 2 fault(s), seed=3" in out
    assert "aggregate goodput" in out
