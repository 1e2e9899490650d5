"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench/tests"""

import json
import sys
from pathlib import Path

import pytest

import measure
import run
import tracing
import workloads


def test_tail_leaves_ten_samples_beyond():
    latencies = [float(i) for i in range(1, 61)]  # 60 samples
    pct, value, n = measure.tail(latencies)
    assert (pct, n) == (83, 60)
    assert value == 50.0
    assert sum(x > value for x in latencies) == 10


@pytest.mark.parametrize("n", [20, 21, 37, 100, 1000])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    latencies = [float(i) for i in range(n)]
    pct, value, _ = measure.tail(latencies)
    assert sum(x > value for x in latencies) >= 10
    next_rank = -(-(pct + 1) * n // 100)  # nearest rank of the next percentile
    assert n - next_rank < 10


def test_tail_falls_back_to_median_when_too_few():
    assert measure.tail([3.0, 1.0, 2.0]) == (50, 2.0, 3)
    # 19 samples: leaving ten beyond would land below the median
    assert measure.tail([float(i) for i in range(19)]) == (50, 9.0, 19)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 1.0

    def top():
        clock.now += 3.0
        traced_middle()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("top", top)()

    table = tracing.summarize(tracer.spans)
    assert table["top"]["busy_s"] == 9.0
    assert table["top"]["self_s"] == 3.0
    assert table["middle"]["self_s"] == 2.0
    assert table["leaf"]["calls"] == 2
    assert table["leaf"]["self_s"] == 4.0
    assert sum(tracing.self_times(tracer.spans)) == 9.0


def test_busy_time_counts_a_recursive_name_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def outer(depth):
        clock.now += 1.0
        if depth:
            traced(depth - 1)

    traced = tracer.wrap("f", outer)
    traced(2)
    assert tracing.busy_times(tracer.spans) == {"f": 3.0}


def test_install_reaches_reimported_names_and_nested_globals():
    import hsckit
    import hsckit.cli
    import hsckit.extremize

    tensor = hsckit.constant_hsc_tensor(2, -1.0)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert hsckit.cli.validate is hsckit.curvature.validate is hsckit.validate
        hsckit.extremize_hsc(tensor, hsckit.ExtremizeConfig(starts=4, oracle_samples=10))
        hsckit.positive_roots.__wrapped__  # wrapped in the package namespace too
    finally:
        uninstall()
    assert not hasattr(hsckit.extremize.sample_hsc, "__wrapped__")
    names = {s[0]: s[3] for s in tracer.spans}
    sample = next(s for s in tracer.spans if s[3] == "extremize.sample_hsc")
    assert names[sample[1]] == "extremize.extremize_hsc"


def test_cli_child_exit_zero_with_empty_stdout_fails(tmp_path):
    stub = tmp_path / "stub.py"
    stub.write_text(
        "import json, sys, time\n"
        "report = {'t0': time.perf_counter(), 'import_s': 0.0, 'main_s': 0.0, "
        "'t_end': time.perf_counter(), 'code': 0, 'maxrss_kb': 1, 'spans': []}\n"
        "open(sys.argv[1], 'w').write(json.dumps(report))\n"
    )
    workload = workloads.CliMix(tmp_path, child=[sys.executable, str(stub)])
    record = measure.run_op(workload, workload.make_input(seed=1, index=5), 5)
    assert not record.ok
    assert "0 bytes on stdout" in record.detail


def test_cli_mix_first_block_passes(tmp_path):
    workload = workloads.CliMix(tmp_path)
    records = measure.replay(workload, seed=3, count=workload.block)
    assert [r.ok for r in records] == [True] * workload.block, [r.detail for r in records]


class Counting(workloads.Workload):
    block, block_s = 3, 2.0

    def make_input(self, seed, index):
        return index

    def run(self, inp):
        return inp

    def check(self, inp, out):
        return True, 0.0, {}, ""


def test_closed_loop_runs_whole_blocks_set_by_seconds_alone():
    records = measure.closed_loop(Counting(), seed=1, seconds=10.0)
    assert [r.index for r in records] == list(range(15))  # 5 blocks of 3
    assert all(r.reference_s > 0 for r in records)
    assert Counting().ops(0.1) == 3  # at least one block


def test_guard_reports_count_mismatch():
    a = measure.OpRecord(0, 1.0, True, counts={"iterations_used": 10})
    b = measure.OpRecord(0, 2.0, True, counts={"iterations_used": 11})
    assert measure.guard([a], [a]) == []
    assert len(measure.guard([a], [b])) == 1


def test_inputs_repeat_per_seed_and_differ_between_seeds():
    sweep = workloads.SurfaceSweep()
    assert (sweep.make_input(4, 7).unitary == sweep.make_input(4, 7).unitary).all()
    assert (sweep.make_input(4, 7).unitary != sweep.make_input(5, 7).unitary).any()
    oracle = workloads.TensorOracle()
    assert tensor_equal(oracle.make_input(4, 7), oracle.make_input(4, 7))
    assert not tensor_equal(oracle.make_input(4, 7), oracle.make_input(5, 7))


def tensor_equal(a, b) -> bool:
    return bool((a.tensor.array == b.tensor.array).all())


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_calibration_scales_by_nearby_reference_times():
    ref = measure.REFERENCE_SECONDS
    assert measure.calibrated([1.0, 2.0], [ref, ref]) == [1.0, 2.0]
    # a machine running at half speed doubles both the work and the reference
    assert measure.calibrated([2.0, 4.0], [2 * ref, 2 * ref]) == [1.0, 2.0]
    # one slow reference reading among five nearby ones is outvoted
    assert measure.calibrated([1.0] * 5, [ref, ref, 9 * ref, ref, ref])[2] == 1.0
