"""hsckit benchmark: three workloads, end-to-end metrics and a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it runs the same ops untraced and then traced, and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{correct, attempted, failed, metrics}``; a readable summary goes to
standard error and the full record to ``perfbench/out/``.  See README.md.
"""

import os

# BLAS and OpenMP run one thread, on every commit measured, so a kernel is
# judged on its own work rather than on scheduling noise.  Set before numpy
# loads; child processes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import measure  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("surface-sweep", "tensor-oracle", "cli-mix")
REPEATS = 9  # fresh interpreters per run for setup_s and cli.import_s

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

CLI_LABELS = (
    "cspace-roots", "cspace-classify", "surface-analyze", "tensor-validate",
    "tensor-extremize", "geography-check", "geography-blowup",
    "geography-scan-horikawa", "geography-plotdata",
    "cspace-classify-badnode", "cspace-roots-badrank",
)

PER_LAYER = (
    ("extremize.extremize_hsc.self_s", "s/op"),
    ("extremize.extremize_hsc.calls", "calls/op"),
    ("extremize.iterations_used", "count"),
    ("extremize.us_per_iter", "us"),
    ("extremize.unconverged", "count"),
    ("extremize.distinguished_frame.busy_s", "s/op"),
    ("extremize.distinguished_frame.calls", "calls/op"),
    ("extremize.sample_hsc.busy_s", "s/op"),
    ("extremize.samples", "count"),
    ("extremize.sample_hsc.rows_per_s", "1/s"),
    ("extremize.sample_hsc.cmacs_computed", "count"),
    ("curvature.KahlerCurvatureTensor.busy_s", "s/op"),
    ("curvature.tensor_from_dict.busy_s", "s/op"),
    ("curvature.validate.busy_s", "s/op"),
    ("curvature.transform_frame.busy_s", "s/op"),
    ("rootsys.closure_from_cartan.busy_s", "s/op"),
    ("rootsys.closure_from_cartan.calls", "calls/op"),
    ("rootsys.roots", "count"),
    ("cspace.classify_all.busy_s", "s/op"),
    ("cspace.verdicts", "count"),
    ("geography.horikawa_scan.busy_s", "s/op"),
    ("geography.check_inequality.calls", "calls/op"),
    ("cli.import_s", "s"),
    ("cli.dispatch.busy_s", "s/op"),
    ("cli.process_s", "s"),
    ("cli.output_bytes", "count"),
    *((f"cli.cmd.{label}.p50_ms", "ms") for label in CLI_LABELS),
    ("trace.overhead_ratio", "ratio"),
    ("trace.toplevel_share", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def load_library():
    """Import hsckit from this checkout's ``src``, and nowhere else."""
    if not (SRC / "hsckit" / "__init__.py").is_file():
        raise SystemExit(f"error: no hsckit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hsckit

    if Path(hsckit.__file__).resolve().parent != SRC / "hsckit":
        raise SystemExit(f"error: hsckit imported from {hsckit.__file__}, not from {SRC}")
    return hsckit


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": blas_threads(),
    }


def fresh_interpreters(argv: list) -> list[subprocess.CompletedProcess]:
    """Run ``argv`` ``REPEATS`` times, one after another; each must exit 0.
    Each result carries its spawn-to-exit wall time as ``.wall_s``."""
    results = []
    for _ in range(REPEATS):
        reference = measure.reference_kernel()
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        proc.wall_s = time.perf_counter() - start
        proc.reference_s = reference
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-400:]}")
        results.append(proc)
    return results


def setup_times(name: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Spawn-to-exit times of the set-up probe, and the reference times."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)]
    procs = fresh_interpreters(argv)
    return [p.wall_s for p in procs], [p.reference_s for p in procs]


def import_times() -> list[float]:
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        "import hsckit.cli; print(time.perf_counter() - t)"
    )
    return [float(proc.stdout) for proc in fresh_interpreters([sys.executable, "-c", code])]


def end_to_end(workload, seed, seconds, workdir):
    """Time metrics are calibrated to the reference machine speed; the raw
    values go to the notes."""
    setup, setup_refs = setup_times(workload.name, seed, workdir)
    warm = measure.run_op(workload, workload.make_input(seed, 0), 0)
    records = measure.closed_loop(workload, seed, seconds)
    if workload.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(r.output.report["maxrss_kb"] for r in records if r.output is not None)
    again = measure.replay(workload, seed, workload.block)
    mismatches = measure.guard([warm, *records[: workload.block]], [again[0], *again])

    raw = [r.latency_s for r in records]
    latencies = measure.calibrated(raw, [r.reference_s for r in records])
    pct, tail_s, samples = measure.tail(latencies)
    passed = sum(r.ok for r in records)
    metrics = {
        "setup_s": statistics.median(setup) * measure.REFERENCE_SECONDS / statistics.median(setup_refs),
        "ops_per_s": passed / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    references = [r.reference_s for r in records]
    notes = {
        "tail_percentile": pct, "samples": samples, "capped": len(records) < workload.ops(seconds),
        "speed": measure.REFERENCE_SECONDS / statistics.median(references),
        "raw": {
            "setup_s": statistics.median(setup), "ops_per_s": passed / sum(raw),
            "op_p50_ms": 1e3 * statistics.median(raw), "op_tail_ms": 1e3 * measure.tail(raw)[1],
        },
        "setup_runs_s": setup,
    }
    return metrics, [warm, *records, *again], mismatches, notes


def per_layer(workload, seed, seconds):
    """Each op runs untraced, then at once traced, so that a slow spell of
    the machine lands on both and the overhead is measured op for op.  As
    each op runs twice, the run holds the ops of ``seconds / 2``."""
    imports = import_times()
    warm = measure.run_op(workload, workload.make_input(seed, 0), 0)
    tracer = tracing.Tracer()
    traced = []

    def step(inp, index):
        untraced = measure.run_op(workload, inp, index)
        uninstall = tracing.install(tracer) if workload.in_process else None
        workload.trace = True
        try:
            traced.append(measure.run_op(workload, inp, index, tracer))
        finally:
            workload.trace = False
            if uninstall is not None:
                uninstall()
        return untraced

    untraced = measure.closed_loop(workload, seed, seconds / 2, step)
    mismatches = measure.guard(untraced, traced)
    metrics, notes = layer_metrics(workload, untraced, traced, tracer.spans, imports)
    notes["capped"] = len(untraced) < workload.ops(seconds / 2)
    return metrics, [warm, *untraced, *traced], mismatches, notes, tracer.spans


def layer_metrics(workload, untraced, traced, spans, imports):
    table = tracing.summarize(spans)
    ops = len(traced)
    first = [r for r in traced if r.index < workload.block]

    def per_op(name, field):
        return table.get(name, {}).get(field, 0.0) / ops

    def first_block(count):
        return sum(r.counts.get(count, 0) for r in first)

    def span_count(name):
        return sum(s[6] or 0 for s in spans if s[3] == name and s[2] is not None and s[2] < workload.block)

    iterations = sum(r.counts.get("iterations_used", 0) for r in traced)
    samples = sum(r.counts.get("samples", 0) for r in traced)
    extremize_self = table.get("extremize.extremize_hsc", {}).get("self_s", 0.0)
    sample_busy = table.get("extremize.sample_hsc", {}).get("busy_s", 0.0)

    op_ids = {s[0] for s in spans if s[3] == "bench.op"}
    op_time = sum(s[5] - s[4] for s in spans if s[0] in op_ids)
    covered = sum(s[5] - s[4] for s in spans if s[1] in op_ids)

    by_label: dict[str, list[float]] = {}
    process = []
    if not workload.in_process:
        for r in untraced:
            by_label.setdefault(workload.label_of(r.index), []).append(r.latency_s)
            process.append(r.latency_s - r.output.report["main_s"])

    metrics = {
        "extremize.extremize_hsc.self_s": extremize_self / ops,
        "extremize.extremize_hsc.calls": per_op("extremize.extremize_hsc", "calls"),
        "extremize.iterations_used": first_block("iterations_used"),
        "extremize.us_per_iter": 1e6 * extremize_self / iterations if iterations else 0.0,
        "extremize.unconverged": first_block("unconverged"),
        "extremize.distinguished_frame.busy_s": per_op("extremize.distinguished_frame", "busy_s"),
        "extremize.distinguished_frame.calls": per_op("extremize.distinguished_frame", "calls"),
        "extremize.sample_hsc.busy_s": sample_busy / ops,
        "extremize.samples": first_block("samples"),
        "extremize.sample_hsc.rows_per_s": samples / sample_busy if sample_busy else 0.0,
        "extremize.sample_hsc.cmacs_computed": first_block("cmacs"),
        "curvature.KahlerCurvatureTensor.busy_s": per_op("curvature.KahlerCurvatureTensor", "busy_s"),
        "curvature.tensor_from_dict.busy_s": per_op("curvature.tensor_from_dict", "busy_s"),
        "curvature.validate.busy_s": per_op("curvature.validate", "busy_s"),
        "curvature.transform_frame.busy_s": per_op("curvature.transform_frame", "busy_s"),
        "rootsys.closure_from_cartan.busy_s": per_op("rootsys.closure_from_cartan", "busy_s"),
        "rootsys.closure_from_cartan.calls": per_op("rootsys.closure_from_cartan", "calls"),
        "rootsys.roots": span_count("rootsys.closure_from_cartan"),
        "cspace.classify_all.busy_s": per_op("cspace.classify_all", "busy_s"),
        "cspace.verdicts": span_count("cspace.classify_all"),
        "geography.horikawa_scan.busy_s": per_op("geography.horikawa_scan", "busy_s"),
        "geography.check_inequality.calls": per_op("geography.check_inequality", "calls"),
        "cli.import_s": statistics.median(imports),
        "cli.dispatch.busy_s": per_op("cli.dispatch", "busy_s"),
        "cli.process_s": statistics.median(process) if process else 0.0,
        "cli.output_bytes": first_block("output_bytes"),
    }
    for label in CLI_LABELS:
        latencies = by_label.get(label)
        metrics[f"cli.cmd.{label}.p50_ms"] = 1e3 * statistics.median(latencies) if latencies else 0.0
    untraced_s = sum(r.latency_s for r in untraced)
    metrics["trace.overhead_ratio"] = sum(r.latency_s for r in traced) / untraced_s
    metrics["trace.toplevel_share"] = covered / op_time
    notes = {"traced_ops": ops, "cli_import_runs_s": imports, "span_count": len(spans)}
    return metrics, notes


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, so that the reference
    kernel and the work share whatever else that CPU is doing."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    load_library()
    import workloads

    env = environment()
    env["cpu_pinned"] = pin_to_one_cpu()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    workdir = run_dir / "work"
    workdir.mkdir(parents=True)
    workload = workloads.make(args.workload, workdir)
    spans = []
    if args.trace:
        metrics, records, mismatches, notes, spans = per_layer(workload, args.seed, args.seconds)
        units = dict(PER_LAYER)
    else:
        metrics, records, mismatches, notes = end_to_end(workload, args.seed, args.seconds, workdir)
        units = dict(END_TO_END)
    shutil.rmtree(workdir)

    failed = [r for r in records if not r.ok]
    errors = [r.error for r in records]
    result = {
        "correct": not failed and not mismatches,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "notes": notes,
        "failed_frac": len(failed) / len(records),
        "worst_error": max(errors),
        "guard_mismatches": mismatches,
        "failures": [{"op": r.index, "detail": r.detail} for r in failed[:20]],
        "ops": [
            {"op": r.index, "latency_s": r.latency_s, "reference_s": r.reference_s, "ok": r.ok, "error": r.error, "counts": r.counts}
            for r in records
        ],
        "result": result,
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, default=str))
    if spans:
        with open(run_dir / "spans.jsonl", "w") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(records)} ops, "
          f"failed_frac {record['failed_frac']:.4g}, worst error {record['worst_error']:.3g}, "
          f"guard {'ok' if not mismatches else f'{len(mismatches)} mismatches'}, notes {json.dumps(notes)}",
          file=sys.stderr)
    for r in failed[:5]:
        print(f"failed op {r.index}: {r.detail}", file=sys.stderr)
    for line in mismatches[:5]:
        print(f"guard: {line}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
