"""Run one hsckit CLI call in this fresh interpreter and report on it.

Usage: python3 perfbench/cli_child.py REPORT TRACE ARGV...

``python -m hsckit.cli`` exits 0 and prints nothing, because ``cli.py`` has
no ``__main__`` guard and the package has no ``__main__.py``; the console
script is not installed in a source checkout either.  So this script calls
``hsckit.cli.main`` itself, the way the console script would.

The report written to REPORT (JSON) holds the start time, the import time
of ``hsckit.cli``, the time spent in ``main``, the exit code, the process's
peak resident memory, and, with TRACE = 1, the spans of every public hsckit
function called.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    report_path, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    import_start = time.perf_counter()
    import hsckit.cli

    import_end = time.perf_counter()
    spans = []
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        tracer.spans.append([0, None, None, "cli.import", import_start, import_end, None])
        install(tracer)
        spans = tracer.spans
    sys.argv = ["hsckit", *argv]
    main_start = time.perf_counter()
    try:
        hsckit.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    main_end = time.perf_counter()
    sys.stdout.flush()
    report = {
        "t0": T0,
        "import_s": import_end - import_start,
        "main_s": main_end - main_start,
        "t_end": main_end,
        "code": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": spans,
    }
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
