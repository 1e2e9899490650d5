"""One set-up, in a fresh interpreter: import hsckit and make a workload's
first block of inputs.  The caller times this process from spawn to exit.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import workloads

    workload = workloads.make(name, workdir)
    for index in range(workload.block):
        workload.make_input(seed, index)
    return 0


if __name__ == "__main__":
    sys.exit(main())
