"""Time the benchmark's set-up in a fresh interpreter.

Set-up is: import blindcrb (with numpy), build the plan and the precoder
and, for workloads that run through the CLI, parse the configuration file.
Prints the seconds taken. run.py starts this with src/ on PYTHONPATH, the
BLAS thread count pinned and the configuration file already written:

    python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR
"""

import sys
from pathlib import Path
from time import perf_counter


def main(argv) -> int:
    name, seed, work_dir = argv[0], int(argv[1]), Path(argv[2])
    start = perf_counter()
    import workloads

    workloads.Runner(workloads.WORKLOADS[name], seed, work_dir)
    print(repr(perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
