"""Time `import ncindex` plus generating a workload's inputs, in a fresh
process.  run.py starts it several times and reports the median as
setup_s.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the elapsed seconds on its last line.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ncindex  # noqa: E402,F401
import workloads  # noqa: E402


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name](seed, HERE / ".work" / name).generate()
    print(time.perf_counter() - _START)


if __name__ == "__main__":
    main()
