"""One cold set-up in a fresh interpreter; prints ``{"setup_s": ...}``.

``run.py`` starts this a few times per run and reports the median set-up
time, so the figure includes module import as every restart pays it.
Usage: ``python3 perfbench/setup_sample.py <workload>``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402


def main() -> int:
    stack = workloads.build_stack(sys.argv[1], ROOT / ".perfbench" / "tmp")
    elapsed = time.perf_counter() - START
    stack.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
