"""Child process that times one workload's set-up and prints it in seconds.

Set-up is ``import marketclear`` plus building the workload's markets and
maps, everything a job needs before its first solve.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED SCALE
"""

import sys
import time
from pathlib import Path

began = time.perf_counter()
import marketclear  # noqa: E402,F401  (the import is what is timed)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - began)
