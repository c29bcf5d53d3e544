"""One set-up sample, in a fresh interpreter: import hendry and prepare the
inputs of a workload.  Prints the seconds taken, as measured and scaled to
the reference host speed.

    python3 bench/setup_probe.py <workload> <seed>
"""

import os
import sys
import time

import hostspeed

bench = os.path.dirname(os.path.abspath(__file__))

before = hostspeed.sample(3)
t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(bench), "src"))
import hendry  # noqa: E402,F401  (the import is what is being timed)

import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=os.path.dirname(bench)) as wd:
    workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(wd))
    elapsed = time.perf_counter() - t0
print(elapsed, hostspeed.scale(elapsed, [before, hostspeed.sample(3)]))
