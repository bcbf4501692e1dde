"""Set-up probe: do what a benchmark run does before its first timed call
(interpreter start, imports, input generation), then print the
CLOCK_MONOTONIC time at which that finished.

    python3 bench/setup_probe.py <workload> <seed>

run.py starts three of these per run and reports the median set-up time.
"""
import sys
import time

import run

run.prepare(sys.argv[1], int(sys.argv[2]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
