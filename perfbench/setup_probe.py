"""Time one set-up of qde in a fresh interpreter.

Set-up is importing click and qde and finishing the first call through
each coefficient mode (workloads.warm_up).  Prints the set-up time in
seconds and then the median of three calibration samples in ns
(refspeed.py), taken right after, so the caller can scale the time to
the reference speed.  Run as `python3 setup_probe.py <src dir>`.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import click  # noqa: E402,F401
import qde  # noqa: E402,F401
import workloads  # noqa: E402

workloads.warm_up()
elapsed = time.perf_counter() - t0

import statistics  # noqa: E402

import refspeed  # noqa: E402

print(elapsed, statistics.median(refspeed.sample_ns() for _ in range(3)))
