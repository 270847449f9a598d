"""Reference-speed calibration for timings on a host whose speed drifts.

On a shared virtual machine the same Python loop can run 20-50% slower
for seconds at a time, with no stolen time visible to the guest.  The
benchmark therefore times a fixed calibration loop every PERIOD_S of
wall time while it measures, and scales each measured time by
REF_NS / (the loop's time): times are reported at a fixed reference
speed, the speed at which the loop takes REF_NS.  The samples come from
SIGALRM, so a check that runs for seconds is sampled while it runs;
Python calls the handler in the main thread between bytecodes, so no
other thread is started.

How much a slowdown hits code depends on the code, so the loop mixes
the kinds of work qde's checks do: Fraction arithmetic on 2,000
operands picked at random, JSON and string handling as in the CLI, and
modular arithmetic on p-adic sized integers.  On a 2-core x86-64 VM the
log of a check group's time moved with the log of this loop's time with
slope 1.01 on sym_grid and 1.06 on rational_cli.  A tight loop over a
few Fractions gave 0.64 on rational_cli, so it over-corrected.
Operands spread over 4 MB tracked about as well (0.94 on padic, 1.01 on
rational_cli) but made the loop's speed differ by up to 14% from one
process to the next.
"""

import json
import random
import signal
import time
from fractions import Fraction

# a round figure within the loop's 0.7-1.3 ms on a 2-core x86-64 VM
# under CPython 3.11.7
REF_NS = 1_000_000

_rng = random.Random(7)
_FRACTIONS = [Fraction(_rng.randrange(1, 10**6), _rng.randrange(1, 10**6)) for _ in range(2_000)]
_PAIRS = [(_rng.randrange(len(_FRACTIONS)), _rng.randrange(len(_FRACTIONS))) for _ in range(100)]
_REPORT = {
    "identity": "eq5", "variant": "corrected",
    "params": {"n": 2, "alpha": 1, "d": 3, "x": "1/2", "mode": {"mode": "padic", "p": 3, "precision": 32}},
    "status": {"padic_agreement": 29, "precision": 32},
}
_MODULUS = 3**128


def _loop_ns() -> int:
    t0 = time.perf_counter_ns()
    acc = Fraction(0)
    for i, j in _PAIRS:
        acc += _FRACTIONS[i] * _FRACTIONS[j]
    for _ in range(10):
        json.loads(json.dumps(_REPORT, sort_keys=True))
        ",".join(f"{k}={v}" for k, v in (piece.split("=") for piece in "n=1,alpha=2,d=3,x=0".split(",")))
    x = 5
    for _ in range(150):
        x = x * 7 % _MODULUS
    return time.perf_counter_ns() - t0


def sample_ns() -> int:
    """Median time of three runs of the calibration loop, in ns."""
    return sorted(_loop_ns() for _ in range(3))[1]


class Speedometer:
    """Calibration samples taken every PERIOD_S while the context is open.

    Each sample is (start ns, end ns, REF_NS / loop time).  The handler
    runs to completion in the main thread, so a sample lies either wholly
    inside or wholly outside any interval the caller times.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.samples = []
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter_ns()
            factor = REF_NS / sample_ns()
            self.samples.append((t0, time.perf_counter_ns(), factor))
        finally:
            self._busy = False

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def during(self, mark: int, t0: int, t1: int):
        """(ns spent sampling, mean speed factor) within [t0, t1].

        mark is the sample count read before t0.  With no sample inside
        the interval, the latest sample stands for the whole interval.
        """
        inside = [(s, e, f) for s, e, f in self.samples[mark:] if t0 <= s and e <= t1]
        if not inside:
            return 0, self.samples[-1][2]
        return sum(e - s for s, e, _ in inside), sum(f for _, _, f in inside) / len(inside)
