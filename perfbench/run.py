"""Verdict-throughput benchmark for qde, with per-layer attribution.

    python3 perfbench/run.py --workload sym_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; qde is imported from its src/ and from
nowhere else.  One process runs the workload, single-threaded, as a
closed loop of checks: each verdict is computed only after the previous
one returned.  A run repeats whole passes over the workload's checks
while another pass still fits in --seconds, and always makes at least
one.  Each pass starts with euler_classical's cache cleared, so pass 1
and pass N of a run, and run 1 and run N, do the same work.

--trace 0 prints the end-to-end metrics: checks_per_s,
check_geomean_ms (every check weighs the same), setup_s (median of
several fresh-interpreter set-ups) and peak_rss_mb (peak resident
memory once the first pass is done; later passes repeat its work).
Times are scaled to a reference speed (refspeed.py); the times as
measured are printed as a diagnostic.

--trace 1 spends half the time on untraced passes and half on passes
traced through wrappers installed on qde's public functions
(tracer.py), and prints the per-layer metrics per pass, plus
trace_overhead_frac, the traced pass time over the untraced one,
minus 1.

Every verdict is checked against its expected value (workloads.py); the
last line of stdout is one JSON object with correct, attempted, failed
and metrics.  Lines before it, starting with '#', are diagnostics.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def measure_setup():
    """Median set-up time over several fresh interpreters, in seconds.

    Returns (at the reference speed, as measured).
    """
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
        seconds, cal_ns = proc.stdout.split()[-2:]
        raw.append(float(seconds))
        scaled.append(float(seconds) * refspeed.REF_NS / float(cal_ns))
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Runs passes over a workload's checks and keeps what they measured.

    Check times are kept twice: as measured (raw_ns) and scaled to the
    reference speed (samples_ns) by the calibration samples the
    speedometer took while each check ran (refspeed.py).  Both exclude
    the time the samples took.
    """

    def __init__(self, checks, satisfies, euler_cache, speed):
        self.checks = checks
        self.satisfies = satisfies
        self.euler_cache = euler_cache
        self.speed = speed
        self.samples_ns = []
        self.raw_ns = []
        self.failures = []
        self.digits_lost_max = 0
        self.verdicts = {}
        self.euler_hits = 0
        self.euler_misses = 0
        self.pass_ref_s = []
        self.first_pass_rss_kib = None

    def run_pass(self, tracer=None):
        """One pass over every check; returns (raw, reference-speed) check time in ns."""
        self.euler_cache.cache_clear()
        raw_total = 0
        ref_total = 0.0
        for check in self.checks:
            mark = self.speed.mark()
            t0 = time.perf_counter_ns()
            try:
                if tracer is None:
                    verdict = check.run()
                else:
                    verdict = tracer.run_check(check.id, check.run)
            except Exception as exc:  # a crash is a wrong verdict, not the end of the run
                verdict = f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            sampling_ns, factor = self.speed.during(mark, t0, t1)
            dt = t1 - t0 - sampling_ns
            self.raw_ns.append(dt)
            self.samples_ns.append(dt * factor)
            raw_total += dt
            ref_total += dt * factor
            self._judge(check, verdict)
        info = self.euler_cache.cache_info()
        self.euler_hits += info.hits
        self.euler_misses += info.misses
        if self.first_pass_rss_kib is None:
            self.first_pass_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return raw_total, ref_total

    def _judge(self, check, verdict) -> None:
        self.verdicts[check.id] = verdict
        if not self.satisfies(verdict, check.expect):
            self.failures.append((check.id, verdict, check.expect))
        if check.precision is not None and verdict.startswith("agree="):
            lost = check.precision - int(verdict[len("agree="):])
            self.digits_lost_max = max(self.digits_lost_max, lost)

    def run_for(self, budget_s: float, tracer=None):
        """Whole passes while another one fits in budget_s; at least one.

        Returns (passes, raw check time in ns, reference-speed check time in ns).
        """
        start = time.perf_counter()
        passes = 0
        raw = ref = 0
        while True:
            pass_raw, pass_ref = self.run_pass(tracer)
            self.pass_ref_s.append(pass_ref / 1e9)
            raw += pass_raw
            ref += pass_ref
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / passes > budget_s:
                return passes, raw, ref


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(runner, setup_s):
    samples = runner.samples_ns
    logs = [math.log(ns) for ns in samples]
    return {
        "checks_per_s": metric(len(samples) / (sum(samples) / 1e9), "1/s"),
        "check_geomean_ms": metric(math.exp(sum(logs) / len(logs)) / 1e6, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(runner.first_pass_rss_kib / 1024, "MB"),
    }


def per_layer_metrics(tracer, ops, passes, scale, runner, overhead):
    """Per-pass layer figures; span times are scaled to the reference speed by scale."""
    out = {}
    for name in ops:
        calls, total_ns, self_ns = tracer.stats.get(name, (0, 0, 0))
        out[f"{name}.calls"] = metric(calls / passes, "count")
        out[f"{name}.self_ms"] = metric(self_ns * scale / 1e6 / passes, "ms")
        out[f"{name}.total_ms"] = metric(total_ns * scale / 1e6 / passes, "ms")
    gcd_calls = tracer.stats.get("ratfunc.poly_gcd", (0,))[0]
    lookups = runner.euler_hits + runner.euler_misses
    c = tracer.counters
    out["ratfunc.peak_degree"] = metric(c["ratfunc.peak_degree"], "count")
    out["ratfunc.poly_gcd.useful_ratio"] = metric(c["ratfunc.poly_gcd.useful"] / gcd_calls if gcd_calls else 0.0, "ratio")
    out["qeuler.euler_classical.hit_ratio"] = metric(runner.euler_hits / lookups if lookups else 0.0, "ratio")
    out["oracle.residues"] = metric(c["oracle.residues"] / passes, "count")
    out["padic.digits_lost_max"] = metric(runner.digits_lost_max, "digits")
    out["trace_overhead_frac"] = metric(overhead, "ratio")
    return out


def write_spans(tracer, workload, seed) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for span_id, parent, check_id, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "check": check_id,
                                 "name": name, "start_ns": start, "end_ns": end}) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qde" / "__init__.py").is_file():
        print(f"error: no qde sources under {SRC}; run from the root of a qde checkout", file=sys.stderr)
        return 2
    setup_s, setup_raw_s = measure_setup()

    sys.path.insert(0, str(SRC))
    import qde
    if not Path(qde.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported qde from {qde.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workloads.warm_up()
    checks = workloads.build(args.workload, args.seed, workloads.load_expected())

    wall0 = time.perf_counter()
    with refspeed.Speedometer() as speed:
        runner = Runner(checks, workloads.satisfies, sys.modules["qde.qeuler"].euler_classical, speed)
        if args.trace:
            base_passes, _, base_ns = runner.run_for(args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_passes, traced_raw, traced_ns = runner.run_for(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            overhead = (traced_ns / traced_passes) / (base_ns / base_passes) - 1
            metrics = per_layer_metrics(tracer, tracing.OPS, traced_passes, traced_ns / traced_raw, runner, overhead)
            passes = base_passes + traced_passes
        else:
            passes, _, _ = runner.run_for(args.seconds)
            metrics = end_to_end_metrics(runner, setup_s)
    wall = time.perf_counter() - wall0

    samples = runner.samples_ns
    attempted = len(samples)
    failed = len(runner.failures)
    deciles = statistics.quantiles(samples, n=10) if attempted > 1 else [samples[0]] * 9
    print(f"# workload {args.workload} seed {args.seed}: {len(checks)} checks per pass, "
          f"{passes} passes in {wall:.2f} s (python {platform.python_version()}, nproc {os.cpu_count()})")
    raw = runner.raw_ns
    print(f"# as measured, before scaling to the reference speed: {len(raw) / (sum(raw) / 1e9):.4f} checks/s, "
          f"geomean {math.exp(sum(map(math.log, raw)) / len(raw)) / 1e6:.4f} ms, set-up {setup_raw_s:.4f} s")
    print(f"# pass check time at reference speed: {', '.join(f'{t:.3f}' for t in runner.pass_ref_s)} s")
    print(f"# per-check time p50 {statistics.median(samples) / 1e6:.3f} ms, p90 {deciles[8] / 1e6:.3f} ms "
          f"over {attempted} samples (diagnostic, not gated)")
    print(f"# failed_frac {failed / attempted} ({failed} of {attempted}); "
          f"padic_digits_lost_max {runner.digits_lost_max}")
    if args.workload == "padic":
        row = [runner.verdicts.get(check_id) for check_id in workloads.sanity_ids()]
        print(f"# sanity theorem1 m=3,h=2,k=5,p=3 corrected at K={'/'.join(map(str, workloads.SANITY_K))}: "
              f"{'/'.join(v.split('=')[-1] if v else '?' for v in row)}")
    for check_id, verdict, expect in runner.failures[:20]:
        print(f"# MISMATCH {check_id}: got {verdict}, expected {expect}")
    if args.trace:
        path = write_spans(tracer, args.workload, args.seed)
        print(f"# {len(tracer.spans)} spans written to {path.relative_to(ROOT)}, {tracer.dropped} more not kept")
        for target in tracer.missing:
            print(f"# trace target missing: {target}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
