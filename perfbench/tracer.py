"""Spans around qde's layers, recorded from outside the package.

The tracer wraps public functions and operator methods of qde's modules
and restores them afterwards; nothing under src/ knows it exists.  Each
name is patched where it is looked up: a function imported into several
modules (qeuler_poly lives in qeuler and is imported by dedekind, oracle
and cli) is replaced in every module namespace that holds it, which
also covers the RatFunc constructor reaching poly_gcd through the
qde.ratfunc global and qde.cli's own references to the checkers.

A span records its name, start, end, parent span and the check it
belongs to.  Layers are single-threaded and have no queues, so a span
is all busy time: its self time is its duration minus the time its
direct child spans cover.  Totals count only the outermost span of a
name, so a q_power that calls q_power is not counted twice.
"""

import functools
import sys
import time

# per-layer operations: span name -> (module, owner attribute or None, attribute names)
# owner None means module-level functions, replaced wherever they are looked up
OPS = {
    "ratfunc.poly_mul": ("qde.ratfunc", "Poly", ("__mul__",)),
    "ratfunc.poly_divmod": ("qde.ratfunc", "Poly", ("__divmod__",)),
    "ratfunc.poly_gcd": ("qde.ratfunc", None, ("poly_gcd",)),
    "ratfunc.reduce": ("qde.ratfunc", "RatFunc", ("__init__",)),
    "ratfunc.ratfunc_add": ("qde.ratfunc", "RatFunc", ("__add__", "__radd__")),
    "padic.mul": ("qde.padic", "PadicNum", ("__mul__", "__rmul__")),
    "padic.add": ("qde.padic", "PadicNum", ("__add__", "__radd__")),
    "padic.div": ("qde.padic", "PadicNum", ("__truediv__",)),
    "padic.q_pow": ("qde.padic", None, ("q_pow", "principal_pow")),
    "padic.teichmuller": ("qde.padic", None, ("teichmuller",)),
    "padic.normalized_bracket": ("qde.padic", None, ("normalized_bracket",)),
    "qeuler.q_power": ("qde.qeuler", ("RationalMode", "SymbolicMode", "PadicMode", "BaseLifted"), ("q_power",)),
    "qeuler.qeuler_poly": ("qde.qeuler", None, ("qeuler_poly",)),
    "qeuler.qeuler_number": ("qde.qeuler", None, ("qeuler_number",)),
    "qeuler.measure": ("qde.qeuler", None, ("measure",)),
    "qeuler.q_int": ("qde.qeuler", None, ("q_int",)),
    "qeuler.check": ("qde.qeuler", None, ("check_additive", "check_distribution")),
    "dedekind.q_dc_sum": ("qde.dedekind", None, ("q_dc_sum",)),
    "dedekind.interp_value": ("qde.dedekind", None, ("interp_value",)),
    "dedekind.interp_series": ("qde.dedekind", None, ("interp_series",)),
    "dedekind.check": ("qde.dedekind", None, (
        "check_dc_expansion", "check_integral_splitting", "check_interp_recursion",
        "check_main_relation", "check_shifted_splitting",
    )),
    "oracle.riemann_level": ("qde.oracle", None, ("riemann_level",)),
    "cli.verify": ("qde.cli", "cmd_verify", ("callback",)),
    "cli.oracle": ("qde.cli", "cmd_oracle", ("callback",)),
    "reports.json_line": ("qde.reports", "IdentityReport", ("json_line",)),
}

CHECK_SPAN = "check"
SPAN_CAP = 50_000  # spans kept for writing out; the rest are only counted


class Tracer:
    """Collects spans and per-name call counts, busy and self time."""

    def __init__(self):
        self.stats = {}       # name -> [calls, total_ns, self_ns]
        self.counters = {"ratfunc.peak_degree": 0, "ratfunc.poly_gcd.useful": 0, "oracle.residues": 0}
        self.spans = []       # (span_id, parent_id, check_id, name, start_ns, end_ns), first SPAN_CAP
        self.dropped = 0
        self.missing = []     # patch targets this version of qde does not have
        self.check_id = None
        self._stack = []      # open spans: [span_id, name, start_ns, child_ns]
        self._open = {}       # name -> number of open spans with that name
        self._next_id = 0
        self._undo = []

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[2] += dur - child
        self._open[name] -= 1
        if not self._open[name]:
            st[1] += dur
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self.check_id, name, start, end))
        else:
            self.dropped += 1

    def _wrap(self, name, fn, after=None):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                exit_()

        return traced

    # counters measured at the same boundaries as the spans

    def _peak(self, degree: int) -> None:
        if degree > self.counters["ratfunc.peak_degree"]:
            self.counters["ratfunc.peak_degree"] = degree

    def _after_mul(self, args, kwargs, result):
        self._peak(result.degree)

    def _after_divmod(self, args, kwargs, result):
        self._peak(args[0].degree)

    def _after_gcd(self, args, kwargs, result):
        if result.degree > 0:
            self.counters["ratfunc.poly_gcd.useful"] += 1

    def _after_riemann(self, args, kwargs, result):
        level = args[1] if len(args) > 1 else kwargs["level"]
        p = args[3] if len(args) > 3 else kwargs.get("p")
        if p is None:
            mode = args[2] if len(args) > 2 else kwargs["mode"]
            p = sys.modules["qde.qeuler"].root_mode(mode).cfg.p
        self.counters["oracle.residues"] += p**level

    def install(self) -> None:
        """Wrap every target in OPS; targets a qde version lacks are listed in missing."""
        hooks = {
            "ratfunc.poly_mul": self._after_mul,
            "ratfunc.poly_divmod": self._after_divmod,
            "ratfunc.poly_gcd": self._after_gcd,
            "oracle.riemann_level": self._after_riemann,
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qde" or n.startswith("qde.")]
        for name, (module_name, owners, attrs) in OPS.items():
            home = sys.modules[module_name]
            if owners is None:
                for attr in attrs:
                    fn = getattr(home, attr, None)
                    if fn is None:
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    wrapped = self._wrap(name, fn, hooks.get(name))
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is fn:
                                self._patch(module, key, wrapped)
                continue
            for owner_name in (owners,) if isinstance(owners, str) else owners:
                owner = getattr(home, owner_name, None)
                for attr in attrs:
                    fn = getattr(owner, attr, None) if owner is not None else None
                    if fn is None:
                        self.missing.append(f"{module_name}.{owner_name}.{attr}")
                        continue
                    self._patch(owner, attr, self._wrap(name, fn, hooks.get(name)))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def run_check(self, check_id: str, fn):
        """Run fn() under a root span that ties its layer spans to one check."""
        self.check_id = check_id
        self.enter(CHECK_SPAN)
        try:
            return fn()
        finally:
            self.exit()
