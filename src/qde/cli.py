"""Command line front end.

Five subcommands: euler and dcsum print exact tables (JSON or CSV),
qeuler prints one value in a chosen coefficient mode, verify sweeps an
identity over a parameter grid and streams one JSON report per point,
and oracle prints a convergence profile of definition-level Riemann
sums against the closed form.

Each command declares its options once, in a table that argparse is
built from.  A plain line, the command and then `--key value` pairs
that argparse would accept, each key once and no value starting with
'-', is read straight from that table.  Every other line is parsed once,
by the top-level argparse parser, so help, usage errors and the other
spellings (`--key=value`, a negative value, a repeated key) are
argparse's own.

Exit codes: 0 all good, 1 a computation or an identity check failed or
stdout was closed early, 2 the invocation itself was wrong.  Flag
values outside their documented ranges count as usage errors; domain
violations discovered while computing (a pole, a gcd constraint) exit 1.
"""

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import product
from types import SimpleNamespace

from .catalog import CATALOG, check, report_params
from .dedekind import dc_sum
from .errors import QdeError
from .exact import format_rational, parse_rational
from .oracle import IntegrandSpec, convergence_profile
from .padic import DEFAULT_PRECISION, PadicConfig, PadicNum, require_odd_prime
from .qeuler import PadicMode, RationalMode, SymbolicMode, euler_classical, qeuler_poly, root_mode, serialize_value
from .ratfunc import RatFunc
from .reports import IdentityReport

MAX_EULER_INDEX = 64


class UsageError(Exception):
    """A wrong invocation that argparse cannot see; reported like argparse's own errors, exit 2."""


def _pieces(text: str) -> list:
    """The non-empty comma-separated entries of text, stripped."""
    return [piece for piece in map(str.strip, text.split(",")) if piece]


def _parse_kv(text: str, what: str) -> dict:
    out = {}
    for piece in _pieces(text):
        key, sep, value = piece.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise UsageError(f"bad {what} entry {piece!r}, expected key=value")
        out[key.strip()] = value.strip()
    return out


def _parse_q_spec(text: str, p) -> Fraction:
    """A rational q, with '1+p' accepted when a prime is in scope."""
    if text.replace(" ", "") in ("1+p", "p+1"):
        if p is None:
            raise UsageError("q spec '1+p' needs a prime in scope")
        return Fraction(1 + p)
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot read q value {text!r}")


def _positive_int(text: str, what: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise UsageError(f"{what} must be a positive integer, got {text!r}")
    return n


def _odd_prime(p: int) -> int:
    """p where it is an odd prime; elsewhere padic's own message, as a usage error."""
    try:
        require_odd_prime(p)
    except QdeError as exc:
        raise UsageError(str(exc))
    return p


def parse_mode(text: str):
    """Mode selector: 'symbolic[:scale=S]' | 'rational:q=V' | 'padic:p=P[,K=..][,q=..]'.

    Returns (kind, payload): the mode itself, or for symbolic the
    explicit scale, None for per-point automatic choice.
    """
    head, _, rest = text.partition(":")
    head = head.strip()
    opts = _parse_kv(rest, "mode")
    if head == "symbolic":
        scale = opts.pop("scale", None)
        parsed = ("symbolic", None if scale is None else _positive_int(scale, "scale"))
    elif head == "rational":
        if "q" not in opts:
            raise UsageError("rational mode needs q=, e.g. rational:q=4")
        parsed = ("rational", RationalMode(_parse_q_spec(opts.pop("q"), None)))
    elif head == "padic":
        if "p" not in opts:
            raise UsageError("padic mode needs p=, e.g. padic:p=3,K=32,q=1+p")
        p = _odd_prime(_positive_int(opts.pop("p"), "p"))
        if "K" in opts:
            kdigits = _positive_int(opts.pop("K"), "K")
        else:
            kdigits = _positive_int(os.environ.get("QDE_PRECISION", str(DEFAULT_PRECISION)), "QDE_PRECISION")
        q0 = _parse_q_spec(opts.pop("q", "1+p"), p)
        try:
            parsed = ("padic", PadicMode(PadicNum.from_rational(q0, p, kdigits), PadicConfig(p, kdigits)))
        except QdeError as exc:
            raise UsageError(str(exc))
    else:
        raise UsageError(f"unknown mode {head!r}; use symbolic, rational:q=..., or padic:p=...")
    if opts:
        raise UsageError(f"unknown {head} mode keys {sorted(opts)}")
    return parsed


def make_mode(parsed, scale_needed: int = 1):
    kind, payload = parsed
    return SymbolicMode(payload or scale_needed) if kind == "symbolic" else payload


_RANGE_FLOOR = {
    "n": (0, 1), "m": (0, 1), "x": (0, 1), "alpha": (1, 1), "h": (1, 1),
    "k": (1, 1), "d": (1, 2), "a": (1, 1), "N": (1, 1), "p": (3, 2),
}


def parse_params(text: str) -> dict:
    """Sweep spec 'n<=6,alpha=2,x=1/2' to {key: [values]}.

    'key=v' pins one value; 'key<=B' sweeps from the key's floor up to
    B (step 2 where only odd values make sense).  The unicode <= sign
    is accepted too.
    """
    out = {}
    for piece in _pieces(text):
        op = next((o for o in ("<=", "≤") if o in piece), "=")
        key, sep, value = piece.partition(op)
        key, value = key.strip(), value.strip()
        if not (sep and key and value):
            raise UsageError(f"bad params entry {piece!r}")
        floor, step = _RANGE_FLOOR.get(key, (0, 1))
        try:
            if op == "=":
                out[key] = [parse_rational(value) if key == "x" else int(value)]
            else:
                out[key] = list(range(floor, int(value) + 1, step))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot read value {value!r} for {key}")
        if not out[key]:
            raise UsageError(f"range for {key} is empty: floor {floor}, bound {value}")
    return out


def parse_integrand(text: str) -> IntegrandSpec:
    head, _, rest = text.partition(":")
    head = head.strip()
    opts = _parse_kv(rest, "integrand")
    try:
        if head == "one":
            spec = IntegrandSpec.q_power(0)
        elif head == "bracket":
            spec = IntegrandSpec.bracket_power(int(opts.pop("n", "1")), int(opts.pop("alpha", "1")),
                                               parse_rational(opts.pop("x", "0")), int(opts.pop("l", "1")))
        elif head == "qpow":
            spec = IntegrandSpec.q_power(int(opts.pop("e", "1")), int(opts.pop("l", "1")))
        else:
            raise UsageError(f"unknown integrand {head!r}; use one, bracket:..., or qpow:...")
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot read integrand {text!r}")
    except QdeError as exc:
        raise UsageError(str(exc))
    if opts:
        raise UsageError(f"unknown integrand keys {sorted(opts)}")
    return spec


def _int_range(lo: int, hi: float = float("inf")):
    """argparse type: an int n with lo <= n <= hi."""
    def integer(text: str) -> int:
        n = int(text)
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"{n} is not in the range {lo}..{hi}")
        return n
    return integer


def _output_file(path: str) -> str:
    """argparse type: a file that may be created or overwritten, checked before any work starts."""
    if not path:
        raise argparse.ArgumentTypeError("the path is empty")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise argparse.ArgumentTypeError(f"{path!r} is not in an existing directory")
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise argparse.ArgumentTypeError(f"{path!r} is not writable")
    return path


COMMANDS = {}


def command(name: str, **options):
    """Register the decorated function as subcommand `name`; option `--key` takes add_argument(**options[key])."""
    def register(callback) -> SimpleNamespace:
        # dispatch looks .callback up on every run, so a wrapper set on it (a tracer's) is what runs
        COMMANDS[name] = SimpleNamespace(callback=callback, options=options)
        return COMMANDS[name]
    return register


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        # any -<digit> word is a value, as from Python 3.13 on, so `--x -1/2` reads like `--x -1`
        self._negative_number_matcher = re.compile(r"-\.?\d")


@cache
def _parser(prog: str) -> tuple:
    """The top-level parser and each command's parser by name, built once per process and prog.

    Building them costs more than a parse.
    """
    parser = _Parser(prog=prog, description="Exact q-Euler values, Dedekind-type alternating sums, identity sweeps.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for name, cmd in COMMANDS.items():
        doc = cmd.callback.__doc__
        sub = commands.add_parser(name, help=doc.splitlines()[0], description=doc)
        for key, kwargs in cmd.options.items():
            kwargs = {"metavar": None if "choices" in kwargs else key.upper(), **kwargs}
            if kwargs.get("default") not in (None, ""):
                kwargs = {**kwargs, "help": kwargs.get("help", "") + " (default: %(default)s)"}
            sub.add_argument("--" + key, **kwargs)
        sub.set_defaults(command=name)
    return parser, commands.choices


def _read(args: list):
    """The options of a plain `COMMAND --key value ...` line, as argparse gives them, or None.

    A plain line is a command, then `--key value` pairs: each key one of the
    command's, given at most once, each value a word that does not start with
    '-' and that passes the key's type and choices, and every required key
    there.  Keys left out take their defaults.  Any other line, such as help,
    --key=value, a negative value, an unknown, abbreviated or repeated key, a
    missing or wrong value, is None, and argparse reads it: the reader never
    decides an error, so help, usage errors and exit codes are argparse's.
    """
    cmd = COMMANDS.get(args[0]) if args else None
    if cmd is None or len(args) % 2 == 0:
        return None
    given = {}
    for flag, text in zip(args[1::2], args[2::2]):
        key = flag[2:] if flag.startswith("--") else None
        if key not in cmd.options or key in given or text.startswith("-"):
            return None
        given[key] = text
    options = {"command": args[0]}
    for key, opt in cmd.options.items():
        value = opt.get("default")
        if key in given:
            try:
                value = opt.get("type", str)(given[key])
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if "choices" in opt and value not in opt["choices"]:
                return None
        elif opt.get("required"):
            return None
        options[opt.get("dest", key)] = value
    return options


def main(args=None, prog_name: str = "qde", standalone_mode: bool = True):
    """Run one qde command line, by default sys.argv[1:].

    A usage error exits 2, verify exits 0 or 1, and the other commands exit 1 on a
    QdeError; every command exits 1, with no traceback, when stdout is closed
    before its output is written (qde ... | head).  Otherwise standalone mode
    exits 0, and without it main returns.
    """
    args = sys.argv[1:] if args is None else list(args)
    options = _read(args)
    if options is None:
        options = vars(_parser(prog_name)[0].parse_args(args))
    name = options.pop("command")
    try:
        try:
            COMMANDS[name].callback(**options)
        except UsageError as exc:
            _parser(prog_name)[1][name].error(str(exc))
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # nothing reads stdout any more: so that the interpreter's own last flush fails
        # with no traceback either, the rest of the output goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    if standalone_mode:
        sys.exit(0)


# perfbench/workloads.py and tests/conftest.py call main.main(args=..., prog_name=..., standalone_mode=...)
main.main = main


def _fail(exc: QdeError):
    """Report a computation that could not finish and exit 1."""
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(1)


FORMAT = dict(dest="fmt", choices=("json", "csv"), default="json")


@command("euler", n=dict(dest="max_n", type=_int_range(0, MAX_EULER_INDEX), required=True,
                         help=f"largest index (at most {MAX_EULER_INDEX})"), format=FORMAT)
def cmd_euler(max_n, fmt):
    """Table of classical Euler polynomials E_0..E_n."""
    rows = []
    for i in range(max_n + 1):
        poly = euler_classical(i)
        coeffs = [format_rational(c) for c in poly.coeffs] or ["0"]
        rows.append({"n": i, "coefficients": coeffs, "text": poly.render("x")})
    if fmt == "json":
        print(json.dumps(rows, sort_keys=True))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n"] + [f"c{j}" for j in range(max_n + 1)])
    for row in rows:
        pad = [""] * (max_n + 1 - len(row["coefficients"]))
        writer.writerow([row["n"]] + row["coefficients"] + pad)


@command("dcsum", m=dict(type=_int_range(0), required=True), h=dict(type=_int_range(1), required=True),
         k=dict(type=_int_range(1), required=True), format=FORMAT)
def cmd_dcsum(m, h, k, fmt):
    """One classical alternating Dedekind-type sum, exactly."""
    try:
        value = dc_sum(m, h, k)
    except QdeError as exc:
        _fail(exc)
    if fmt == "json":
        print(json.dumps({"m": m, "h": h, "k": k, "value": format_rational(value)}, sort_keys=True))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["m", "h", "k", "value"])
    writer.writerow([m, h, k, format_rational(value)])


@command("qeuler", n=dict(type=_int_range(0), required=True), alpha=dict(type=_int_range(1), default=1),
         x=dict(dest="x_text", default="0", help="rational argument, e.g. 1/3"),
         mode=dict(dest="mode_text", default="symbolic"))
def cmd_qeuler(n, alpha, x_text, mode_text):
    """One weighted q-Euler value in the chosen coefficient mode."""
    try:
        x = parse_rational(x_text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot read x value {x_text!r}")
    parsed = parse_mode(mode_text)
    mode = make_mode(parsed, x.denominator)
    try:
        value = qeuler_poly(n, alpha, x, mode)
    except QdeError as exc:
        _fail(exc)
    payload = {"n": n, "alpha": alpha, "x": str(x), "mode": root_mode(mode).describe(),
               "value": serialize_value(value)}
    if isinstance(value, RatFunc):
        payload["text"] = value.render()
    print(json.dumps(payload, sort_keys=True))


@command("verify", identity=dict(choices=list(CATALOG), required=True),
         variant=dict(choices=("printed", "corrected", "both"), default="both"),
         params=dict(dest="params_text", default="", help="sweep spec like 'n<=6,alpha=2,x=1/2'"),
         mode=dict(dest="mode_text", default="symbolic"),
         out=dict(dest="out_path", type=_output_file, help="also write the report lines to this file"))
def cmd_verify(identity, variant, params_text, mode_text, out_path):
    """Check one identity over a parameter grid, one JSON line each.

    Exits 0 only when every point passes under every selected variant;
    a failing variant is reported, not raised.
    """
    entry = CATALOG[identity]
    variants = entry.variants if variant == "both" else (variant,)
    if not set(variants) <= set(entry.variants):
        raise UsageError(f"identity {identity} has no {variant!r} form")
    table = {key: list(values) for key, values in entry.defaults.items()}
    for key, values in parse_params(params_text).items():
        if key not in entry.keys:
            raise UsageError(f"identity {identity} takes keys {', '.join(entry.keys)}; not {key!r}")
        table[key] = values
    points = [dict(zip(entry.keys, combo)) for combo in product(*(table[k] for k in entry.keys))]
    parsed_mode = parse_mode(mode_text)

    reports = []
    for point in points:
        mode = make_mode(parsed_mode, entry.scale(**point))
        for v in variants:
            try:
                reports.append(check(identity, v, point, mode))
            except QdeError as exc:
                params = report_params(identity, point, mode)
                status = {"fail": {"error": str(exc)}}
                reports.append(IdentityReport(identity, entry.label(v), params, status, 0))

    lines = [report.json_line() for report in reports]
    for line in lines:
        print(line)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    sys.exit(0 if all(report.passed for report in reports) else 1)


@command("oracle",
         integrand=dict(required=True, help="one | bracket:n=1,alpha=1[,x=..,l=..] | qpow:e=2[,l=..]; q is "
                                            "rational, so a fractional x needs l*alpha*x to be an integer"),
         p=dict(type=int, default=3), q=dict(dest="q_text", default="1+p"),
         level=dict(type=_int_range(1), default=4, help="profile levels 1..LEVEL"))
def cmd_oracle(integrand, p, q_text, level):
    """Riemann-sum convergence profile against the closed form."""
    _odd_prime(p)
    spec = parse_integrand(integrand)
    q0 = _parse_q_spec(q_text, p)
    try:
        profile = convergence_profile(spec, range(1, level + 1), RationalMode(q0), p=p)
    except QdeError as exc:
        _fail(exc)
    payload = {"integrand": spec.describe(), "p": p, "q": format_rational(q0), "profile": profile}
    print(json.dumps(payload, sort_keys=True))


if __name__ == "__main__":
    main()
