"""Command line front end.

Five subcommands: euler and dcsum print exact tables (JSON or CSV),
qeuler prints one value in a chosen coefficient mode, verify sweeps an
identity over a parameter grid and streams one JSON report per point,
and oracle prints a convergence profile of definition-level Riemann
sums against the closed form.

Exit codes: 0 all good, 1 a computation or an identity check failed,
2 the invocation itself was wrong.  Flag values outside their
documented ranges count as usage errors; domain violations discovered
while computing (a pole, a gcd constraint) exit 1.
"""

import csv
import json
import os
import sys
from fractions import Fraction
from itertools import product

import click

from .catalog import CATALOG, check, report_params
from .dedekind import dc_sum
from .errors import QdeError
from .exact import format_rational, parse_rational
from .oracle import IntegrandSpec, convergence_profile
from .padic import DEFAULT_PRECISION, PadicConfig, PadicNum, is_odd_prime
from .qeuler import (
    PadicMode,
    RationalMode,
    SymbolicMode,
    euler_classical,
    qeuler_poly,
    root_mode,
    serialize_value,
)
from .ratfunc import RatFunc
from .reports import IdentityReport

MAX_EULER_INDEX = 64


def _parse_kv(text: str, what: str) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, sep, value = piece.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise click.UsageError(f"bad {what} entry {piece!r}, expected key=value")
        out[key.strip()] = value.strip()
    return out


def _parse_q_spec(text: str, p) -> Fraction:
    """A rational q, with '1+p' accepted when a prime is in scope."""
    if text.replace(" ", "") in ("1+p", "p+1"):
        if p is None:
            raise click.UsageError("q spec '1+p' needs a prime in scope")
        return Fraction(1 + p)
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"cannot read q value {text!r}")


def _env_precision() -> int:
    raw = os.environ.get("QDE_PRECISION")
    if raw is None:
        return DEFAULT_PRECISION
    try:
        k = int(raw)
    except ValueError:
        k = 0
    if k < 1:
        raise click.UsageError(f"QDE_PRECISION must be a positive integer, got {raw!r}")
    return k


def parse_mode(text: str):
    """Mode selector: 'symbolic[:scale=S]' | 'rational:q=V' | 'padic:p=P[,K=..][,q=..]'.

    Returns (kind, payload); symbolic payload is the explicit scale or
    None for per-point automatic choice.
    """
    head, _, rest = text.partition(":")
    head = head.strip()
    opts = _parse_kv(rest, "mode")
    if head == "symbolic":
        scale = opts.pop("scale", None)
        if opts:
            raise click.UsageError(f"unknown symbolic mode keys {sorted(opts)}")
        if scale is not None:
            try:
                scale = int(scale)
            except ValueError:
                raise click.UsageError(f"scale must be an integer, got {scale!r}")
            if scale < 1:
                raise click.UsageError(f"scale must be >= 1, got {scale}")
        return ("symbolic", scale)
    if head == "rational":
        if "q" not in opts:
            raise click.UsageError("rational mode needs q=, e.g. rational:q=4")
        q0 = _parse_q_spec(opts.pop("q"), None)
        if opts:
            raise click.UsageError(f"unknown rational mode keys {sorted(opts)}")
        return ("rational", q0)
    if head == "padic":
        if "p" not in opts:
            raise click.UsageError("padic mode needs p=, e.g. padic:p=3,K=32,q=1+p")
        try:
            p = int(opts.pop("p"))
        except ValueError:
            raise click.UsageError("p must be an integer")
        if not is_odd_prime(p):
            raise click.UsageError(f"p must be an odd prime, got {p}")
        kdigits = opts.pop("K", None)
        if kdigits is None:
            kdigits = _env_precision()
        else:
            try:
                kdigits = int(kdigits)
            except ValueError:
                kdigits = 0
            if kdigits < 1:
                raise click.UsageError("K must be a positive integer")
        q0 = _parse_q_spec(opts.pop("q", "1+p"), p)
        if opts:
            raise click.UsageError(f"unknown padic mode keys {sorted(opts)}")
        try:
            mode = PadicMode(PadicNum.from_rational(q0, p, kdigits), PadicConfig(p, kdigits))
        except QdeError as exc:
            raise click.UsageError(str(exc))
        return ("padic", mode)
    raise click.UsageError(f"unknown mode {head!r}; use symbolic, rational:q=..., or padic:p=...")


def make_mode(parsed, scale_needed: int = 1):
    kind, payload = parsed
    if kind == "symbolic":
        return SymbolicMode(payload or scale_needed)
    if kind == "rational":
        return RationalMode(payload)
    return payload


_RANGE_FLOOR = {
    "n": (0, 1), "m": (0, 1), "x": (0, 1), "alpha": (1, 1), "h": (1, 1),
    "k": (1, 1), "d": (1, 2), "a": (1, 1), "N": (1, 1), "p": (3, 2),
}

_FRACTION_KEYS = ("x",)


def _parse_point_value(key: str, text: str):
    try:
        if key in _FRACTION_KEYS:
            return parse_rational(text)
        return int(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"cannot read value {text!r} for {key}")


def parse_params(text: str) -> dict:
    """Sweep spec 'n<=6,alpha=2,x=1/2' to {key: [values]}.

    'key=v' pins one value; 'key<=B' sweeps from the key's floor up to
    B (step 2 where only odd values make sense).  The unicode <= sign
    is accepted too.
    """
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        op = next((o for o in ("<=", "≤", "=") if o in piece), None)
        if op is None:
            raise click.UsageError(f"bad params entry {piece!r}")
        key, _, value = piece.partition(op)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise click.UsageError(f"bad params entry {piece!r}")
        if op == "=":
            out[key] = [_parse_point_value(key, value)]
        else:
            floor, step = _RANGE_FLOOR.get(key, (0, 1))
            try:
                top = int(value)
            except ValueError:
                raise click.UsageError(f"range bound for {key} must be an integer, got {value!r}")
            if top < floor:
                raise click.UsageError(f"range for {key} is empty: floor {floor}, bound {top}")
            out[key] = list(range(floor, top + 1, step))
    return out


def parse_integrand(text: str) -> IntegrandSpec:
    head, _, rest = text.partition(":")
    head = head.strip()
    opts = _parse_kv(rest, "integrand")
    try:
        if head == "one":
            if opts:
                raise click.UsageError("'one' takes no parameters")
            return IntegrandSpec.q_power(0)
        if head == "bracket":
            spec = IntegrandSpec.bracket_power(
                int(opts.pop("n", "1")),
                int(opts.pop("alpha", "1")),
                parse_rational(opts.pop("x", "0")),
                int(opts.pop("l", "1")),
            )
        elif head == "qpow":
            spec = IntegrandSpec.q_power(int(opts.pop("e", "1")), int(opts.pop("l", "1")))
        else:
            raise click.UsageError(f"unknown integrand {head!r}; use one, bracket:..., or qpow:...")
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"cannot read integrand {text!r}")
    except QdeError as exc:
        raise click.UsageError(str(exc))
    if opts:
        raise click.UsageError(f"unknown integrand keys {sorted(opts)}")
    return spec


@click.group()
def main():
    """Exact q-Euler values, Dedekind-type alternating sums, identity sweeps."""


@main.command("euler")
@click.option("--n", "max_n", type=click.IntRange(0, MAX_EULER_INDEX), required=True,
              help=f"largest index (at most {MAX_EULER_INDEX})")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_euler(max_n, fmt):
    """Table of classical Euler polynomials E_0..E_n."""
    rows = []
    for i in range(max_n + 1):
        poly = euler_classical(i)
        coeffs = [format_rational(c) for c in poly.coeffs] or ["0"]
        rows.append({"n": i, "coefficients": coeffs, "text": poly.render("x")})
    if fmt == "json":
        click.echo(json.dumps(rows, sort_keys=True))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n"] + [f"c{j}" for j in range(max_n + 1)])
    for row in rows:
        pad = [""] * (max_n + 1 - len(row["coefficients"]))
        writer.writerow([row["n"]] + row["coefficients"] + pad)


@main.command("dcsum")
@click.option("--m", type=click.IntRange(0, None), required=True)
@click.option("--h", type=click.IntRange(1, None), required=True)
@click.option("--k", type=click.IntRange(1, None), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
def cmd_dcsum(m, h, k, fmt):
    """One classical alternating Dedekind-type sum, exactly."""
    try:
        value = dc_sum(m, h, k)
    except QdeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    if fmt == "json":
        click.echo(json.dumps({"m": m, "h": h, "k": k, "value": format_rational(value)}, sort_keys=True))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["m", "h", "k", "value"])
    writer.writerow([m, h, k, format_rational(value)])


@main.command("qeuler")
@click.option("--n", type=click.IntRange(0, None), required=True)
@click.option("--alpha", type=click.IntRange(1, None), default=1, show_default=True)
@click.option("--x", "x_text", default="0", show_default=True, help="rational argument, e.g. 1/3")
@click.option("--mode", "mode_text", default="symbolic", show_default=True)
def cmd_qeuler(n, alpha, x_text, mode_text):
    """One weighted q-Euler value in the chosen coefficient mode."""
    try:
        x = parse_rational(x_text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"cannot read x value {x_text!r}")
    parsed = parse_mode(mode_text)
    mode = make_mode(parsed, x.denominator)
    try:
        value = qeuler_poly(n, alpha, x, mode).value
    except QdeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    payload = {
        "n": n, "alpha": alpha, "x": str(x),
        "mode": root_mode(mode).describe(),
        "value": serialize_value(value),
    }
    if isinstance(value, RatFunc):
        payload["text"] = value.render()
    click.echo(json.dumps(payload, sort_keys=True))


@main.command("verify")
@click.option("--identity", type=click.Choice(list(CATALOG)), required=True)
@click.option("--variant", type=click.Choice(["printed", "corrected", "both"]), default="both", show_default=True)
@click.option("--params", "params_text", default="", help="sweep spec like 'n<=6,alpha=2,x=1/2'")
@click.option("--mode", "mode_text", default="symbolic", show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False, writable=True), default=None,
              help="also write the report lines to this file")
def cmd_verify(identity, variant, params_text, mode_text, out_path):
    """Check one identity over a parameter grid, one JSON line each.

    Exits 0 only when every point passes under every selected variant;
    a failing variant is reported, not raised.
    """
    entry = CATALOG[identity]
    if variant == "both":
        variants = entry.variants
    elif variant in entry.variants:
        variants = (variant,)
    else:
        raise click.UsageError(f"identity {identity} has no {variant!r} form")
    table = {key: list(values) for key, values in entry.defaults.items()}
    for key, values in parse_params(params_text).items():
        if key not in entry.keys:
            raise click.UsageError(
                f"identity {identity} takes keys {', '.join(entry.keys)}; not {key!r}"
            )
        table[key] = values
    points = [dict(zip(entry.keys, combo)) for combo in product(*(table[k] for k in entry.keys))]
    parsed_mode = parse_mode(mode_text)

    reports = []
    for point in points:
        mode = make_mode(parsed_mode, entry.scale(point))
        for v in variants:
            try:
                reports.append(check(identity, v, point, mode))
            except QdeError as exc:
                params = report_params(identity, point, mode)
                status = {"fail": {"error": str(exc)}}
                reports.append(IdentityReport(identity, entry.label(v), params, status, 0))

    lines = [report.json_line() for report in reports]
    for line in lines:
        click.echo(line)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    sys.exit(0 if all(report.passed for report in reports) else 1)


@main.command("oracle")
@click.option("--integrand", required=True,
              help="one | bracket:n=1,alpha=1[,x=..,l=..] | qpow:e=2[,l=..]; q is rational, "
                   "so a fractional x needs l*alpha*x to be an integer")
@click.option("--p", type=int, default=3, show_default=True)
@click.option("--q", "q_text", default="1+p", show_default=True)
@click.option("--level", type=click.IntRange(1, None), default=4, show_default=True,
              help="profile levels 1..LEVEL")
def cmd_oracle(integrand, p, q_text, level):
    """Riemann-sum convergence profile against the closed form."""
    if not is_odd_prime(p):
        raise click.UsageError(f"p must be an odd prime, got {p}")
    spec = parse_integrand(integrand)
    q0 = _parse_q_spec(q_text, p)
    try:
        profile = convergence_profile(spec, range(1, level + 1), RationalMode(q0), p=p)
    except QdeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    payload = {
        "integrand": spec.describe(), "p": p, "q": format_rational(q0),
        "profile": profile,
    }
    click.echo(json.dumps(payload, sort_keys=True))


if __name__ == "__main__":
    main()
