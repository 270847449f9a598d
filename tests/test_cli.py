import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qde
from conftest import run_cli
from qde import cli
from qde.catalog import CATALOG
from qde.cli import main


def lines_of(result):
    return [ln for ln in result.output.splitlines() if ln]


def payloads(result):
    # report lines minus the timing field, for determinism comparisons
    out = []
    for ln in lines_of(result):
        obj = json.loads(ln)
        obj.pop("elapsed_ms", None)
        out.append(obj)
    return out


# usage errors, per command: a missing required option, a bad choice, an
# out-of-range or unreadable value, an unknown option, an abbreviated option
USAGE_ERRORS = [
    ["euler"],
    ["euler", "--n", "2", "--format", "xml"],
    ["euler", "--n", "65"],
    ["euler", "--n", "-1"],
    ["euler", "--n", "two"],
    ["euler", "--n", "2", "--bogus", "1"],
    ["euler", "--n", "2", "--form", "csv"],
    ["dcsum", "--m", "1", "--h", "1"],
    ["dcsum", "--m", "1", "--h", "1", "--k", "3", "--format", "xml"],
    ["dcsum", "--m", "1", "--h", "0", "--k", "3"],
    ["dcsum", "--m", "1", "--h", "1", "--k", "3", "--bogus", "1"],
    ["dcsum", "--m", "1", "--h", "1", "--k", "3", "--form", "csv"],
    ["qeuler"],
    ["qeuler", "--n", "-1"],
    ["qeuler", "--n", "1", "--alpha", "0"],
    ["qeuler", "--n", "1", "--bogus", "1"],
    ["qeuler", "--n", "1", "--al", "2"],
    ["verify"],
    ["verify", "--identity", "eq99"],
    ["verify", "--identity", "eq4", "--variant", "neither"],
    ["verify", "--identity", "eq4", "--bogus", "1"],
    ["verify", "--iden", "eq4"],
    ["oracle"],
    ["oracle", "--integrand", "one", "--level", "0"],
    ["oracle", "--integrand", "one", "--p", "three"],
    ["oracle", "--integrand", "one", "--bogus", "1"],
    ["oracle", "--integrand", "one", "--lev", "2"],
    [],
    ["spam"],
]

# well-formed `COMMAND --key value` lines, which the reader takes, and lines it leaves
# to argparse: a --key=value spelling, a negative value, a repeated key
PLAIN_LINES = [
    ["verify", "--identity", "eq4", "--params", "n=1,x=1", "--mode", "rational:q=2"],
    ["euler", "--n", "2"],
    ["dcsum", "--m", "1", "--h", "2", "--k", "3"],
    ["oracle", "--integrand", "one", "--level", "1"],
]
DEFERRED_LINES = [
    ["qeuler", "--n", "2", "--x=-1/2", "--mode", "padic:p=3,K=8"],
    ["qeuler", "--n", "1", "--x", "-1/2"],
    ["euler", "--n", "2", "--n", "3"],
]

# value words besides each key's own good ones: wrong for one key's type or choices or
# another's, empty, negative, help, the end of options
ODD_WORDS = ["", "two", "0", "65", "1/3", "xml", "neither", "eq99", ".", "missing/r.jsonl",
             "-1", "-1/2", "-h", "--help", "--"]


@st.composite
def command_lines(draw):
    """qde command lines: mostly a command and its `--key value` pairs, with damage argparse must see."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    options = cli.COMMANDS[name].options

    def value(key):
        good = st.sampled_from(options[key].get("choices") or ["1", "2", "3"])
        return draw(good | good | st.sampled_from(ODD_WORDS))

    def index(pairs, end=0):
        return draw(st.integers(0, len(pairs) - 1 + end))

    keys = [key for key in options if options[key].get("required") or draw(st.booleans())]
    pairs = [["--" + key, value(key)] for key in draw(st.permutations(keys))]
    for edit in draw(st.lists(st.sampled_from(["drop", "repeat", "equals", "unknown", "abbreviate", "stray"]),
                              max_size=2)):
        if edit == "repeat" or not pairs:
            # a second value for a key, or a key left out before
            key = draw(st.sampled_from(list(options)))
            pairs.insert(index(pairs, 1), ["--" + key, value(key)])
        elif edit == "drop":
            del pairs[index(pairs)]
        elif edit == "equals":
            i = index(pairs)
            pairs[i] = ["=".join(pairs[i])]
        elif edit == "unknown":
            pairs.insert(index(pairs, 1), ["--bogus", "1"])
        elif edit == "abbreviate":
            i = index(pairs)
            pairs[i][0] = pairs[i][0][:-1]
        else:
            pairs.insert(index(pairs, 1), [draw(st.sampled_from(ODD_WORDS + ["1", "--n"]))])
    head = draw(st.sampled_from([name] * 6 + ["spam", "-h", "--", ""]))
    return [head] + [word for pair in pairs for word in pair]


class TestReader:
    @settings(max_examples=400)
    @given(command_lines())
    def test_reads_what_argparse_reads(self, args):
        # the reader gives up (None) or gives exactly argparse's namespace; and it gives up
        # only where the line is not a plain `COMMAND --key value` one or argparse rejects it
        got = cli._read(args)
        want = None
        subparsers = cli._parser("qde")[1]
        if args[0] in subparsers:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    namespace, extras = subparsers[args[0]].parse_known_args(args[1:])
                    want = None if extras else vars(namespace)
                except SystemExit:
                    pass
        if got is not None:
            assert got == want
        flags, values = args[1::2], args[2::2]
        plain = (args[0] in cli.COMMANDS and len(args) % 2 == 1 and len(set(flags)) == len(flags)
                 and all(f.startswith("--") and f[2:] in cli.COMMANDS[args[0]].options for f in flags)
                 and not any(v.startswith("-") for v in values))
        assert (got is not None) == (plain and want is not None)


class TestContract:
    @pytest.mark.parametrize("args", USAGE_ERRORS, ids=" ".join)
    def test_usage_error_exits_two(self, args):
        res = run_cli(args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr

    @pytest.mark.parametrize("args, value", [
        (["qeuler", "--n", "1"], ["--x", "-1"]),
        (["qeuler", "--n", "1"], ["--x", "-1/2"]),
        (["oracle", "--integrand", "one", "--level", "2"], ["--q", "-2"]),
    ])
    def test_negative_value_as_its_own_argument(self, args, value):
        res = run_cli(args + value)
        assert res.exit_code == 0
        assert res.stdout == run_cli(args + ["=".join(value)]).stdout

    @pytest.mark.parametrize("args", [
        ["dcsum", "--m", "1", "--h", "2", "--k", "4"],
        ["qeuler", "--n", "1", "--mode", "rational:q=-1"],
        ["oracle", "--integrand", "one", "--p", "7", "--level", "20"],
    ], ids=" ".join)
    def test_qde_error_exits_one(self, args):
        res = run_cli(args)
        assert res.exit_code == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1

    @pytest.mark.parametrize("where", [".", "missing/reports.jsonl", ""])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, where):
        # a directory, a file in no directory, or an empty path: reported before any check runs, so nothing on
        # stdout
        path = str(tmp_path / where) if where else ""
        res = run_cli(["verify", "--identity", "eq4", "--params", "n=1,x=1", "--out", path])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--out" in res.stderr

    @pytest.mark.parametrize("args", [
        ["verify", "--identity", "eq4", "--params", "n<=3,alpha=1,x=2", "--mode", "rational:q=1/2"],
        ["euler", "--n", "3"],
    ], ids=" ".join)
    def test_closed_stdout_exits_one_without_a_traceback(self, args):
        # as in `qde verify ... | head -c 200`: the reader is gone before qde writes
        env = {**os.environ, "PYTHONPATH": str(Path(qde.__file__).parents[1])}
        with subprocess.Popen([sys.executable, "-m", "qde", *args], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as proc:
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert stderr == ""

    def test_in_process_entry_point(self, capsys):
        # the call shape of in-process callers: the exit code travels only in a SystemExit
        with pytest.raises(SystemExit) as exc:
            main.main(args=["verify", "--identity", "eq5", "--params", "n=1,alpha=1,d=3,x=0"],
                      prog_name="qde", standalone_mode=False)
        assert exc.value.code == 1
        assert main.main(args=["euler", "--n", "2"], prog_name="qde", standalone_mode=False) is None
        assert json.loads(capsys.readouterr().out.splitlines()[-1])[2]["text"] == "-x+x^2"

    def test_no_args_reads_the_process_arguments(self, monkeypatch, capsys):
        # the console script calls main() with no arguments
        monkeypatch.setattr(sys, "argv", ["qde", "dcsum", "--m", "1", "--h", "2", "--k", "3"])
        assert main(standalone_mode=False) is None
        assert json.loads(capsys.readouterr().out)["value"] == "-1/18"
        monkeypatch.setattr(sys, "argv", ["qde", "verify", "--identity", "eq4", "--bogus", "1"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("qde: error: unrecognized arguments: --bogus 1\n")

    @pytest.mark.parametrize("args", PLAIN_LINES + DEFERRED_LINES, ids=" ".join)
    def test_a_command_line_is_parsed_once(self, monkeypatch, args):
        # a plain line is read from the options table and never reaches argparse;
        # argparse parses any other line once, with the top-level parser
        calls = []

        def counting(name):
            parse = getattr(argparse.ArgumentParser, name)

            def counted(self, *a, **kw):
                calls.append((name, self.prog))
                return parse(self, *a, **kw)
            return counted

        for name in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(argparse.ArgumentParser, name, counting(name))
        assert run_cli(args).exit_code == 0
        if args in PLAIN_LINES:
            assert calls == []
        else:
            # the command's own parser runs inside that parse, from the subparsers action
            assert [call for call in calls if call[0] == "parse_args"] == [("parse_args", "qde")]


class TestEuler:
    def test_json_table(self):
        res = run_cli(["euler", "--n", "3"])
        assert res.exit_code == 0
        rows = json.loads(res.output)
        assert [r["n"] for r in rows] == [0, 1, 2, 3]
        assert rows[1]["coefficients"] == ["-1/2", "1"]
        assert rows[2]["text"] == "-x+x^2"

    def test_csv(self):
        res = run_cli(["euler", "--n", "2", "--format", "csv"])
        assert res.exit_code == 0
        got = lines_of(res)
        assert got[0] == "n,c0,c1,c2"
        assert got[1] == "0,1,,"
        assert got[3] == "2,0,-1,1"

    def test_index_out_of_range(self):
        res = run_cli(["euler", "--n", "65"])
        assert res.exit_code == 2


class TestDcsum:
    def test_fixture(self):
        res = run_cli(["dcsum", "--m", "1", "--h", "2", "--k", "3"])
        assert res.exit_code == 0
        assert json.loads(res.output) == {"m": 1, "h": 2, "k": 3, "value": "-1/18"}

    def test_csv(self):
        res = run_cli(["dcsum", "--m", "1", "--h", "1", "--k", "3", "--format", "csv"])
        assert lines_of(res) == ["m,h,k,value", "1,1,3,-1/6"]

    def test_domain_violation_exits_one(self):
        res = run_cli(["dcsum", "--m", "1", "--h", "2", "--k", "4"])
        assert res.exit_code == 1
        assert res.stderr.startswith("error:")

    def test_flag_range_exits_two(self):
        res = run_cli(["dcsum", "--m", "-1", "--h", "1", "--k", "2"])
        assert res.exit_code == 2


class TestQeuler:
    def test_symbolic_render(self):
        res = run_cli(["qeuler", "--n", "1"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["text"] == "(-q)/(1+q^2)"
        assert payload["mode"] == {"mode": "symbolic", "scale": 1}

    def test_fractional_x_autoscales(self):
        res = run_cli(["qeuler", "--n", "1", "--x", "1/2"])
        assert res.exit_code == 0
        assert json.loads(res.output)["mode"]["scale"] == 2

    def test_rational_pole_exits_one(self):
        res = run_cli(["qeuler", "--n", "1", "--mode", "rational:q=-1"])
        assert res.exit_code == 1
        assert "error:" in res.stderr

    def test_rational_value(self):
        res = run_cli(["qeuler", "--n", "2", "--mode", "rational:q=4"])
        assert json.loads(res.output)["value"] == "12/221"

    def test_padic_value(self):
        res = run_cli(["qeuler", "--n", "2", "--mode", "padic:p=3,K=8"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["mode"]["p"] == 3
        assert payload["value"]["precision"] <= 8

    def test_bad_x_exits_two(self):
        res = run_cli(["qeuler", "--n", "1", "--x", "spam"])
        assert res.exit_code == 2

    def test_bad_mode_exits_two(self):
        res = run_cli(["qeuler", "--n", "1", "--mode", "complex"])
        assert res.exit_code == 2
        res = run_cli(["qeuler", "--n", "1", "--mode", "padic:p=4"])
        assert res.exit_code == 2


class TestVerify:
    def test_additive_sweep_passes(self):
        res = run_cli(["verify", "--identity", "eq4", "--params", "n<=3,alpha<=2,x<=2"])
        assert res.exit_code == 0
        reports = payloads(res)
        assert len(reports) == 4 * 2 * 3
        assert all(r["status"] == "exact" for r in reports)

    @pytest.mark.parametrize("identity, params, mode", [
        ("eq4", "", "symbolic"),
        ("eq5", "n<=1,alpha=1,d<=5,x=1/2", "symbolic"),  # scales 2, 6 and 10
        ("eq5", "n<=1,alpha=1,d<=5,x=1/2", "symbolic:scale=30"),
        ("eq5", "n<=1,alpha=1,d<=5,x=1/2", "rational:q=4"),
    ])
    def test_a_sweep_prints_what_one_run_per_point_prints(self, identity, params, mode):
        sweep = run_cli(["verify", "--identity", identity, "--params", params, "--mode", mode])
        keys = CATALOG[identity].keys
        points = dict.fromkeys(",".join(f"{k}={r['params'][k]}" for k in keys) for r in payloads(sweep))
        one_each = [run_cli(["verify", "--identity", identity, "--params", point, "--mode", mode]) for point in points]
        assert payloads(sweep) == [r for res in one_each for r in payloads(res)]
        assert sweep.exit_code == max(res.exit_code for res in one_each)

    def test_distribution_both_variants(self):
        res = run_cli(["verify", "--identity", "eq5", "--params", "n=1,alpha=1,d=3,x=0"])
        assert res.exit_code == 1
        by_variant = {r["variant"]: r for r in payloads(res)}
        assert by_variant["corrected"]["status"] == "exact"
        assert "fail" in by_variant["printed"]["status"]

    def test_distribution_corrected_only_passes(self):
        res = run_cli(["verify", "--identity", "eq5", "--variant", "corrected", "--params", "n<=2,d=3,x=0"])
        assert res.exit_code == 0

    def test_main_relation_defaults(self):
        res = run_cli(["verify", "--identity", "theorem1", "--variant", "corrected"])
        assert res.exit_code == 0
        (report,) = payloads(res)
        assert report["variant"] == "interpolated"
        assert report["status"] == "exact"

    def test_error_report_matches_success_schema(self):
        # the error path labels theorem1 with its reading and times in int ms, as success does
        res = run_cli([
            "verify", "--identity", "theorem1", "--variant", "corrected",
            "--params", "m=3,h=2,k=5,p=3", "--mode", "padic:p=3,K=2",
        ])
        assert res.exit_code == 1
        (line,) = lines_of(res)
        report = json.loads(line)
        assert "error" in report["status"]["fail"]
        assert report["variant"] == "interpolated"
        assert type(report["elapsed_ms"]) is int

    @pytest.mark.parametrize("identity, variant, params, bad_q", [
        ("eq7", "corrected", "n=1,d=3", "-1"),          # power/modulus, not n/d
        ("eq4", "printed", "n=1,alpha=1,x=1", "1"),     # x as the integer 1, not "1"
        ("recursion", "corrected", "m=1,a=1", "-1"),    # index_count kept
    ])
    def test_error_params_match_success_params(self, identity, variant, params, bad_q):
        # the same points fail at a pole of bad_q and pass at q = 2
        def report_params(q):
            res = run_cli([
                "verify", "--identity", identity, "--variant", variant,
                "--params", params, "--mode", f"rational:q={q}",
            ])
            out = []
            for report in payloads(res):
                report["params"].pop("mode")
                out.append((report["params"], report["status"] == "exact"))
            return out

        bad, good = report_params(bad_q), report_params("2")
        assert good
        assert [ok for _, ok in bad] == [False] * len(bad)
        assert [ok for _, ok in good] == [True] * len(good)
        assert [p for p, _ in bad] == [p for p, _ in good]

    def test_fractional_eq4_x_is_reported_as_a_string(self):
        # the additive form rejects x = 1/2; the report still says "1/2"
        res = run_cli(["verify", "--identity", "eq4", "--params", "n=1,alpha=1,x=1/2"])
        (report,) = payloads(res)
        assert report["params"]["x"] == "1/2"
        assert "error" in report["status"]["fail"]

    def test_unavailable_variant_exits_two(self):
        res = run_cli(["verify", "--identity", "eq4", "--variant", "corrected"])
        assert res.exit_code == 2

    def test_unknown_param_key_exits_two(self):
        res = run_cli(["verify", "--identity", "eq4", "--params", "zeta=1"])
        assert res.exit_code == 2

    def test_malformed_params_exit_two(self):
        res = run_cli(["verify", "--identity", "eq4", "--params", "n<="])
        assert res.exit_code == 2

    def test_deterministic_output(self):
        args = ["verify", "--identity", "eq8", "--params", "m<=1,a=1,N=2,p=3"]
        one = run_cli(args)
        two = run_cli(args)
        assert payloads(one) == payloads(two)

    @pytest.mark.parametrize("kdigits", [3, 4, 5])
    def test_agreement_below_one_digit_fails(self, kdigits):
        # at K = 3..5 theorem1 (3,2,5) agrees to -2..0 digits: no evidence, so no pass
        res = run_cli([
            "verify", "--identity", "theorem1", "--variant", "corrected",
            "--params", "m=3,h=2,k=5,p=3", "--mode", f"padic:p=3,K={kdigits}",
        ])
        (report,) = payloads(res)
        assert set(report["status"]) == {"padic_agreement", "precision"}
        assert report["status"]["padic_agreement"] < 1
        assert res.exit_code == 1

    def test_precision_starvation_is_not_a_pole(self):
        # at K = 2 a divisor of theorem1 (3,2,5) cancels to O(3^6): out of digits, not a pole
        res = run_cli([
            "verify", "--identity", "theorem1", "--variant", "corrected",
            "--params", "m=3,h=2,k=5,p=3", "--mode", "padic:p=3,K=2",
        ])
        (report,) = payloads(res)
        error = report["status"]["fail"]["error"]
        assert "precision" in error and "pole" not in error
        assert res.exit_code == 1

    def test_workers_option_is_gone(self):
        res = run_cli(["verify", "--identity", "eq4", "--params", "n=1,x=1", "--workers", "2"])
        assert res.exit_code == 2

    def test_nonpositive_eq5_modulus_is_reported(self):
        # symbolic eq5 scales by d; d <= 0 must reach the modulus check, not crash
        res = run_cli(["verify", "--identity", "eq5", "--params", "n=1,alpha=1,d=0"])
        assert res.exit_code == 1
        assert all("modulus" in r["status"]["fail"]["error"] for r in payloads(res))

    def test_out_file_matches_stdout(self, tmp_path):
        out = tmp_path / "reports.jsonl"
        res = run_cli(["verify", "--identity", "eq4", "--params", "n=2,alpha=1,x=1", "--out", str(out)])
        assert res.exit_code == 0
        assert out.read_text() == res.output

    def test_padic_mode_run(self):
        res = run_cli([
            "verify", "--identity", "eq4", "--params", "n=2,alpha=1,x=1",
            "--mode", "padic:p=3,K=16,q=1+p",
        ])
        assert res.exit_code == 0
        (report,) = payloads(res)
        if report["status"] != "exact":
            assert report["status"]["padic_agreement"] >= 12

    def test_precision_env_and_flag(self):
        args = ["verify", "--identity", "eq4", "--params", "n=1,alpha=1,x=1", "--mode", "padic:p=3"]
        res = run_cli(args, env={"QDE_PRECISION": "12"})
        (report,) = payloads(res)
        assert report["params"]["mode"]["precision"] == 12
        res = run_cli(
            ["verify", "--identity", "eq4", "--params", "n=1,alpha=1,x=1", "--mode", "padic:p=3,K=20"],
            env={"QDE_PRECISION": "12"},
        )
        (report,) = payloads(res)
        assert report["params"]["mode"]["precision"] == 20

    def test_bad_precision_env_exits_two(self):
        res = run_cli(
            ["verify", "--identity", "eq4", "--params", "n=1,alpha=1,x=1", "--mode", "padic:p=3"],
            env={"QDE_PRECISION": "zero"},
        )
        assert res.exit_code == 2

    def test_domain_violation_is_reported_not_raised(self):
        # recursion with p not dividing N is a failing report, exit 1
        res = run_cli(
            ["verify", "--identity", "recursion", "--variant", "corrected", "--params", "m=1,a=1,N=2,p=3"]
        )
        assert res.exit_code == 1
        (report,) = payloads(res)
        assert "error" in report["status"]["fail"]


class TestOracle:
    def test_constant_profile_all_null(self):
        res = run_cli(["oracle", "--integrand", "one", "--q", "4", "--level", "3"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert [row["valuation"] for row in payload["profile"]] == [None, None, None]

    def test_bracket_profile(self):
        res = run_cli(["oracle", "--integrand", "bracket:n=2,alpha=1", "--q", "4", "--level", "4"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert [row["valuation"] for row in payload["profile"]] == [1, 2, 3, 4]
        assert payload["q"] == "4"

    def test_default_q_is_one_plus_p(self):
        res = run_cli(["oracle", "--integrand", "qpow:e=2", "--level", "2"])
        payload = json.loads(res.output)
        assert payload["q"] == "4"

    def test_guardrail_exits_one(self):
        res = run_cli(["oracle", "--integrand", "one", "--p", "7", "--level", "20"])
        assert res.exit_code == 1
        assert "error:" in res.stderr

    def test_bogus_integrand_exits_two(self):
        res = run_cli(["oracle", "--integrand", "mystery:n=1"])
        assert res.exit_code == 2
        res = run_cli(["oracle", "--integrand", "bracket:n=1,w=2"])
        assert res.exit_code == 2

    def test_even_p_exits_two(self):
        res = run_cli(["oracle", "--integrand", "one", "--p", "4"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("integrand", ["qpow:e=2", "one", "qpow:e=0"])
    @pytest.mark.parametrize("p", ["3", "5"])
    def test_pole_of_the_closed_form_exits_one(self, integrand, p):
        # at q = -1, (1 + q)/(1 + q^(e+1)) is 0/0 for even e
        res = run_cli(["oracle", "--integrand", integrand, "--p", p, "--q=-1", "--level", "2"])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")
