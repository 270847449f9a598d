import re
from fractions import Fraction
from pathlib import Path

import pytest

import qde

README = Path(__file__).resolve().parent.parent / "README.md"

# one mode per coefficient kind, with the type each kernel returns in it
MODES = [
    (qde.RationalMode(2), Fraction),
    (qde.SymbolicMode(), qde.RatFunc),
    (qde.PadicMode(qde.PadicNum.from_rational(Fraction(4), 3, 32), qde.PadicConfig(3, 32)), qde.PadicNum),
]
MODE_IDS = [kind.__name__ for _, kind in MODES]


def test_every_public_name_resolves():
    # a name deleted from a module must leave __all__ too
    missing = [name for name in qde.__all__ if not hasattr(qde, name)]
    assert missing == []
    assert len(set(qde.__all__)) == len(qde.__all__)


@pytest.mark.parametrize("mode, kind", MODES, ids=MODE_IDS)
def test_kernels_return_the_bare_value(mode, kind):
    values = [
        qde.qeuler_poly(2, 1, Fraction(1, 2), qde.BaseLifted(mode, 2)),
        qde.qeuler_poly_additive(2, 1, 1, mode),
        qde.q_dc_sum(1, 1, 3, 1, 3, mode),
        qde.interp_value(1, 1, 2, "interpolated", mode, p=3),
        qde.padic_dc_sum(1, 1, 2, 1, 3, mode),
        qde.closed_form(qde.IntegrandSpec.q_power(2), mode),
        qde.closed_form(qde.IntegrandSpec.bracket_power(2, 1, 0), mode),
    ]
    assert [type(v) for v in values] == [kind] * len(values)


@pytest.mark.parametrize("mode, kind", MODES, ids=MODE_IDS)
def test_measure_and_riemann_level_keep_the_tagged_value(mode, kind):
    # perfbench/workloads.py reads .value on these two
    for v in (qde.measure(1, 1, mode, 3), qde.riemann_level(qde.IntegrandSpec.q_power(2), 1, mode, 3)):
        assert type(v) is qde.QEulerValue
        assert type(v.value) is kind
        assert v.mode == mode.kind


def test_library_tour_results_hold():
    """Each line of README's Library tour with a commented result returns that result."""
    tour = README.read_text().split("## Library tour\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace, pending, previous, results = {}, [], None, []
    for line in tour.splitlines():
        if not (m := re.fullmatch(r"(\S.*?)\s+# (.+)", line)):
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        got = eval(m[1], namespace)
        want = previous if m[2] == "the same, from the recurrence" else eval(m[2], namespace)
        results.append((m[1], got, want))
        previous = got
    assert len(results) == 5
    for code, got, want in results:
        assert got == want, code
