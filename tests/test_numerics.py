import ast
import math
from pathlib import Path

import numpy as np
import pytest

from sgdphaselab import AnalysisDomainError, GenFuncContext, PowerLawSpec, build_power_law
from sgdphaselab.genfunc import _uv_at
from sgdphaselab.numerics import N0, bisect_monotone, gamma_fn

# reference values from 50-digit arithmetic
GAMMA_TABLE = [
    (0.25, 3.6256099082219083),
    (0.5, 1.772453850905516),        # sqrt(pi)
    (0.6666666666666666, 1.3541179394264005),
    (1.0, 1.0),
    (1.4616321449683622, 0.8856031944108887),  # minimum of gamma on (0, inf)
    (1.5, 0.88622692545275801),
    (2.0, 1.0),
    (3.75, 4.4229884104602506),
    (5.5, 52.34277778455352),
    (10.0, 362880.0),
    (17.25, 42249866656927.036),
    (29.5, 1.6348125198274266e30),
]


class TestGamma:
    def test_tabulated_values(self):
        for x, expect in GAMMA_TABLE:
            assert gamma_fn(x) == pytest.approx(expect, rel=1e-10)

    def test_sqrt_pi(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_recurrence(self, rng):
        for _ in range(50):
            x = rng.uniform(0.1, 20.0)
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-11)

    def test_reflection_negative_arguments(self):
        # Gamma(-0.5) = -2 sqrt(pi)
        assert gamma_fn(-0.5) == pytest.approx(-2 * math.sqrt(math.pi), rel=1e-11)

    def test_poles_raise(self):
        for x in (0.0, -0.0, -1.0, -7.0):
            with pytest.raises(AnalysisDomainError):
                gamma_fn(x)


class TestBisect:
    def test_simple_root(self):
        assert bisect_monotone(lambda x: x - 2.0, 0.0, 5.0) == pytest.approx(2.0, abs=1e-14)

    def test_decreasing_function(self):
        root = bisect_monotone(lambda x: math.exp(-x) - 0.5, 0.0, 10.0)
        assert root == pytest.approx(math.log(2.0), rel=1e-13)

    def test_exact_endpoint(self):
        assert bisect_monotone(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(AnalysisDomainError):
            bisect_monotone(lambda x: x + 1.0, 0.0, 1.0)

    def test_iteration_cap_raises(self):
        # a step function gives the interpolation nothing to shortcut
        with pytest.raises(AnalysisDomainError, match="converge"):
            bisect_monotone(lambda x: math.copysign(1.0, x - math.pi), 0.0, 10.0, maxiter=5)


def plain_bisection_evaluations(f, lo, hi):
    """Evaluations inside [lo, hi] that midpoint bisection takes to adjacent floats."""
    flo, n = f(lo), 0
    while lo < 0.5 * (lo + hi) < hi:
        mid, n = 0.5 * (lo + hi), n + 1
        fmid = f(mid)
        if fmid == 0.0:
            break
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return n


def solve_counted(f, lo, hi, maxiter=2000):
    """bisect_monotone's root and the evaluations it made inside [lo, hi]."""
    points = []
    root = bisect_monotone(lambda x: points.append(x) or f(x), lo, hi, maxiter=maxiter)
    return root, len(points) - 2


def zu_minus_one():
    spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 1000))
    u = _uv_at(GenFuncContext(spec, 1.2 / spec.lambda_max, 0.0, 1.0, 1.0))
    return lambda z: z * u(z) - 1.0


ROOT_CASES = {  # f, bracket, and the root where it is known to the last bit
    "linear": (lambda x: x - 2.0, 0.0, 5.0, 2.0),
    "exponential": (lambda x: math.exp(-x) - 0.5, 0.0, 10.0, None),
    "step": (lambda x: math.copysign(1.0, x - math.pi), 0.0, 10.0, None),
    "pole outside": (lambda x: 1.0 / (1.0000001 - x) - 1e6, 0.0, 1.0, None),
    "tiny root": (lambda x: x - 1e-200, 1e-300, 1.0, 1e-200),
    "zU - 1": (zu_minus_one(), 1e-300, float(np.nextafter(1.0, 0.0)), None),
}


class TestRootSteps:
    @pytest.mark.parametrize("name", ROOT_CASES)
    def test_never_costs_more_than_bisection_plus_slack(self, name):
        f, lo, hi, _ = ROOT_CASES[name]
        # N0 halvings of slack, plus one for the rounding of float midpoints
        assert solve_counted(f, lo, hi)[1] <= plain_bisection_evaluations(f, lo, hi) + N0 + 1

    @pytest.mark.parametrize("name", ["exponential", "tiny root", "zU - 1"])
    def test_smooth_functions_converge_in_a_third_of_bisection(self, name):
        f, lo, hi, _ = ROOT_CASES[name]
        assert 3 * solve_counted(f, lo, hi)[1] <= plain_bisection_evaluations(f, lo, hi)

    @pytest.mark.parametrize("name", ROOT_CASES)
    def test_ends_on_adjacent_floats_with_the_smaller_residual(self, name):
        f, lo, hi, exact = ROOT_CASES[name]
        seen = {}

        def recorded(x):
            seen[x] = f(x)
            return seen[x]

        root = bisect_monotone(recorded, lo, hi, maxiter=2000)
        if exact is not None:
            assert root == exact
        if seen[root] == 0.0:
            return
        other = next(x for x in (math.nextafter(root, -math.inf), math.nextafter(root, math.inf))
                     if x in seen and (seen[x] > 0) != (seen[root] > 0))
        assert abs(seen[root]) <= abs(seen[other])

    def test_maxiter_bounds_the_evaluations(self):
        calls = []
        with pytest.raises(AnalysisDomainError, match="converge"):
            bisect_monotone(lambda x: calls.append(x) or ROOT_CASES["step"][0](x), 0.0, 10.0, maxiter=20)
        assert len(calls) == 2 + 20 + N0 + 1

    def test_bracket_bisection_closes_within_maxiter_still_converges(self):
        f = ROOT_CASES["step"][0]
        n = plain_bisection_evaluations(f, 0.0, 10.0)
        assert bisect_monotone(f, 0.0, 10.0, maxiter=n) == pytest.approx(math.pi, rel=1e-15)


def test_package_has_no_assert_statements():
    # contracts must survive python -O, which strips assert statements
    package = Path(__file__).resolve().parents[1] / "src" / "sgdphaselab"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
