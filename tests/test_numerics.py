import ast
import math
from pathlib import Path

import pytest

from sgdphaselab import AnalysisDomainError
from sgdphaselab.numerics import bisect_monotone, gamma_fn

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

    def test_xtol(self):
        root = bisect_monotone(lambda x: x - math.pi, 0.0, 10.0, xtol=1e-3)
        assert abs(root - math.pi) <= 1e-3

    def test_iteration_cap_raises(self):
        with pytest.raises(AnalysisDomainError, match="converge"):
            bisect_monotone(lambda x: x - math.pi, 0.0, 10.0, maxiter=5)


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
