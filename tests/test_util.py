"""The in-house brentq against scipy.optimize.brentq, the reference it transcribes."""

import math

import numpy as np
import pytest
import scipy.optimize
from scipy import special

from finsler_sharp import _util, pde as P
from finsler_sharp._util import BRENTQ_MAXITER, BRENTQ_RTOL, brentq

# the (xtol, rtol) pairs of the library's three call sites
TOLERANCES = [(1e-14, 1e-15), (1e-15, BRENTQ_RTOL), (1e-13, 1e-14)]


def _traced(f):
    """f, and the list of the points it is evaluated at."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


def _same_bits(f, a, b, xtol, rtol):
    # the same root and the same evaluated points
    g, seen = _traced(f)
    root = brentq(g, a, b, xtol, rtol)
    g, ref_seen = _traced(f)
    assert type(root) is float
    assert root == scipy.optimize.brentq(g, a, b, xtol=xtol, rtol=rtol) and seen == ref_seen


@pytest.mark.parametrize("xtol,rtol", TOLERANCES)
def test_brentq_matches_scipy_on_the_bessel_brackets(xtol, rtol):
    # every sign change of bessel_first_zero's 129-point scan, on a grid of orders
    brackets = 0
    for nu in np.linspace(0.0, 5.0, 101):
        grid = np.linspace(max(nu, 1.0), nu + 3.0 * nu ** (1.0 / 3.0) + 3.0, 129)
        vals = special.jv(nu, grid)
        for k in np.nonzero(np.signbit(vals[:-1]) != np.signbit(vals[1:]))[0]:
            _same_bits(lambda x: special.jv(nu, x), grid[k], grid[k + 1], xtol, rtol)
            brackets += 1
    assert brackets >= 101


@pytest.mark.parametrize("xtol,rtol", TOLERANCES)
def test_brentq_matches_scipy_on_polynomials(xtol, rtol):
    rng = np.random.default_rng(34)
    roots = 0
    while roots < 300:
        poly = np.polynomial.Polynomial(rng.normal(size=rng.integers(2, 8)))
        a, b = sorted(rng.uniform(-3.0, 3.0, 2))
        f = lambda x: float(poly(x))
        if np.signbit(f(a)) != np.signbit(f(b)):
            _same_bits(f, a, b, xtol, rtol)
            roots += 1


def test_brentq_matches_scipy_on_tiny_values():
    # values near the underflow: an inverse-quadratic denominator rounds to 0
    for scale in (1e-150, 1e-300, 1e-310):
        _same_bits(lambda x: scale * (x ** 3 - 2.0), 0.0, 3.0, 1e-15, BRENTQ_RTOL)


def test_brentq_matches_scipy_on_the_ground_state_gap(monkeypatch):
    # the gap of the first MP_SETS case: mountain_pass_solve's own call, replayed by scipy
    calls = []
    real = _util.brentq

    def spy(f, *args):
        calls.append((f, args))
        return real(f, *args)

    monkeypatch.setattr(_util, "brentq", spy)
    n, radius, mu, lam, p = 3, 1.0, 0.0, 0.0, 3.0
    P.mountain_pass_solve(P.RadialBvp(n=n, radius=radius, mu=mu, lam=lam, nonlinearity=("power", p)), p=p)
    ((gap, args),) = [(f, args) for f, args in calls if f.__qualname__.startswith("_ground_shots")]
    _same_bits(gap, *args)


def test_brentq_ends_at_a_zero_value():
    assert brentq(lambda x: x - 1.0, 1.0, 2.0, 1e-12, BRENTQ_RTOL) == 1.0
    assert brentq(lambda x: x - 2.0, 1.0, 2.0, 1e-12, BRENTQ_RTOL) == 2.0


@pytest.mark.parametrize("f,a,b,xtol,rtol,error", [
    (lambda x: x, -1.0, 1.0, 0.0, BRENTQ_RTOL, ValueError),
    (lambda x: x, -1.0, 1.0, -1e-12, BRENTQ_RTOL, ValueError),
    (lambda x: x, -1.0, 1.0, 1e-12, 0.5 * BRENTQ_RTOL, ValueError),
    (lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, BRENTQ_RTOL, ValueError),
    (lambda x: -x * x - 1.0, -1.0, 1.0, 1e-12, BRENTQ_RTOL, ValueError),
    (lambda x: math.nan, -1.0, 1.0, 1e-12, BRENTQ_RTOL, ValueError),
    (lambda x: x if x < 0.5 else math.nan, -1.0, 1.0, 1e-12, BRENTQ_RTOL, ValueError),
    # so flat about its root that the 100 iterations run out, in scipy as here
    (lambda x: (x - 0.3) ** 9, -1.0, 2.0, 5e-324, BRENTQ_RTOL, RuntimeError),
], ids=["xtol 0", "xtol < 0", "rtol small", "both ends +", "both ends -", "nan at an end",
        "nan inside", "iterations"])
def test_brentq_raises_what_scipy_raises(f, a, b, xtol, rtol, error):
    with pytest.raises(error):
        brentq(f, a, b, xtol, rtol)
    with pytest.raises(error):
        scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)


def test_brentq_gives_up_where_scipy_does():
    g, seen = _traced(lambda x: (x - 0.3) ** 9)
    with pytest.raises(RuntimeError, match=f"after {BRENTQ_MAXITER} iterations"):
        brentq(g, -1.0, 2.0, 5e-324, BRENTQ_RTOL)
    g, ref_seen = _traced(lambda x: (x - 0.3) ** 9)
    with pytest.raises(RuntimeError):
        scipy.optimize.brentq(g, -1.0, 2.0, xtol=5e-324, rtol=BRENTQ_RTOL)
    assert len(seen) == 2 + BRENTQ_MAXITER and seen == ref_seen
