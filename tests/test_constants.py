"""Closed-form constants against independently derived reference values.

Reference decimals were produced with 50-digit mpmath evaluations of the
same formulas written directly in terms of Gamma/Beta, plus an
independent series+bisection Bessel zero finder implemented below.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from finsler_sharp import constants as C

# (p, n) -> (talenti_support, l1_constant, eta, l1_height, l1_norm_limit,
#            l1_energy_limit, support_energy_limit), mpmath at 50 digits
ORACLE = {
    (4.0, 2): (0.64303706857874378, 0.94066603838457796, 0.8,
               1.3249790627140875, 0.83250889791657342,
               6.6600711833325874, 1.8616845354606182),
    (5.0, 3): (0.86703549236752501, 1.1170563781899276, 0.88235294117647059,
               1.8971327106599369, 0.93490481359908214,
               21.035358305979348, 0.78539816339744831),
    (7.0, 4): (0.99701043307404638, 1.2392481289317248, 0.9032258064516129,
               1.9441470532261586, 0.928449789333184,
               34.662125468438869, 0.30842513753404246),
}


@pytest.mark.parametrize("p,n", sorted(ORACLE))
def test_support_constant_oracle(p, n):
    T, _, _, _, _, _, lim = ORACLE[(p, n)]
    assert C.talenti_support_constant(p, n) == pytest.approx(T, rel=1e-14)
    assert C.morrey_support_constant(p, n, avr=1.0) == pytest.approx(T, rel=1e-14)
    assert C.support_energy_limit(p, n, 1.0) == pytest.approx(lim, rel=1e-14)


@pytest.mark.parametrize("p,n", sorted(ORACLE))
def test_l1_constant_oracle(p, n):
    _, Cl1, eta, height, norm_lim, energy_lim, _ = ORACLE[(p, n)]
    assert C.talenti_l1_constant(p, n) == pytest.approx(Cl1, rel=1e-14)
    assert C.eta(p, n) == pytest.approx(eta, rel=1e-14)
    assert C.l1_extremal_height(p, n) == pytest.approx(height, rel=1e-14)
    assert C.l1_norm_limit(p, n, 1.0) == pytest.approx(norm_lim, rel=1e-14)
    assert C.l1_energy_limit(p, n, 1.0) == pytest.approx(energy_lim, rel=1e-14)


def test_avr_scaling_direction():
    # smaller volume growth can only worsen (increase) the constants
    base = C.morrey_support_constant(4.0, 2, 1.0)
    assert C.morrey_support_constant(4.0, 2, avr=0.5) > base
    assert C.morrey_l1_constant(4.0, 2, avr=0.5) > C.morrey_l1_constant(4.0, 2, 1.0)
    assert C.hardy_constant(2.0, 3, avr=0.5) < C.hardy_constant(2.0, 3, 1.0)


def test_omega_n_values():
    assert C.omega_n(2) == pytest.approx(math.pi, rel=1e-15)
    assert C.omega_n(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert C.omega_n(4) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)


def test_hardy_constant_values():
    assert C.hardy_constant(2.0, 3, 1.0) == pytest.approx(0.25, rel=1e-14)
    assert C.hardy_constant(3.0, 4, 1.0) == pytest.approx(0.037037037037037037, rel=1e-14)
    assert C.hardy_constant(1.5, 2, 1.0) == pytest.approx(0.19245008972987525, rel=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        C.talenti_support_constant(2.0, 2)  # needs p > n
    with pytest.raises(ValueError):
        C.talenti_support_constant(3.0, 3)
    with pytest.raises(ValueError):
        C.hardy_constant(3.0, 3, 1.0)  # needs p < n
    with pytest.raises(ValueError):
        C.hardy_constant(1.0, 3, 1.0)
    with pytest.raises(ValueError):
        C.morrey_support_constant(4.0, 2, avr=0.0)
    with pytest.raises(ValueError):
        C.morrey_support_constant(4.0, 2, avr=1.5)
    with pytest.raises(ValueError):
        C.bpv_constant(-0.1, 3, 1.0, C.omega_n(3))
    with pytest.raises(ValueError):
        C.bpv_constant(0.3, 3, 1.0, C.omega_n(3))  # above (n-2)^2/4 = 0.25
    with pytest.raises(ValueError):
        C.bpv_constant(0.1, 2, 1.0, C.omega_n(2))  # n = 2 admits only mu = 0


# every function that scales by the AVR, with arguments inside its domain
AVR_TAKERS = {
    "morrey_support_constant": lambda a: C.morrey_support_constant(4.0, 2, a),
    "morrey_l1_constant": lambda a: C.morrey_l1_constant(4.0, 2, a),
    "hardy_constant": lambda a: C.hardy_constant(2.0, 3, a),
    "bpv_constant": lambda a: C.bpv_constant(0.0, 3, a, C.omega_n(3)),
    "support_energy_limit": lambda a: C.support_energy_limit(4.0, 2, a),
    "l1_norm_limit": lambda a: C.l1_norm_limit(4.0, 2, a),
    "l1_energy_limit": lambda a: C.l1_energy_limit(4.0, 2, a),
}


@pytest.mark.parametrize("name", list(AVR_TAKERS))
def test_every_avr_taker_rejects_an_avr_outside_the_unit_interval(name):
    AVR_TAKERS[name](1.0)
    AVR_TAKERS[name](0.5)
    for bad in (0.0, -1.0, 1.5, 5.0, math.nan):
        with pytest.raises(ValueError, match="avr"):
            AVR_TAKERS[name](bad)


# ---------------------------------------------------------------------------
# independent Bessel oracle: truncated power series + bisection


def bessel_series(nu, x, terms=60):
    s = mp.mpf(0)
    half = mp.mpf(x) / 2
    for k in range(terms):
        s += (-1) ** k / (mp.factorial(k) * mp.gamma(k + nu + 1)) * half ** (2 * k + nu)
    return s


def bessel_zero_bisect(nu, lo, hi, iters=200):
    f_lo = bessel_series(nu, lo)
    assert f_lo > 0
    assert bessel_series(nu, hi) < 0
    for _ in range(iters):
        mid = (lo + hi) / 2
        if bessel_series(nu, mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("nu,bracket,reference", [
    (0.0, (2.0, 3.0), 2.404825557695773),
    (0.5, (3.0, 3.3), math.pi),
    (1.0, (3.5, 4.0), 3.831705970207512),
    (1.5, (4.2, 4.8), 4.4934094579090642),
    (0.25, (2.5, 3.0), 2.7808877239949776),
])
def test_bessel_first_zero(nu, bracket, reference):
    mp.mp.dps = 30
    oracle = float(bessel_zero_bisect(mp.mpf(nu), mp.mpf(bracket[0]), mp.mpf(bracket[1])))
    assert abs(oracle - reference) <= 1e-12
    assert abs(C.bessel_first_zero(nu) - oracle) <= 1e-9
    assert abs(C.bessel_first_zero(nu) - reference) <= 1e-9


def test_beta_gamma_identities():
    # recurrence and Beta/Gamma factorization at 1e-12 relative
    from scipy.special import beta as sbeta, gamma as sgamma
    for a in (0.3, 0.8, 1.0, 1.7, 2.5, 3.9, 5.2):
        assert sgamma(a + 1.0) == pytest.approx(a * sgamma(a), rel=1e-12)
        for b in (0.4, 1.1, 2.6, 4.8):
            assert sbeta(a, b) == pytest.approx(
                sgamma(a) * sgamma(b) / sgamma(a + b), rel=1e-12)
            assert sbeta(a, b) == pytest.approx(sbeta(b, a), rel=1e-12)


def test_bpv_constant_closed_form():
    # unit disk: mu = 0 collapses to the squared first zero of order 0
    mu_bar, s = C.bpv_constant(0.0, 2, 1.0, C.omega_n(2))
    assert mu_bar == 0.0
    assert s == pytest.approx(5.7831859629467845, rel=1e-12)
    # n = 3 unit ball: order 1/2, zero at pi
    mu_bar, s = C.bpv_constant(0.0, 3, 1.0, C.omega_n(3))
    assert mu_bar == pytest.approx(0.5, rel=1e-15)
    assert s == pytest.approx(9.8696044010893586, rel=1e-12)
    # volume scaling: doubling the radius divides the constant by 4
    _, s_big = C.bpv_constant(0.0, 3, 1.0, C.omega_n(3) * 2.0**3)
    assert s_big == pytest.approx(s / 4.0, rel=1e-12)


def test_bpv_constant_hardy_shift():
    # positive mu lowers the effective order and the constant
    mu_bar0, s0 = C.bpv_constant(0.0, 4, 1.0, C.omega_n(4))
    mu_bar1, s1 = C.bpv_constant(0.5, 4, 1.0, C.omega_n(4))
    assert mu_bar1 < mu_bar0 == 1.0
    assert s1 < s0
    assert mu_bar1 == pytest.approx(math.sqrt(1.0 - 0.5), rel=1e-14)


def test_sharp_constants_bundle():
    sc = C.sharp_constants(4.0, 2, 1.0, 0.0)
    d = sc.as_dict()
    assert d["talenti_support"] == pytest.approx(0.64303706857874378, rel=1e-14)
    assert d["eta"] == pytest.approx(0.8, rel=1e-15)
    assert d["hardy"] is None  # p > n is outside the Hardy regime
    sc = C.sharp_constants(2.0, 3, 1.0, 0.0)
    assert sc.hardy == pytest.approx(0.25, rel=1e-14)
    assert sc.talenti_support is None
    assert sc.mu_bar == pytest.approx(0.5, rel=1e-15)


@pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf])
def test_ball_volume_refuses_a_radius_that_is_not_finite_and_positive(radius):
    # at n = 2 the radius -1 would read omega_2 (-1)^2 = pi
    with pytest.raises(ValueError, match="finite and positive"):
        C.ball_volume(2, radius)
