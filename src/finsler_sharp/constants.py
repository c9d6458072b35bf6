"""Closed-form sharp constants and the special functions they need.

Everything here is a plain float computed from Gamma/Beta/Bessel
evaluations.  Domain restrictions mirror the inequalities the constants
belong to: the sup-norm bounds require p > n >= 2, the singular-weight
(Hardy) constant requires n > p > 1, and the Poincare-with-Hardy-term
constant requires the coupling mu to stay inside its admissible range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np
from scipy import special

from . import _util


def omega_n(n: int) -> float:
    """Volume of the Euclidean unit ball in dimension n."""
    if n < 1 or n != int(n):
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    return math.pi ** (n / 2.0) / special.gamma(1.0 + n / 2.0)


def ball_volume(n: int, radius: float) -> float:
    """omega_n radius^n, the volume of the Euclidean ball of the radius; ValueError unless the
    radius and the volume are finite and positive, so that a radius whose power overflows or
    underflows is refused too."""
    radius = _util.finite_positive(radius, "ball radius")
    try:
        vol = omega_n(n) * radius ** n
    except OverflowError:
        vol = math.inf
    if not 0.0 < vol < math.inf:
        raise ValueError(f"ball volume omega_{n} R^{n} at R = {radius!r} is {vol}, not finite and positive")
    return vol


def _check_sup_domain(p: float, n: int) -> None:
    if n < 2:
        raise ValueError(f"dimension must satisfy n >= 2, got {n}")
    if not p > n:
        raise ValueError(f"sup-norm bounds need p > n, got p={p}, n={n}")


def _check_avr(avr: float) -> None:
    if not 0.0 < avr <= 1.0:
        raise ValueError(f"avr must lie in (0, 1], got {avr}")


def talenti_support_constant(p: float, n: int) -> float:
    """Sharp constant in the support-volume sup-norm bound, flat case.

    Value: n^(-1/p) * omega_n^(-1/n) * ((p-1)/(p-n))^((p-1)/p).
    The exponent (p-1)/p equals 1/p' for the conjugate p' = p/(p-1).
    """
    _check_sup_domain(p, n)
    return (
        n ** (-1.0 / p)
        * omega_n(n) ** (-1.0 / n)
        * ((p - 1.0) / (p - n)) ** ((p - 1.0) / p)
    )


def morrey_support_constant(p: float, n: int, avr: float) -> float:
    """Support-volume sup-norm constant scaled by the volume ratio.

    For a space with asymptotic volume ratio avr in (0, 1] the sharp
    constant is the flat one times avr^(-1/n); it is nonincreasing in avr.
    """
    _check_avr(avr)
    return talenti_support_constant(p, n) * avr ** (-1.0 / n)


def eta(p: float, n: int) -> float:
    """Interpolation exponent n*p/(n*p + p - n) of the L1 sup-norm bound.

    Satisfies 1 - eta + eta/p = eta/n, the identity the sharpness
    argument hinges on.
    """
    _check_sup_domain(p, n)
    return n * p / (n * p + p - n)


def talenti_l1_constant(p: float, n: int) -> float:
    """Sharp constant in the L1 sup-norm bound, flat case."""
    _check_sup_domain(p, n)
    pp = p / (p - 1.0)
    a = (1.0 - n) * pp / n + 1.0
    # a > 0 iff p > n, so the Beta evaluation is safe after the domain check
    return (
        (n * omega_n(n) ** (1.0 / n)) ** (-n * pp / (n + pp))
        * (1.0 / n + 1.0 / pp)
        * (1.0 / n - 1.0 / p) ** (((n - 1.0) * pp - n) / (n + pp))
        * special.beta(a, pp + 1.0) ** (n / (n + pp))
    )


def morrey_l1_constant(p: float, n: int, avr: float) -> float:
    """L1 sup-norm constant scaled by avr^(-eta/n)."""
    _check_avr(avr)
    return talenti_l1_constant(p, n) * avr ** (-eta(p, n) / n)


def hardy_constant(p: float, n: int, avr: float) -> float:
    """Sharp constant avr^(p/n) * ((n-p)/p)^p of the singular-weight bound."""
    if n < 2:
        raise ValueError(f"dimension must satisfy n >= 2, got {n}")
    if not 1.0 < p < n:
        raise ValueError(f"singular-weight bound needs n > p > 1, got p={p}, n={n}")
    _check_avr(avr)
    return avr ** (p / n) * ((n - p) / p) ** p


def bessel_first_zero(nu: float) -> float:
    """First positive zero of J_nu.

    Brackets on [max(nu, 1), nu + 3 nu^(1/3) + 3] and root-finds on the
    first sign change inside; the bracket widens if no change is seen.
    The scan guards against the upper endpoint landing past the second
    zero (the zero gap is > pi so a 128-point scan cannot skip one).
    """
    if nu < 0:
        raise ValueError(f"order must be nonnegative, got {nu}")
    lo = max(nu, 1.0)
    hi = nu + 3.0 * nu ** (1.0 / 3.0) + 3.0
    for _ in range(8):
        grid = np.linspace(lo, hi, 129)
        vals = special.jv(nu, grid)
        sign_flip = np.nonzero((vals[:-1] > 0) & (vals[1:] <= 0))[0]
        if sign_flip.size:
            k = sign_flip[0]
            return _util.brentq(lambda x: special.jv(nu, x), grid[k], grid[k + 1], 1e-14, 1e-15)
        hi = lo + 2.0 * (hi - lo)
    raise RuntimeError(
        f"no sign change of J_{nu} found on [{lo}, {hi}] after widening"
    )


def bpv_constant(mu: float, n: int, avr: float, vol_omega: float):
    """Shifted-order zero and optimal Poincare constant with a Hardy term.

    Returns (mu_bar, S) with mu_bar = sqrt((n-2)^2/4 - mu * avr^(-2/n))
    and S = avr^(2/n) * j_{mu_bar}^2 * (omega_n / vol_omega)^(2/n) on a
    domain of volume vol_omega.  In dimension 2 the admissible range
    collapses to mu = 0.
    """
    if n < 2:
        raise ValueError(f"dimension must satisfy n >= 2, got {n}")
    _check_avr(avr)
    mu_max = (n - 2.0) ** 2 / 4.0 * avr ** (2.0 / n)
    if not 0.0 <= mu <= mu_max + 1e-12:
        raise ValueError(f"mu must lie in [0, {mu_max}], got {mu}")
    if vol_omega <= 0:
        raise ValueError(f"domain volume must be positive, got {vol_omega}")
    radicand = max((n - 2.0) ** 2 / 4.0 - mu * avr ** (-2.0 / n), 0.0)
    mu_bar = math.sqrt(radicand)
    s = avr ** (2.0 / n) * bessel_first_zero(mu_bar) ** 2 * (omega_n(n) / vol_omega) ** (2.0 / n)
    return mu_bar, s


def l1_extremal_height(p: float, n: int) -> float:
    """Sup of the unit-scale L1 extremal: (1/n) B((1-n)p'/n + 1, p').

    Equals the integral of r^((1-n)/(p-1)) (1-r^n)^(1/(p-1)) over (0, 1).
    """
    _check_sup_domain(p, n)
    pp = p / (p - 1.0)
    return special.beta((1.0 - n) * pp / n + 1.0, pp) / n


def support_energy_limit(p: float, n: int, avr: float) -> float:
    """Large-radius limit of the scaled energy of the support test family.

    n * omega_n * ((p-n)/(p-1))^(p-1) * avr.
    """
    _check_sup_domain(p, n)
    _check_avr(avr)
    return n * omega_n(n) * ((p - n) / (p - 1.0)) ** (p - 1.0) * avr


def l1_norm_limit(p: float, n: int, avr: float) -> float:
    """Large-radius limit of the scaled L1 norm of the L1 test family."""
    _check_sup_domain(p, n)
    _check_avr(avr)
    pp = p / (p - 1.0)
    return omega_n(n) * avr * special.beta((1.0 - n) * pp / n + 2.0, pp) / n


def l1_energy_limit(p: float, n: int, avr: float) -> float:
    """Large-radius limit of the scaled energy of the L1 test family."""
    _check_sup_domain(p, n)
    _check_avr(avr)
    pp = p / (p - 1.0)
    return omega_n(n) * avr * special.beta((1.0 - n) * pp / n + 1.0, pp + 1.0)


@dataclass(frozen=True)
class SharpConstants:
    """Evaluated sharp constants for one parameter tuple.

    Fields that do not apply to the given (p, n) regime are None: the
    sup-norm constants need p > n while the singular-weight constant
    needs p < n, so the two families never populate together.
    """

    p: float
    n: int
    p_prime: float
    avr: float
    mu: float
    vol: float
    omega: float
    talenti_support: float | None
    morrey_support: float | None
    talenti_l1: float | None
    morrey_l1: float | None
    eta: float | None
    hardy: float | None
    mu_bar: float
    j_mu_bar: float
    bpv: float

    def as_dict(self) -> dict:
        return asdict(self)


def sharp_constants(p: float, n: int, avr: float, mu: float) -> SharpConstants:
    """Evaluate every constant that applies to (p, n, avr, mu), the
    shifted Poincare one on the unit ball (vol = omega_n).  p must be finite:
    every constant of the sup-norm regime reads nan at p = inf."""
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    vol = omega_n(n)
    sup_regime = p > n
    hardy_regime = 1.0 < p < n
    mu_bar, s = bpv_constant(mu, n, avr, vol)
    return SharpConstants(
        p=p,
        n=n,
        p_prime=p / (p - 1.0),
        avr=avr,
        mu=mu,
        vol=vol,
        omega=omega_n(n),
        talenti_support=talenti_support_constant(p, n) if sup_regime else None,
        morrey_support=morrey_support_constant(p, n, avr) if sup_regime else None,
        talenti_l1=talenti_l1_constant(p, n) if sup_regime else None,
        morrey_l1=morrey_l1_constant(p, n, avr) if sup_regime else None,
        eta=eta(p, n) if sup_regime else None,
        hardy=hardy_constant(p, n, avr) if hardy_regime else None,
        mu_bar=mu_bar,
        j_mu_bar=bessel_first_zero(mu_bar),
        bpv=s,
    )
