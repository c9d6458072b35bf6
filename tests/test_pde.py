import collections
import hashlib
import itertools
import math
import sys
import threading
import time
from typing import NamedTuple

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from finsler_sharp import _util, pde as P
from finsler_sharp.constants import bessel_first_zero, bpv_constant, omega_n

EIGEN_GRID = [
    (2, 1.0, 0.0), (2, 0.5, 0.0), (2, 2.0, 0.0), (2, 1.7, 0.0),
    (3, 1.0, 0.0), (3, 1.0, 0.2), (3, 1.5, 0.1), (3, 0.7, 0.24),
    (4, 1.0, 0.0), (4, 1.0, 0.5), (4, 2.0, 0.9), (4, 1.3, 0.25),
]


@pytest.mark.parametrize("n,radius,mu", EIGEN_GRID)
def test_eigenvalue_closed_form(n, radius, mu):
    t0 = time.time()
    bvp = P.RadialBvp(n=n, radius=radius, mu=mu)
    lam1, prof = P.first_eigenvalue(bvp)
    mu_bar, _ = bpv_constant(mu, n, 1.0, omega_n(n))
    assert abs(lam1 * radius**2 - bessel_first_zero(mu_bar) ** 2) < 1e-4
    assert time.time() - t0 < 1.0
    assert prof[-1] == 0.0
    assert np.max(prof) == pytest.approx(1.0)
    assert np.min(prof) >= -1e-12  # ground state does not change sign


def test_eigenvalue_reference_values():
    lam1, _ = P.first_eigenvalue(P.RadialBvp(n=2, radius=1.0))
    assert lam1 == pytest.approx(5.783186, abs=1e-5)
    lam1, _ = P.first_eigenvalue(P.RadialBvp(n=3, radius=1.0))
    assert lam1 == pytest.approx(math.pi**2, rel=1e-8)


def test_eigenvalue_radius_scaling():
    # lam1 = (z / R)^2 from the one lam = 1 shot: a wrong power of R in the
    # rescaling (z^2 / R, say) breaks the 1 / R^2 law between R = 1 and 2
    a, _ = P.first_eigenvalue(P.RadialBvp(n=3, radius=1.0, mu=0.1))
    b, _ = P.first_eigenvalue(P.RadialBvp(n=3, radius=2.0, mu=0.1))
    assert b == pytest.approx(a / 4.0, rel=1e-8)


def test_eigen_quotient_attains_spectral_bound():
    # Rayleigh quotient of the eigenprofile equals the sharp constant
    for n, radius, mu in ((2, 1.0, 0.0), (3, 1.0, 0.2), (4, 1.3, 0.25)):
        bvp = P.RadialBvp(n=n, radius=radius, mu=mu)
        lam1, quotient, parts = P.eigen_quotient(bvp)
        s = bvp.spectral_bound()
        assert abs(quotient / s - 1.0) < 1e-4
        assert abs(quotient / lam1 - 1.0) < 1e-6
        assert parts["dirichlet"] > 0 and parts["l2"] > 0


def test_mu_domain_guard():
    with pytest.raises(ValueError):
        P.RadialBvp(n=2, radius=1.0, mu=0.1)  # n=2 admits only mu=0
    with pytest.raises(ValueError):
        P.RadialBvp(n=3, radius=1.0, mu=0.25)  # boundary (n-2)^2/4 excluded
    P.RadialBvp(n=3, radius=1.0, mu=0.2499)  # just inside is fine


def test_radial_energy_eigen_consistency():
    bvp = P.RadialBvp(n=2, radius=1.0)
    lam1, prof = P.first_eigenvalue(bvp)
    # for the eigenprofile, dirichlet = lam1 * l2 under the midpoint rule on the grid
    drho, _, shell = P._panels(bvp.grid(), bvp.n)
    dirichlet = np.sum((np.diff(prof) / drho) ** 2 * shell * drho)
    l2 = np.sum((0.5 * (prof[1:] + prof[:-1])) ** 2 * shell * drho)
    assert dirichlet == pytest.approx(lam1 * l2, rel=1e-6)


MP_SETS = [
    (3, 1.0, 0.0, 0.0, 3.0),
    (3, 1.0, 0.2, -5.0, 4.0),
    (2, 1.0, 0.0, 1.0, 4.0),
    (2, 1.5, 0.0, 2.0, 3.5),
    (4, 1.0, 0.5, 1.0, 2.5),
    (3, 1.2, 0.1, 3.0, 3.2),
]
MP_RESCALINGS = [1.0, 0.9]  # the scales s of _mp_bvp that the ground-state tests run


@pytest.mark.parametrize("n,radius,mu,lam,p", MP_SETS)
def test_mountain_pass_solutions(n, radius, mu, lam, p):
    bvp = P.RadialBvp(n=n, radius=radius, mu=mu, lam=lam, nonlinearity=("power", p))
    sol = P.mountain_pass_solve(bvp, p=p)
    assert sol.residual < 1e-6
    assert sol.level > 0.0
    assert float(np.min(sol.values)) >= -1e-10
    assert sol.amplitude > 0
    assert sol.values[-1] == 0.0
    # independent weak-form residual with random test functions
    assert P.weak_residual(sol.values, bvp, p) < 1e-5


def test_mountain_pass_rejects_supercritical():
    with pytest.raises(ValueError):
        P.mountain_pass_solve(P.RadialBvp(n=3, radius=1.0, nonlinearity=("power", 6.0)), p=6.0)
    with pytest.raises(ValueError):
        P.RadialBvp(n=3, radius=1.0, nonlinearity=("power", 1.5))


def test_oscillatory_nonlinearity_structure():
    nl = P.OscillatoryNonlinearity(4.0)
    a1, b1 = nl.plateau(1)
    a2, b2 = nl.plateau(2)
    assert (a1, b1) == (2.0, 4.0)
    assert (a2, b2) == (16.0, 64.0)
    # h vanishes on plateaus, positive on rises
    assert nl.h(3.0) == 0.0 and nl.h(20.0) == 0.0
    assert nl.h(1.5) > 0 and nl.h(10.0) > 0
    assert nl.h(0.5) == 0.0  # below the first rise
    # H hits the prescribed plateau levels and stays flat across each plateau
    assert nl.H(2.0) == pytest.approx(2.0**4, rel=1e-12)
    assert nl.H(3.0) == pytest.approx(2.0**4, rel=1e-12)
    assert nl.H(16.0) == pytest.approx(16.0**4, rel=1e-12)
    assert nl.H(40.0) == pytest.approx(16.0**4, rel=1e-12)


def test_oscillatory_h_is_derivative_of_H():
    nl = P.OscillatoryNonlinearity(3.5)
    s = np.linspace(1.05, 70.0, 400)
    eps = 1e-6
    fd = (nl.H(s + eps) - nl.H(s - eps)) / (2 * eps)
    assert np.allclose(nl.h(s), fd, rtol=1e-4, atol=1e-3)


def test_oscillatory_dh_is_derivative_of_h():
    nl = P.OscillatoryNonlinearity(3.5)
    s = np.linspace(1.1, 1.9, 41)  # inside the first rise
    eps = 1e-7
    fd = (nl.h(s + eps) - nl.h(s - eps)) / (2 * eps)
    assert np.allclose(nl.dh(s), fd, rtol=1e-3, atol=1e-2)


def _closed_forms(nl, s):
    """(H, h, dh) at the float s by the rise formulas, region by region."""
    levels = nl.levels.tolist()
    if s <= 1.0:
        return 0.0, 0.0, 0.0
    for j, (lo, hi) in enumerate(zip(nl.rise_lo.tolist(), nl.rise_hi.tolist())):
        if s < lo:  # on the plateau before rise j
            return levels[j], 0.0, 0.0
        if s < hi:
            w, dlvl = hi - lo, levels[j + 1] - levels[j]
            tau = (s - lo) / w
            return (levels[j] + dlvl * (tau * tau * (3.0 - 2.0 * tau)), dlvl * 6.0 * tau * (1.0 - tau) / w,
                    dlvl * 6.0 * (1.0 - 2.0 * tau) / (w * w))
    return levels[-1], 0.0, 0.0


@pytest.mark.parametrize("p", [2.5, 3.5, 4.0])
def test_oscillatory_tables_give_the_closed_forms_bit_for_bit(p, rng):
    # H, h and dh come from per-region tables in whole-array operations;
    # they must give the bits of the rise formulas, with +0.0 off the rises
    # (the table's 0 x (1 - 2 tau) is -0.0 on a plateau) and at s = 1 (where
    # the table's dh would read 6 dlvl / w^2 = 96 for p = 4)
    nl = P.OscillatoryNonlinearity(p)
    edges = np.concatenate((nl.rise_lo, nl.rise_hi))
    s = [0.0, 1.0, -1.0, -1e300, 0.5, 2.0 * edges.max(), 1e300]
    for e in edges:
        s += [e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)]
    for lo, hi in zip(nl.rise_lo, nl.rise_hi):
        s += list(rng.uniform(lo, hi, 8))
    s = np.array(s)
    want = np.array([_closed_forms(nl, x) for x in s.tolist()]).T
    H, h = nl.H_and_h(s)
    for got, ref in zip((H, h, nl.dh(s)), want):
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    for x, ref in zip(s.tolist(), want.T.tolist()):
        got = (*nl.H_and_h(x), nl.dh(x))
        assert all(type(g) is float for g in got)
        assert np.array_equal(np.array(got).view(np.int64), np.array(ref).view(np.int64))


def test_multiplicity_explorer_finds_distinct_plateau_profiles():
    nl = P.OscillatoryNonlinearity(4.0)
    bvp = P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", nl))
    profs = P.multiplicity_explore(bvp, h=nl, lam=50.0, k_max=3, p=4.0)
    assert len(profs) >= 2
    sups = [c.sup for c in profs]
    assert all(s2 > s1 * 1.5 for s1, s2 in zip(sups, sups[1:]))  # genuinely distinct
    for c in profs:
        assert c.residual < 1e-6
        assert float(np.min(c.values)) >= -1e-12
        # each sup lands inside one of the flat plateau windows
        windows = [nl.plateau(k) for k in (1, 2, 3, 4)]
        assert any(lo - 1e-3 <= c.sup <= hi + 1e-3 for lo, hi in windows)


def test_solvers_refuse_arguments_that_disagree_with_the_bvp():
    # each solver takes its exponent, nonlinearity and coupling as keywords
    # and its problem from the bvp: a keyword the bvp disagrees with used
    # to be solved silently (a power 5 problem at p = 3, an "eigen" bvp as
    # a power problem), and is now refused before any shot
    for nonlinearity in (("power", 5.0), "eigen", ("general", P.OscillatoryNonlinearity(3.0))):
        with pytest.raises(ValueError, match="nonlinearity"):
            P.mountain_pass_solve(P.RadialBvp(n=3, radius=1.0, nonlinearity=nonlinearity), p=3.0)
    nl = P.OscillatoryNonlinearity(4.0)
    bvp = P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", nl))
    t0 = time.time()
    for h, lam in ((P.OscillatoryNonlinearity(4.0), 50.0), (nl, 20.0)):
        with pytest.raises(ValueError, match="bvp's"):
            P.multiplicity_explore(bvp, h=h, lam=lam, k_max=1, p=4.0)
    with pytest.raises(ValueError, match="bvp's"):
        P.multiplicity_explore(P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("power", 4.0)),
                               h=nl, lam=50.0, k_max=1, p=4.0)
    # an exponent other than h's own: on 33 nodes p = 6 used to return the
    # sups 0.000698, 0.00419 and 2.00178 of a p-energy that h does not fit
    with pytest.raises(ValueError, match="exponent 4.0, got 6.0"):
        P.multiplicity_explore(P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", nl), n_nodes=33),
                               h=nl, lam=50.0, k_max=3, p=6.0)
    assert time.time() - t0 < 0.5  # raised at entry, before any minimization


# -- the shared assembly and the projected Newton loop ------------------------
#
# The per-family assemblies and Newton solvers that _RadialFunctional and
# _projected_newton replaced, kept as references.  The replacement keeps
# their operation order, so gradients, oscillatory energies, ground states
# and plateau profiles must agree bit for bit.


def _ref_grad_quadratic(vals, rho, n, mu, lam, gprime, won):
    drho, rbar, shell = P._panels(rho, n)
    du = np.diff(vals)
    ubar = 0.5 * (vals[1:] + vals[:-1])
    flux = du / drho * shell
    mass = lam * ubar * shell * drho
    if mu != 0.0:
        mass = mass - mu * ubar * rbar ** (n - 3) * drho
    if gprime is not None:
        mass = mass - np.asarray(gprime(ubar), dtype=float) * shell * drho
    g = np.zeros_like(vals)
    np.add.at(g, np.arange(len(vals) - 1), -flux + 0.5 * mass)
    np.add.at(g, np.arange(1, len(vals)), flux + 0.5 * mass)
    return n * won * g


def _ref_grad_plaplace(vals, rho, n, p, lam, hfun, won):
    drho, rbar, shell = P._panels(rho, n)
    du = np.diff(vals)
    ubar = 0.5 * (vals[1:] + vals[:-1])
    slope = du / drho
    flux = np.abs(slope) ** (p - 2) * slope * shell
    hterm = -lam * np.asarray(hfun(ubar), dtype=float) * shell * drho
    g = np.zeros_like(vals)
    np.add.at(g, np.arange(len(vals) - 1), -flux + 0.5 * hterm)
    np.add.at(g, np.arange(1, len(vals)), flux + 0.5 * hterm)
    return n * won * g


def _ref_plateau_energy(u, rho, n, p, lam, h):
    drho, _, shell = P._panels(rho, n)
    du = np.diff(u)
    ubar = 0.5 * (u[1:] + u[:-1])
    return n * omega_n(n) * (
        float(np.sum(np.abs(du / drho) ** p * shell * drho)) / p
        - lam * float(np.sum(np.asarray(h.H(ubar)) * shell * drho))
    )


def _ref_kkt_residual(u, g, hi, scale):
    kkt = g.copy()
    kkt[-1] = 0.0
    at_lo = u <= 1e-14
    at_hi = u >= hi * (1.0 - 1e-12)
    kkt[at_lo] = np.minimum(kkt[at_lo], 0.0)
    kkt[at_hi] = np.maximum(kkt[at_hi], 0.0)
    return float(np.linalg.norm(kkt)) / scale, kkt


def _ref_polish_plaplace(u, rho, n, p, lam, nl, hi, won, max_iter=60):
    from scipy import linalg

    m = len(u)
    drho, rbar, shell = P._panels(rho, n)
    idx = np.arange(m - 1)
    scale = n * won * max(1.0, np.max(u) ** (p - 1)) * max(1.0, rho[-1] ** (n - 1))
    u = u.copy()
    g = _ref_grad_plaplace(u, rho, n, p, lam, nl.h, won)
    best, _ = _ref_kkt_residual(u, g, hi, scale)
    lev = 0.0
    for _ in range(max_iter):
        if best < 1e-10:
            break
        du = np.diff(u)
        ubar = 0.5 * (u[1:] + u[:-1])
        k_diag = (p - 1.0) * np.abs(du / drho) ** (p - 2) * shell / drho
        c = -lam * np.asarray(nl.dh(ubar), dtype=float) * 0.25 * shell * drho
        diag = np.zeros(m)
        np.add.at(diag, idx, k_diag + c)
        np.add.at(diag, idx + 1, k_diag + c)
        off = -k_diag + c
        fixed = (u <= 1e-14) | (u >= hi * (1.0 - 1e-12))
        fixed[-1] = True
        floor = 1e-12 * max(float(np.max(np.abs(diag))), 1.0)
        diag = np.maximum(diag + lev, floor)
        ab = np.zeros((3, m))
        ab[0, 1:] = np.where(fixed[:-1] | fixed[1:], 0.0, off)
        ab[1] = np.where(fixed, 1.0, diag)
        ab[2, :-1] = ab[0, 1:]
        rhs = np.where(fixed, 0.0, -g / (n * won))
        try:
            step = linalg.solve_banded((1, 1), ab, rhs)
        except linalg.LinAlgError:
            lev = max(10.0 * lev, floor * 1e4)
            continue
        t, improved = 1.0, False
        for _ in range(25):
            trial = np.clip(u + t * step, 0.0, hi)
            trial[-1] = 0.0
            gt = _ref_grad_plaplace(trial, rho, n, p, lam, nl.h, won)
            rt, _ = _ref_kkt_residual(trial, gt, hi, scale)
            if rt < best:
                u, g, best, improved = trial, gt, rt, True
                break
            t *= 0.5
        if improved:
            lev *= 0.25
        else:
            lev = max(10.0 * lev, floor * 1e4)
            if lev > 1e20 * floor:
                break
    return u


def _ref_newton_polish(vals, bvp, p, max_iter=40):
    from scipy import linalg

    n = bvp.n
    won = omega_n(n)
    rho = bvp.grid()
    drho, rbar, shell = P._panels(rho, n)
    m = len(vals)
    free = m - 1

    def grad(u):
        g = _ref_grad_quadratic(
            u, rho, n, bvp.mu, bvp.lam, lambda t: np.maximum(t, 0.0) ** (p - 1), won
        )
        return g[:free]

    def hess_banded(u):
        ubar = 0.5 * (u[1:] + u[:-1])
        k_diag = shell / drho
        w_mass = (bvp.lam * shell - bvp.mu * rbar ** (n - 3)) * drho
        w_nl = -(p - 1) * np.maximum(ubar, 0.0) ** (p - 2) * shell * drho
        c = 0.25 * (w_mass + w_nl)
        main = np.zeros(m)
        np.add.at(main, np.arange(m - 1), k_diag + c)
        np.add.at(main, np.arange(1, m), k_diag + c)
        off = -k_diag + c
        ab = np.zeros((3, free))
        ab[1, :] = main[:free]
        ab[0, 1:] = off[: free - 1]
        ab[2, :-1] = off[: free - 1]
        return n * won * ab

    u = vals.copy()
    g = grad(u)
    gnorm = np.linalg.norm(g)
    tol = 1e-13 * n * won * max(1.0, float(np.max(u))) * max(1.0, bvp.radius ** (n - 1))
    for _ in range(max_iter):
        if gnorm < tol:
            break
        ab = hess_banded(u)
        try:
            step = linalg.solve_banded((1, 1), ab, g)
        except linalg.LinAlgError:
            break
        t = 1.0
        for _ in range(30):
            trial = u.copy()
            trial[:free] -= t * step
            g_trial = grad(trial)
            if np.linalg.norm(g_trial) < gnorm:
                u, g = trial, g_trial
                gnorm = np.linalg.norm(g)
                break
            t *= 0.5
        else:
            break
    return u


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _cosine_case(rng):
    rho = P.RadialBvp(n=3, radius=1.0, n_nodes=257).grid()
    u = np.cos(0.5 * math.pi * rho) * (1.0 + 0.3 * rng.uniform(size=rho.size))
    u[-1] = 0.0
    return rho, u


def _rise_case(rng):
    # one node group on the first rise (1, 2), one on the second (4, 16):
    # h and dh are nonzero there, so the nonlinear terms are exercised
    rho = np.linspace(0.0, 1.0, 65)
    u = np.where(rho < 0.5, rng.uniform(1.1, 1.9, rho.size), rng.uniform(4.5, 15.0, rho.size))
    u[-1] = 0.0
    return rho, u


def test_assembly_gradient_matches_reference_bit_for_bit(rng):
    won3, won2 = omega_n(3), omega_n(2)
    for _ in range(5):
        rho, u = _cosine_case(rng)
        # gradient() alone, as the Newton trials call it
        q = 3.5
        power = P._RadialFunctional(rho, 3, 2.0, -5.0, 0.2, P._power(q)).gradient(u)
        ref = _ref_grad_quadratic(u, rho, 3, 0.2, -5.0, lambda s: np.maximum(s, 0.0) ** (q - 1), won3)
        assert np.array_equal(_bits(power), _bits(ref))

        rho, u = _rise_case(rng)
        h = P.OscillatoryNonlinearity(4.0)
        a = P._RadialFunctional(rho, 2, 4.0, 0.0, 0.0, (50.0, h.H_and_h, h.h, h.dh)).assemble(u)
        ref = _ref_grad_plaplace(u, rho, 2, 4.0, 50.0, h.h, won2)
        assert np.any(h.h(0.5 * (u[1:] + u[:-1])) > 0.0)
        assert np.array_equal(_bits(a.grad), _bits(ref))
        # the L-BFGS-B objective value: its rounding steers the minimizer
        assert _bits(a.energy) == _bits(_ref_plateau_energy(u, rho, 2, 4.0, 50.0, h))


def _fd_jacobian(f, u, step=1e-6):
    jac = np.empty((u.size, u.size))
    for j in range(u.size):
        e = np.zeros_like(u)
        e[j] = step * max(1.0, abs(u[j]))
        jac[:, j] = (f.gradient(u + e) - f.gradient(u - e)) / (2.0 * e[j])
    return jac / f.nw


@pytest.mark.parametrize("family", ["power", "oscillatory"])
def test_hessian_band_matches_finite_difference_jacobian(family, rng):
    if family == "oscillatory":
        rho, u = _rise_case(rng)
        h = P.OscillatoryNonlinearity(4.0)
        f = P._RadialFunctional(rho, 2, 4.0, 0.0, 0.0, (50.0, h.H_and_h, h.h, h.dh))
    else:
        rho = P.RadialBvp(n=3, radius=1.0, n_nodes=49).grid()
        u = np.cos(0.5 * math.pi * rho) * (1.0 + 0.3 * rng.uniform(size=rho.size))
        u[-1] = 0.0
        f = P._RadialFunctional(rho, 3, 2.0, -5.0, 0.2, P._power(3.5))
    band = f.hessian(u)
    jac = _fd_jacobian(f, u)
    size = float(np.max(np.abs(band)))
    assert np.max(np.abs(np.diag(jac) - band[1])) < 1e-6 * size
    assert np.max(np.abs(np.diag(jac, 1) - band[0, 1:])) < 1e-6 * size
    assert np.max(np.abs(np.diag(jac, -1) - band[2, :-1])) < 1e-6 * size
    assert np.max(np.abs(np.triu(jac, 2)) + np.abs(np.tril(jac, -2))) < 1e-6 * size


def test_mountain_pass_profiles_match_reference_solver(monkeypatch):
    # The loop stops once a step lands below half of the gradient's rounding
    # floor, where the reference walks on at random.  Over the iterations the
    # loop takes, every step is the reference's bit for bit; run to its own
    # end, the reference lands within 1e-11 of the loop's profile, and the
    # loop's residual is below the floor.  Node 0 of (3, 1, 0, 0, 3) is the
    # worst: 6.4e-13 relative at s = 1.0 and 6.7e-12 at s = 0.9.
    for s, (n, radius, mu, lam, p) in itertools.product(MP_RESCALINGS, MP_SETS):
        bvp = _mp_bvp(n, radius, mu, lam, p, s)
        n, mu, lam = bvp.n, bvp.mu, bvp.lam
        with monkeypatch.context() as mp:
            hessians = _spy(mp, P._RadialFunctional, "hessian")
            new = P.mountain_pass_solve(bvp, p=p)
        refs = []
        for max_iter in (len(hessians), 40):
            with monkeypatch.context() as mp:
                mp.setattr(P, "_projected_newton",
                           lambda f, u, bounds, tol: _ref_newton_polish(u, bvp, p, max_iter=max_iter))
                refs.append(P.mountain_pass_solve(bvp, p=p))
        ref, end = refs
        assert np.array_equal(_bits(new.values), _bits(ref.values))
        assert new.residual == ref.residual
        assert np.max(np.abs(new.values - end.values)) <= 1e-11 * np.max(end.values)
        f = P._RadialFunctional(bvp.grid(), n, 2.0, lam, mu, P._power(p))
        band, u = f.hessian(new.values), new.values
        ku = np.abs(band[1] * u)  # |K| |u|, K symmetric
        ku[:-1] += np.abs(band[0, 1:] * u[1:])
        ku[1:] += np.abs(band[2, :-1] * u[:-1])
        floor = np.finfo(float).eps * f.nw * np.linalg.norm(ku) / f.residual_scale(u)
        assert new.residual <= floor


def test_plateau_profiles_match_reference_solver(monkeypatch):
    nl = P.OscillatoryNonlinearity(4.0)
    bvp = P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", nl), n_nodes=33)
    new = P.multiplicity_explore(bvp, h=nl, lam=50.0, k_max=3, p=4.0)

    def reference(f, u, bounds, tol):
        return _ref_polish_plaplace(u, f.rho, f.n, f.p, f.nl[0], nl, bounds[1], omega_n(f.n))

    monkeypatch.setattr(P, "_projected_newton", reference)
    ref = P.multiplicity_explore(bvp, h=nl, lam=50.0, k_max=3, p=4.0)
    assert [c.sup for c in new] == [c.sup for c in ref]
    assert [c.residual for c in new] == [c.residual for c in ref]
    for c, d in zip(new, ref):
        assert np.array_equal(_bits(c.values), _bits(d.values))


@pytest.mark.parametrize("n,radius,mu,lam,p", MP_SETS)
def test_mountain_pass_residual_reaches_roundoff(n, radius, mu, lam, p):
    # worst at the introduction of this bound: 2.24e-12 at (2, 1, 0, 1, 4);
    # a diagonal floor on the indefinite Hessian leaves 1.4e-8 at
    # (3, 1, 0.2, -5, 4), and a Hessian without the (q - 1) factor of the
    # nonlinearity's derivative stalls above the bound too
    bvp = P.RadialBvp(n=n, radius=radius, mu=mu, lam=lam, nonlinearity=("power", p))
    assert P.mountain_pass_solve(bvp, p=p).residual < 1e-11


def test_multiplicity_rejects_nonlinearity_without_dh():
    nl = P.OscillatoryNonlinearity(4.0)

    class NoDerivative:
        p = nl.p
        h, H, plateau = nl.h, nl.H, nl.plateau

    h = NoDerivative()
    bvp = P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", h))
    t0 = time.time()
    with pytest.raises(ValueError, match="dh"):
        P.multiplicity_explore(bvp, h=h, lam=50.0, k_max=1, p=4.0)
    assert time.time() - t0 < 0.5  # raised at entry, before any minimization


# -- compiled root-finding shots ----------------------------------------------
#
# The same shots through the pure-Python DOP853 stepper of solve_ivp, kept
# as a reference: each step taken one at a time until one ends with v < 0,
# and the shot's interpolant built from solve_ivp's own dense output of
# every step.


class _RefShot(NamedTuple):
    t: np.ndarray
    y: np.ndarray
    sol: object

    def __call__(self, r):
        return self.sol(r)

    def scaled(self, k, w):
        return _RefShot(k * self.t, np.array([[1.0], [w]]) * self.y,
                        lambda r: (self.sol(r / k).T * [1.0, w]).T)

    def frozen(self):
        self.t.setflags(write=False)
        self.y.setflags(write=False)
        return self


def _ref_shooters(regular, span, rhs, field, rtol, atol, p=None):
    def dense(lam, amplitude):
        eps, end = span
        y0 = list(P._frobenius_start(regular, lam, amplitude, p, eps))
        solver = scipy.integrate.DOP853(rhs, eps, y0, end, rtol=rtol, atol=atol)
        t, y, pieces = [eps], [solver.y.copy()], []
        while solver.status == "running" and not y[-1][0] < 0.0:
            solver.step()
            t.append(solver.t)
            y.append(solver.y.copy())
            pieces.append(solver.dense_output())
        return _RefShot(np.array(t), np.array(y).T, scipy.integrate.OdeSolution(t, pieces))

    def endpoint(lam, amplitude):
        sol = dense(lam, amplitude)
        return list(zip(sol.t[-2:], *sol.y[:, -2:]))

    return endpoint, dense


def _plant_shooters(monkeypatch, shooters):
    """Route every shot through shooters, and clear the cached lam = 1 eigen
    shots so that the eigen solves shoot through it too."""
    monkeypatch.setattr(P, "_shooters", shooters)
    P._unit_eigen_shot.cache_clear()


def _mp_bvp(n, radius, mu, lam, p, s):
    # R -> sR with lambda -> lambda/s^2 rescales the same ground state
    return P.RadialBvp(n=n, radius=radius * s, mu=mu, lam=lam / s**2, nonlinearity=("power", p))


def test_eigen_shots_match_the_solve_ivp_reference(monkeypatch):
    for n, radius, mu in EIGEN_GRID:
        bvp = P.RadialBvp(n=n, radius=radius, mu=mu)
        lam1, quotient, parts = P.eigen_quotient(bvp)
        with monkeypatch.context() as m:
            _plant_shooters(m, _ref_shooters)
            ref_lam1, ref_quotient, _ = P.eigen_quotient(bvp)
            assert isinstance(P._unit_eigen_shot(P._regular_variable(bvp)[1])[0], _RefShot)
        P._unit_eigen_shot.cache_clear()  # the reference shot stays behind
        assert abs(lam1 / ref_lam1 - 1.0) < 1e-12
        assert abs(quotient / ref_quotient - 1.0) < 1e-12
        # eigen_quotient's profile is first_eigenvalue's
        same_lam1, prof = P.first_eigenvalue(bvp)
        assert same_lam1 == lam1 and np.array_equal(prof, parts["profile"])


@pytest.mark.parametrize("s", MP_RESCALINGS)
def test_ground_state_shots_match_the_solve_ivp_reference(s, monkeypatch):
    for case in MP_SETS:
        bvp = _mp_bvp(*case, s)
        sol = P.mountain_pass_solve(bvp, p=case[-1])
        with monkeypatch.context() as m:
            _plant_shooters(m, _ref_shooters)
            ref = P.mountain_pass_solve(bvp, p=case[-1])
        P._unit_eigen_shot.cache_clear()
        assert abs(sol.level / ref.level - 1.0) < 1e-14
        assert sol.residual < 1e-11


def _spy(monkeypatch, module, name):
    """(args, result) of every call to module.name."""
    seen = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append((args, real(*args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(module, name, spy)
    return seen


def test_dense_shot_at_the_found_root_vanishes_at_R(monkeypatch):
    # each solve's dense shot records its steps and rebuilds their stages
    # from field, the array form of the shots' rhs: a mismatch between rhs
    # and field, or in the eigen shot's rescaling to the unit ball, leaves
    # u(R) far from 0; the eigen shot's last step ends past the zero, at x > 1
    calls = _spy(monkeypatch, P, "_dense_shot")
    P._unit_eigen_shot.cache_clear()
    eigen = [(P._eigen_solve(P.RadialBvp(n=n, radius=radius, mu=mu))[2], 1.0)
             for n, radius, mu in EIGEN_GRID[::3]]
    for case in MP_SETS:
        P.mountain_pass_solve(_mp_bvp(*case, 1.0), p=case[-1])
    # one dense shot per ground solve and per regular dimension: the first
    # two eigen cases, (2, 1, 0) and (2, 1.7, 0), share d = 2
    assert len(calls) == 3 + len(MP_SETS)
    ground = [(sol, case[1]) for (_, sol), case in zip(calls[3:], MP_SETS)]
    for sol, radius in eigen + ground:
        assert abs(sol(radius)[0]) < 1e-9 * np.max(np.abs(sol.y[0]))
    for sol, radius in eigen:
        assert sol.t[-2] < radius < sol.t[-1]
    for sol, radius in ground:
        assert sol.t[-1] > radius * (1.0 - 1e-9)  # the first zero sits at R


def _dense_pairs(monkeypatch):
    """(grid, rebuilt, reference) for every dense shot of the solves that
    follow: each solve's own shot beside _ref_shooters' solve_ivp shot at the
    same root, from the same start, on 4096 nodes of the shot's span."""
    pairs = []
    real = P._shooters

    def shooters(bvp, span, *args):
        endpoint, dense = real(bvp, span, *args)
        ref = _ref_shooters(bvp, span, *args)[1]

        def both(*root):
            pairs.append((np.linspace(*span, 4096), dense(*root), ref(*root)))
            return pairs[-1][1]

        return endpoint, both

    _plant_shooters(monkeypatch, shooters)
    return pairs


def test_rebuilt_interpolant_matches_the_solve_ivp_interpolant(monkeypatch):
    # the continuous output rebuilt from the compiled shot's steps against
    # solve_ivp's own, on the shot's span, each of v and W in units of its
    # largest value: they agree to 2.4e-12 on the eigen shots and 1.9e-10
    # on the ground states (rtol 1e-13 and 1e-11); the rebuild without its
    # dense terms coef[3:] parts from the reference by 1.6e-7 to 2.1e-6 in v
    pairs = _dense_pairs(monkeypatch)
    for n, radius, mu in EIGEN_GRID[::2]:
        P.first_eigenvalue(P.RadialBvp(n=n, radius=radius, mu=mu))
    for case in MP_SETS:
        P.mountain_pass_solve(_mp_bvp(*case, 1.0), p=case[-1])
    # one eigen shot per regular dimension: (2, 1, 0) and (2, 2, 0) share d = 2
    assert len(pairs) == 5 + len(MP_SETS)
    for rho, new, ref in pairs:
        rho = rho[(rho >= new.t[0]) & (rho <= min(new.t[-1], ref.t[-1]))]
        want = ref(rho)
        gap = np.max(np.abs(new(rho) - want), axis=1) / np.max(np.abs(want), axis=1)
        assert np.all(gap < 1e-9)


def _ground_root(monkeypatch, bvp, p):
    """The amplitude brentq finds for bvp, and a fresh gap whose shots
    append their (t, y, step before) to the list returned with it."""
    roots = _spy(monkeypatch, _util, "brentq")
    P.mountain_pass_solve(bvp, p=p)
    # the spectral bound's Bessel zero is found by brentq too
    (amp,) = [root for (f, *_), root in roots if f.__qualname__.startswith("_ground_shots")]
    ends, real = [], P._shooters

    def shooters(*args):
        endpoint, dense = real(*args)

        def spy(*shot):
            ends.append(endpoint(*shot))
            return ends[-1]

        return spy, dense

    _plant_shooters(monkeypatch, shooters)
    return amp, P._ground_shots(bvp, p)[0], ends


@pytest.mark.parametrize("n,radius,mu,lam,p", MP_SETS)
def test_ground_state_gap_changes_sign_at_the_found_amplitude(n, radius, mu, lam, p, monkeypatch):
    amp, gap, ends = _ground_root(monkeypatch, _mp_bvp(n, radius, mu, lam, p, 1.0), p)
    for d in (1e-6, 1e-3, 0.1):
        assert gap(amp * (1.0 - d)) > 0.0
        assert gap(amp * (1.0 + d)) < 0.0
    # far above the root the first zero comes well before R: the shot stops
    # there, and gap reads v extrapolated to R along the crossing step
    # (-41.98 on the first set, where t - R read -0.4998)
    assert gap(4.0 * amp) < 0.0
    assert ends[-1][1][0] < (1.0 - 1e-3) * radius


@pytest.mark.parametrize("n,radius,mu,lam,p", MP_SETS)
def test_ground_state_gap_shrinks_tenfold_per_decade(n, radius, mu, lam, p, monkeypatch):
    # above the root gap is v extrapolated to R along the crossing step, so
    # it moves with the crossing, about linearly in the distance to the root
    # (ratios of 10.0-10.2 here); t - R at the step's end, which it
    # replaced, jumped with the step sequence: its ratios ran from 0.05 to
    # 13, outside [5, 20] on four of the six sets, and brentq fell back to
    # bisection
    amp, gap, _ = _ground_root(monkeypatch, _mp_bvp(n, radius, mu, lam, p, 1.0), p)
    gaps = [gap(amp * (1.0 + d)) for d in (1e-2, 1e-3, 1e-4)]
    assert all(5.0 <= g1 / g2 <= 20.0 for g1, g2 in zip(gaps, gaps[1:]))


def _ground_shot_amplitudes(monkeypatch, case, s):
    """The amplitude of every shot of one ground solve."""
    starts = _spy(monkeypatch, P, "_frobenius_start")
    P.mountain_pass_solve(_mp_bvp(*case, s), p=case[-1])
    return [args[2] for args, _ in starts if np.ndim(args[4]) == 0]  # one per shot


@pytest.mark.parametrize("n,radius,mu,lam,p", MP_SETS)
def test_no_ground_state_amplitude_is_shot_twice(n, radius, mu, lam, p, monkeypatch):
    # _shooters keeps every shot's steps, so brentq opens on the sweep's
    # bracket at no cost, and the profile at its root is rebuilt from
    # brentq's own shot: every amplitude is shot once, the root among them,
    # and the dense profile adds no ode.integrate
    shots = _spy(monkeypatch, scipy.integrate.ode, "integrate")
    found, brentq = [], _util.brentq

    def spy(f, *args, **kwargs):
        found.append((f, brentq(f, *args, **kwargs), len(shots)))
        return found[-1][1]

    monkeypatch.setattr(_util, "brentq", spy)
    amplitudes = _ground_shot_amplitudes(monkeypatch, (n, radius, mu, lam, p), 1.0)
    (root, shots_at_root), = [(root, k) for f, root, k in found
                               if f.__qualname__.startswith("_ground_shots")]
    assert len(set(amplitudes)) == len(amplitudes) == len(shots) == shots_at_root
    assert root in amplitudes


@pytest.mark.parametrize("s", MP_RESCALINGS)
def test_ground_solves_take_at_most_11_shots(s, monkeypatch):
    # brentq opens on the last sweep amplitude with gap > 0 and interpolates
    # a gap that moves with the crossing, and the profile comes from its own
    # shot at the root: 8-11 shots per solve, 9-12 when the root is shot
    # again for the profile
    for case in MP_SETS:
        with monkeypatch.context() as m:
            assert len(_ground_shot_amplitudes(m, case, s)) <= 11


@pytest.mark.parametrize("n,radius,mu", EIGEN_GRID)
def test_eigen_solves_take_one_shot(n, radius, mu, monkeypatch):
    # v(rho; lam) = V(sqrt(lam) rho), so one shot of V to the step that
    # crosses its first zero gives lam1; the secant from the left that this
    # replaced took 9 to 11 shots per solve.  The shot depends on d alone,
    # so the quotient on the same bvp reads it and shoots none
    shots = _spy(monkeypatch, scipy.integrate.ode, "integrate")
    P._unit_eigen_shot.cache_clear()
    bvp = P.RadialBvp(n=n, radius=radius, mu=mu)
    P.first_eigenvalue(bvp)
    assert len(shots) == 1
    P.eigen_quotient(bvp)
    assert len(shots) == 1
    assert all(y[0] < 0.0 for _, y in shots)  # stopped past the zero


def _eigen_fingerprint(n, radius, mu):
    bvp = P.RadialBvp(n=n, radius=radius, mu=mu)
    lam1, prof = P.first_eigenvalue(bvp)
    _, quotient, parts = P.eigen_quotient(bvp)
    return lam1.hex(), prof.tobytes(), quotient.hex(), parts["l2"].hex(), parts["profile"].tobytes()


def test_unit_eigen_shots_are_kept_per_regular_dimension(monkeypatch):
    # the lam = 1 shot and its zero depend on d = n + 2s alone: a cold
    # solve shoots once, the quotient on the same bvp and the same (n, mu)
    # at another R read the kept shot, and a new mu shoots again
    shots = _spy(monkeypatch, scipy.integrate.ode, "integrate")
    P._unit_eigen_shot.cache_clear()
    P.first_eigenvalue(P.RadialBvp(n=3, radius=1.0, mu=0.2))
    assert len(shots) == 1
    P.eigen_quotient(P.RadialBvp(n=3, radius=1.0, mu=0.2))
    P.eigen_quotient(P.RadialBvp(n=3, radius=2.5, mu=0.2))
    P.first_eigenvalue(P.RadialBvp(n=3, radius=0.4, mu=0.2))
    assert len(shots) == 1
    P.first_eigenvalue(P.RadialBvp(n=3, radius=1.0, mu=0.1))
    assert len(shots) == 2
    # warm solves give the bits of cold ones, the profiles and parts too
    cold = []
    for case in EIGEN_GRID:
        P._unit_eigen_shot.cache_clear()
        cold.append(_eigen_fingerprint(*case))
    shots.clear()
    P._unit_eigen_shot.cache_clear()
    for case in EIGEN_GRID:
        _eigen_fingerprint(*case)
    assert len(shots) == 9  # EIGEN_GRID's 12 cases have 9 regular dimensions
    assert [_eigen_fingerprint(*case) for case in EIGEN_GRID] == cold
    assert len(shots) == 9
    # every solve shares the kept arrays, so none may write to them
    shot, _ = P._unit_eigen_shot(P._regular_variable(P.RadialBvp(n=3, radius=1.0, mu=0.2))[1])
    for a in shot:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("weight", [0.0, 0.1], ids=["one", "no-root"])
def test_eigen_secant_that_cannot_converge_raises(weight, monkeypatch):
    # named for the secant the one shot replaced, with the same two plants:
    # rhs and field get weight lam in place of 1, so 0 keeps v = 1 and 0.1
    # moves the first zero to z / sqrt(0.1), past the shot's end d + 1
    real = P._shooters

    def shooters(bvp, span, rhs, field, *args):
        return real(bvp, span, lambda t, y: [x * c for x, c in zip(rhs(t, y), (1.0, weight))],
                    lambda t, y: field(t, y) * [[1.0], [weight]], *args)

    _plant_shooters(monkeypatch, shooters)
    with pytest.raises(RuntimeError, match="without a sign change"):
        P.first_eigenvalue(P.RadialBvp(n=3, radius=1.0, mu=0.2))


def test_newton_skips_steps_that_round_away(monkeypatch):
    # the line search stops once u + t step rounds back to u: every shorter
    # step does too and cannot lower the residual, so the profile is the
    # one the full 25 halvings give (test_mountain_pass_profiles_match_...),
    # and no gradient is assembled twice on the same profile
    for case in MP_SETS:
        inputs = []
        names = ("gradient", "_gradient", "hessian", "assemble")
        real = {name: getattr(P._RadialFunctional, name) for name in names}

        def spy(name):
            def call(self, u, *rest):
                inputs.append((name, u.tobytes()))
                return real[name](self, u, *rest)

            return call

        with monkeypatch.context() as m:
            for name in real:
                m.setattr(P._RadialFunctional, name, spy(name))
            P.mountain_pass_solve(_mp_bvp(*case, 1.0), p=case[-1])
        calls = [name for name, _ in inputs]
        newton = [u for name, u in inputs if name == "gradient"]
        # Newton plus the final energy: 4-6 here since the loop stops at the
        # gradient's rounding floor, 12-39 when it walked on there, and 42-46
        # on four of these sets when every line search ran its 25 halvings
        assert len(newton) + 1 + calls.count("hessian") <= 10
        assert len(set(newton)) == len(newton)
        # Newton and its trials take gradients alone; the energy sums and
        # exactly one gradient are taken once, on the result, which Newton
        # has already read
        assert calls.count("assemble") == 1
        assert calls.count("_gradient") == len(newton) + 1
        result = inputs[-2][1]
        assert inputs[-2:] == [("assemble", result), ("_gradient", result)] and result in newton


# -- the regular variable v = rho^-s u -----------------------------------------
#
# The u-variable shooting that v replaced, kept as a reference: u and its
# flux w = rho^(n-1) u' shot through solve_ivp's DOP853 with the
# mu rho^(n-3) u term in the right-hand side, from the former start (the two
# eigen-series terms of u, for the ground states too).  Its eigen shots run
# at rtol 1e-13, as the solver's one shot does (at 1e-12 its quotient is
# 1.1e-12 off at (4, 2, 0.9)); its quotient
# takes QAGS in rho split at every step of the shot, where the interpolant
# is one polynomial, and its ground states the same Newton polish.


def _u_shot(bvp, rhs, lam, amplitude, rtol, atol, events=None):
    n, s, eps = bvp.n, bvp.frobenius_exponent(), 1e-6 * bvp.radius
    c2 = -lam / (2.0 * (2.0 * s + n))
    u0 = amplitude * eps ** s * (1.0 + c2 * eps * eps)
    w0 = amplitude * (s * eps ** (s + n - 2) + c2 * (s + 2.0) * eps ** (s + n))
    return scipy.integrate.solve_ivp(rhs, (eps, bvp.radius), [u0, w0], method="DOP853", rtol=rtol,
                                     atol=atol, dense_output=True, events=events)


def _ref_u_eigen_quotient(bvp):
    from finsler_sharp._util import split_quad

    n, mu, radius = bvp.n, bvp.mu, bvp.radius

    def shot(lam):
        def rhs(rho, y):
            return [y[1] / rho ** (n - 1), -(mu * rho ** (n - 3) + lam * rho ** (n - 1)) * y[0]]

        return _u_shot(bvp, rhs, lam, 1.0, 1e-13, 1e-15)

    lam_lo = lam_hi = 0.5 / radius ** 2  # below j^2 / R^2 > 5.78 / R^2
    assert shot(lam_lo).y[0, -1] > 0.0
    while shot(lam_hi).y[0, -1] >= 0.0:
        lam_hi *= 1.6
    lam1 = scipy.optimize.brentq(lambda lam: shot(lam).y[0, -1], lam_lo, lam_hi, xtol=1e-12, rtol=1e-14)
    sol = shot(lam1)
    s, eps, k = bvp.frobenius_exponent(), sol.t[0], 2.0 * bvp.frobenius_exponent() + n

    def tail(g):
        # split_quad hands the callback an array of radii, and sol.sol(r) gives the (u, w) rows there
        return split_quad(lambda r: g(r, *sol.sol(r)), eps, radius, points=sol.t[1:-1])[0]

    # the series head u ~ rho^s below eps
    dirichlet = tail(lambda r, u, w: w ** 2 * r ** (1 - n)) + (s * s * eps ** (k - 2) / (k - 2) if s else 0.0)
    l2 = tail(lambda r, u, w: u ** 2 * r ** (n - 1)) + eps ** k / k
    hardy = tail(lambda r, u, w: u ** 2 * r ** (n - 3)) + eps ** (k - 2) / (k - 2) if mu else 0.0
    return lam1, (dirichlet - mu * hardy) / l2


def _ref_u_ground_level(bvp, p):
    n, mu, lam, radius = bvp.n, bvp.mu, bvp.lam, bvp.radius

    def rhs(rho, y):
        u, w = y
        up = u if u > 0.0 else 0.0
        return [w / rho ** (n - 1), rho ** (n - 1) * (lam * u - up ** (p - 1)) - mu * rho ** (n - 3) * u]

    def crossing(rho, y):
        return y[0]

    crossing.terminal, crossing.direction = True, -1.0

    def gap(amplitude):
        sol = _u_shot(bvp, rhs, lam, amplitude, 1e-11, 1e-13, crossing)
        return sol.t[-1] - radius if sol.t[-1] < radius else sol.y[0, -1]

    scale = max(1.0, lam, bvp.spectral_bound()) ** (1.0 / (p - 2.0))
    a_lo = 1e-3 * scale
    while gap(a_lo) <= 0.0:
        a_lo *= 0.25
    a_hi = max(4.0 * a_lo, scale)
    while gap(a_hi) >= 0.0:
        a_hi *= 2.0
    amp = scipy.optimize.brentq(gap, a_lo, a_hi, xtol=1e-13 * scale, rtol=1e-14)
    sol = _u_shot(bvp, rhs, lam, amp, 1e-11, 1e-13, crossing)
    rho = bvp.grid()
    s, eps = bvp.frobenius_exponent(), sol.t[0]
    vals = np.zeros_like(rho)
    inner = (rho > 0.0) & (rho < eps)
    vals[inner] = amp * rho[inner] ** s * (1.0 - lam / (2.0 * (2.0 * s + n)) * rho[inner] ** 2)
    outer = (rho >= eps) & (rho <= sol.t[-1])
    vals[outer] = sol.sol(rho[outer])[0]
    vals[0] = amp if s == 0.0 else vals[1]
    vals[-1] = 0.0
    f = P._RadialFunctional(rho, n, 2.0, lam, mu, P._power(p))
    vals = P._projected_newton(f, np.maximum(vals, 0.0), (-math.inf, math.inf), 1e-13)
    return f.assemble(vals).energy  # the level


def test_eigen_solves_match_the_u_variable_reference():
    for n, radius, mu in EIGEN_GRID:
        bvp = P.RadialBvp(n=n, radius=radius, mu=mu)
        lam1, quotient, _ = P.eigen_quotient(bvp)
        ref_lam1, ref_quotient = _ref_u_eigen_quotient(bvp)
        assert abs(lam1 / ref_lam1 - 1.0) < 1e-12
        assert abs(quotient / ref_quotient - 1.0) < 5e-13
        # the per-step rule integrates the shot's interpolant to rounding, so
        # what is left is the shot's own error at rtol 1e-13 (at most 7.8e-14
        # in lam1 and 1.4e-13 in the quotient); a quadrature that converges
        # falsely across the steps reads 2e-13 to 6.4e-13 on mu = 0
        j2 = bessel_first_zero(bpv_constant(mu, n, 1.0, omega_n(n))[0]) ** 2 / radius ** 2
        assert abs(lam1 / j2 - 1.0) < 1e-13
        assert abs(quotient / j2 - 1.0) < (1e-13 if mu == 0.0 else 2e-13)


def test_ground_state_levels_match_the_u_variable_reference():
    for n, radius, mu, lam, p in MP_SETS:
        bvp = P.RadialBvp(n=n, radius=radius, mu=mu, lam=lam, nonlinearity=("power", p))
        level = P.mountain_pass_solve(bvp, p=p).level
        assert abs(level / _ref_u_ground_level(bvp, p) - 1.0) < 1e-14


def _mp_ground_start(n, radius, mu, lam, p):
    """u and w = rho^(n-1) u' at 1e-6 R on the branch u ~ rho^s (amplitude
    1), by mpmath's Taylor integration of the u equation in log rho from
    the leading term at 1e-12 R, which is off there by O(1e-17)."""
    import mpmath

    with mpmath.workdps(20):
        n, mu, lam, p = (mpmath.mpf(x) for x in (n, mu, lam, p))
        half = (n - 2) / 2
        s = -half + mpmath.sqrt(half * half - mu)

        def rhs(t, y):
            r, (u, w) = mpmath.exp(t), y
            return [r ** (2 - n) * w, r ** n * (lam * u - u ** (p - 1)) - mu * r ** (n - 2) * u]

        r0 = mpmath.mpf(1e-12) * radius
        sol = mpmath.odefun(rhs, mpmath.log(r0), [r0 ** s, s * r0 ** (n + s - 2)])
        return [float(x) for x in sol(mpmath.log(mpmath.mpf(1e-6 * radius)))]


@pytest.mark.parametrize("n,radius,mu,lam,p", MP_SETS)
def test_ground_state_start_matches_a_high_precision_integration(n, radius, mu, lam, p):
    # the former start (the eigen sign of the rho^2 term, no power term)
    # was 7.6e-10 off in u and 3.2e-9 in w at (3, 1, 0.2, -5, 4)
    bvp = P.RadialBvp(n=n, radius=radius, mu=mu, lam=lam, nonlinearity=("power", p))
    eps, s = 1e-6 * radius, bvp.frobenius_exponent()
    v, w = P._frobenius_start(P._regular_variable(bvp), lam, 1.0, p, eps)
    u0, w0 = eps ** s * v, s * eps ** (n + s - 2) * v + eps ** -s * w
    u_ref, w_ref = _mp_ground_start(n, radius, mu, lam, p)
    assert abs(u0 / u_ref - 1.0) < 1e-12
    if mu > 0.0:
        assert abs(w0 / w_ref - 1.0) < 1e-12
    else:
        # w = (lam - 1) eps^n / n to leading order, which cancels at
        # (2, 1, 0, 1, 4): measure against the size of its two terms
        assert abs(w0 - w_ref) < 1e-12 * (abs(lam) + 1.0) * eps ** n / n


def test_singular_eigen_shot_takes_few_steps(monkeypatch):
    # the mu > 0 shot: 127-171 steps in the u variable to R at rtol 1e-12,
    # 39-43 in v under solve_ivp and 41-45 in v under the compiled DOP853;
    # the one shot of the lam = 1 problem runs to the step past its zero z
    # at rtol 1e-13 in 53-61 (25-47 for mu = 0)
    calls = _spy(monkeypatch, P, "_dense_shot")
    P._unit_eigen_shot.cache_clear()
    for n, radius, mu in EIGEN_GRID:
        if mu > 0.0:
            P.first_eigenvalue(P.RadialBvp(n=n, radius=radius, mu=mu))
    assert len(calls) == 6
    assert max(sol.t.size - 1 for _, sol in calls) <= 70


def _bessel_deviation(n, radius, mu):
    lam1, _ = P.first_eigenvalue(P.RadialBvp(n=n, radius=radius, mu=mu))
    return abs(lam1 * radius ** 2 / bessel_first_zero(bpv_constant(mu, n, 1.0, omega_n(n))[0]) ** 2 - 1.0)


@pytest.mark.parametrize("n,radius,mu", EIGEN_GRID)
def test_eigenvalue_matches_the_bessel_zero_to_1e_10(n, radius, mu):
    # test_eigenvalue_closed_form holds 1e-4 absolute and criterion 5
    # 1e-10; the shots give about 1e-13 relative
    assert _bessel_deviation(n, radius, mu) < 1e-10


def test_bessel_zero_check_sees_a_wrong_dimension(monkeypatch):
    # planted defect: v's equation in dimension n + s in place of n + 2s;
    # mu = 0 has s = 0, where the two agree
    s_of = P.RadialBvp.frobenius_exponent
    monkeypatch.setattr(P, "_regular_variable", lambda bvp: (s_of(bvp), bvp.n + s_of(bvp)))
    for n, radius, mu in EIGEN_GRID:
        assert (_bessel_deviation(n, radius, mu) > 1e-10) == (mu > 0.0)


# -- the bits of the solvers ---------------------------------------------------
#
# Pinned on x86-64 (AVX-512) with numpy 2.4.6 and scipy 1.17.1.  The shots
# take libm's pow and scipy's compiled DOP853, the quotient and the Newton
# polish numpy's SIMD array loops, so another build may round a last bit
# apart; there the pins are skipped.  A change that claims to keep the bits
# (a faster right-hand side, another integrator object) must keep these.

EIGEN_BITS = [  # (lam1, quotient).hex() on EIGEN_GRID
    ("0x1.721fb80462be5p+2", "0x1.721fb80462badp+2"), ("0x1.721fb80462be5p+4", "0x1.721fb80462badp+4"),
    ("0x1.721fb80462be5p+0", "0x1.721fb80462badp+0"), ("0x1.00241fadff3dcp+1", "0x1.00241fadff3b5p+1"),
    ("0x1.3bd3cc9be452bp+3", "0x1.3bd3cc9be4479p+3"), ("0x1.e13049971142ap+2", "0x1.e130499711423p+2"),
    ("0x1.f964837b159dcp+1", "0x1.f964837b15c04p+1"), ("0x1.ab2369bdf98b4p+3", "0x1.ab2369bdf9882p+3"),
    ("0x1.d5d2b418982cbp+3", "0x1.d5d2b4189838fp+3"), ("0x1.78dba582490cdp+3", "0x1.78dba582490d0p+3"),
    ("0x1.0900d92879b69p+1", "0x1.0900d92879c8bp+1"), ("0x1.f88bb719e08cfp+2", "0x1.f88bb719e09f3p+2"),
]
GROUND_DIGESTS = {  # sha256 of the values, level and residual of the MP_SETS ground states at scale s
    1.0: "f53712061205de48f7a1a96f8380108b351cc41f92f395182d6fe400a58b9e45",
    0.9: "053e54a0c4cd8c22094d0ecdef019ce60d345f0e9398099d8f4d800dfab82a40",
}
PLATEAU_DIGESTS = {  # the same of the plateau profiles (n = 2, R = 1, lam = 50, p = 4, k_max = 3) on m nodes
    17: "2bbaad7fd4fa87c9f3e065e2139f8d29d0616449c88e8743eb2eff5d408ed5fd",
    33: "8bac026d14bd39d5c94f8b599b6e3a741c57b9a22473ed2d31234750d7c5a2c7",
}


def _digest(solutions):
    digest = hashlib.sha256()
    for sol in solutions:
        digest.update(sol.values.tobytes())
        digest.update(sol.level.hex().encode())
        digest.update(sol.residual.hex().encode())
    return digest.hexdigest()


def _ground_digest(s):
    return _digest(P.mountain_pass_solve(_mp_bvp(*case, s), p=case[-1]) for case in MP_SETS)


@pytest.mark.pinned_build
def test_eigen_bits_are_pinned():
    bits = [tuple(float(x).hex() for x in P.eigen_quotient(P.RadialBvp(n=n, radius=radius, mu=mu))[:2])
            for n, radius, mu in EIGEN_GRID]
    assert bits == EIGEN_BITS


@pytest.mark.pinned_build
@pytest.mark.parametrize("s", MP_RESCALINGS)
def test_ground_state_bits_are_pinned(s):
    assert _ground_digest(s) == GROUND_DIGESTS[s]


@pytest.mark.pinned_build
@pytest.mark.parametrize("m", [17, 33])
def test_plateau_bits_are_pinned(m):
    # the grids of the benchmark's multiplicity probe and check; the
    # L-BFGS-B objective steers the minimizer by its rounding, so one
    # assembly per evaluation must keep every double of the two it replaced
    nl = P.OscillatoryNonlinearity(4.0)
    bvp = P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", nl), n_nodes=m)
    assert _digest(P.multiplicity_explore(bvp, h=nl, lam=50.0, k_max=3, p=4.0)) == PLATEAU_DIGESTS[m]


def test_shots_reuse_one_integrator_per_thread(monkeypatch):
    # every ode built leaks about 1 KB in f2py: the shots of all solves on a
    # thread, each ground solve's root among them, run one ode per
    # kind, and another thread gets its own
    shots = []
    real = scipy.integrate.ode.integrate

    def spy(self, *args, **kwargs):
        shots.append((threading.get_ident(), self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate.ode, "integrate", spy)
    P._unit_eigen_shot.cache_clear()
    bvp = P.RadialBvp(n=3, radius=1.0, mu=0.2)
    lam1, _ = P.first_eigenvalue(bvp)
    P.first_eigenvalue(P.RadialBvp(n=4, radius=2.0, mu=0.9))
    eigen = {solver for _, solver in shots}
    assert len(eigen) == 1
    P.mountain_pass_solve(_mp_bvp(*MP_SETS[1], 1.0), p=MP_SETS[1][-1])
    P.mountain_pass_solve(_mp_bvp(*MP_SETS[2], 1.0), p=MP_SETS[2][-1])
    ground = {solver for _, solver in shots} - eigen
    assert len(ground) == 1
    assert {tid for tid, _ in shots} == {threading.get_ident()}

    other = []
    P._unit_eigen_shot.cache_clear()  # the other thread shoots bvp's d again
    thread = threading.Thread(target=lambda: other.append(P.first_eigenvalue(bvp)[0]))
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive() and other == [lam1]
    (tid, solver), = {(tid, solver) for tid, solver in shots if tid != threading.get_ident()}
    assert solver not in eigen | ground


def test_concurrent_solves_keep_their_bits(monkeypatch):
    # more threads than cores, switching often, each shooting on its own
    # integrators: a shot that ran another thread's rhs would move the bits.
    # Each solve clears the cached lam = 1 shots first, and no two cases
    # share a regular dimension, so every solve shoots on its own thread
    cases = [(3, 1.0, 0.2), (4, 2.0, 0.9), (2, 1.7, 0.0), (3, 0.7, 0.24)]
    expected = [P.first_eigenvalue(P.RadialBvp(*case))[0] for case in cases]
    got = [[] for _ in cases]
    shooters, real = [], scipy.integrate.ode.integrate

    def spy(self, *args, **kwargs):
        shooters.append(threading.current_thread())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate.ode, "integrate", spy)

    def work(i):
        for _ in range(3):
            P._unit_eigen_shot.cache_clear()
            got[i].append(P.first_eigenvalue(P.RadialBvp(*cases[i]))[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[lam1] * 3 for lam1 in expected]
    assert collections.Counter(shooters) == {thread: 3 for thread in threads}


@pytest.mark.parametrize("n,radius,mu,lam,p", [(2, 1.0, 0.0, 0.0, 400.0), (2, 1.0, 0.0, 1e4, 40.0)])
def test_failed_shots_raise_the_dop853_status(n, radius, mu, lam, p):
    # the right-hand side runs on Python floats, which raise where numpy
    # scalars give inf or nan: a shot that cannot finish still ends in
    # DOP853's own status, and the reused integrator solves on afterwards
    # to the same bits
    before = P.mountain_pass_solve(_mp_bvp(*MP_SETS[2], 1.0), p=MP_SETS[2][-1])
    bvp = P.RadialBvp(n=n, radius=radius, mu=mu, lam=lam, nonlinearity=("power", p))
    with pytest.warns(UserWarning, match="step size becomes too small"), \
            pytest.raises(RuntimeError, match="shooting failed with DOP853 status -3"):
        P.mountain_pass_solve(bvp, p=p)
    after = P.mountain_pass_solve(_mp_bvp(*MP_SETS[2], 1.0), p=MP_SETS[2][-1])
    assert after.level == before.level and np.array_equal(after.values, before.values)
