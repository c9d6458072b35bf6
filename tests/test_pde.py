import hashlib
import math
import sys
import threading
import time
from typing import NamedTuple

import numpy as np
import pytest

from finsler_sharp import pde as P
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
    a = P._RadialFunctional(bvp.grid(), bvp.n, 2.0).assemble(prof)
    # for the eigenprofile, dirichlet = lam1 * l2 on the grid
    assert a.dirichlet == pytest.approx(lam1 * a.l2, rel=1e-6)


MP_SETS = [
    (3, 1.0, 0.0, 0.0, 3.0),
    (3, 1.0, 0.2, -5.0, 4.0),
    (2, 1.0, 0.0, 1.0, 4.0),
    (2, 1.5, 0.0, 2.0, 3.5),
    (4, 1.0, 0.5, 1.0, 2.5),
    (3, 1.2, 0.1, 3.0, 3.2),
]


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


def test_multiplicity_needs_exponent():
    nl = P.OscillatoryNonlinearity(4.0)
    bvp = P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", nl))
    with pytest.raises(ValueError):
        P.multiplicity_explore(bvp, h=nl, lam=50.0, k_max=2)


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


def _eigen_case(rng):
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
        rho, u = _eigen_case(rng)
        # gradient() alone, as the Newton trials call it
        eigen = P._RadialFunctional(rho, 3, 2.0, 4.0, 0.2).gradient(u)
        ref = _ref_grad_quadratic(u, rho, 3, 0.2, 4.0, None, won3)
        assert np.array_equal(_bits(eigen), _bits(ref))

        q = 3.5
        power = P._RadialFunctional(rho, 3, 2.0, -5.0, 0.2, P._power(q)).gradient(u)
        ref = _ref_grad_quadratic(u, rho, 3, 0.2, -5.0, lambda s: np.maximum(s, 0.0) ** (q - 1), won3)
        assert np.array_equal(_bits(power), _bits(ref))

        rho, u = _rise_case(rng)
        h = P.OscillatoryNonlinearity(4.0)
        a = P._RadialFunctional(rho, 2, 4.0, nl=(50.0, h.H, h.h, h.dh)).assemble(u)
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


@pytest.mark.parametrize("family", ["eigen", "power", "oscillatory"])
def test_hessian_band_matches_finite_difference_jacobian(family, rng):
    if family == "oscillatory":
        rho, u = _rise_case(rng)
        h = P.OscillatoryNonlinearity(4.0)
        f = P._RadialFunctional(rho, 2, 4.0, nl=(50.0, h.H, h.h, h.dh))
    else:
        rho = P.RadialBvp(n=3, radius=1.0, n_nodes=49).grid()
        u = np.cos(0.5 * math.pi * rho) * (1.0 + 0.3 * rng.uniform(size=rho.size))
        u[-1] = 0.0
        nl = P._power(3.5) if family == "power" else None
        f = P._RadialFunctional(rho, 3, 2.0, -5.0, 0.2, nl)
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
    # loop's residual is below the floor.
    for n, radius, mu, lam, p in MP_SETS:
        bvp = P.RadialBvp(n=n, radius=radius, mu=mu, lam=lam, nonlinearity=("power", p))
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

    bvp = P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", nl))
    t0 = time.time()
    with pytest.raises(ValueError, match="dh"):
        P.multiplicity_explore(bvp, h=NoDerivative(), lam=50.0, k_max=1, p=4.0)
    assert time.time() - t0 < 0.5  # raised at entry, before any minimization


# -- compiled root-finding shots ----------------------------------------------
#
# The shooting the compiled shots replaced, kept as a reference: every shot
# through solve_ivp's DOP853 with its own dense interpolant, and the
# ground-state shots ended by a terminal event at the first downward zero.
# Patched in for _shooters it reproduces the earlier solvers bit for bit.


class _RefShot(NamedTuple):
    t: np.ndarray
    y: np.ndarray
    sol: object

    def __call__(self, r):
        return self.sol(r)


def _ref_shooters(bvp, rhs, field, shot, rtol, atol, p=None):
    from scipy import integrate

    def crossing(rho, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1.0

    def dense(lam, amplitude=1.0):
        eps = 1e-6 * bvp.radius
        y0 = list(P._frobenius_start(bvp, lam, amplitude, p, eps))
        shot["lam"] = lam
        sol = integrate.solve_ivp(
            rhs, (eps, bvp.radius), y0, method="DOP853", rtol=rtol, atol=atol,
            dense_output=True, events=None if p is None else crossing,
        )
        return _RefShot(sol.t, sol.y, sol.sol)

    def endpoint(lam, amplitude=1.0):
        sol = dense(lam, amplitude)
        return sol.t[-1], sol.y[:, -1]

    return endpoint, dense


def _mp_bvp(n, radius, mu, lam, p, s):
    # R -> sR with lambda -> lambda/s^2 rescales the same ground state
    return P.RadialBvp(n=n, radius=radius * s, mu=mu, lam=lam / s**2, nonlinearity=("power", p))


def test_eigen_shots_match_the_solve_ivp_reference(monkeypatch):
    for n, radius, mu in EIGEN_GRID:
        bvp = P.RadialBvp(n=n, radius=radius, mu=mu)
        lam1, quotient, parts = P.eigen_quotient(bvp)
        with monkeypatch.context() as m:
            m.setattr(P, "_shooters", _ref_shooters)
            ref_lam1, ref_quotient, _ = P.eigen_quotient(bvp)
        assert abs(lam1 / ref_lam1 - 1.0) < 1e-12
        assert abs(quotient / ref_quotient - 1.0) < 1e-12
        # eigen_quotient reads first_eigenvalue's own dense shot
        same_lam1, prof = P.first_eigenvalue(bvp)
        assert same_lam1 == lam1 and np.array_equal(prof, parts["profile"])


@pytest.mark.parametrize("s", [1.0, 0.9])
def test_ground_state_shots_match_the_solve_ivp_reference(s, monkeypatch):
    for case in MP_SETS:
        bvp = _mp_bvp(*case, s)
        sol = P.mountain_pass_solve(bvp, p=case[-1])
        with monkeypatch.context() as m:
            m.setattr(P, "_shooters", _ref_shooters)
            ref = P.mountain_pass_solve(bvp, p=case[-1])
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
    # the dense shot at the root records its steps and rebuilds their
    # stages from field, the array form of the shots' rhs: a mismatch
    # between rhs and field, or between the shots, leaves u(R) far from 0
    calls = _spy(monkeypatch, P, "_dense_shot")
    for n, radius, mu in EIGEN_GRID[::3]:
        P.first_eigenvalue(P.RadialBvp(n=n, radius=radius, mu=mu))
    for case in MP_SETS:
        P.mountain_pass_solve(_mp_bvp(*case, 1.0), p=case[-1])
    dense = [sol for _, sol in calls]
    assert len(dense) == 4 + len(MP_SETS)  # one dense shot per solve
    for sol in dense:
        assert abs(sol.y[0, -1]) < 1e-9 * np.max(np.abs(sol.y[0]))
    for sol, case in zip(dense[4:], MP_SETS):
        assert sol.t[-1] > case[1] * (1.0 - 1e-9)  # the first zero sits at R


def _dense_pairs(monkeypatch):
    """(grid, rebuilt, reference) for every dense shot of the solves that
    follow: each solve's own shot beside _ref_shooters' solve_ivp shot at the
    same root, from the same start."""
    pairs = []
    real = P._shooters

    def shooters(bvp, *args):
        endpoint, dense = real(bvp, *args)
        ref = _ref_shooters(bvp, *args)[1]

        def both(*root):
            pairs.append((bvp.grid(), dense(*root), ref(*root)))
            return pairs[-1][1]

        return endpoint, both

    monkeypatch.setattr(P, "_shooters", shooters)
    return pairs


def test_rebuilt_interpolant_matches_the_solve_ivp_interpolant(monkeypatch):
    # the continuous output rebuilt from the compiled shot's steps against
    # solve_ivp's own, on the grid, each of v and W in units of its largest
    # value: they agree to 6.2e-11 on the eigen shots and 2.4e-10 on the
    # ground states (rtol 1e-12 and 1e-11); the rebuild without its dense
    # terms coef[3:] parts from the reference by 4.6e-7 to 2.1e-6 in v
    pairs = _dense_pairs(monkeypatch)
    for n, radius, mu in EIGEN_GRID[::2]:
        P.first_eigenvalue(P.RadialBvp(n=n, radius=radius, mu=mu))
    for case in MP_SETS:
        P.mountain_pass_solve(_mp_bvp(*case, 1.0), p=case[-1])
    assert len(pairs) == 6 + len(MP_SETS)
    for rho, new, ref in pairs:
        rho = rho[(rho >= new.t[0]) & (rho <= min(new.t[-1], ref.t[-1]))]
        want = ref(rho)
        gap = np.max(np.abs(new(rho) - want), axis=1) / np.max(np.abs(want), axis=1)
        assert np.all(gap < 1e-9)


@pytest.mark.parametrize("n,radius,mu,lam,p", MP_SETS)
def test_ground_state_gap_changes_sign_at_the_found_amplitude(n, radius, mu, lam, p, monkeypatch):
    bvp = _mp_bvp(n, radius, mu, lam, p, 1.0)
    roots = _spy(monkeypatch, P.optimize, "brentq")
    P.mountain_pass_solve(bvp, p=p)
    gap, _ = P._ground_shots(bvp, p)
    # the spectral bound's Bessel zero is found by brentq too
    (amp,) = [root for (f, *_), root in roots if f.__qualname__.startswith("_ground_shots")]
    for d in (1e-6, 1e-3, 0.1):
        assert gap(amp * (1.0 - d)) > 0.0
        assert gap(amp * (1.0 + d)) < 0.0
    # far above the root the first zero comes well before R
    assert -radius < gap(4.0 * amp) < -1e-3 * radius


@pytest.mark.parametrize("n,radius,mu,lam,p", MP_SETS)
def test_no_ground_state_amplitude_is_shot_twice(n, radius, mu, lam, p, monkeypatch):
    # gap remembers its shots, so brentq opens on the sweep's bracket at no
    # cost; only the dense shot at the root repeats an amplitude, brentq's
    # last, to record its steps
    starts = _spy(monkeypatch, P, "_frobenius_start")
    P.mountain_pass_solve(_mp_bvp(n, radius, mu, lam, p, 1.0), p=p)
    *found, root = [args[2] for args, _ in starts if np.ndim(args[4]) == 0]  # one per shot
    assert len(set(found)) == len(found)
    assert root in found


@pytest.mark.parametrize("n,radius,mu", EIGEN_GRID)
def test_eigen_secant_climbs_to_the_root_from_the_left(n, radius, mu, monkeypatch):
    # v(R; lam) is convex and decreasing on [0, lam_1), so the secant from
    # (0, 1) never passes lam_1: every shot before the dense one reads
    # v(R) > 0 (v(0) = 1), and a solve takes 9 to 11 shots, the dense one
    # included
    shots = _spy(monkeypatch, P.integrate.ode, "integrate")
    P.first_eigenvalue(P.RadialBvp(n=n, radius=radius, mu=mu))
    *secant, at_root = [y[0] for _, y in shots]  # v(R)
    assert len(shots) <= 11
    assert all(v > 0.0 for v in secant)
    assert abs(at_root) < 1e-13


@pytest.mark.parametrize("boundary", [lambda lam: 1.0, lambda lam: 0.5, lambda lam: -0.5,
                                      lambda lam: 1.0 / (1.0 + lam)],
                         ids=["one", "half", "minus-half", "no-root"])
def test_eigen_secant_that_cannot_converge_raises(boundary, monkeypatch):
    # a flat boundary value leaves the secant a zero denominator, and
    # 1 / (1 + lam), which has no root, walks it to its shot cap
    real = P._shooters

    def shooters(bvp, *args):
        _, dense = real(bvp, *args)
        return (lambda lam, amplitude=1.0: (bvp.radius, [boundary(lam), 0.0])), dense

    monkeypatch.setattr(P, "_shooters", shooters)
    with pytest.raises(RuntimeError, match="eigenvalue secant"):
        P.first_eigenvalue(P.RadialBvp(n=3, radius=1.0, mu=0.2))


def test_newton_skips_steps_that_round_away(monkeypatch):
    # the line search stops once u + t step rounds back to u: every shorter
    # step does too and cannot lower the residual, so the profile is the
    # one the full 25 halvings give (test_mountain_pass_profiles_match_...),
    # and no gradient is assembled twice on the same profile
    for case in MP_SETS:
        inputs = []
        real = {name: getattr(P._RadialFunctional, name) for name in ("gradient", "hessian", "assemble")}

        def spy(name):
            def call(self, u):
                inputs.append((name, u.tobytes()))
                return real[name](self, u)

            return call

        with monkeypatch.context() as m:
            for name in real:
                m.setattr(P._RadialFunctional, name, spy(name))
            P.mountain_pass_solve(_mp_bvp(*case, 1.0), p=case[-1])
        grads = [u for name, u in inputs if name == "gradient"]
        # Newton plus the final energy: 4-6 here since the loop stops at the
        # gradient's rounding floor, 12-39 when it walked on there, and 42-46
        # on four of these sets when every line search ran its 25 halvings
        assert len(grads) + sum(name == "hessian" for name, _ in inputs) <= 10
        assert len(set(grads[:-1])) == len(grads) - 1  # the energy re-reads the result
        # Newton and its trials take gradients alone; the energy sums are
        # taken once, for the result
        assert [name for name, _ in inputs].count("assemble") == 1
        assert inputs[-2:] == [("assemble", grads[-1]), ("gradient", grads[-1])]


# -- the regular variable v = rho^-s u -----------------------------------------
#
# The u-variable shooting that v replaced, kept as a reference: u and its
# flux w = rho^(n-1) u' shot through solve_ivp's DOP853 with the
# mu rho^(n-3) u term in the right-hand side, from the former start (the two
# eigen-series terms of u, for the ground states too).  Its eigen shots run
# at rtol 1e-13, not the solvers' 1e-12, so that it is the more accurate
# side (at 1e-12 its quotient is 1.1e-12 off at (4, 2, 0.9)); its quotient
# takes QAGS in rho split at every step of the shot, where the interpolant
# is one polynomial, and its ground states the same Newton polish.


def _u_shot(bvp, rhs, lam, amplitude, rtol, atol, events=None):
    from scipy import integrate

    n, s, eps = bvp.n, bvp.frobenius_exponent(), 1e-6 * bvp.radius
    c2 = -lam / (2.0 * (2.0 * s + n))
    u0 = amplitude * eps ** s * (1.0 + c2 * eps * eps)
    w0 = amplitude * (s * eps ** (s + n - 2) + c2 * (s + 2.0) * eps ** (s + n))
    return integrate.solve_ivp(rhs, (eps, bvp.radius), [u0, w0], method="DOP853", rtol=rtol,
                               atol=atol, dense_output=True, events=events)


def _ref_u_eigen_quotient(bvp):
    from scipy import optimize

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
    lam1 = optimize.brentq(lambda lam: shot(lam).y[0, -1], lam_lo, lam_hi, xtol=1e-12, rtol=1e-14)
    sol = shot(lam1)
    s, eps, k = bvp.frobenius_exponent(), sol.t[0], 2.0 * bvp.frobenius_exponent() + n

    def tail(g):
        return split_quad(lambda r: g(r, *sol.sol(r)), eps, radius, points=sol.t[1:-1])[0]

    # the series head u ~ rho^s below eps
    dirichlet = tail(lambda r, u, w: w ** 2 * r ** (1 - n)) + (s * s * eps ** (k - 2) / (k - 2) if s else 0.0)
    l2 = tail(lambda r, u, w: u ** 2 * r ** (n - 1)) + eps ** k / k
    hardy = tail(lambda r, u, w: u ** 2 * r ** (n - 3)) + eps ** (k - 2) / (k - 2) if mu else 0.0
    return lam1, (dirichlet - mu * hardy) / l2


def _ref_u_ground_level(bvp, p):
    from scipy import optimize

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
    amp = optimize.brentq(gap, a_lo, a_hi, xtol=1e-13 * scale, rtol=1e-14)
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
        # what is left is the shot's own error at rtol 1e-12; a quadrature that
        # converges falsely across the steps reads 2e-13 to 6.4e-13 on mu = 0
        j2 = bessel_first_zero(bpv_constant(mu, n, 1.0, omega_n(n))[0]) ** 2 / radius ** 2
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
    v, w = P._frobenius_start(bvp, lam, 1.0, p, eps)
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
    # the dense mu > 0 shot: 127-171 steps in the u variable, 39-43 in v
    # under solve_ivp, 41-45 in v under the compiled DOP853
    calls = _spy(monkeypatch, P, "_dense_shot")
    for n, radius, mu in EIGEN_GRID:
        if mu > 0.0:
            P.first_eigenvalue(P.RadialBvp(n=n, radius=radius, mu=mu))
    assert len(calls) == 6
    assert max(sol.t.size - 1 for _, sol in calls) <= 60


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
    ("0x1.721fb80462d6ep+2", "0x1.721fb80462c54p+2"), ("0x1.721fb80462ddap+4", "0x1.721fb80462c95p+4"),
    ("0x1.721fb80462d62p+0", "0x1.721fb80462c64p+0"), ("0x1.00241fadff4e0p+1", "0x1.00241fadff42fp+1"),
    ("0x1.3bd3cc9be46ccp+3", "0x1.3bd3cc9be46a9p+3"), ("0x1.e130499711465p+2", "0x1.e130499711358p+2"),
    ("0x1.f964837b15956p+1", "0x1.f964837b15947p+1"), ("0x1.ab2369bdf97e4p+3", "0x1.ab2369bdf941dp+3"),
    ("0x1.d5d2b4189823cp+3", "0x1.d5d2b41898112p+3"), ("0x1.78dba582492acp+3", "0x1.78dba58249189p+3"),
    ("0x1.0900d92879a15p+1", "0x1.0900d92879751p+1"), ("0x1.f88bb719e0846p+2", "0x1.f88bb719e06a2p+2"),
]
GROUND_DIGESTS = {  # sha256 of the values, level and residual of the MP_SETS ground states at scale s
    1.0: "10e8f0b6cb0db385d2ff10e7fbf49cc0b1cab722b9c72927005ee7a9cbe3e9fe",
    0.9: "62d6195c57c6c2d37e2a7409e94f76dd4ece46d3ff65257cb5946fd085068570",
}


def _ground_digest(s):
    digest = hashlib.sha256()
    for case in MP_SETS:
        sol = P.mountain_pass_solve(_mp_bvp(*case, s), p=case[-1])
        digest.update(sol.values.tobytes())
        digest.update(sol.level.hex().encode())
        digest.update(sol.residual.hex().encode())
    return digest.hexdigest()


@pytest.mark.pinned_build
def test_eigen_bits_are_pinned():
    bits = [tuple(float(x).hex() for x in P.eigen_quotient(P.RadialBvp(n=n, radius=radius, mu=mu))[:2])
            for n, radius, mu in EIGEN_GRID]
    assert bits == EIGEN_BITS


@pytest.mark.pinned_build
@pytest.mark.parametrize("s", [1.0, 0.9])
def test_ground_state_bits_are_pinned(s):
    assert _ground_digest(s) == GROUND_DIGESTS[s]


def test_shots_reuse_one_integrator_per_thread(monkeypatch):
    # every ode built leaks about 1 KB in f2py: the shots of all solves on a
    # thread, the dense shots at their roots among them, run one ode per
    # kind, and another thread gets its own
    shots = []
    real = P.integrate.ode.integrate

    def spy(self, *args, **kwargs):
        shots.append((threading.get_ident(), self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(P.integrate.ode, "integrate", spy)
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
    thread = threading.Thread(target=lambda: other.append(P.first_eigenvalue(bvp)[0]))
    thread.start()
    thread.join(timeout=60.0)
    assert not thread.is_alive() and other == [lam1]
    (tid, solver), = {(tid, solver) for tid, solver in shots if tid != threading.get_ident()}
    assert solver not in eigen | ground


def test_concurrent_solves_keep_their_bits():
    # more threads than cores, switching often, each shooting on its own
    # integrators: a shot that ran another thread's rhs would move the bits
    cases = [(3, 1.0, 0.2), (4, 2.0, 0.9), (2, 1.7, 0.0), (3, 0.7, 0.24)]
    expected = [P.first_eigenvalue(P.RadialBvp(*case))[0] for case in cases]
    got = [[] for _ in cases]

    def work(i):
        for _ in range(3):
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
