import math
import time

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
    mu_bar, _ = bpv_constant(mu, n)
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


def test_coercivity_constant():
    bvp = P.RadialBvp(n=3, radius=1.0, mu=0.2, lam=0.0)
    c = P.coercivity_constant(bvp)
    assert 0.0 < c <= 1.0
    with pytest.raises(ValueError):
        P.coercivity_constant(P.RadialBvp(n=2, radius=1.0, lam=-6.0))  # below -j0^2


def test_radial_energy_eigen_consistency():
    bvp = P.RadialBvp(n=2, radius=1.0)
    lam1, prof = P.first_eigenvalue(bvp)
    ev = P.radial_energy(prof, bvp)
    # for the eigenprofile, dirichlet = lam1 * l2
    assert ev.dirichlet == pytest.approx(lam1 * ev.l2, rel=1e-6)
    assert not ev.singular
    with pytest.raises(ValueError):
        P.radial_energy(np.ones(bvp.n_nodes), bvp)  # no Dirichlet decay


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
        eigen = P._RadialFunctional(rho, 3, 2.0, 4.0, 0.2).assemble(u).grad
        ref = _ref_grad_quadratic(u, rho, 3, 0.2, 4.0, None, won3)
        assert np.array_equal(_bits(eigen), _bits(ref))

        q = 3.5
        power = P._RadialFunctional(rho, 3, 2.0, -5.0, 0.2, P._power(q)).assemble(u).grad
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
        jac[:, j] = (f.assemble(u + e).grad - f.assemble(u - e).grad) / (2.0 * e[j])
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
    band = f.assemble(u, hessian=True).band
    jac = _fd_jacobian(f, u)
    size = float(np.max(np.abs(band)))
    assert np.max(np.abs(np.diag(jac) - band[1])) < 1e-6 * size
    assert np.max(np.abs(np.diag(jac, 1) - band[0, 1:])) < 1e-6 * size
    assert np.max(np.abs(np.diag(jac, -1) - band[2, :-1])) < 1e-6 * size
    assert np.max(np.abs(np.triu(jac, 2)) + np.abs(np.tril(jac, -2))) < 1e-6 * size


def test_mountain_pass_profiles_match_reference_solver(monkeypatch):
    for n, radius, mu, lam, p in MP_SETS:
        bvp = P.RadialBvp(n=n, radius=radius, mu=mu, lam=lam, nonlinearity=("power", p))
        new = P.mountain_pass_solve(bvp, p=p)
        with monkeypatch.context() as mp:
            mp.setattr(P, "_projected_newton", lambda f, u, bounds, tol: _ref_newton_polish(u, bvp, p))
            ref = P.mountain_pass_solve(bvp, p=p)
        assert np.array_equal(_bits(new.values), _bits(ref.values))
        assert new.residual == ref.residual


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


def test_radial_energy_general_family():
    nl = P.OscillatoryNonlinearity(4.0)
    bvp = P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", nl), n_nodes=65)
    rho = bvp.grid()
    u = 3.0 * (1.0 - rho ** 2)
    ev = P.radial_energy(u, bvp, p=4.0)
    assert ev.quadratic == ev.dirichlet > 0.0
    assert ev.total == pytest.approx(ev.dirichlet / 4.0 - 50.0 * ev.nonlinear, rel=1e-14)
    assert ev.l2 > 0.0 and ev.residual > 0.0
    with pytest.raises(ValueError):
        P.radial_energy(u, bvp)  # the general family needs p > n
    pair = P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", (nl.h, nl.H)), n_nodes=65)
    with pytest.raises(ValueError):
        P.radial_energy(u, pair, p=4.0)  # an (h, H) tuple is not a nonlinearity object


# -- compiled root-finding shots ----------------------------------------------
#
# The shooting the compiled shots replaced, kept as a reference: every shot
# through solve_ivp's DOP853 with a dense interpolant, and the ground-state
# shots ended by a terminal event at the first downward zero.  Patched in
# for _shooters it reproduces the earlier solvers bit for bit.


def _ref_shooters(bvp, rhs, shot, rtol, atol, stop_at_zero=False):
    from scipy import integrate

    def crossing(rho, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1.0

    def dense(lam, amplitude=1.0):
        eps, u0, w0, _, _ = P._frobenius_start(bvp, lam, amplitude)
        shot["lam"] = lam
        return integrate.solve_ivp(
            rhs, (eps, bvp.radius), [u0, w0], method="DOP853", rtol=rtol, atol=atol,
            dense_output=True, events=crossing if stop_at_zero else None,
        )

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
    # the compiled shots find the root and solve_ivp integrates from it: a
    # mismatch between their equations leaves u(R) far from 0
    calls = _spy(monkeypatch, P.integrate, "solve_ivp")
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


def test_newton_skips_steps_that_round_away(monkeypatch):
    # the line search stops once u + t step rounds back to u: every shorter
    # step does too and cannot lower the residual, so the profile is the
    # one the full 25 halvings give (test_mountain_pass_profiles_match_...),
    # and no gradient is assembled twice on the same profile
    for case in MP_SETS:
        inputs = []
        real = P._RadialFunctional.assemble

        def counting(self, u, hessian=False):
            inputs.append((u.tobytes(), hessian))
            return real(self, u, hessian)

        with monkeypatch.context() as m:
            m.setattr(P._RadialFunctional, "assemble", counting)
            P.mountain_pass_solve(_mp_bvp(*case, 1.0), p=case[-1])
        grads = [u for u, hessian in inputs if not hessian]
        # Newton plus the final energy: 12-29 here, 42-46 on four of these
        # sets when every line search ran its 25 halvings
        assert len(inputs) <= 30
        assert len(set(grads[:-1])) == len(grads) - 1  # the energy re-reads the result
