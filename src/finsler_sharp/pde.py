"""Radial variational solvers on Wulff balls of normalized Minkowski norms.

For radial profiles on the ball the anisotropic Dirichlet integrals reduce
to one-dimensional weighted quadratures, so the eigenvalue problem with an
inverse-square potential, the semilinear ground-state problem, and the
critical-profile exploration for oscillatory nonlinearities all become
singular ODE problems in the radial variable.  Shooting runs in v = rho^-s u
(s the Frobenius exponent) and W = rho^(d-1) v', where the potential cancels
and v solves the problem without it in dimension d = n + 2s.  Every shot
runs the compiled DOP853 of scipy's ode, one per thread and kind for all
solves, with right-hand sides in Python floats: the root-finding shots
(the eigenvalue's secant from the left, the amplitude's bracket and brentq)
for their endpoint only, and one more shot per solve, at the root, records
its accepted steps, from which DOP853's continuous output is rebuilt in one
numpy pass (_dense_shot) for the profile and the eigen quotient to read.
On the grid, one assembly (_RadialFunctional) gives the energy, the exact
gradient and the tridiagonal Hessian of
(1/p) int |u'|^p w + 1/2 int c u^2 - int F(u) w for every family, and one
projected banded Newton loop (_projected_newton) polishes the ground states
(no bounds, to 1e-13 or the gradient's rounding floor) and the plateau
profiles (a finite box, to 1e-10), halving each step until it rounds away.
"""

import math
import threading
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
from scipy import integrate, linalg, optimize

from ._util import gauss_legendre, graded_grid
from .constants import bpv_constant, omega_n


@lru_cache(maxsize=64)
def _cached_grid(radius: float, n_nodes: int) -> np.ndarray:
    g = graded_grid(0.0, radius, n_nodes, exponent=2.0)
    g.setflags(write=False)
    return g


def _check_mu(n: int, mu: float) -> None:
    if mu < 0:
        raise ValueError(f"singular-potential strength must be >= 0, got {mu}")
    if n == 2:
        if mu != 0.0:
            raise ValueError("inverse-square potential requires mu = 0 in dimension 2")
    elif mu >= ((n - 2) / 2.0) ** 2:
        raise ValueError(
            f"mu = {mu} is outside the admissible range [0, {((n - 2) / 2.0) ** 2}) "
            f"for dimension {n}"
        )


@dataclass(frozen=True)
class RadialBvp:
    """Radial boundary-value problem on the Wulff ball of radius R.

    nonlinearity is one of "eigen", ("power", p), or ("general", nl) where
    nl carries h/H callables.  Profiles are nodal arrays on grid(), n_nodes
    nodes graded with power 2 toward both ends, with the Dirichlet
    condition u(R) = 0.
    """

    n: int
    radius: float
    mu: float = 0.0
    lam: float = 0.0
    nonlinearity: object = "eigen"
    n_nodes: int = 4096

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if self.radius <= 0:
            raise ValueError(f"domain radius must be positive, got {self.radius}")
        if self.n_nodes < 16:
            raise ValueError("grid needs at least 16 nodes")
        _check_mu(self.n, self.mu)
        kind = self.nonlinearity
        if kind != "eigen" and not (isinstance(kind, tuple) and len(kind) == 2
                                    and kind[0] in ("power", "general")):
            raise ValueError(f"unknown nonlinearity descriptor {kind!r}")
        if kind[0] == "power" and kind[1] <= 2:
            raise ValueError("power nonlinearity needs exponent > 2")

    def grid(self) -> np.ndarray:
        return _cached_grid(self.radius, self.n_nodes)

    def frobenius_exponent(self) -> float:
        half = (self.n - 2) / 2.0
        return -half + math.sqrt(half * half - self.mu)

    def spectral_bound(self) -> float:
        """Sharp L2 lower bound of the quadratic form on this ball; the
        radial BVP is flat by construction, so its AVR is 1."""
        vol = omega_n(self.n) * self.radius ** self.n
        _, s = bpv_constant(self.mu, self.n, 1.0, vol)
        return s


@dataclass(frozen=True)
class MountainPassSolution:
    grid: np.ndarray
    values: np.ndarray
    amplitude: float
    level: float
    residual: float
    shooting_gap: float


@dataclass(frozen=True)
class CriticalProfile:
    grid: np.ndarray
    values: np.ndarray
    sup: float
    level: float
    residual: float
    truncation: float


def _panels(rho: np.ndarray, n: int):
    drho = np.diff(rho)
    rbar = 0.5 * (rho[1:] + rho[:-1])
    return drho, rbar, rbar ** (n - 1)


def _power(q: float):
    """(coef, F, F', F'') for F(s) = s_+^q / q."""
    return (
        1.0,
        lambda s: np.maximum(s, 0.0) ** q / q,
        lambda s: np.maximum(s, 0.0) ** (q - 1),
        lambda s: (q - 1) * np.maximum(s, 0.0) ** (q - 2),
    )


class _Assembly(NamedTuple):
    energy: float
    grad: np.ndarray
    dirichlet: float
    l2: float
    hardy: float
    nonlinear: float


class _RadialFunctional:
    """Discrete radial functional on the panels of rho,

        J(u) = (1/p) int |u'|^p w + 1/2 int c u^2 - coef int F(u) w,

    with w = n omega_n rho^(n-1) and c = lam w - mu n omega_n rho^(n-3),
    under the midpoint rule.  nl = (coef, F, F', F'') gives the
    nonlinearity (None for none; F'' may be None when no Hessian is asked
    for).  p = 2 gives the eigen family (no F) and the ground states
    (F = u_+^q / q); p > n with c = 0 and coef F' = lam h gives the
    oscillatory family.  gradient(), hessian() (tridiagonal) and assemble()
    (the energy, its parts and the gradient) keep the products and node sums
    of the two per-family assemblies this replaced, so the gradients and the
    oscillatory energy are bit-identical to theirs.
    """

    def __init__(self, rho, n: int, p: float, lam: float = 0.0, mu: float = 0.0, nl=None):
        self.rho, self.n, self.p, self.lam, self.mu, self.nl = rho, n, p, lam, mu, nl
        self.nw = n * omega_n(n)
        self.drho, rbar, self.shell = _panels(rho, n)
        self.hardy_w = rbar ** (n - 3)
        self.c = lam * self.shell - mu * self.hardy_w

    def residual_scale(self, u) -> float:
        return self.nw * max(1.0, np.max(u) ** (self.p - 1)) * max(1.0, self.rho[-1] ** (self.n - 1))

    def _terms(self, u):
        """(coef, F, F', F''), panel means and panel slopes of u."""
        nl = self.nl if self.nl is not None else (0.0, None, None, None)
        return nl, 0.5 * (u[1:] + u[:-1]), np.diff(u) / self.drho

    def gradient(self, u) -> np.ndarray:
        p, drho, shell = self.p, self.drho, self.shell
        (coef, _, f, _), ubar, slope = self._terms(u)
        mass = []
        if self.lam != 0.0:
            mass.append(self.lam * ubar * shell * drho)
        if self.mu != 0.0:
            mass.append(-self.mu * ubar * self.hardy_w * drho)
        if f is not None:
            mass.append(-coef * np.asarray(f(ubar), dtype=float) * shell * drho)
        flux = np.abs(slope) ** (p - 2) * slope * shell
        half = 0.5 * sum(mass[1:], mass[0]) if mass else 0.0
        g = np.zeros_like(u)
        g[:-1] += -flux + half
        g[1:] += flux + half
        return self.nw * g

    def hessian(self, u) -> np.ndarray:
        """Hessian rows (upper, main, lower) divided by n omega_n."""
        p, drho, shell = self.p, self.drho, self.shell
        (coef, _, f, df), ubar, slope = self._terms(u)
        k_diag = (p - 1.0) * np.abs(slope) ** (p - 2) * shell / drho
        curv = []
        if self.lam != 0.0 or self.mu != 0.0:
            curv.append(0.25 * (self.c * drho))
        if f is not None:
            curv.append(-coef * np.asarray(df(ubar), dtype=float) * 0.25 * shell * drho)
        c = sum(curv[1:], curv[0]) if curv else 0.0
        band = np.zeros((3, len(u)))
        band[1, :-1] += k_diag + c
        band[1, 1:] += k_diag + c
        band[0, 1:] = band[2, :-1] = -k_diag + c
        return band

    def assemble(self, u) -> _Assembly:
        p, drho, shell, nw = self.p, self.drho, self.shell, self.nw
        (coef, prim, f, _), ubar, slope = self._terms(u)
        dirichlet = float(np.sum(np.abs(slope) ** p * shell * drho))
        l2 = float(np.sum(ubar ** 2 * shell * drho))
        hardy = float(np.sum(ubar ** 2 * self.hardy_w * drho)) if self.mu != 0.0 else 0.0
        nonlinear = float(np.sum(np.asarray(prim(ubar), dtype=float) * shell * drho)) if f is not None else 0.0
        energy = nw * (dirichlet / p + 0.5 * (self.lam * l2 - self.mu * hardy) - coef * nonlinear)
        return _Assembly(energy, self.gradient(u), nw * dirichlet, nw * l2, nw * hardy, nw * nonlinear)


def _kkt_residual(u, g, lo, hi, scale) -> float:
    kkt = g.copy()
    kkt[-1] = 0.0
    at_lo = u <= lo + 1e-14
    at_hi = u >= hi * (1.0 - 1e-12)
    kkt[at_lo] = np.minimum(kkt[at_lo], 0.0)
    kkt[at_hi] = np.maximum(kkt[at_hi], 0.0)
    return float(np.linalg.norm(kkt)) / scale


def _projected_newton(f: _RadialFunctional, u, bounds, tol: float):
    """Projected Newton for simple bounds (Bertsekas 1982) on the discrete
    functional f, stopped once the scaled KKT residual is below tol, or, with
    no box, after a step lands below half of the gradient's rounding floor
    eps n omega_n |||K||u|||/scale (K the Hessian band), where steps walk.

    The Dirichlet node stays pinned and nodes at an active bound are
    frozen; the free nodes take one tridiagonal solve, and the step is
    halved until the KKT residual falls, at most 25 times, and no further
    once u + t step rounds to u (every shorter step would too).  A finite
    box is the truncated p-energy, which is minimized: plateau panels with
    nearly flat slope make its Hessian degenerate, so the diagonal is
    floored at 1e-12 max|diag|, and when halving fails a Levenberg shift of
    the diagonal grows tenfold and the solve is retried.  Without a box the
    critical point is a ground state, a saddle with an indefinite Hessian:
    the floor would stall its residual near 1e-8, and at the roundoff floor
    a shift only buys a random walk, so the loop stops when halving fails.
    """
    lo, hi = bounds
    box = math.isfinite(lo) and math.isfinite(hi)
    # the box path solves the system divided by n omega_n, the unbounded
    # path the system itself: the operation orders of the two solvers this
    # one replaced, whose profiles it reproduces bit for bit
    units = 1.0 if box else f.nw
    scale = f.residual_scale(u)
    u = u.copy()
    g = f.gradient(u)
    best = _kkt_residual(u, g, lo, hi, scale)
    lev = 0.0
    for _ in range(60):
        if best < tol:
            break
        band = f.hessian(u)
        unit = 1e-12 * max(float(np.max(np.abs(band[1]))), 1.0)
        floor = 0.0  # a box polishes to tol
        if not box:
            off = np.abs(band[0, 1:])  # |K| |u|, K symmetric
            ku = np.abs(band[1] * u) + np.r_[off * np.abs(u[1:]), 0.0] + np.r_[0.0, off * np.abs(u[:-1])]
            floor = np.finfo(float).eps * f.nw * float(np.linalg.norm(ku)) / scale
        fixed = (u <= lo + 1e-14) | (u >= hi * (1.0 - 1e-12))
        fixed[-1] = True
        ab = np.zeros_like(band)
        ab[0, 1:] = np.where(fixed[:-1] | fixed[1:], 0.0, band[0, 1:])
        ab[1] = np.where(fixed, 1.0, np.maximum(band[1] + lev, unit) if box else band[1])
        ab[2, :-1] = ab[0, 1:]
        rhs = np.where(fixed, 0.0, -g / (f.nw / units))
        improved = False
        try:
            step = linalg.solve_banded((1, 1), units * ab, rhs)
        except linalg.LinAlgError:
            pass
        else:
            t = 1.0
            for _ in range(25):
                trial = np.clip(u + t * step, lo, hi)
                trial[-1] = 0.0
                if np.array_equal(trial, u):
                    break
                gt = f.gradient(trial)
                rt = _kkt_residual(trial, gt, lo, hi, scale)
                if rt < best:
                    u, g, best, improved = trial, gt, rt, True
                    break
                t *= 0.5
        if improved:
            lev *= 0.25
            if best < 0.5 * floor:
                break
        elif not box:
            break
        else:
            lev = max(10.0 * lev, unit * 1e4)
            if lev > 1e20 * unit:
                break
    return u


def _regular_variable(bvp: RadialBvp):
    """(s, d): u = rho^s v takes mu rho^-2 out (s (s + n - 2) = -mu) and leaves dimension n + 2s."""
    s = bvp.frobenius_exponent()
    return s, bvp.n + 2.0 * s


def _frobenius_start(bvp: RadialBvp, lam: float, amplitude: float, p, rho):
    """(v, W = rho^(d-1) v') at rho of the branch v(0) = a of (rho^(d-1) v')'
    = rho^(d-1) (k v - rho^t v_+^(p-1)), t = s (p - 2): k = -lam and no power
    term for the eigen problem (p None), k = lam for the ground states.  Two
    terms, v = a (1 + k rho^2 / 2d) - a^(p-1) rho^(2+t) / ((2+t)(d+t)), the
    first omitted O(rho^(4+2t)); the shots start on it at eps = 1e-6 R."""
    s, d = _regular_variable(bvp)
    c2 = (-lam if p is None else lam) / (2.0 * d)
    v, w = amplitude * (1.0 + c2 * rho ** 2), amplitude * (2.0 * c2 * rho ** d)
    if p is not None:
        t, a = s * (p - 2.0), amplitude ** (p - 1)
        v, w = v - a * rho ** (2.0 + t) / ((2.0 + t) * (d + t)), w - a * rho ** (d + t) / (d + t)
    return v, w


_integrators = threading.local()


def _below_zero(t, y):
    return -1 if y[0] < 0.0 else 0


def _integrator(ground: bool, rtol: float, atol: float):
    """This thread's compiled DOP853 for (ground, rtol, atol), built on its
    first shot: every ode built leaks about 1 KB in f2py, so the shots of all
    solves reuse one, each taking the solve's rhs as its .f.  A ground-state
    one stops at a step that ends with v < 0."""
    cache = _integrators.__dict__.setdefault("by_key", {})
    key = (ground, rtol, atol)
    if key not in cache:
        solver = integrate.ode(None).set_integrator("dop853", rtol=rtol, atol=atol, nsteps=10**6)
        if ground:
            solver.set_solout(_below_zero)
        cache[key] = solver
    return cache[key]


# DOP853's 16 stages (Hairer, Norsett & Wanner, Solving ODEs I, II.6) by
# the public tableau of scipy's DOP853: stage 12 is f at the step's end, and
# stages 13-15 serve only the continuous output
_DOP = integrate.DOP853
_A = np.vstack((np.pad(_DOP.A, ((0, 1), (0, 4))), _DOP.A_EXTRA))
_C = np.concatenate((_DOP.C, [1.0], _DOP.C_EXTRA))


class _DenseShot(NamedTuple):
    """DOP853's continuous output on the accepted steps (t, y) of a shot: on
    step i, y_i plus the degree-7 polynomial in x = (rho - t_i) / h_i with
    the coefficients coef[:, :, i], evaluated as solve_ivp evaluates it."""

    t: np.ndarray
    y: np.ndarray
    coef: np.ndarray

    def __call__(self, r) -> np.ndarray:
        i = np.clip(np.searchsorted(self.t, r) - 1, 0, self.t.size - 2)
        x, out = (r - self.t[i]) / (self.t[i + 1] - self.t[i]), 0.0
        for j, c in enumerate(np.take(self.coef[::-1], i, axis=2)):
            out = (out + c) * (x if j % 2 == 0 else 1.0 - x)
        return out + np.take(self.y, i, axis=1)


def _dense_shot(field, t, y) -> _DenseShot:
    """The continuous output of the steps (t, y), y of shape (2, len(t)),
    that a DOP853 shot of field(rho, y) accepted: every stage of every step,
    one stage at a time across the steps, then solve_ivp's coefficients."""
    h, t0, y0, dy, f = np.diff(t), t[:-1], y[:, :-1], np.diff(y), field(t, y)
    k = np.empty((16, *y0.shape))
    k[0], k[12] = f[:, :-1], f[:, 1:]
    for s in (*range(1, 12), 13, 14, 15):
        incr = (_A[s, :s] @ k[:s].reshape(s, -1)).reshape(y0.shape)
        k[s] = field(t0 + _C[s] * h, y0 + h * incr)
    low = [dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0])]
    return _DenseShot(t, y, np.concatenate((low, h * np.tensordot(_DOP.D, k, 1))))


def _shooters(bvp: RadialBvp, rhs, field, shot: dict, rtol: float, atol: float, p=None):
    """(endpoint, dense) shots of rhs(rho, y), y = (v, W), from
    _frobenius_start at (lam, amplitude); each sets shot["lam"] for rhs to
    read.  Both run this thread's compiled DOP853 (see _integrator), and a
    ground state (p given) stops at a step ending with v < 0.  endpoint
    returns (t, y) at the end; dense records every accepted step and returns
    their _dense_shot, for which field is rhs on arrays of shape (2, m).
    Each shot hands rhs to the ode as its .f, so the shooters of several
    solves may interleave; what changes between shots goes through the shot
    cell, as set_f_params would break set_solout."""
    eps = 1e-6 * bvp.radius
    solver = _integrator(p is not None, rtol, atol)

    def endpoint(lam, amplitude=1.0):
        shot["lam"] = lam
        solver.f = rhs
        solver.set_initial_value(list(_frobenius_start(bvp, lam, amplitude, p, eps)), eps)
        y = solver.integrate(bvp.radius)
        if not solver.successful():
            raise RuntimeError(f"shooting failed with DOP853 status {solver.get_return_code()}")
        return solver.t, y

    def dense(lam, amplitude=1.0):
        steps = []

        def record(t, y):
            steps.append((t, *y.tolist()))
            return 0 if p is None else _below_zero(t, y)

        solver.set_solout(record)
        try:
            endpoint(lam, amplitude)
        finally:
            solver.set_solout(None if p is None else _below_zero)
        steps = np.array(steps).T
        return _dense_shot(field, steps[0], steps[1:])

    return endpoint, dense


def _eigen_solve(bvp: RadialBvp):
    _, d = _regular_variable(bvp)
    shot = {"lam": 0.0}
    dm1 = d - 1

    def rhs(rho, y):
        v, w = y.tolist()
        r = rho ** dm1
        return [w / r, -shot["lam"] * r * v]

    def field(rho, y):
        r = rho ** dm1
        return np.array([y[1] / r, -shot["lam"] * r * y[0]])

    endpoint, dense = _shooters(bvp, rhs, field, shot, 1e-12, 1e-14)

    # f(lam) = v(R; lam) = sum_k (-lam R^2/4)^k / (k! (d/2)_k) is entire of
    # order 1/2 with simple zeros lam_k > 0, so f = prod (1 - lam/lam_k)
    # (Hadamard), and with S = sum 1/(lam_k - lam), f' = -f S < 0 and
    # f'' = f (S^2 - S') >= 0 on [0, lam_1): every chord through two points
    # left of lam_1 crosses zero left of lam_1.  The secant from (0, 1)
    # (v = 1, W = 0 exactly, no shot) and 0.5/R^2 < j_01^2/R^2 <= lam_1 (d >= 2)
    # thus climbs to lam_1 from the left, with order 1.618 and no bracket.
    lam0, f0, lam1 = 0.0, 1.0, 0.5 / bvp.radius ** 2
    for _ in range(100):
        f1 = float(endpoint(lam1)[1][0])
        if f1 == f0:
            raise RuntimeError(f"eigenvalue secant stalled at lambda = {lam1}")
        step = f1 * (lam1 - lam0) / (f0 - f1)
        lam0, f0, lam1 = lam1, f1, lam1 + step
        if abs(step) <= 1e-12 + 1e-14 * lam1:
            break
    else:
        raise RuntimeError("eigenvalue secant did not converge in 100 shots")

    sol = dense(lam1)
    rho = bvp.grid()
    prof = _sample_frobenius(rho, sol, bvp, lam1, 1.0)
    prof[-1] = 0.0
    prof /= np.max(np.abs(prof))
    if prof[np.argmax(np.abs(prof))] < 0:
        prof = -prof
    return lam1, prof, sol


def first_eigenvalue(bvp: RadialBvp):
    """Smallest value of the spectral parameter with a positive radial
    solution vanishing at R; found by shooting from the regular branch and
    root-finding on the boundary value.  Returns (value, nodal profile)."""
    lam1, prof, _ = _eigen_solve(bvp)
    return lam1, prof


def _sample_frobenius(rho, sol, bvp: RadialBvp, lam: float, amplitude: float, p=None):
    """u = rho^s v on the grid from the shot sol of (v, W), with the series
    below the shooting start.  The singular branch (s < 0, mu > 0) is
    unbounded at 0; the origin node gets the first positive node's value,
    which the graded quadratures cannot distinguish."""
    s, _ = _regular_variable(bvp)
    eps = sol.t[0]
    vals = np.empty_like(rho)
    inner = (rho < eps) & (rho > 0.0)
    vals[inner] = rho[inner] ** s * _frobenius_start(bvp, lam, amplitude, p, rho[inner])[0]
    outer = rho >= eps
    capped = np.minimum(rho[outer], sol.t[-1])
    vals[outer] = capped ** s * sol(capped)[0]
    vals[0] = amplitude if s == 0 else vals[1]  # the grid starts at 0
    return vals


def eigen_quotient(bvp: RadialBvp):
    """(lam1, quotient of the eigenprofile, parts with "profile") from
    first_eigenvalue's dense shot of (v, W): u = rho^s v, and the Dirichlet
    integral takes the flux rho^(n-1) u' = s rho^(n+s-2) v + rho^-s W.  The
    tails take 8-point Gauss-Legendre on each step of the shot, where the
    interpolant is one polynomial: in rho for s = 0, and in log rho, where
    the rho^(d-3) head is smooth, for s != 0."""
    lam1, prof, sol = _eigen_solve(bvp)
    n, eps, mu, (s, d) = bvp.n, sol.t[0], bvp.mu, _regular_variable(bvp)
    integrands = [lambda r, u, flux: flux ** 2 * r ** (1 - n), lambda r, u, flux: u ** 2 * r ** (n - 1)]
    if mu != 0.0:
        integrands.append(lambda r, u, flux: u ** 2 * r ** (n - 3))
    x, wx = gauss_legendre(8)
    steps = np.log(sol.t) if s != 0.0 else sol.t
    half = 0.5 * np.diff(steps)[:, None]
    r = (steps[:-1, None] + half * (1.0 + x)).ravel()
    weights = (half * wx).ravel()
    if s != 0.0:
        r = np.exp(r)
        weights = weights * r
    v, w = sol(r)
    u, flux = r ** s * v, s * r ** (n + s - 2) * v + r ** -s * w
    tails = [float(np.sum(weights * g(r, u, flux))) for g in integrands]
    # series head u ~ rho^s: analytic leading-order integrals
    nw = n * omega_n(n)
    dirichlet = nw * (tails[0] + (s * s * eps ** (d - 2) / (d - 2) if s != 0.0 else 0.0))
    l2 = nw * (tails[1] + eps ** d / d)
    hardy = nw * (tails[2] + eps ** (d - 2) / (d - 2)) if mu != 0.0 else 0.0
    quotient = (dirichlet - mu * hardy) / l2
    return lam1, quotient, {"dirichlet": dirichlet, "hardy": hardy, "l2": l2, "profile": prof}


def _ground_shots(bvp: RadialBvp, p: float):
    """(gap, dense) in the ground-state amplitude a.  gap(a) is t - R for a
    compiled shot stopped at a step t < R that ends with v < 0, and v(R)
    otherwise: it changes sign where the first zero is at R."""
    # rhs works on Python floats, which round as numpy scalars do (IEEE
    # doubles, libm pow) at a quarter of the cost per call
    lam, (s, d) = float(bvp.lam), _regular_variable(bvp)
    dm1, t, pm1 = d - 1, float(s * (p - 2.0)), float(p - 1)

    def rhs(rho, y):
        v, w = y.tolist()
        r = rho ** dm1
        return [w / r, r * (lam * v - rho ** t * (v if v > 0.0 else 0.0) ** pm1)]

    def field(rho, y):
        r = rho ** dm1
        return np.array([y[1] / r, r * (lam * y[0] - rho ** t * np.maximum(y[0], 0.0) ** pm1)])

    # rhs holds its own lam, so it reads no shot cell
    endpoint, dense = _shooters(bvp, rhs, field, {}, 1e-11, 1e-13, p)
    seen = {}  # brentq opens on the sweep's bracket: no amplitude is shot twice

    def gap(amplitude):
        if amplitude not in seen:
            t, y = endpoint(lam, amplitude)
            seen[amplitude] = t - bvp.radius if t < bvp.radius else float(y[0])
        return seen[amplitude]

    return gap, lambda amplitude: dense(lam, amplitude)


def _check_subcritical(n: int, p: float) -> None:
    if p <= 2:
        raise ValueError(f"nonlinearity exponent must exceed 2, got {p}")
    if n >= 3 and p >= 2.0 * n / (n - 2):
        raise ValueError(
            f"p = {p} is not subcritical in dimension {n} (needs p < {2 * n / (n - 2)})"
        )


def mountain_pass_solve(bvp: RadialBvp, p: Optional[float] = None) -> MountainPassSolution:
    """Nonnegative ground-state profile of the semilinear problem.

    Shooting on the initial amplitude places the first zero exactly at R;
    the projected Newton loop, with no bounds, then drives the discrete
    Euler-Lagrange gradient of the p = 2 functional toward a scaled
    residual of 1e-13 (it stops earlier, at the gradient's rounding
    floor).  The ground state is a saddle point, so its indefinite Hessian
    gets no diagonal floor and no Levenberg shift.  The energy level of a
    nontrivial solution is strictly positive.
    """
    if p is None:
        if not (isinstance(bvp.nonlinearity, tuple) and bvp.nonlinearity[0] == "power"):
            raise ValueError("mountain_pass_solve needs a power nonlinearity")
        p = bvp.nonlinearity[1]
    _check_subcritical(bvp.n, p)
    s_bound = bvp.spectral_bound()
    if bvp.lam <= -s_bound:
        raise ValueError(
            f"lambda = {bvp.lam} is at or below the spectral bound -{s_bound}; "
            "the shifted quadratic form degenerates on the eigen-branch"
        )

    scale = max(1.0, bvp.lam, s_bound) ** (1.0 / (p - 2.0))
    gap, dense = _ground_shots(bvp, p)
    a_lo = 1e-3 * scale
    for _ in range(40):
        if gap(a_lo) > 0.0:
            break
        a_lo *= 0.25
    else:
        raise RuntimeError("no solution found in bracket: lower amplitude")
    a_hi = max(a_lo * 4.0, scale)
    for _ in range(60):
        if gap(a_hi) < 0.0:
            break
        a_hi *= 2.0
    else:
        raise RuntimeError("no solution found in bracket: amplitude sweep exhausted")

    amp = optimize.brentq(gap, a_lo, a_hi, xtol=1e-13 * scale, rtol=1e-14)
    sol = dense(amp)

    rho = bvp.grid()
    vals = _sample_frobenius(rho, sol, bvp, bvp.lam, amp, p)
    vals[rho > sol.t[-1]] = 0.0
    vals[-1] = 0.0
    vals = np.maximum(vals, 0.0)
    shoot_vals = vals.copy()

    f = _RadialFunctional(rho, bvp.n, 2.0, bvp.lam, bvp.mu, _power(p))
    vals = _projected_newton(f, vals, (-math.inf, math.inf), 1e-13)
    # head nodes of the singular branch are representation-dependent, so the
    # shooting-vs-grid agreement is meaningful on the outer region only
    outer = rho >= 0.1 * bvp.radius
    gap = float(np.max(np.abs(vals[outer] - shoot_vals[outer])))
    gap /= max(1.0, float(np.max(np.abs(shoot_vals[outer]))))

    a = f.assemble(vals)
    sup = float(np.max(vals))
    # integrable for the dimensions in scope unless u misbehaves at 0
    singular = bvp.mu != 0.0 and bvp.n >= 5 and abs(vals[0]) > 1e-6 * max(1.0, sup)
    return MountainPassSolution(
        grid=rho, values=vals, amplitude=sup, level=math.inf if singular else a.energy,
        residual=_kkt_residual(vals, a.grad, -math.inf, math.inf, f.residual_scale(vals)),
        shooting_gap=gap,
    )


# --- oscillatory nonlinearity with exact antiderivative ---

class OscillatoryNonlinearity:
    """Nonnegative continuous h with h(0) = 0, vanishing on the plateaus
    [2^(k^2), 2^(k^2+k)] and rising in between so that the antiderivative H
    interpolates the plateau values a_k^p with a C^1 smoothstep, for
    k = 1, ..., 12.  H is exact, which keeps the energies cheap.
    """

    def __init__(self, p: float):
        if p <= 2:
            raise ValueError("growth exponent must exceed 2")
        self.p = float(p)
        self.plateau_lo = np.array([2.0 ** (k * k) for k in range(1, 13)])
        self.plateau_hi = np.array([2.0 ** (k * k + k) for k in range(1, 13)])
        # breakpoints: rise_k = [b_{k-1}, a_k] with b_0 = 1
        self.rise_lo = np.concatenate(([1.0], self.plateau_hi[:-1]))
        self.rise_hi = self.plateau_lo
        self.levels = np.concatenate(([0.0], self.plateau_lo ** self.p))
        # region index: 2j for rise j, 2j+1 for plateau j (0-based)
        self._edges = np.empty(2 * len(self.rise_lo))
        self._edges[0::2] = self.rise_lo
        self._edges[1::2] = self.rise_hi

    def plateau(self, k: int):
        return float(self.plateau_lo[k - 1]), float(self.plateau_hi[k - 1])

    def _rise(self, s):
        """s as an array, its index among the region edges (2j + 1 on rise j,
        2j + 2 on plateau j), the mask of points s > 1 on a rise, and for
        those their rise j, its width and the clipped tau in [0, 1]."""
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self._edges, s, side="right")
        on = (idx % 2 == 1) & (s > self.rise_lo[0])
        j = idx[on] // 2
        width = self.rise_hi[j] - self.rise_lo[j]
        tau = np.minimum(np.maximum((s[on] - self.rise_lo[j]) / width, 0.0), 1.0)
        return s, idx, on, j, width, tau

    def H(self, s):
        s, idx, on, j, _, tau = self._rise(s)
        # H is 0 up to s = 1 and levels[j + 1] = levels[idx // 2] on plateau j
        out = np.where(s > self.rise_lo[0], self.levels[idx // 2], 0.0)
        smooth = tau * tau * (3.0 - 2.0 * tau)
        out[on] = self.levels[j] + (self.levels[j + 1] - self.levels[j]) * smooth
        return out if out.ndim else float(out)

    def h(self, s):
        return self._on_rise(s, lambda dlvl, tau, w: dlvl * 6.0 * tau * (1.0 - tau) / w)

    def dh(self, s):
        return self._on_rise(s, lambda dlvl, tau, w: dlvl * 6.0 * (1.0 - 2.0 * tau) / (w * w))

    def _on_rise(self, s, fn):
        s, _, on, j, width, tau = self._rise(s)
        out = np.zeros_like(s)
        out[on] = fn(self.levels[j + 1] - self.levels[j], tau, width)
        return out if out.ndim else float(out)


def multiplicity_explore(
    bvp: RadialBvp,
    h: Optional[OscillatoryNonlinearity] = None,
    lam: Optional[float] = None,
    k_max: int = 3,
    p: Optional[float] = None,
):
    """Look for distinct critical profiles of the p-energy with an
    oscillatory nonlinearity by minimizing over nested height truncations.

    Each truncation caps the profile at the top of one plateau; a minimizer
    whose height settles strictly inside the plateau is a critical point of
    the untruncated energy (the nonlinearity vanishes there, so the cap is
    inactive).  L-BFGS-B minimizes each truncation with the energy and
    gradient of the shared assembly; the projected Newton loop then polishes
    the minimizer inside the box [0, b_k] to a scaled KKT residual of
    1e-10, with the diagonal floor and the Levenberg backstop that the
    degenerate plateau Hessian needs.  h must provide dh for that Hessian.
    Returns the distinct stationary profiles found; fewer than two distinct
    hits is a warning, not an error.  No existence claim is made beyond
    what is found.
    """
    if p is None:
        raise ValueError("multiplicity exploration needs the energy exponent p")
    if p <= bvp.n:
        raise ValueError(f"needs p > n, got p = {p}, n = {bvp.n}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if h is None:
        h = OscillatoryNonlinearity(p)
    if not hasattr(h, "dh"):
        raise ValueError("the Newton polish needs the derivative h.dh of the nonlinearity")
    lam = bvp.lam if lam is None else float(lam)
    # no singular weight here, so a uniform grid keeps the p-energy Hessian
    # well conditioned; graded boundary panels raised to p-1 stall L-BFGS-B
    m = min(bvp.n_nodes, 513)
    rho = np.linspace(0.0, bvp.radius, m)
    f = _RadialFunctional(rho, bvp.n, p, nl=(lam, h.H, h.h, h.dh))

    def objective(u):
        a = f.assemble(u)
        return a.energy, a.grad

    profiles = []
    zero_seen = False
    prev = None
    for k in range(1, k_max + 1):
        a_k, b_k = h.plateau(k)
        bounds = [(0.0, b_k)] * (m - 1) + [(0.0, 0.0)]
        starts = []
        ramp = np.clip(2.5 * (1.0 - rho / bvp.radius), 0.0, 1.0)
        starts.append(0.98 * a_k * ramp)
        if prev is not None:
            starts.append(np.minimum(prev * (a_k / max(np.max(prev), 1e-12)), b_k))
        best = None
        for u0 in starts:
            res = optimize.minimize(
                objective, u0, jac=True, method="L-BFGS-B", bounds=bounds,
                options={"maxiter": 4000, "ftol": 1e-14, "gtol": 1e-12, "maxcor": 40},
            )
            if best is None or res.fun < best.fun:
                best = res
        # the plateau critical set is degenerate: polishing to the 1e-13 of
        # the ground states moves the first sup by 1.4e-4 on 33 nodes
        # (2.005012 -> 2.004731), so the sups are fixed only to that level
        u = _projected_newton(f, np.asarray(best.x), (0.0, b_k), 1e-10)
        sup = float(np.max(u))
        level, g = objective(u)
        scale = f.residual_scale(u)
        residual = _kkt_residual(u, g, 0.0, b_k, scale)
        at_hi = u >= b_k * (1.0 - 1e-12)
        bound_active = bool(np.any(at_hi & (g < -1e-10 * scale)))
        if sup < 1e-8:
            zero_seen = True
            prev = None
            continue
        if bound_active:
            prev = u
            continue
        profiles.append(CriticalProfile(
            grid=rho, values=u, sup=sup, level=float(level), residual=residual, truncation=b_k,
        ))
        prev = u

    profiles.sort(key=lambda c: c.sup)
    distinct = []
    for c in profiles:
        if all(abs(c.sup - d.sup) > 1e-6 * max(1.0, d.sup) for d in distinct):
            distinct.append(c)
    if len(distinct) < 2:
        warnings.warn(
            "multiplicity exploration found fewer than two distinct critical profiles"
            + (" (only the zero profile)" if zero_seen and not distinct else ""),
            RuntimeWarning,
        )
    return distinct


def weak_residual(vals, bvp: RadialBvp, p: float) -> float:
    """Largest pairing of the Euler-Lagrange form against 20 random smooth
    test profiles vanishing at R (seed 0), normalized by the solution scale."""
    rho = bvp.grid()
    vals = np.asarray(vals, dtype=float)
    if vals.shape != rho.shape:
        raise ValueError(f"profile has shape {vals.shape}, grid has {rho.shape}")
    n = bvp.n
    won = omega_n(n)
    drho, rbar, shell = _panels(rho, n)
    du = np.diff(vals) / drho
    ubar = 0.5 * (vals[1:] + vals[:-1])
    rng = np.random.default_rng(0)
    sup = float(np.max(np.abs(vals), initial=0.0))
    scale = n * won * max(1.0, sup) ** (p - 1) * max(1.0, bvp.radius ** n)
    worst = 0.0
    for _ in range(20):
        coef = rng.normal(size=6) / (np.arange(1, 7) ** 2)
        c0 = rng.normal()
        phi = c0 * (1.0 - rho / bvp.radius)  # nonzero at the origin
        dphi = np.full_like(rbar, -c0 / bvp.radius)
        for j, c in enumerate(coef, start=1):
            w = j * math.pi / bvp.radius
            phi += c * np.sin(w * rho)
            dphi += c * w * np.cos(w * rbar)
        phibar = 0.5 * (phi[1:] + phi[:-1])
        core = (du * dphi + bvp.lam * ubar * phibar
                - np.maximum(ubar, 0.0) ** (p - 1) * phibar) * shell
        if bvp.mu != 0.0:
            core = core - bvp.mu * ubar * phibar * rbar ** (n - 3)
        pairing = n * won * float(np.sum(core * drho))
        worst = max(worst, abs(pairing) / scale)
    return worst
