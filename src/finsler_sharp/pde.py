"""Radial variational solvers on Wulff balls of normalized Minkowski norms.

For radial profiles on the ball the anisotropic Dirichlet integrals reduce
to one-dimensional weighted quadratures, so the eigenvalue problem with an
inverse-square potential, the semilinear ground-state problem, and the
critical-profile exploration for oscillatory nonlinearities all become
singular ODE problems in the radial variable.  Shooting runs in v = rho^-s u
(s the Frobenius exponent) and W = rho^(d-1) v', where the potential cancels
and v solves the problem without it in dimension d = n + 2s.  Every shot
runs the compiled DOP853 of scipy's ode, one per thread and tolerance for
all solves, with right-hand sides in Python floats, each recording its
accepted steps and stopping at the first that ends with v < 0.  The
eigenvalue takes one lam = 1 shot per regular dimension d per process: the
shot of the scale-free problem depends on d alone, and its first zero z
gives lam1 = (z / R)^2 at every R.  The amplitude's bracket and brentq read
v(R), or v extrapolated to R along the step that crossed zero before R, and
the profile comes from the steps of brentq's own shot at the root.  DOP853's
continuous output is rebuilt from the steps in one numpy pass (_dense_shot)
for the profile and the eigen quotient to read.  On the grid, one assembly
(_RadialFunctional) gives the energy, the exact gradient and the
tridiagonal Hessian of (1/p) int |u'|^p w + 1/2 int c u^2 - int F(u) w for
the ground states and the plateau profiles, the energy and gradient from
one pass, and one projected banded Newton loop (_projected_newton) polishes
the ground states (no bounds, to 1e-13 or the gradient's rounding floor)
and the plateau profiles (a finite box, to 1e-10), halving each step until
it rounds away.
"""

import bisect
import math
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy  # integrate, linalg and optimize load on first use, not with the library

from . import _util
from ._util import finite_positive, gauss_legendre, graded_grid
from .constants import ball_volume, bpv_constant, omega_n


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
        finite_positive(self.radius, "domain radius")
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
        _, s = bpv_constant(self.mu, self.n, 1.0, ball_volume(self.n, self.radius))
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
    """(coef, (F, F'), F', F'') for F(s) = s_+^q / q."""
    def df(s):
        return np.maximum(s, 0.0) ** (q - 1)

    return 1.0, lambda s: (np.maximum(s, 0.0) ** q / q, df(s)), df, lambda s: (q - 1) * np.maximum(s, 0.0) ** (q - 2)


class _Assembly(NamedTuple):
    energy: float
    grad: np.ndarray


class _RadialFunctional:
    """Discrete radial functional on the panels of rho,

        J(u) = (1/p) int |u'|^p w + 1/2 int c u^2 - coef int F(u) w,

    with w = n omega_n rho^(n-1) and c = lam w - mu n omega_n rho^(n-3),
    under the midpoint rule.  nl = (coef, (F, F'), F', F'') gives the
    nonlinearity: the pair serves the energy, which reads F and F' at the
    same panel means, F' alone the gradient, F'' the Hessian.  p = 2 gives
    the ground states (F = u_+^q / q); p > n with c = 0 and coef F' = lam h
    gives the oscillatory family.  gradient(), hessian() (tridiagonal) and
    assemble() (the energy and the gradient, from one pass over the panels)
    keep the products and node sums of the two per-family assemblies this
    replaced, so the gradients and the oscillatory energy are bit-identical
    to theirs.
    """

    def __init__(self, rho, n: int, p: float, lam: float, mu: float, nl):
        self.rho, self.n, self.p, self.lam, self.mu, self.nl = rho, n, p, lam, mu, nl
        self.nw = n * omega_n(n)
        self.drho, rbar, self.shell = _panels(rho, n)
        self.hardy_w = rbar ** (n - 3)
        self.c = lam * self.shell - mu * self.hardy_w

    def residual_scale(self, u) -> float:
        return self.nw * max(1.0, np.max(u) ** (self.p - 1)) * max(1.0, self.rho[-1] ** (self.n - 1))

    def _terms(self, u):
        """Panel means and panel slopes of u."""
        return 0.5 * (u[1:] + u[:-1]), (u[1:] - u[:-1]) / self.drho

    def gradient(self, u) -> np.ndarray:
        ubar, slope = self._terms(u)
        return self._gradient(u, ubar, slope, np.abs(slope), self.nl[2](ubar))

    def _gradient(self, u, ubar, slope, mag, fbar) -> np.ndarray:
        """The gradient from the panel means, slopes, |slopes| and F' at the means."""
        p, drho, shell = self.p, self.drho, self.shell
        mass = []
        if self.lam != 0.0:
            mass.append(self.lam * ubar * shell * drho)
        if self.mu != 0.0:
            mass.append(-self.mu * ubar * self.hardy_w * drho)
        mass.append(-self.nl[0] * fbar * shell * drho)
        flux = mag ** (p - 2) * slope * shell
        half = 0.5 * sum(mass[1:], mass[0])
        # (0 + (half - flux)_i) + (flux + half)_(i-1), the sums of zeros and two +=, signed zeros too
        g = np.empty_like(u)
        np.add(half - flux, 0.0, out=g[:-1])
        g[-1] = 0.0
        g[1:] += flux + half
        return self.nw * g

    def hessian(self, u) -> np.ndarray:
        """Hessian rows (upper, main, lower) divided by n omega_n."""
        p, drho, shell = self.p, self.drho, self.shell
        coef, _, _, df = self.nl
        ubar, slope = self._terms(u)
        k_diag = (p - 1.0) * np.abs(slope) ** (p - 2) * shell / drho
        curv = []
        if self.lam != 0.0 or self.mu != 0.0:
            curv.append(0.25 * (self.c * drho))
        curv.append(-coef * np.asarray(df(ubar), dtype=float) * 0.25 * shell * drho)
        c = sum(curv[1:], curv[0])
        band = np.zeros((3, len(u)))
        band[1, :-1] += k_diag + c
        band[1, 1:] += k_diag + c
        band[0, 1:] = band[2, :-1] = -k_diag + c
        return band

    def assemble(self, u) -> _Assembly:
        p, drho, shell, nw = self.p, self.drho, self.shell, self.nw
        coef, pair, _, _ = self.nl
        ubar, slope = self._terms(u)
        prim, fbar = pair(ubar)
        mag = np.abs(slope)
        dirichlet = float(np.sum(mag ** p * shell * drho))
        l2 = float(np.sum(ubar ** 2 * shell * drho))
        hardy = float(np.sum(ubar ** 2 * self.hardy_w * drho)) if self.mu != 0.0 else 0.0
        nonlinear = float(np.sum(prim * shell * drho))
        energy = nw * (dirichlet / p + 0.5 * (self.lam * l2 - self.mu * hardy) - coef * nonlinear)
        return _Assembly(energy, self._gradient(u, ubar, slope, mag, fbar))


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
            step = scipy.linalg.solve_banded((1, 1), units * ab, rhs)
        except scipy.linalg.LinAlgError:
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


def _frobenius_start(regular, lam: float, amplitude: float, p, rho):
    """(v, W = rho^(d-1) v') at rho of the branch v(0) = a of (rho^(d-1) v')'
    = rho^(d-1) (k v - rho^t v_+^(p-1)), t = s (p - 2), (s, d) = regular: k =
    -lam and no power term (nor s) for the eigen problem (p None), k = lam
    for the ground states.  Two terms, v = a (1 + k rho^2 / 2d) - a^(p-1)
    rho^(2+t) / ((2+t)(d+t)), the first omitted O(rho^(4+2t)); the shots
    start on it at eps = 1e-6 R."""
    s, d = regular
    c2 = (-lam if p is None else lam) / (2.0 * d)
    v, w = amplitude * (1.0 + c2 * rho ** 2), amplitude * (2.0 * c2 * rho ** d)
    if p is not None:
        t, a = s * (p - 2.0), amplitude ** (p - 1)
        v, w = v - a * rho ** (2.0 + t) / ((2.0 + t) * (d + t)), w - a * rho ** (d + t) / (d + t)
    return v, w


_integrators = threading.local()


def _integrator(rtol: float, atol: float):
    """This thread's compiled DOP853 for (rtol, atol), built on its first
    shot: every ode built leaks about 1 KB in f2py, so the shots of all
    solves reuse one, each taking the solve's rhs as its .f and its own
    solout."""
    cache = _integrators.__dict__.setdefault("by_key", {})
    if (rtol, atol) not in cache:
        cache[rtol, atol] = scipy.integrate.ode(None).set_integrator(
            "dop853", rtol=rtol, atol=atol, nsteps=10**6)
    return cache[rtol, atol]


@lru_cache(maxsize=None)
def _dop853_tableau():
    """(A, C, D) of DOP853's 16 stages (Hairer, Norsett & Wanner, Solving
    ODEs I, II.6) by the public tableau of scipy's DOP853, built on the first
    _dense_shot: stage 12 is f at the step's end, and stages 13-15 serve only
    the continuous output, whose coefficients D gives."""
    dop = scipy.integrate.DOP853
    a = np.vstack((np.pad(dop.A, ((0, 1), (0, 4))), dop.A_EXTRA))
    return a, np.concatenate((dop.C, [1.0], dop.C_EXTRA)), dop.D


class _DenseShot(NamedTuple):
    """DOP853's continuous output on the accepted steps (t, y) of a shot: on
    step i, y_i plus the degree-7 polynomial in x = (rho - t_i) / h_i with
    the coefficients coef[:, :, i], evaluated as solve_ivp evaluates it,
    gathering one coefficient row at a time: at 4096 points the gather of
    all seven at once is a 448 KB temporary, which the allocator may hand
    back to the system and fault in again on every call."""

    t: np.ndarray
    y: np.ndarray
    coef: np.ndarray

    def __call__(self, r) -> np.ndarray:
        i = np.clip(np.searchsorted(self.t, r) - 1, 0, self.t.size - 2)
        x, out = (r - self.t[i]) / (self.t[i + 1] - self.t[i]), 0.0
        for j, c in enumerate(self.coef[::-1]):
            out = (out + np.take(c, i, axis=1)) * (x if j % 2 == 0 else 1.0 - x)
        return out + np.take(self.y, i, axis=1)

    def v_of_float(self):
        """v as a function of a Python float, with the bits of self(r)[0]:
        bisect picks the step searchsorted does (at r = t[i], step i - 1)."""
        t, v0, coef = self.t.tolist(), self.y[0].tolist(), self.coef[::-1, 0].T.tolist()

        def v(r):
            i = bisect.bisect_left(t, r, 1, len(t) - 1) - 1
            x, out = (r - t[i]) / (t[i + 1] - t[i]), 0.0
            for j, c in enumerate(coef[i]):
                out = (out + c) * (x if j % 2 == 0 else 1.0 - x)
            return out + v0[i]

        return v

    def frozen(self) -> "_DenseShot":
        for a in self:
            a.setflags(write=False)
        return self

    def scaled(self, k: float, w: float) -> "_DenseShot":
        """The same shot in rho = k t, where W is w times the W of t: x is
        scale-free, so the coefficients scale as the rows they belong to."""
        rows = np.array([[1.0], [w]])
        return _DenseShot(k * self.t, rows * self.y, rows * self.coef)


def _dense_shot(field, t, y) -> _DenseShot:
    """The continuous output of the steps (t, y), y of shape (2, len(t)),
    that a DOP853 shot of field(rho, y) accepted: every stage of every step,
    one stage at a time across the steps, then solve_ivp's coefficients."""
    a, c, d = _dop853_tableau()
    h, t0, y0, dy, f = np.diff(t), t[:-1], y[:, :-1], np.diff(y), field(t, y)
    k = np.empty((16, *y0.shape))
    k[0], k[12] = f[:, :-1], f[:, 1:]
    for s in (*range(1, 12), 13, 14, 15):
        incr = (a[s, :s] @ k[:s].reshape(s, -1)).reshape(y0.shape)
        k[s] = field(t0 + c[s] * h, y0 + h * incr)
    low = [dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0])]
    return _DenseShot(t, y, np.concatenate((low, h * np.tensordot(d, k, 1))))


def _shooters(regular, span, rhs, field, rtol: float, atol: float, p=None):
    """(endpoint, dense) shots of rhs(rho, y), y = (v, W), on span = (eps,
    end) from _frobenius_start at regular = (s, d), (lam, amplitude) and
    eps.  Each pair is shot once, on this thread's compiled DOP853 (see
    _integrator), which records the accepted steps and stops at the first
    that ends with v < 0.  endpoint returns the (t, v, W) of the last two
    steps' ends; dense the _dense_shot of every step, for which field is
    rhs on arrays of shape (2, m).  Each shot hands rhs to the ode as its
    .f and its own solout, so the shooters of several solves may
    interleave."""
    eps, end = span
    solver = _integrator(rtol, atol)
    shots = {}

    def run(lam, amplitude):
        if (lam, amplitude) not in shots:
            steps = []

            def record(t, y):
                steps.append((t, *y.tolist()))
                return -1 if y[0] < 0.0 else 0

            solver.f = rhs
            solver.set_solout(record)
            solver.set_initial_value(list(_frobenius_start(regular, lam, amplitude, p, eps)), eps)
            solver.integrate(end)
            if not solver.successful():
                raise RuntimeError(f"shooting failed with DOP853 status {solver.get_return_code()}")
            shots[lam, amplitude] = steps
        return shots[lam, amplitude]

    def endpoint(lam, amplitude):
        return run(lam, amplitude)[-2:]

    def dense(lam, amplitude):
        steps = np.array(run(lam, amplitude)).T
        return _dense_shot(field, steps[0], steps[1:])

    return endpoint, dense


@lru_cache(maxsize=64)
def _unit_eigen_shot(d: float):
    """(dense shot, z) of the lam = 1 eigen problem in the regular dimension
    d and its first zero z, which depend on d alone: one shot per d per
    process, its arrays read-only, serves every radius (see _eigen_solve)."""
    dm1 = d - 1

    def rhs(t, y):
        v, w = y.tolist()
        r = t ** dm1
        return [w / r, -r * v]

    def field(t, y):
        r = t ** dm1
        return np.array([y[1] / r, -r * y[0]])

    _, dense = _shooters((None, d), (1e-8, d + 1.0), rhs, field, 1e-13, 1e-15)
    shot = dense(1.0, 1.0)  # lam and amplitude
    if not shot.y[0, -1] < 0.0:
        raise RuntimeError(f"the eigen shot reached t = {shot.t[-1]} without a sign change of v")
    return shot.frozen(), _util.brentq(shot.v_of_float(), shot.t[-2], shot.t[-1], 1e-15, _util.BRENTQ_RTOL)


def _eigen_solve(bvp: RadialBvp):
    """(lam1, nodal profile, dense shot in rho) from the one lam = 1 shot per
    regular dimension d per process (_unit_eigen_shot), scaled to R per call.
    In v the equation (t^(d-1) v')' = -lam t^(d-1) v has no length scale, so
    v(rho; lam) = V(sqrt(lam) rho) for the lam = 1 solution V, and lam1 =
    (z / R)^2 for its first zero z = j_(d/2-1).  The Rayleigh sums of the
    Bessel zeros, sum j^-2 = 1 / 2d and sum j^-4 = 1 / (2 d^2 (d + 2)), bound
    z^2 < d (d + 2) < (d + 1)^2, so the shot runs from 1e-8 (where the series
    head's integrals in eigen_quotient omit a relative O(1e-16)) toward d + 1
    and stops at the step that crosses z; z is the root of that step's
    polynomial, and rho = t R / z turns W = t^(d-1) dV/dt into (R / z)^(d-2) W."""
    _, d = _regular_variable(bvp)
    shot, z = _unit_eigen_shot(d)
    k = bvp.radius / z
    kk = finite_positive(k * k, f"(R / z)^2 at R = {bvp.radius!r}")
    lam1 = finite_positive(1.0 / kk, f"lambda1 = (z / R)^2 at R = {bvp.radius!r}")
    with np.errstate(over="ignore"):  # an overflow is inf, refused below
        flux = float(np.float64(k) ** (d - 2.0))
    sol = shot.scaled(k, finite_positive(flux, f"flux scale (R / z)^(d - 2) at R = {bvp.radius!r}"))
    prof = _sample_frobenius(bvp.grid(), sol, bvp, lam1, 1.0)
    prof[-1] = 0.0
    return lam1, prof / np.max(prof), sol


def first_eigenvalue(bvp: RadialBvp):
    """Smallest value of the spectral parameter with a positive radial
    solution vanishing at R, from the one lam = 1 shot per regular dimension
    d per process (see _eigen_solve).  Returns (value, nodal profile)."""
    lam1, prof, _ = _eigen_solve(bvp)
    return lam1, prof


def _sample_frobenius(rho, sol, bvp: RadialBvp, lam: float, amplitude: float, p=None):
    """u = rho^s v on the grid from the shot sol of (v, W), with the series
    below the shooting start.  The singular branch (s < 0, mu > 0) is
    unbounded at 0; the origin node gets the first positive node's value,
    which the graded quadratures cannot distinguish."""
    s, d = _regular_variable(bvp)
    eps = sol.t[0]
    vals = np.empty_like(rho)
    inner = (rho < eps) & (rho > 0.0)
    vals[inner] = rho[inner] ** s * _frobenius_start((s, d), lam, amplitude, p, rho[inner])[0]
    outer = rho >= eps
    capped = np.minimum(rho[outer], sol.t[-1])
    vals[outer] = capped ** s * sol(capped)[0]
    vals[0] = amplitude if s == 0 else vals[1]  # the grid starts at 0
    return vals


def eigen_quotient(bvp: RadialBvp):
    """(lam1, quotient of the eigenprofile, parts with "profile") from
    first_eigenvalue's dense shot of (v, W), one lam = 1 shot per regular
    dimension d per process: u = rho^s v, and the Dirichlet integral takes
    the flux rho^(n-1) u' = s rho^(n+s-2) v + rho^-s W.  The tails take
    8-point Gauss-Legendre on each step of the shot, cut at R, where the
    interpolant is one polynomial: in rho for s = 0, and in log rho, where
    the rho^(d-3) head is smooth, for s != 0."""
    lam1, prof, sol = _eigen_solve(bvp)
    n, eps, mu, (s, d) = bvp.n, sol.t[0], bvp.mu, _regular_variable(bvp)
    integrands = [lambda r, u, flux: flux ** 2 * r ** (1 - n), lambda r, u, flux: u ** 2 * r ** (n - 1)]
    if mu != 0.0:
        integrands.append(lambda r, u, flux: u ** 2 * r ** (n - 3))
    x, wx = gauss_legendre(8)
    edges = np.minimum(sol.t, bvp.radius)  # the last step ends past the zero at R
    steps = np.log(edges) if s != 0.0 else edges
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
    """(gap, dense) in the ground-state amplitude a.  gap(a) is v(R), or, for
    a shot stopped before R at the first step (t0, v0) -> (t1, v1) with
    v1 < 0, v0 + (v1 - v0) / (t1 - t0) (R - t0), v extrapolated to R along
    that step: it changes sign where the first zero reaches R and moves
    with the crossing, so brentq can interpolate it.  _shooters shoots each
    amplitude once, so dense(a) at brentq's root rebuilds brentq's own shot."""
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

    endpoint, dense = _shooters((s, d), (1e-6 * bvp.radius, bvp.radius), rhs, field, 1e-11, 1e-13, p)

    def gap(amplitude):
        (t0, v0, _), (t1, v1, _) = endpoint(lam, amplitude)
        return v0 + (v1 - v0) / (t1 - t0) * (bvp.radius - t0) if t1 < bvp.radius else v1

    return gap, lambda amplitude: dense(lam, amplitude)


def _check_subcritical(n: int, p: float) -> None:
    if p <= 2:
        raise ValueError(f"nonlinearity exponent must exceed 2, got {p}")
    if n >= 3 and p >= 2.0 * n / (n - 2):
        raise ValueError(
            f"p = {p} is not subcritical in dimension {n} (needs p < {2 * n / (n - 2)})"
        )


def mountain_pass_solve(bvp: RadialBvp, p: float) -> MountainPassSolution:
    """Nonnegative ground-state profile of the semilinear problem.

    Shooting on the initial amplitude places the first zero exactly at R:
    a sweep brackets the sign change of _ground_shots' gap, and brentq
    opens on the last amplitude of the sweep with a positive gap.  The
    projected Newton loop, with no bounds, then drives the discrete
    Euler-Lagrange gradient of the p = 2 functional toward a scaled
    residual of 1e-13 (it stops earlier, at the gradient's rounding
    floor).  The ground state is a saddle point, so its indefinite Hessian
    gets no diagonal floor and no Levenberg shift.  The energy level of a
    nontrivial solution is strictly positive.  shooting_gap is the largest
    distance from the shot to the polished profile on rho >= 0.1 R, over
    max(1, the shot's sup there).  bvp must carry the nonlinearity
    ("power", p).
    """
    if bvp.nonlinearity != ("power", p):
        raise ValueError(f"mountain_pass_solve(p={p}) needs the nonlinearity ('power', {p}), "
                         f"got {bvp.nonlinearity!r}")
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
        a_lo, a_hi = a_hi, 2.0 * a_hi
    else:
        raise RuntimeError("no solution found in bracket: amplitude sweep exhausted")

    amp = _util.brentq(gap, a_lo, a_hi, 1e-13 * scale, 1e-14)
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
    k = 1, ..., 12.  H is exact, which keeps the energies cheap, and H, h
    and dh take whole-array operations on one table row per region.
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
        # region index k: 0 below 1, 2j + 1 on rise j, 2j + 2 on plateau j
        self._edges = np.empty(2 * len(self.rise_lo))
        self._edges[0::2] = self.rise_lo
        self._edges[1::2] = self.rise_hi
        # per region: lower end, width, base level, level step (0 off the rises), 6 x step
        k = np.arange(self._edges.size + 1)
        rise, j = k % 2 == 1, np.minimum(k // 2, self.rise_lo.size - 1)
        self._lo = np.where(rise, self.rise_lo[j], 0.0)
        self._width = np.where(rise, self.rise_hi[j] - self.rise_lo[j], 1.0)
        self._base, self._step = self.levels[k // 2], np.where(rise, self.levels[j + 1] - self.levels[j], 0.0)
        self._six = self._step * 6.0

    def plateau(self, k: int):
        return float(self.plateau_lo[k - 1]), float(self.plateau_hi[k - 1])

    def _region(self, s):
        """s as an array, its region index k and tau = (s - lo) / width clipped to [0, 1]."""
        s = np.asarray(s, dtype=float)
        k = np.searchsorted(self._edges, s, side="right")
        return s, k, np.minimum(np.maximum((s - self._lo[k]) / self._width[k], 0.0), 1.0)

    def H_and_h(self, s):
        """(H(s), h(s)) from one pass over the region edges."""
        _, k, tau = self._region(s)
        H = self._base[k] + self._step[k] * (tau * tau * (3.0 - 2.0 * tau))
        h = self._six[k] * tau * (1.0 - tau) / self._width[k]
        return (H if H.ndim else float(H)), (h if h.ndim else float(h))

    def H(self, s):
        return self.H_and_h(s)[0]

    def h(self, s):
        return self.H_and_h(s)[1]

    def dh(self, s):
        # no slope at s = 1, where rise 0 starts; + 0.0 makes a plateau's 0 x (1 - 2 tau) = -0.0 0.0
        s, k, tau = self._region(s)
        w = self._width[k]
        out = np.where(s > self.rise_lo[0], self._six[k] * (1.0 - 2.0 * tau) / (w * w) + 0.0, 0.0)
        return out if out.ndim else float(out)


def multiplicity_explore(bvp: RadialBvp, h: OscillatoryNonlinearity, lam: float, k_max: int, p: float):
    """Look for distinct critical profiles of the p-energy with an
    oscillatory nonlinearity by minimizing over nested height truncations.

    Each truncation caps the profile at the top of one plateau; a minimizer
    whose height settles strictly inside the plateau is a critical point of
    the untruncated energy (the nonlinearity vanishes there, so the cap is
    inactive).  L-BFGS-B minimizes each truncation with the energy and
    gradient of one assembly per evaluation; the projected Newton loop then polishes
    the minimizer inside the box [0, b_k] to a scaled KKT residual of
    1e-10, with the diagonal floor and the Levenberg backstop that the
    degenerate plateau Hessian needs.  h must provide H_and_h for the
    energy, h for the gradient and dh for that Hessian; bvp must carry the
    nonlinearity ("general", h) and the coupling lam.  Returns the distinct
    stationary profiles found; fewer than two distinct hits is a warning,
    not an error.  No existence claim is made beyond what is found.
    """
    if p <= bvp.n:
        raise ValueError(f"needs p > n, got p = {p}, n = {bvp.n}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if bvp.nonlinearity != ("general", h) or lam != bvp.lam:
        raise ValueError(f"h and lam must be the bvp's: {bvp.nonlinearity!r} and {bvp.lam}, "
                         f"got {h!r} and {lam}")
    if p != getattr(h, "p", p):
        raise ValueError(f"p must be h's own exponent {h.p}, got {p}")
    if not hasattr(h, "dh"):
        raise ValueError("the Newton polish needs the derivative h.dh of the nonlinearity")
    lam = float(lam)
    # no singular weight here, so a uniform grid keeps the p-energy Hessian
    # well conditioned; graded boundary panels raised to p-1 stall L-BFGS-B
    m = min(bvp.n_nodes, 513)
    rho = np.linspace(0.0, bvp.radius, m)
    f = _RadialFunctional(rho, bvp.n, p, 0.0, 0.0, (lam, h.H_and_h, h.h, h.dh))

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
            res = scipy.optimize.minimize(
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
