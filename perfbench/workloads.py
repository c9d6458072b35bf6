"""Seeded workloads: lists of checks, each compared with an independent reference.

A check calls the library through its public API, compares the result
with a reference computed here (closed forms, a series Bessel-zero
oracle, exact ball volumes) at a stated tolerance, and returns an
Outcome.  Inputs are drawn at build time from the workload seed, so a
check's latency is the library call plus its verification.

Tolerances are the ones the acceptance gate states (tests/test_acceptance.py)
where it states one, else the one the unit tests use for the same call.
Monte Carlo estimates are checked against their error bars at 5 sigma and
carry no digits, so min_digits stays deterministic for a fixed seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy import special

from finsler_sharp import cli
from finsler_sharp import constants as C
from finsler_sharp import manifold as M
from finsler_sharp import norms as N
from finsler_sharp import pde as P
from finsler_sharp import rearrange as R
from finsler_sharp import verify as V

# relative deviations below double rounding read as this floor (15.65 digits)
DEV_FLOOR = 2.0**-52
MC_SIGMAS = 5.0

SUITE_INEQUALITIES = (
    "morrey_support", "morrey_l1", "hardy", "bpv",
    "polya_szego", "hlp", "layer_cake", "equimeasurability",
)
# check_tail_s sits ten checks below the top of a pass.  Equimeasurability
# draws are bimodal (about 0.05 s, or 0.11-0.19 s for about 60% of them),
# so the group gets 20 draws per instance: about 24 slow draws a pass put
# the tail well inside the slow mode, not on its edge
DRAWS_PER_SUITE = {"equimeasurability": 20}
DRAWS_DEFAULT = 3
PN_CASES = ((4.0, 2), (5.0, 3), (7.0, 4))

EIGEN_GRID = (
    (2, 1.0, 0.0), (2, 0.5, 0.0), (2, 2.0, 0.0), (2, 1.7, 0.0),
    (3, 1.0, 0.0), (3, 1.0, 0.2), (3, 1.5, 0.1), (3, 0.7, 0.24),
    (4, 1.0, 0.0), (4, 1.0, 0.5), (4, 2.0, 0.9), (4, 1.3, 0.25),
)
MP_SETS = (  # (n, R, mu, lambda, p), acceptance criterion 11
    (3, 1.0, 0.0, 0.0, 3.0), (3, 1.0, 0.2, -5.0, 4.0), (2, 1.0, 0.0, 1.0, 4.0),
    (2, 1.5, 0.0, 2.0, 3.5), (4, 1.0, 0.5, 1.0, 2.5), (3, 1.2, 0.1, 3.0, 3.2),
)
MP_RESCALINGS = (1.0, 0.9)
# plateau sups of the criterion-11 explorer, recorded on 33- and 17-node grids
MULTIPLICITY_NODES = 33
MULTIPLICITY_SUPS = (2.0050115274301277, 16.034688383791803, 512.9567058195798)
PROBE_MULTIPLICITY_NODES = 17
PROBE_MULTIPLICITY_SUPS = (2.007334893781154, 16.02695598703894, 515.6503969603598)

# sampler draws per f_eps instance by dimension: check_tail_s sits ten
# checks below the top of a pass, and six slower checks lie above the
# three-dimensional avr group, so nine draws there put the tail inside it
AVR_DRAWS = {2: 1, 3: 3}
LP_EXPONENTS = (1.5, 3.0, 4.0, 6.0)
F_EPS = (0.5, 1.0, 2.0)
ISO_F_EPS = (0.5, 2.0)
# polygon nodes for the f_eps Wulff perimeters: each node costs one dual
# ascent; 128 keeps the polygon error near 1e-4, inside the 1e-3 gate
ISO_F_EPS_NODES = 128
# fixed covectors for the three-dimensional ascent: the ascent raises
# DualMaximizerError on about 1% of random 3-D covectors (l^1.5, l^6), so
# random 3-D draws stay out until it is fixed; these pass for every p
DUAL_3D_COVECTORS = ((1.0, 0.5, -0.25), (0.3, -1.2, 0.7))


@dataclass(frozen=True)
class Outcome:
    """Verdict of one check; digits is -log10 of its relative deviation
    from the reference, None when the check has no deterministic one."""

    passed: bool
    digits: Optional[float] = None
    note: str = ""


@dataclass(frozen=True)
class Check:
    name: str
    group: str  # layer the reference deviation speaks for, e.g. "pde.eigen"
    run: Callable[[], Outcome]


# ---------------------------------------------------------------------------
# references


def digits_of(dev: float) -> float:
    if not math.isfinite(dev):
        return 0.0
    return -math.log10(max(dev, DEV_FLOOR))


def compare(value, ref, tol, verdict=True, note="") -> Outcome:
    """Relative deviation of value from ref (absolute when ref is 0) against tol."""
    value, ref = float(value), float(ref)
    dev = abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)
    ok = bool(verdict) and math.isfinite(dev) and dev <= tol
    return Outcome(ok, digits_of(dev), note or f"value {value!r} ref {ref!r} dev {dev:.2e} tol {tol:.0e}")


def mc_outcome(value, stderr, ref, verdict=True) -> Outcome:
    z = abs(float(value) - float(ref)) / float(stderr) if stderr > 0 else math.inf
    ok = bool(verdict) and z <= MC_SIGMAS
    return Outcome(ok, None, f"value {value!r} ref {ref!r} z {z:.2f}")


def _bessel_j_series(nu: float, x: float) -> float:
    term = (x / 2.0) ** nu / math.gamma(nu + 1.0)
    total = 0.0
    for k in range(80):
        total += term
        term *= -((x / 2.0) ** 2) / ((k + 1.0) * (k + 1.0 + nu))
    return total


def bessel_zero_ref(nu: float) -> float:
    """First positive zero of J_nu for 0 <= nu <= 1.5, by power series and
    bisection; shares no code with scipy's Bessel routines."""
    if not 0.0 <= nu <= 1.5:
        raise ValueError(f"oracle covers 0 <= nu <= 1.5, got {nu}")
    lo, hi = 1.5, 5.2
    f_lo = _bessel_j_series(nu, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        f_mid = _bessel_j_series(nu, mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def shifted_order(n: int, mu: float) -> float:
    return math.sqrt(max((n - 2.0) ** 2 / 4.0 - mu, 0.0))


def unit_ball_volume_ref(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(1.0 + n / 2.0)


def lp_ball_volume_ref(n: int, p: float) -> float:
    return (2.0 * math.gamma(1.0 + 1.0 / p)) ** n / math.gamma(1.0 + n / p)


def morrey_support_ref(p: float, n: int) -> float:
    """Flat sharp constant n^(-1/p) omega_n^(-1/n) ((p-1)/(p-n))^((p-1)/p)."""
    return n ** (-1.0 / p) * unit_ball_volume_ref(n) ** (-1.0 / n) * ((p - 1.0) / (p - n)) ** ((p - 1.0) / p)


def morrey_l1_ref(p: float, n: int) -> float:
    """Flat sharp L1 constant, with the Beta function from log-gammas."""
    q = p / (p - 1.0)
    a = (1.0 - n) * q / n + 1.0
    beta = math.exp(math.lgamma(a) + math.lgamma(q + 1.0) - math.lgamma(a + q + 1.0))
    return ((n * unit_ball_volume_ref(n) ** (1.0 / n)) ** (-n * q / (n + q))
            * (1.0 / n + 1.0 / q)
            * (1.0 / n - 1.0 / p) ** (((n - 1.0) * q - n) / (n + q))
            * beta ** (n / (n + q)))


def hardy_ref(p: float, n: int) -> float:
    return ((n - p) / p) ** p


# every suite instance is a flat Minkowski space, so avr = 1 in these
FLAT_CONSTANT_REFS = {"morrey_support": morrey_support_ref, "morrey_l1": morrey_l1_ref, "hardy": hardy_ref}


def holder_dual_ref(alpha, p: float) -> float:
    q = p / (p - 1.0)
    return float(np.sum(np.abs(alpha) ** q) ** (1.0 / q))


def _seed_stream(rng):
    return lambda: int(rng.integers(2**31 - 1))


def _l4(n: int):
    return M.minkowski_instance(N.normalize(N.lp_norm(n, 4.0)))


def _opaque_lp(n: int, p: float):
    """l^p norm with the closed-form dual, gradient and volume removed."""
    return N.custom_norm(n, N.lp_norm(n, p).base, label=f"opaque_l{p:g}")


# ---------------------------------------------------------------------------
# suites: randomized single draws, extremal equalities, constants, CLI


def suite_draw(m, inequality: str, seed: int) -> Outcome:
    rep = V.randomized_suite(m, inequality, n_draws=1, seed=seed, workers=1)[0]
    if inequality in ("polya_szego", "hlp"):
        # radial sources attain equality; both sides infinite is a vacuous pass
        if math.isnan(rep.ratio):
            return Outcome(rep.passed, None, "both sides diverge")
        return compare(rep.ratio, 1.0, rep.rtol, rep.passed)
    if inequality in ("layer_cake", "equimeasurability"):
        return compare(rep.lhs, 0.0, rep.atol, rep.passed)
    if inequality == "bpv":
        n = int(rep.params["n"])
        s_ref = bessel_zero_ref(shifted_order(n, rep.params["mu"])) ** 2 * (
            unit_ball_volume_ref(n) / rep.params["vol"]
        ) ** (2.0 / n)
        return compare(rep.sharp_constant, s_ref, 1e-9, rep.passed)
    ref = FLAT_CONSTANT_REFS[inequality](rep.params["p"], int(rep.params["n"]))
    return compare(rep.sharp_constant, ref, 1e-12, rep.passed)


def extremal_equality(m, u, p: float) -> Outcome:
    rep = V.verify_morrey_support(m, u, p)
    return compare(rep.ratio, 1.0, 1e-3, rep.passed)


def constants_check(p: float, n: int, mu: float) -> Outcome:
    sc = C.sharp_constants(p, n, 1.0, mu)
    zero = compare(sc.j_mu_bar, bessel_zero_ref(shifted_order(n, mu)), 1e-9)
    if p > n:
        # 1 - eta + eta/p = eta/n is the identity the sharpness argument uses
        form = compare(1.0 - sc.eta + sc.eta / p, sc.eta / n, 1e-12)
    else:
        form = compare(sc.hardy, ((n - p) / p) ** p, 1e-12)
    worst = min(zero, form, key=lambda o: o.digits)
    return Outcome(zero.passed and form.passed, worst.digits, worst.note)


def cli_verify(argv, ref: float, tol: float, field: str = "ratio") -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", *argv])
    if code != 0:
        return Outcome(False, None, f"exit {code}: {err.getvalue().strip()}")
    doc = json.loads(out.getvalue())
    return compare(doc["report"][field], ref, tol, doc["passed"])


def _extremal(rng, n: int) -> str:
    # the CLI builds only dimension-aware profile families from a descriptor
    return f"morrey_extremal:p={n + rng.uniform(1.0, 3.0):.6f},R={rng.uniform(0.5, 2.0):.6f}"


def _cli_argvs(rng):
    """Twenty single-check CLI invocations: (argv, reference, tolerance, report field)."""
    out = []
    for inst, n in (("euclidean:n=2", 2), ("lp:n=2,p=4", 2), ("euclidean:n=3", 3)):
        for _ in range(2):
            out.append((["--instance", inst, "--inequality", "morrey-support",
                         "--profile", _extremal(rng, n)], 1.0, 1e-3, "ratio"))
    for inst in ("euclidean:n=2", "lp:n=2,p=4"):
        for ineq in ("polya-szego", "hlp"):
            for _ in range(2):
                # radial sources attain equality at the reports' own tolerance
                out.append((["--instance", inst, "--inequality", ineq, "--profile", _extremal(rng, 2),
                             "--p", f"{rng.uniform(1.2, 3.0):.6f}"], 1.0, 1e-6, "ratio"))
    for _ in range(4):
        a, b = round(rng.uniform(0.3, 3.0), 6), round(rng.uniform(0.3, 3.0), 6)
        # Euclidean perimeter 2(a+b) against 2 sqrt(pi) sqrt(ab)
        out.append((["--instance", "euclidean:n=2", "--inequality", "isoperimetric",
                     "--shape", f"rectangle:a={a},b={b}"], (a + b) / math.sqrt(math.pi * a * b), 1e-12, "ratio"))
    # on the Euclidean ball of radius 2 the BPV constant is j^2 / 4
    mu = float(f"{rng.uniform(0.0, 0.2):.6f}")
    out.append((["--instance", "euclidean:n=3", "--inequality", "bpv", "--profile", _extremal(rng, 3),
                 "--radius", "2.0", "--mu", f"{mu}"], bessel_zero_ref(shifted_order(3, mu)) ** 2 / 4.0, 1e-9,
                "sharp_constant"))
    p = float(f"{rng.uniform(1.2, 2.8):.6f}")
    out.append((["--instance", "euclidean:n=3", "--inequality", "hardy", "--profile", _extremal(rng, 3),
                 "--p", f"{p}"], hardy_ref(p, 3), 1e-12, "sharp_constant"))
    return out


def build_suites(seed: int) -> list:
    rng = np.random.default_rng(seed)
    draw_seed = _seed_stream(rng)
    eucl = {n: M.euclidean_instance(n) for n in (2, 3, 4)}
    l4 = {n: _l4(n) for n in (2, 3, 4)}
    combos = [(ineq, "euclidean:n=2", eucl[2]) for ineq in SUITE_INEQUALITIES]
    combos += [(ineq, "l4:n=2", l4[2]) for ineq in SUITE_INEQUALITIES]
    combos += [("hardy", "euclidean:n=3", eucl[3]), ("hardy", "euclidean:n=4", eucl[4])]
    checks = []
    for ineq, label, m in combos:
        for _ in range(DRAWS_PER_SUITE.get(ineq, DRAWS_DEFAULT)):
            k = draw_seed()
            checks.append(Check(f"suite/{ineq}/{label}/seed={k}", f"verify.{ineq}",
                                partial(suite_draw, m, ineq, k)))
    for p, n in PN_CASES:
        for label, m in (("euclidean", eucl[n]), ("l4", l4[n])):
            r = rng.uniform(0.5, 2.0)
            u = R.morrey_extremal_profile(p, n, r)
            checks.append(Check(f"extremal/{label}/p={p:g},n={n},R={r:.4f}", "verify.extremal",
                                partial(extremal_equality, m, u, p)))
    for n in (2, 3, 4):
        p_sup = n + rng.uniform(0.5, 3.0)
        checks.append(Check(f"constants/p={p_sup:.4f},n={n}", "constants",
                            partial(constants_check, p_sup, n, 0.0)))
        if n > 2:
            p_h = 1.0 + (n - 1.0) * rng.uniform(0.1, 0.9)
            mu = rng.uniform(0.0, 0.9) * (n - 2.0) ** 2 / 4.0
            checks.append(Check(f"constants/p={p_h:.4f},n={n},mu={mu:.4f}", "constants",
                                partial(constants_check, p_h, n, mu)))
    for argv, ref, tol, field in _cli_argvs(rng):
        checks.append(Check("cli/verify " + " ".join(argv), "cli", partial(cli_verify, argv, ref, tol, field)))
    return checks


# ---------------------------------------------------------------------------
# solvers: eigenvalues against shifted Bessel zeros, ground states, plateaus


def eigenvalue_check(bvp) -> Outcome:
    lam1, _ = P.first_eigenvalue(bvp)
    target = bessel_zero_ref(shifted_order(bvp.n, bvp.mu)) ** 2
    # criterion 5: |lambda R^2 - j^2| < 1e-4
    return compare(lam1 * bvp.radius**2, target, 1e-4 / target)


def eigen_quotient_check(bvp) -> Outcome:
    _, quotient, _ = P.eigen_quotient(bvp)
    # sharp constant on the ball of radius R: j^2 / R^2 (criterion 6: 1e-4)
    s_ref = bessel_zero_ref(shifted_order(bvp.n, bvp.mu)) ** 2 / bvp.radius**2
    return compare(quotient, s_ref, 1e-4)


def mountain_pass_check(bvp, p: float) -> Outcome:
    sol = P.mountain_pass_solve(bvp, p=p)
    ok = sol.residual < 1e-6 and sol.level > 0 and float(np.min(sol.values)) >= -1e-10
    return Outcome(bool(ok), digits_of(sol.residual),
                   f"residual {sol.residual:.2e} level {sol.level:.4g}")


def multiplicity_check(bvp, nl, sups=MULTIPLICITY_SUPS) -> Outcome:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        profs = P.multiplicity_explore(bvp, h=nl, lam=bvp.lam, k_max=len(sups), p=nl.p)
    found = [c.sup for c in profs]
    ok = len(profs) == len(sups)
    for k, c in enumerate(profs[: len(sups)], start=1):
        a_k, b_k = nl.plateau(k)
        ok &= a_k <= c.sup <= b_k and c.residual < 1e-6
        ok &= abs(c.sup - sups[k - 1]) <= 1e-5 * sups[k - 1]
    worst = max((c.residual for c in profs), default=math.inf)
    return Outcome(bool(ok), digits_of(worst), f"sups {found} worst residual {worst:.2e}")


def multiplicity_case(n_nodes: int = MULTIPLICITY_NODES):
    nl = P.OscillatoryNonlinearity(4.0)
    bvp = P.RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", nl), n_nodes=n_nodes)
    return bvp, nl


def build_solvers(seed: int) -> list:
    rng = np.random.default_rng(seed)
    checks = []
    # The cost of the slow solves jumps with the inputs (one ground state
    # took 0.19-0.38 s for rescalings within 3% of each other), so only the
    # fast mu = 0 eigen cases draw their radius from the seed; the slow
    # cases keep the acceptance values and two fixed rescalings.
    for i, (n, r0, mu) in enumerate(EIGEN_GRID):
        # lambda R^2 and the quotient R^2 are scale invariant, so the radius is free
        bvp = P.RadialBvp(n=n, radius=r0 * (rng.uniform(0.8, 1.25) if mu == 0.0 else 1.0), mu=mu)
        tag = f"n={n},R={bvp.radius:.4f},mu={mu:g}"
        # mu > 0 shoots slowly, so those cases alternate between the two
        # methods; each method still sees every n and both mu regimes
        if mu == 0.0 or i % 2 == 0:
            checks.append(Check(f"eigen/first/{tag}", "pde.eigen", partial(eigenvalue_check, bvp)))
        if mu == 0.0 or i % 2 == 1:
            checks.append(Check(f"eigen/quotient/{tag}", "pde.eigen_quotient", partial(eigen_quotient_check, bvp)))
    for s in MP_RESCALINGS:
        for n, r0, mu, lam0, p in MP_SETS:
            # R -> sR with lambda -> lambda/s^2 rescales the same ground state
            bvp = P.RadialBvp(n=n, radius=r0 * s, mu=mu, lam=lam0 / s**2, nonlinearity=("power", p))
            checks.append(Check(f"mountain_pass/n={n},R={bvp.radius:.4f},mu={mu:g},lam={bvp.lam:.4f},p={p:g}",
                                "pde.mp", partial(mountain_pass_check, bvp, p)))
    bvp, nl = multiplicity_case()
    checks.append(Check(f"multiplicity/n=2,R=1,lam=50,p=4,nodes={MULTIPLICITY_NODES}", "pde.multiplicity",
                        partial(multiplicity_check, bvp, nl)))
    return checks


# ---------------------------------------------------------------------------
# geometry: dual ascent, Wulff volumes, Monte Carlo, isoperimetry


def dual_check(h, alpha, p: float) -> Outcome:
    return compare(N.dual_norm(h, alpha), holder_dual_ref(alpha, p), 1e-8)


def wulff_quad_check(h, p: float) -> Outcome:
    est = N.wulff_volume_estimate(h, method="quadrature")
    return compare(est.value, lp_ball_volume_ref(h.dim, p), 1e-6)


def wulff_mc_check(h, p: float, n_samples: int, seed: int) -> Outcome:
    est = N.wulff_volume_estimate(h, method="mc", n_samples=n_samples, seed=seed, workers=1)
    return mc_outcome(est.value, est.stderr, lp_ball_volume_ref(h.dim, p))


def eikonal_check(h, samples) -> Outcome:
    res = N.eikonal_residual(h, samples)
    return Outcome(res <= 1e-7, digits_of(res), f"residual {res:.2e}")


def legendre_check(m, du) -> Outcome:
    # du(y*) = F*(du)^2 = F(y*)^2 for the Legendre transform y* of du
    y = M.finsler_gradient(m, np.zeros(m.dim), du)
    return compare(float(du @ y), float(m.norm(y)) ** 2, 1e-5)


def avr_check(m, n_samples: int, seed: int) -> Outcome:
    est = M.avr(m, method="mc", n_samples=n_samples, seed=seed, workers=1, sigma_level=MC_SIGMAS)
    band = est.lo - MC_SIGMAS * est.stderr <= est.point <= est.hi + MC_SIGMAS * est.stderr
    # flat instances have ratio exactly 1; the sandwich band is the certificate
    return mc_outcome(est.point, est.stderr, 1.0, band and est.bg_ok)


def ball_mc_check(m, r: float, n_samples: int, seed: int) -> Outcome:
    est = M.ball_volume_mc(m, np.zeros(m.dim), r, n_samples=n_samples, seed=seed, workers=1)
    return mc_outcome(est.value, est.stderr, unit_ball_volume_ref(m.dim) * r**m.dim)


def isoperimetric_check(m, shape: dict, ref: float, tol: float, n_quad: Optional[int] = None) -> Outcome:
    rep = V.verify_isoperimetric(m, shape, n_quad=n_quad)
    return compare(rep.ratio, ref, tol, rep.passed)


def _ellipse_ratio(a: float, b: float) -> float:
    big, small = max(a, b), min(a, b)
    perimeter = 4.0 * big * special.ellipe(1.0 - (small / big) ** 2)
    return perimeter / (2.0 * math.pi * math.sqrt(a * b))


def build_geometry(seed: int) -> list:
    rng = np.random.default_rng(seed)
    draw_seed = _seed_stream(rng)
    opaque = {(n, p): _opaque_lp(n, p) for n in (2, 3) for p in LP_EXPONENTS}
    f_eps = {(n, eps): M.f_eps_instance(n, eps) for n in (2, 3) for eps in F_EPS}
    f_eps_normalized = {eps: M.f_eps_instance(2, eps, normalize=True) for eps in ISO_F_EPS}
    e2, l4 = M.euclidean_instance(2), _l4(2)
    for m in f_eps.values():
        M.bh_density(m)  # fills the per-instance fiber-volume cache
    checks = []
    for p in LP_EXPONENTS:
        # few planar draws: their ascent cost varies with the covector, and
        # with more of them check_p50_s would sit on the edge of their group
        for _ in range(2):
            alpha = rng.standard_normal(2)
            checks.append(Check(f"dual/l{p:g},n=2", "norms.dual", partial(dual_check, opaque[(2, p)], alpha, p)))
        for alpha in DUAL_3D_COVECTORS:
            checks.append(Check(f"dual/l{p:g},n=3,alpha={alpha}", "norms.dual",
                                partial(dual_check, opaque[(3, p)], np.array(alpha), p)))
    for (n, p), h in opaque.items():
        checks.append(Check(f"wulff_quad/l{p:g},n={n}", "norms.wulff", partial(wulff_quad_check, h, p)))
        checks.append(Check(f"wulff_mc/l{p:g},n={n}", "norms.wulff_mc",
                            partial(wulff_mc_check, h, p, 200_000, draw_seed())))
    for n in (2, 3):
        for eps in (0.5, 2.0):
            h = f_eps[(n, eps)].norm
            checks.append(Check(f"eikonal/f_eps,n={n},eps={eps:g}", "norms.eikonal",
                                partial(eikonal_check, h, rng.standard_normal((4, n)))))
            checks.append(Check(f"legendre/f_eps,n={n},eps={eps:g}", "manifold.gradient",
                                partial(legendre_check, f_eps[(n, eps)], rng.standard_normal(n))))
    for (n, eps), m in f_eps.items():
        for _ in range(AVR_DRAWS[n]):
            k = draw_seed()
            checks.append(Check(f"avr_mc/f_eps,n={n},eps={eps:g},seed={k}", "manifold.avr",
                                partial(avr_check, m, 150_000, k)))
    r = rng.uniform(0.5, 2.0)
    checks.append(Check(f"ball_mc/f_eps,n=3,eps=1,r={r:.4f}", "manifold.ball",
                        partial(ball_mc_check, f_eps[(3, 1.0)], r, 1_000_000, draw_seed())))
    shapes = [
        ("euclidean", e2, {"kind": "ball", "radius": rng.uniform(0.5, 2.0)}, 1.0, 1e-3, None),
        ("l4", l4, {"kind": "wulff", "radius": rng.uniform(0.5, 2.0)}, 1.0, 1e-3, None),
    ]
    shapes += [(f"f_eps({eps:g})", f_eps_normalized[eps], {"kind": "wulff", "radius": rng.uniform(0.5, 2.0)},
                1.0, 1e-3, ISO_F_EPS_NODES) for eps in ISO_F_EPS]
    a, b = rng.uniform(0.5, 2.0, size=2)
    shapes.append(("euclidean", e2, {"kind": "rectangle", "a": a, "b": b},
                   (a + b) / math.sqrt(math.pi * a * b), 1e-12, None))
    a, b = rng.uniform(0.5, 2.0, size=2)
    shapes.append(("euclidean", e2, {"kind": "ellipse", "a": a, "b": b}, _ellipse_ratio(a, b), 1e-6, None))
    for label, m, shape, ref, tol, n_quad in shapes:
        checks.append(Check(f"isoperimetric/{label}/{shape['kind']}", "verify.isoperimetric",
                            partial(isoperimetric_check, m, shape, ref, tol, n_quad)))
    return checks


PLAN_BUILDS = {"suites": build_suites, "solvers": build_solvers, "geometry": build_geometry}


def build(workload: str, seed: int) -> list:
    """The workload's checks for this seed."""
    if workload not in PLAN_BUILDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(PLAN_BUILDS)}")
    return PLAN_BUILDS[workload](seed)


def build_probes(seed: int, groups=None) -> list:
    """One small call into every traced layer, one per check group.

    The set-up runs the probes of the groups a workload uses as its
    untimed warm-up; the traced run runs all of them to measure the layers
    the workload bypasses.  With groups given, only those probes are built.
    """
    rng = np.random.default_rng(seed)
    e2 = M.euclidean_instance(2)
    draw_seed = _seed_stream(rng)
    suite_seeds = {ineq: draw_seed() for ineq in SUITE_INEQUALITIES}
    wulff_seed, avr_seed, ball_seed = draw_seed(), draw_seed(), draw_seed()
    alpha = rng.standard_normal(2)
    du = rng.standard_normal(2)

    def fe():
        m = M.f_eps_instance(2, 1.0)
        M.bh_density(m)
        return m

    def multiplicity_probe():
        bvp, nl = multiplicity_case(PROBE_MULTIPLICITY_NODES)
        return partial(multiplicity_check, bvp, nl, PROBE_MULTIPLICITY_SUPS)

    # group -> factory of the probe's call, so unused probes build nothing
    factories = {f"verify.{ineq}": partial(partial, suite_draw, e2, ineq, suite_seeds[ineq])
                 for ineq in SUITE_INEQUALITIES}
    factories.update({
        "verify.extremal": lambda: partial(extremal_equality, _l4(2), R.morrey_extremal_profile(4.0, 2), 4.0),
        "constants": lambda: partial(constants_check, 4.0, 2, 0.0),
        "cli": lambda: partial(cli_verify, ["--instance", "euclidean:n=2", "--inequality", "morrey-support",
                                            "--profile", "morrey_extremal:p=4"], 1.0, 1e-3),
        "pde.eigen": lambda: partial(eigenvalue_check, P.RadialBvp(n=3, radius=1.0, mu=0.2)),
        "pde.eigen_quotient": lambda: partial(eigen_quotient_check, P.RadialBvp(n=2, radius=1.0)),
        "pde.mp": lambda: partial(mountain_pass_check,
                                  P.RadialBvp(n=2, radius=1.0, lam=1.0, nonlinearity=("power", 4.0)), 4.0),
        "pde.multiplicity": multiplicity_probe,
        "norms.dual": lambda: partial(dual_check, _opaque_lp(2, 3.0), alpha, 3.0),
        "norms.wulff": lambda: partial(wulff_quad_check, _opaque_lp(2, 3.0), 3.0),
        "norms.wulff_mc": lambda: partial(wulff_mc_check, _opaque_lp(2, 3.0), 3.0, 20_000, wulff_seed),
        "norms.eikonal": lambda: partial(eikonal_check, M.f_eps_instance(2, 0.5).norm, np.ones((2, 2))),
        "manifold.gradient": lambda: partial(legendre_check, fe(), du),
        "manifold.avr": lambda: partial(avr_check, fe(), 20_000, avr_seed),
        "manifold.ball": lambda: partial(ball_mc_check, fe(), 1.0, 20_000, ball_seed),
        "verify.isoperimetric": lambda: partial(isoperimetric_check, e2, {"kind": "ball", "radius": 1.0}, 1.0, 1e-3),
    })
    wanted = factories if groups is None else [g for g in factories if g in groups]
    return [Check(f"probe/{g}", g, factories[g]()) for g in wanted]
