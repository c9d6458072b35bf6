#!/usr/bin/env python3
"""Radial solvers: eigenvalues against Bessel zeros, then nonlinear profiles.

The linear problem has a closed form through shifted Bessel zeros, so the
shooting solver can be checked to many digits.  The nonlinear runs show a
mountain-pass profile for a power right-hand side and the multiplicity
explorer climbing the plateau ladder of an oscillatory nonlinearity.
"""

import numpy as np

from finsler_sharp.constants import bessel_first_zero, bpv_constant, omega_n
from finsler_sharp.pde import (
    OscillatoryNonlinearity,
    RadialBvp,
    eigen_quotient,
    first_eigenvalue,
    mountain_pass_solve,
    multiplicity_explore,
    weak_residual,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("first eigenvalue vs closed form lambda_1 R^2 = j(mu_bar)^2")
print(f"{'n':>3} {'R':>5} {'mu':>5} {'lambda_1':>14} {'closed form':>14} {'dev':>10}")
for n, radius, mu in [(2, 1.0, 0.0), (3, 1.0, 0.0), (3, 1.0, 0.2), (4, 2.0, 0.9)]:
    bvp = RadialBvp(n=n, radius=radius, mu=mu)
    lam1, _ = first_eigenvalue(bvp)
    mu_bar, _ = bpv_constant(mu, n, 1.0, omega_n(n))
    closed = bessel_first_zero(mu_bar) ** 2 / radius**2
    print(f"{n:3d} {radius:5.2f} {mu:5.2f} {lam1:14.9f} {closed:14.9f} {abs(lam1 - closed):10.2e}")

banner("the eigenprofile attains its own Rayleigh quotient")
bvp = RadialBvp(n=3, radius=1.0, mu=0.2)
lam1, quotient, parts = eigen_quotient(bvp)
print(f"lambda_1          = {lam1:.10f}")
print(f"rayleigh quotient = {quotient:.10f}")
print(f"dirichlet = {parts['dirichlet']:.6f}   l2 = {parts['l2']:.6f}   hardy = {parts['hardy']:.6f}")

banner("mountain-pass profile for a power nonlinearity")
bvp = RadialBvp(n=3, radius=1.0, mu=0.2, lam=-5.0, nonlinearity=("power", 4.0))
sol = mountain_pass_solve(bvp, p=4.0)
print(f"amplitude      = {sol.amplitude:.8f}")
print(f"energy level   = {sol.level:.8f}")
print(f"ode residual   = {sol.residual:.3e}")
print(f"weak residual  = {weak_residual(sol.values, bvp, 4.0):.3e}")
print(f"min value      = {float(np.min(sol.values)):.3e}  (nonnegative profile)")

banner("multiplicity explorer on the oscillatory nonlinearity")
nl = OscillatoryNonlinearity(4.0)
print("plateau windows:", [nl.plateau(k) for k in (1, 2, 3)])
bvp = RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", nl))
profs = multiplicity_explore(bvp, h=nl, lam=50.0, k_max=3, p=4.0)
for i, c in enumerate(profs, start=1):
    print(f"profile {i}: sup = {c.sup:12.6f}   level = {c.level:12.4f}"
          f"   residual = {c.residual:.2e}   truncation = {c.truncation:g}")
print(f"{len(profs)} distinct critical profiles, sups strictly increasing:",
      all(b.sup > a.sup for a, b in zip(profs, profs[1:])))
