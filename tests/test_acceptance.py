"""Acceptance gate: every shipped claim, one printed pass/fail line each.

Each claim is one criterion function in finsler_sharp.cli.  These tests
read one session-scoped `repro --seed 0` run, assert each verdict and
print one line from its payload to the real terminal, so the gate reads
as a checklist even under -q; criterion 12 makes a second run and compares
bytes.  Only what is independent of the library stays here: a Bessel-zero
oracle, the wall-clock bounds of criteria 1 and 5, and planted defects.
"""

import contextlib
import csv
import io
import json
import re
import shutil
import time
import warnings
from types import SimpleNamespace

import pytest
from scipy.special import gamma as sp_gamma

from finsler_sharp import cli, verify as V


def _repro(out_dir):
    """One repro run: exit code, stdout, wall time and the written bytes."""
    buf = io.StringIO()
    t0 = time.time()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["repro", "--seed", "0", "--out-dir", str(out_dir)])
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return rc, buf.getvalue(), time.time() - t0, files


@pytest.fixture(scope="session")
def run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("acceptance") / "repro"
    rc, stdout, wall, files = _repro(out_dir)
    reports = [json.loads(b) for name, b in files.items() if name.startswith("criterion_")]
    seconds = {int(i): float(s)
               for i, s in re.findall(r"criterion\s+(\d+): \w+ \(([\d.]+)s\)", stdout)}
    return SimpleNamespace(out_dir=out_dir, rc=rc, wall=wall, files=files, seconds=seconds,
                           passed={r["criterion"]: r["passed"] for r in reports},
                           detail={r["criterion"]: r["detail"] for r in reports})


@pytest.fixture
def line(capfd):
    """Prints one checklist line on the real terminal, then asserts."""

    def _line(index: int, passed: bool, detail: str = "") -> None:
        tag = "PASS" if passed else "FAIL"
        msg = f"criterion {index:2d}: {tag}" + (f"  [{detail}]" if detail else "")
        with capfd.disabled():
            print(msg, flush=True)
        assert passed, msg

    return _line


def test_criterion_01_support_equality(run, line):
    worst = max(abs(r["ratio"] - 1.0) for r in run.detail[1]["cases"])
    line(1, run.passed[1] and run.seconds[1] < 1.0,
         f"max |ratio-1| {worst:.2e}, {run.seconds[1]:.1f}s")


def test_criterion_02_support_sharpness_limit(run, line):
    sweeps = run.detail[2]["sweeps"]
    line(2, run.passed[2],
         f"energy dev {max(r['energy_dev'] for r in sweeps):.2e}, "
         f"constant dev {max(r['sharp_constant_dev'] for r in sweeps):.2e}")


def test_criterion_03_l1_sharpness(run, line):
    cases = run.detail[3]["cases"]
    line(3, run.passed[3],
         f"ratio dev {max(abs(r['ratio'] - 1.0) for r in cases):.2e}, "
         f"limit dev {max(max(r['l1_dev'], r['energy_dev']) for r in cases):.2e}, "
         f"sup dev {max(r['sup_dev'] for r in cases):.2e}")


def _oracle_bessel_zero(nu: float) -> float:
    def jnu(x: float) -> float:
        total, term = 0.0, (x / 2.0) ** nu / sp_gamma(nu + 1.0)
        for k in range(60):
            total += term
            term *= -((x / 2.0) ** 2) / ((k + 1.0) * (k + 1.0 + nu))
        return total

    lo, hi = 1.0, 5.0
    flo = jnu(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = jnu(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_criterion_04_special_functions(run, line):
    d = run.detail[4]
    oracle_dev = max(abs(_oracle_bessel_zero(float(nu)) - ref)
                     for nu, ref in d["reference_zeros"].items())
    line(4, run.passed[4] and oracle_dev <= 1e-9,
         f"zero dev {max(d['zero_deviations'].values()):.2e}, oracle dev {oracle_dev:.2e}")


def test_criterion_05_eigenvalue_closed_form(run, line):
    worst = max(r["dev"] for r in run.detail[5]["cases"])
    line(5, run.passed[5] and run.seconds[5] < 1.0,
         f"12 cases, max |lam R^2 - j^2| {worst:.2e}, {run.seconds[5]:.1f}s")


def test_criterion_06_bpv(run, line):
    worst = max(r["equality_dev"] for r in run.detail[6]["eigen_equality"])
    line(6, run.passed[6], f"2x100 draws, eigenprofile equality dev {worst:.2e}")


def test_criterion_07_hardy(run, line):
    last = [v["ratios"][-1] for v in run.detail[7]["near_extremal"].values()]
    line(7, run.passed[7], f"3x100 draws, ratio monotone toward 1, last {max(last):.3f}")


def test_criterion_08_rearrangement_suites(run, line):
    line(8, run.passed[8],
         f"4x100 draws, singular layer-cake dev {run.detail[8]['singular_layer_cake_dev']:.2e}")


def test_criterion_09_isoperimetric(run, line):
    d = run.detail[9]
    worst = max(abs(r - 1.0) for r in d["equality_ratios"].values())
    line(9, run.passed[9],
         f"equality dev {worst:.2e}, rectangle ratio {d['rectangle_ratio']:.3f}, "
         f"eikonal residual {d['eikonal_residual']:.2e}")


def test_criterion_10_f_eps_avr(run, line):
    cases = run.detail[10]["cases"]
    pts = [f"n={r['n']} eps={r['eps']}: {r['point']:.4f}" for r in cases]
    worst = max(abs(r["point"] - 1.0) / r["stderr"] for r in cases)
    line(10, run.passed[10], "; ".join(pts[:3]) + f"; ...; max |point - 1| {worst:.2f} sigma")


def test_criterion_11_mountain_pass(run, line):
    d = run.detail[11]
    if d["multiplicity_count"] < 3:
        # exploratory claim: fewer profiles is a warning, not a failure
        warnings.warn(f"multiplicity explorer found only {d['multiplicity_count']} profiles")
    worst = max(r["residual"] for r in d["mountain_pass"])
    line(11, run.passed[11],
         f"6 sets, max residual {worst:.2e}, {d['multiplicity_count']} profiles")


def test_criterion_12_repro_byte_identity(run, line):
    # the config, out_dir included, is embedded in every report
    shutil.rmtree(run.out_dir)
    rc, _, wall, files = _repro(run.out_dir)
    with open(run.out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    all_pass = rows[0] == ["criterion", "passed"] and all(r[1] == "True" for r in rows[1:])
    n_reports = sum(name.startswith("criterion_") for name in files)
    ok = (run.rc == 0 and rc == 0 and files == run.files and all_pass
          and n_reports == 11 and run.wall < 600.0 and wall < 600.0)
    line(12, ok, f"11 reports byte-identical, runs {run.wall:.0f}s/{wall:.0f}s")


# planted defects: a support constant off by 1e-6 either way must turn both
# support criteria red, though made too large every report still reads
# lhs <= rhs; an l1 constant off by 1e-6, or by 1e-10, either way must fail
# criterion 3, whose closed-form extremal leaves roundoff only.
# The pair (index, S) of the shifted Poincare bound is planted where the
# criteria read it, so the suites keep the true one: S off by 1e-6 fails the
# eigenprofile equality of criterion 6, and the index off by 1e-6 moves
# criterion 5's Bessel zeros
SUPPORT = (cli._support_equality, cli._support_sharpness_limit)


@pytest.mark.parametrize("constant, factor, criteria", [
    ("morrey_support_constant", 1.0 - 5e-4, SUPPORT),
    ("morrey_support_constant", 1.0 - 1e-6, SUPPORT),
    ("morrey_support_constant", 1.0 + 1e-6, SUPPORT),
    ("morrey_l1_constant", 1.0 - 1e-6, (cli._l1_sharpness,)),
    ("morrey_l1_constant", 1.0 + 1e-6, (cli._l1_sharpness,)),
    ("bpv_constant", (1.0, 1.0 - 1e-6), (cli._bpv,)),
    ("bpv_constant", (1.0, 1.0 + 1e-6), (cli._bpv,)),
    ("bpv_constant", (1.0 - 1e-6, 1.0), (cli._eigenvalue_closed_form,)),
    ("bpv_constant", (1.0 + 1e-6, 1.0), (cli._eigenvalue_closed_form,)),
    ("morrey_l1_constant", 1.0 - 1e-10, (cli._l1_sharpness,)),
    ("morrey_l1_constant", 1.0 + 1e-10, (cli._l1_sharpness,)),
])
def test_planted_constant_defects_fail_their_criteria(monkeypatch, constant, factor, criteria):
    module = cli.C if constant == "bpv_constant" else V
    true_constant = getattr(module, constant)
    if isinstance(factor, tuple):
        planted = lambda *args: tuple(f * v for f, v in zip(factor, true_constant(*args)))
    else:
        planted = lambda *args: factor * true_constant(*args)
    monkeypatch.setattr(module, constant, planted)
    assert not any(criterion(0)[0] for criterion in criteria)


def test_planted_shell_integral_defect_fails_criteria_1_to_3(monkeypatch):
    # every radial integral is one rearrange.shell_integral, so a shell
    # measure 1e-6 too large moves every energy and L1 norm by 1e-6: the
    # 1e-12 equality gates of criteria 1, 2 and 3 each turn red
    from finsler_sharp import rearrange

    real = rearrange.shell_integral

    def planted(*args):
        val, converged = real(*args)
        return (1.0 + 1e-6) * val, converged

    monkeypatch.setattr(rearrange, "shell_integral", planted)
    assert not any(criterion(0)[0] for criterion in (*SUPPORT, cli._l1_sharpness))


def test_planted_density_defect_fails_criterion_10(monkeypatch):
    # a Busemann-Hausdorff density 2% too low keeps every estimate inside
    # the one-sided sandwich and band, which alone passed it; the two-sided
    # gate |point - 1| <= 4 sigma reads it 9.9 to 20.9 sigma off at seed 0,
    # where the true density reads at most 2.4 sigma off over seeds 0-3
    from finsler_sharp import manifold

    real = manifold.bh_density
    monkeypatch.setattr(manifold, "bh_density", lambda m: 0.98 * real(m))
    passed, detail = cli._f_eps_avr(0)
    assert not passed
    assert all(r["inside"] and r["in_band"] and r["bg_ok"] for r in detail["cases"])
    assert not any(r["near_one"] for r in detail["cases"])


def test_planted_dual_defect_fails_criterion_9(monkeypatch):
    # a dual 1e-6 too large lifts every anisotropic perimeter, so each
    # isoperimetric report still passes and the rectangle and the ellipse
    # stay strict; only the equality gates at 1e-7 (and 3e-5 for f_eps)
    # turn criterion 9 red, which the former 1e-3 gate did not
    from finsler_sharp.norms import MinkowskiNorm

    real = MinkowskiNorm.dual
    monkeypatch.setattr(MinkowskiNorm, "dual", lambda self, alpha: (1.0 + 1e-6) * real(self, alpha))
    passed, detail = cli._isoperimetric(0)
    assert not passed
    ratios = detail["equality_ratios"]
    assert all(1e-7 < ratios[k] - 1.0 < 1e-3 for k in ("euclidean", "euclidean_wulff", "l4"))


def test_planted_ascent_defect_fails_criterion_9(monkeypatch):
    # an ascent dual 1e-7 too large moves the f_eps Wulff ratio by 1e-7,
    # inside its 3e-5 gate; the eikonal residual reads it at 1e-7 against
    # its 1e-8 gate, where the true ascent reads 2.0e-10 at seed 0
    from finsler_sharp import norms

    assert cli._isoperimetric(0)[1]["eikonal_residual"] < 1e-9
    real = norms._dual_ascent
    monkeypatch.setattr(norms, "_dual_ascent", lambda h, alpha: (1.0 + 1e-7) * real(h, alpha))
    passed, detail = cli._isoperimetric(0)
    assert not passed
    assert detail["eikonal_residual"] == pytest.approx(1e-7, rel=0.01)
    assert abs(detail["equality_ratios"]["f_eps_1"] - 1.0) <= 3e-5


def test_planted_bessel_zero_defect_fails_criteria_4_to_6(monkeypatch):
    # a first zero 1e-10 too large passed the former 1e-9 spot gate of
    # criterion 4; its 1e-13 gate now reads it, as do the eigenvalue
    # closed forms of criteria 5 and 6
    real = cli.C.bessel_first_zero
    monkeypatch.setattr(cli.C, "bessel_first_zero", lambda nu: (1.0 + 1e-10) * real(nu))
    for criterion in (cli._special_functions, cli._eigenvalue_closed_form, cli._bpv):
        assert not criterion(0)[0], criterion.__name__


def test_planted_hardy_coupling_defect_fails_criterion_11(monkeypatch):
    # the ground states are polished on the grid functional, so a Hardy
    # coupling 10% too weak there moves each mu > 0 profile to the solution
    # of the wrong equation, whose residual stays at or below 1.1e-13 and
    # passed the former gate; the polished profile leaves the shot by
    # 5.9e-2, 3.2e-2 and 9.1e-3 on the three mu > 0 sets, where the true
    # functional reads at most 7.1e-5.  The plateau explorer reads no mu and
    # is stubbed out, so its 513-node minimization is not run
    from finsler_sharp import pde

    monkeypatch.setattr(cli, "multiplicity_explore", lambda *args, **kwargs: [])
    assert cli._mountain_pass(0)[0]
    real = pde._RadialFunctional.__init__
    monkeypatch.setattr(pde._RadialFunctional, "__init__",
                        lambda self, rho, n, p, lam, mu, nl: real(self, rho, n, p, lam, 0.9 * mu, nl))
    passed, detail = cli._mountain_pass(0)
    assert not passed
    rows = detail["mountain_pass"]
    assert all(r["residual"] < 1e-10 and r["level"] > 0 and r["min_value"] >= -1e-10 for r in rows)
    assert [r["shooting_gap"] > 1e-3 for r in rows] == [r["mu"] > 0 for r in rows]


def _stub_explorer(monkeypatch, sup):
    """Stub the plateau explorer with one profile of the given sup under
    the truncation 4, the top of the first plateau [2, 4]."""
    import numpy as np

    from finsler_sharp import pde

    prof = pde.CriticalProfile(grid=np.linspace(0.0, 1.0, 3), values=np.array([sup, 1.0, 0.0]),
                               sup=sup, level=-1.0, residual=1e-11, truncation=4.0)
    monkeypatch.setattr(cli, "multiplicity_explore", lambda *args, **kwargs: [prof])


def test_plateau_sup_outside_its_plateau_fails_criterion_11(monkeypatch):
    # the former gate, strictly increasing sups, held by construction: the
    # explorer sorts and deduplicates its profiles, so one profile passed
    # whatever its sup; a sup below its plateau [a_k, b_k] is no critical
    # point of the untruncated energy and must turn criterion 11 red
    _stub_explorer(monkeypatch, 2.5)
    assert cli._mountain_pass(0)[0]
    for sup in (1.9, 4.5):
        _stub_explorer(monkeypatch, sup)
        passed, detail = cli._mountain_pass(0)
        assert not passed and detail["multiplicity_sups"] == [sup]
    assert all(r["residual"] < 1e-10 for r in detail["mountain_pass"])


def test_planted_scale_law_defect_fails_criterion_5(monkeypatch):
    # the eigen solver assumes the scale law, lam1 = (z / R)^2 for the first
    # zero z of the lam = 1 shot, so its R = 1 and R = 2 values cannot check
    # each other; the shot scaled to sqrt(R), which reads lam1 = z^2 / R,
    # must fail against the Bessel zeros on every case with R != 1
    from dataclasses import replace

    from finsler_sharp import pde

    real = pde._eigen_solve
    monkeypatch.setattr(pde, "_eigen_solve", lambda bvp: real(replace(bvp, radius=bvp.radius ** 0.5)))
    passed, detail = cli._eigenvalue_closed_form(0)
    assert not passed
    assert [r["dev"] > 1e-10 for r in detail["cases"]] == [r["R"] != 1.0 for r in detail["cases"]]


def test_planted_flux_rescaling_defect_fails_criterion_6(monkeypatch):
    # rho = t R / z turns W = t^(d-1) dV/dt into (R / z)^(d-2) W; the power
    # d - 1 leaves lam1 and v as they are, so only the quotient's Dirichlet
    # integral can see it, and the equality of criterion 6 must fail on
    # (3, 1, 0.2) (and on the disk, where d - 2 = 0)
    from finsler_sharp import pde

    real = pde._DenseShot.scaled
    monkeypatch.setattr(pde._DenseShot, "scaled", lambda self, k, w: real(self, k, w * k))
    passed, detail = cli._bpv(0)
    assert not passed
    assert all(r["equality_dev"] > 1e-2 for r in detail["eigen_equality"])
    assert cli._eigenvalue_closed_form(0)[0]
