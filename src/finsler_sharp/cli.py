"""Command line front end for the verification library.

Subcommands: constants, verify, sweep, pde, avr, repro.  Parameters come
from flags or a JSON config document (--config); flags override the
document, the merged config is type-checked, and every emitted
report embeds the fully materialized config so a run can be reproduced
from its own output.

--instance, --profile and --shape take a descriptor, 'kind:key=value,...'
or the same keys as a JSON object.  One parser (_util.build_from_descriptor)
reads them against the tables manifold.INSTANCES, rearrange.PROFILES and
verify.SHAPES; an extremal profile takes its n from the instance.  A
malformed descriptor (unknown kind or key, missing key, non-integral
integer, NaN), a shape or profile length that is not finite and positive,
a NaN config value and a flag the run would not read are usage errors.

Reports are JSON with sorted keys and a null timestamp by default, so a
fixed seed gives byte-identical bytes; --timestamp opts into a real
clock value.  Exit codes: 0 all checks passed, 2 bad usage or config
(every ValueError the library raises is a domain error of the input),
3 a numerical check failed.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import os
import sys
import time
from typing import Optional

import numpy as np

from . import constants as C
from . import verify as V
from ._util import _coerce, parse_descriptor
from .manifold import avr as estimate_avr, instance_from_descriptor
from .pde import (
    EXPLORER_MAX_NODES,
    OscillatoryNonlinearity,
    RadialBvp,
    eigen_quotient,
    first_eigenvalue,
    mountain_pass_solve,
    multiplicity_explore,
    weak_residual,
)
from .rearrange import l1_extremal_profile, morrey_extremal_profile, profile_from_descriptor
from .report import _plain

SCHEMA_VERSION = 1
EXIT_OK, EXIT_USAGE, EXIT_NUMERIC = 0, 2, 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config assembly


_MAX_SWEEP_RADII = 10_000


def parse_sweep_grid(spec) -> list:
    """'R=1:64:geometric[:factor]' or 'R=1:8:linear[:count]': at most
    _MAX_SWEEP_RADII radii, positive and strictly increasing."""
    if not isinstance(spec, str):
        raise ConfigError("sweep must be a string like R=1:64:geometric")
    name, eq, body = spec.partition("=")
    if not eq or name.strip() != "R":
        raise ConfigError(f"only R sweeps are supported, got {spec!r}")
    parts = body.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"sweep needs start:stop:mode[:k], got {body!r}")
    a, b, mode = float(parts[0]), float(parts[1]), parts[2]
    top = b * (1.0 + 1e-12)  # the last geometric radius may overshoot b by this
    if not (math.isfinite(a) and math.isfinite(top)):
        raise ConfigError(f"sweep bounds must be finite, got {body!r}")
    if mode == "geometric":
        factor = float(parts[3]) if len(parts) == 4 else 2.0
        if not (a > 0 and b >= a and factor > 1):
            raise ConfigError("geometric sweep needs 0 < start <= stop, factor > 1")
        k = math.floor((math.log(b) - math.log(a) + 1e-12) / math.log(factor)) + 1
        if k > _MAX_SWEEP_RADII:
            raise ConfigError(f"geometric sweep of {k} radii exceeds {_MAX_SWEEP_RADII}")
        grid, r = [], a
        while r <= top and len(grid) <= k:  # k may round one short
            grid.append(r)
            r *= factor
    elif mode == "linear":
        k = int(parts[3]) if len(parts) == 4 else 8
        if not (0 < a <= b and 1 <= k <= _MAX_SWEEP_RADII):
            raise ConfigError(f"linear sweep needs 0 < start <= stop, 1 <= count <= {_MAX_SWEEP_RADII}")
        grid = [float(x) for x in np.linspace(a, b, k)]
    else:
        raise ConfigError(f"unknown sweep mode {mode!r}")
    # a geometric step can round back to r, and stop = start repeats a radius
    if any(r1 <= r0 for r0, r1 in zip(grid, grid[1:])):
        raise ConfigError(f"sweep radii must increase strictly, got {body!r}")
    return grid


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as ex:
            raise ConfigError(f"cannot read config {args.config}: {ex}") from ex
        if not isinstance(cfg, dict):
            raise ConfigError("config document must be a JSON object")
        if not cfg:
            raise ConfigError("config document is empty")
        unknown = set(cfg) - {"task", *OPTIONS}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "task" in cfg and cfg["task"] != args.task:
            raise ConfigError(
                f"config task {cfg['task']!r} does not match subcommand {args.task!r}"
            )
        foreign = set(cfg) - {"task", *TASKS[args.task][2]}
        if foreign:
            raise ConfigError(f"{args.task} does not take config keys {sorted(foreign)}")
    for key, val in vars(args).items():
        if key == "config" or val is None:
            continue
        cfg[key] = val
    cfg.setdefault("seed", 0)
    cfg.setdefault("timestamp", False)
    for key, val in cfg.items():
        if key != "task":
            _check_value(key, val)
    return cfg


def _check_value(key: str, value) -> None:
    """Raise ValueError unless value has the type OPTIONS declares for key.

    Numbers and lists of reals go through _coerce: a number is never a bool,
    and an integer may be an integral float.  A descriptor or the radii may
    be a string, and null leaves a key unset, except seed and timestamp."""
    typ, where = OPTIONS[key][0], f"config value {key!r}"
    if isinstance(value, float) and math.isnan(value):
        raise ValueError(f"{where} is NaN")
    if (typ in (int, float) and value is not None) or (typ is list and isinstance(value, list)):
        _coerce(value, typ, where)
    elif not (isinstance(value, (typ, str) if typ in (dict, list) else typ)
              or (value is None and key not in ("seed", "timestamp"))):
        raise ValueError(f"{where} needs {typ.__name__}, got {value!r}")


def _value(cfg: dict, key: str, default):
    """cfg[key], or default when it is absent or null; a given 0 stays 0."""
    return default if cfg.get(key) is None else cfg[key]


def _refuse_unread(cfg: dict, what: str, unread) -> None:
    """ConfigError naming each key of unread that cfg gives: what (a check or a problem) ignores it."""
    given = ["--" + k.replace("_", "-") for k in unread if cfg.get(k) is not None]
    if given:
        raise ConfigError(f"{what} does not read {', '.join(given)}")


# ---------------------------------------------------------------------------
# emission


def _timestamp(cfg) -> Optional[str]:
    if cfg.get("timestamp"):
        return datetime.datetime.now(datetime.timezone.utc).isoformat()
    return None


def _document(cfg: dict, payload: dict) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "task": cfg["task"],
        "seed": cfg.get("seed", 0),
        "timestamp": _timestamp(cfg),
        "config": _plain(cfg),
    }
    doc.update(_plain(payload))
    return doc


def _resolve_out(cfg: dict, default_name: str):
    out = cfg.get("out")
    out_dir = cfg.get("out_dir")
    if out is None and out_dir is None:
        return None
    if out is None:
        return os.path.join(out_dir, default_name)
    if out_dir is not None and not os.path.isabs(out):
        return os.path.join(out_dir, out)
    return out


def _say(cfg: dict, msg: str) -> None:
    """Status lines go to stderr when the JSON document owns stdout."""
    to_file = cfg.get("out") is not None or cfg.get("out_dir") is not None
    print(msg, file=sys.stdout if to_file else sys.stderr)


def _emit(doc: dict, cfg: dict, default_name: str, path=None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path is None:
        path = _resolve_out(cfg, default_name)
    if path is None:
        sys.stdout.write(text)
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _write_csv(path: str, header, rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# tasks


def _task_constants(cfg: dict) -> int:
    if cfg.get("p") is None or cfg.get("n") is None:
        raise ConfigError("constants needs --p and --n")
    sc = C.sharp_constants(
        float(cfg["p"]), int(cfg["n"]), float(_value(cfg, "avr", 1.0)), float(_value(cfg, "mu", 0.0))
    )
    vals = sc.as_dict()
    row = " ".join(
        f"{k}={vals[k]:.12g}" if isinstance(vals[k], float) else f"{k}={vals[k]}"
        for k in ("p", "n", "avr", "mu", "talenti_support", "morrey_support",
                  "talenti_l1", "morrey_l1", "eta", "hardy", "mu_bar", "bpv")
        if vals[k] is not None
    )
    print(row)
    if cfg.get("out") is not None or cfg.get("out_dir") is not None:
        _emit(_document(cfg, {"constants": vals}), cfg, "constants.json")
    return EXIT_OK


def _task_verify(cfg: dict) -> int:
    name = cfg.get("inequality")
    if not name:
        raise ConfigError("verify needs --inequality")
    key = name.replace("-", "_")
    if key not in V.INEQUALITIES:
        raise ConfigError(f"unknown inequality {name!r}")
    entry = V.INEQUALITIES[key]
    if cfg.get("instance") is None:
        raise ConfigError("verify needs --instance")
    suite = cfg.get("suite")  # 0 and negative counts are usage errors, not "no suite"
    reads = entry.suite_keys if suite is not None else entry.keys
    _refuse_unread(cfg, f"{key}{' suite' if suite is not None else ''}",
                   [k for k in ("profile", "shape", "p", "mu", "radius") if k not in reads])
    m = instance_from_descriptor(cfg["instance"])
    if suite is not None:
        reports = V.randomized_suite(m, key, n_draws=int(suite), seed=int(cfg.get("seed", 0)),
                                     p=cfg.get("p"), mu=cfg.get("mu"))
        n_pass = sum(r.passed for r in reports)
        _say(cfg, f"{key}: {n_pass}/{len(reports)} draws passed")
        doc = _document(cfg, {
            "suite": [r.as_dict() for r in reports],
            "passed": n_pass == len(reports),
        })
        _emit(doc, cfg, f"suite_{key}.json")
        return EXIT_OK if n_pass == len(reports) else EXIT_NUMERIC
    if entry.check is None:  # it runs only as a suite
        raise ConfigError(f"unknown inequality: {key!r}")
    keys = {k: cfg.get(k) for k in reads}
    if "profile" in keys:
        descriptor = keys.pop("profile")
        # the extremal families take their n from the instance
        keys["u"] = profile_from_descriptor(descriptor, n=m.dim) if descriptor else None
        if descriptor and "p" in keys and keys["p"] is None:  # p defaults to the profile family's p
            keys["p"] = parse_descriptor(descriptor).get("p")
    for k, flag in (("p", "p"), ("u", "profile"), ("shape", "shape")):  # mu and radius have defaults
        if k in keys and keys[k] is None:
            raise ConfigError(f"{name} needs --{flag}")
    if "p" in keys:
        keys["p"] = float(keys["p"])
    rep = entry.check(m, **keys)
    status = "PASS" if rep.passed else "FAIL"
    _say(cfg, f"{key}: lhs={rep.lhs:.10g} rhs={rep.rhs:.10g} ratio={rep.ratio:.10g} {status}")
    _emit(_document(cfg, {"report": rep.as_dict(), "passed": rep.passed}), cfg,
          f"verify_{key}.json")
    return EXIT_OK if rep.passed else EXIT_NUMERIC


def _task_sweep(cfg: dict) -> int:
    kind = cfg.get("kind")
    if kind not in ("support", "l1"):
        raise ConfigError("sweep needs --kind support|l1")
    if cfg.get("instance") is None or cfg.get("p") is None or cfg.get("sweep") is None:
        raise ConfigError("sweep needs --instance, --p and --sweep")
    m = instance_from_descriptor(cfg["instance"])
    grid = parse_sweep_grid(cfg["sweep"])
    p = float(cfg["p"])
    if kind == "support":
        sw = V.sharpness_sweep_support(m, p, grid)
        cols = [(r["R"], r["scaled_energy"], r["target"],
                 r["scaled_energy"] / r["target"], r["target"]) for r in sw.rows]
    else:
        sw = V.sharpness_sweep_l1(m, p, grid)
        cols = [(r["R"], r["constant_estimate"], sw.target,
                 r["constant_estimate"] / sw.target, sw.target) for r in sw.rows]
    _say(cfg, f"sweep {kind}: limit={sw.limit:.10g} target={sw.target:.10g} "
         f"{'PASS' if sw.passed else 'FAIL'}")
    csv_path = _resolve_out(cfg, f"sweep_{kind}.csv")
    json_path = None
    if csv_path is not None:
        _write_csv(csv_path, ("R", "lhs", "rhs", "ratio", "target"), cols)
        print(f"wrote {csv_path}")
        json_path = os.path.splitext(csv_path)[0] + ".json"
    _emit(_document(cfg, {"sweep": sw.as_dict(), "passed": sw.passed}), cfg,
          f"sweep_{kind}.json", path=json_path)
    return EXIT_OK if sw.passed else EXIT_NUMERIC


def _profile_csv(path: str, grid, values) -> None:
    du = np.gradient(values, grid, edge_order=2)
    _write_csv(path, ("rho", "u", "du"), zip(map(float, grid), map(float, values), map(float, du)))


# the pde keys each problem leaves unread
_PDE_UNREAD = {"ep": ("lam", "p", "k_max"), "p-problem": ("k_max",), "d-problem": ("mu",)}


def _task_pde(cfg: dict) -> int:
    problem = cfg.get("problem")
    if problem not in _PDE_UNREAD:
        raise ConfigError("pde needs --problem ep|p-problem|d-problem")
    _refuse_unread(cfg, f"pde {problem}", _PDE_UNREAD[problem])
    if cfg.get("n") is None:
        raise ConfigError("pde needs --n")
    n = int(cfg["n"])
    radius = float(_value(cfg, "radius", 1.0))
    mu = float(_value(cfg, "mu", 0.0))
    lam = float(_value(cfg, "lam", 0.0))
    nodes = int(_value(cfg, "nodes", 4096))
    out = _resolve_out(cfg, f"{problem.replace('-', '_')}.csv")

    if problem == "ep":
        bvp = RadialBvp(n=n, radius=radius, mu=mu, n_nodes=nodes)
        lam1, quotient, parts = eigen_quotient(bvp)
        payload = {
            "lambda1": lam1,
            "residual": abs(quotient - lam1) / lam1,
            "mu_bar": bvp.frobenius_exponent() + (n - 2.0) / 2.0,
            "rayleigh_quotient": quotient,
        }
        passed = payload["residual"] < 1e-6
        profiles = [(bvp.grid(), parts["profile"])]
    elif problem == "p-problem":
        if cfg.get("p") is None:
            raise ConfigError("p-problem needs --p")
        p = float(cfg["p"])
        bvp = RadialBvp(n=n, radius=radius, mu=mu, lam=lam,
                        nonlinearity=("power", p), n_nodes=nodes)
        sol = mountain_pass_solve(bvp, p=p)
        wres = weak_residual(sol.values, bvp, p)
        payload = {
            "energy_level": sol.level,
            "residual": sol.residual,
            "weak_residual": wres,
            "shooting_gap": sol.shooting_gap,
            "amplitude": sol.amplitude,
            "min_value": float(np.min(sol.values)),
        }
        passed = _ground_state_verdict(sol)
        profiles = [(sol.grid, sol.values)]
    else:
        if cfg.get("p") is None:
            raise ConfigError("d-problem needs --p")
        if cfg.get("nodes") is not None and nodes > EXPLORER_MAX_NODES:
            raise ConfigError(f"d-problem runs at most {EXPLORER_MAX_NODES} nodes, got --nodes {nodes}")
        p = float(cfg["p"])
        k_max = int(_value(cfg, "k_max", 3))
        nl = OscillatoryNonlinearity(p)
        bvp = RadialBvp(n=n, radius=radius, lam=lam,
                        nonlinearity=("general", nl), n_nodes=nodes)
        profs = multiplicity_explore(bvp, h=nl, lam=lam, k_max=k_max, p=p)
        payload = {
            "profiles": [
                {"sup": c.sup, "level": c.level, "residual": c.residual,
                 "truncation": c.truncation}
                for c in profs
            ],
            "distinct": len(profs),
        }
        passed = _plateau_verdict(profs, nl)
        profiles = [(c.grid, c.values) for c in profs]

    json_path = None
    if out:
        if len(profiles) == 1:
            _profile_csv(out, *profiles[0])
            print(f"wrote {out}")
        else:
            stem, ext = os.path.splitext(out)
            for i, (grid, values) in enumerate(profiles, start=1):
                path = f"{stem}_k{i}{ext or '.csv'}"
                _profile_csv(path, grid, values)
                print(f"wrote {path}")
        json_path = os.path.splitext(out)[0] + ".json"
    if "profiles" in payload:
        for c in payload["profiles"]:
            _say(cfg, f"pde {problem}: sup={c['sup']:.8g} level={c['level']:.8g} "
                 f"residual={c['residual']:.3g}")
    else:
        _say(cfg, f"pde {problem}: " + " ".join(f"{k}={v:.8g}" for k, v in payload.items()
                                                if isinstance(v, float)))
    _emit(_document(cfg, {"summary": payload, "passed": passed}), cfg,
          f"pde_{problem.replace('-', '_')}.json", path=json_path)
    return EXIT_OK if passed else EXIT_NUMERIC


def _ground_state_verdict(sol) -> bool:
    """A ground state passes when its scaled residual is below 1e-10, its
    level is positive, its minimum is at least -1e-10, and the polished
    profile stays within 1e-3 of the shot (shooting_gap): a defect in the
    functional the shot is polished on moves the profile, not its residual."""
    return (sol.residual < 1e-10 and sol.level > 0 and float(np.min(sol.values)) >= -1e-10
            and sol.shooting_gap <= 1e-3)


def _plateau_verdict(profs, nl) -> bool:
    """Plateau profiles pass when each scaled KKT residual is below 1e-6
    and each sup lies in the plateau [a_k, b_k] whose top b_k is the
    profile's truncation: a sup inside it leaves the cap inactive, which
    makes the profile a critical point of the untruncated energy."""
    bottom = dict(zip(nl.plateau_hi.tolist(), nl.plateau_lo.tolist()))
    return all(c.residual < 1e-6 and bottom[c.truncation] <= c.sup <= c.truncation for c in profs)


def _avr_verdict(est):
    """(passed, inside, near_one) of an AVR estimate: the point lies in the
    estimator's interval widened by three standard errors, and within four
    of 1, the exact AVR of every shipped instance; Bishop-Gromov holds."""
    slack = 3.0 * est.stderr
    inside = bool(est.lo - slack <= est.point <= est.hi + slack)
    near_one = bool(abs(est.point - 1.0) <= 4.0 * est.stderr)
    return inside and near_one and est.bg_ok, inside, near_one


def _task_avr(cfg: dict) -> int:
    if cfg.get("instance") is None:
        raise ConfigError("avr needs --instance")
    method = _value(cfg, "method", "mc")
    _refuse_unread(cfg, f"avr {method}", ("samples", "radii") if method == "exact" else ())
    m = instance_from_descriptor(cfg["instance"])
    radii = cfg.get("radii")
    if isinstance(radii, str):
        radii = [float(x) for x in radii.split(",")]
    est = estimate_avr(
        m, method=method, n_samples=int(_value(cfg, "samples", 200_000)),
        r_schedule=radii, seed=int(cfg.get("seed", 0)),
    )
    passed, _, near_one = _avr_verdict(est)
    payload = {
        "point": est.point, "lo": est.lo, "hi": est.hi, "stderr": est.stderr,
        "method": est.method, "bishop_gromov_ok": est.bg_ok, "near_one": near_one,
        "passed": passed,
    }
    if est.curve is not None:
        payload["curve"] = {
            "radii": list(map(float, est.curve.radii)),
            "ratios": list(map(float, est.curve.ratios(m.dim))),
            "ratio_stderrs": list(map(float, est.curve.ratio_stderrs(m.dim))),
        }
    _say(cfg, f"avr: point={est.point:.6f} interval=[{est.lo:.6f}, {est.hi:.6f}] "
         f"{'PASS' if passed else 'FAIL'}")
    _emit(_document(cfg, payload), cfg, "avr.json")
    return EXIT_OK if passed else EXIT_NUMERIC


def run(config: dict) -> int:
    """Execute one validated config; returns the process exit code."""
    if config.get("task") not in TASKS:
        raise ConfigError(f"unknown task {config.get('task')!r}")
    return TASKS[config["task"]][0](config)


# ---------------------------------------------------------------------------
# repro: the acceptance criteria, each defined once

_PN_CASES = ((4.0, 2), (5.0, 3), (7.0, 4))
_R_GRID = (1.0, 2.0, 4.0, 8.0)


def _inst(n: int, kind: str = "euclidean"):
    return instance_from_descriptor(f"lp:n={n},p=4" if kind == "l4" else f"euclidean:n={n}")


def _support_equality(seed):
    """1: the support-bound extremal attains equality on both instance families."""
    rows = []
    for p, n in _PN_CASES:
        for kind in ("euclidean", "l4"):
            rep = V.verify_morrey_support(_inst(n, kind), morrey_extremal_profile(p, n), p)
            rows.append({"p": p, "n": n, "instance": kind, "ratio": rep.ratio,
                         "passed": rep.passed})
    return all(r["passed"] and abs(r["ratio"] - 1.0) <= 1e-12 for r in rows), {"cases": rows}


def _support_sharpness_limit(seed):
    """2: every scaled support energy sits at its closed-form limit, and every
    inferred constant is the sharp one, by the library and by closed form."""
    rows = []
    for p, n in _PN_CASES:
        m = _inst(n)
        a = estimate_avr(m).point
        sw = V.sharpness_sweep_support(m, p, _R_GRID)
        target = C.support_energy_limit(p, n, a)
        c_sharp = C.morrey_support_constant(p, n, a)
        dev = max(abs(r["ratio"] - 1.0) for r in sw.rows)
        energy_dev = max(abs(e - target) / target
                         for e in [sw.limit] + [r["scaled_energy"] for r in sw.rows])
        sharp_dev = max(abs(r["constant_estimate"] - c_sharp) / c_sharp for r in sw.rows)
        rows.append({"p": p, "n": n, "limit": sw.limit, "target": sw.target,
                     "constant_dev": dev, "energy_dev": energy_dev,
                     "sharp_constant_dev": sharp_dev,
                     "passed": sw.passed and max(dev, energy_dev, sharp_dev) <= 1e-12})
    return all(r["passed"] for r in rows), {"sweeps": rows}


def _l1_sharpness(seed):
    """3: the L1-bound extremal attains equality; its sweep reaches both
    Beta-function limits with the exact, R-independent sup."""
    rows = []
    for p, n in _PN_CASES:
        m = _inst(n)
        a = estimate_avr(m).point
        rep = V.verify_morrey_l1(m, l1_extremal_profile(p, n), p)
        sweep = V.sharpness_sweep_l1(m, p, _R_GRID).rows
        t_l1, t_en = C.l1_norm_limit(p, n, a), C.l1_energy_limit(p, n, a)
        rows.append({
            "p": p, "n": n, "ratio": rep.ratio, "passed": rep.passed,
            "l1_dev": abs(sweep[-1]["scaled_l1"] - t_l1) / t_l1,
            "energy_dev": abs(sweep[-1]["scaled_energy"] - t_en) / t_en,
            "sup_dev": max(r["sup_deviation"] for r in sweep),
            "height": C.l1_extremal_height(p, n),
        })
    # the closed-form profile leaves roundoff only: the same 1e-12 as criterion 1
    ok = all(r["passed"] and max(abs(r["ratio"] - 1.0), r["l1_dev"], r["energy_dev"], r["sup_dev"]) <= 1e-12
             for r in rows)
    return ok, {"cases": rows}


J0 = 2.404825557695773  # first zero of J_0, pinned by criterion 4 and squared by 5


def _special_functions(seed):
    """4: constants.bessel_first_zero at three orders against their known values."""
    refs = {"0.0": J0, "0.5": math.pi, "1.0": 3.831705970207512}
    zero_devs = {nu: abs(C.bessel_first_zero(float(nu)) - ref) for nu, ref in refs.items()}
    # seed 0 reads at most 8.9e-16
    return max(zero_devs.values()) <= 1e-13, {"zero_deviations": zero_devs, "reference_zeros": refs}


def _eigenvalue_closed_form(seed):
    """5: the eigenvalue solver against the shifted-Bessel closed form on a
    12-case grid, and against the disk and ball values J0^2 and pi^2."""
    grid = [
        (2, 1.0, 0.0), (2, 0.5, 0.0), (2, 2.0, 0.0), (2, 1.7, 0.0),
        (3, 1.0, 0.0), (3, 1.0, 0.2), (3, 1.5, 0.1), (3, 0.7, 0.24),
        (4, 1.0, 0.0), (4, 1.0, 0.5), (4, 2.0, 0.9), (4, 1.3, 0.25),
    ]
    rows = []
    for n, radius, mu in grid:
        lam1, _ = first_eigenvalue(RadialBvp(n=n, radius=radius, mu=mu))
        # the radial BVP is flat by construction, so here and in criterion 6 AVR = 1
        mu_bar, _ = C.bpv_constant(mu, n, 1.0, C.omega_n(n))
        dev = abs(lam1 * radius**2 - C.bessel_first_zero(mu_bar) ** 2)
        rows.append({"n": n, "R": radius, "mu": mu, "lambda1": lam1, "dev": dev})
    # grid[0] and grid[4] are the unit disk and the unit ball without potential
    refs = {"disk": abs(rows[0]["lambda1"] - J0**2),
            "ball": abs(rows[4]["lambda1"] - math.pi**2)}
    # seed 0 reads at most 6.5e-13 on the grid, 3.6e-14 on the disk and
    # 3.2e-13 on the ball
    ok = all(r["dev"] < 1e-10 for r in rows) and refs["disk"] < 1e-10 and refs["ball"] < 1e-6
    return ok, {"cases": rows, "reference_deviations": refs}


def _suite_passes(m, name, seed, **kw):
    reps = V.randomized_suite(m, name, n_draws=100, seed=seed, **kw)
    return sum(r.passed for r in reps)


def _bpv(seed):
    """6: shifted Poincare suites, and equality for the eigenprofiles."""
    suites = {label: _suite_passes(_inst(2, kind), "bpv", seed)
              for label, kind in (("euclidean_2", "euclidean"), ("l4_2", "l4"))}
    eq_rows = []
    for n, radius, mu in ((2, 1.0, 0.0), (3, 1.0, 0.2)):
        _, quotient, _ = eigen_quotient(RadialBvp(n=n, radius=radius, mu=mu))
        _, s_const = C.bpv_constant(mu, n, 1.0, C.ball_volume(n, radius))
        eq_rows.append({"n": n, "mu": mu, "equality_dev": abs(quotient / s_const - 1.0)})
    # seed 0 reads at most 2.3e-15
    ok = all(v == 100 for v in suites.values()) and all(
        r["equality_dev"] < 1e-12 for r in eq_rows)
    return ok, {"suite_passes": suites, "eigen_equality": eq_rows}


def _hardy(seed):
    """7: Hardy suites, and near-extremal ratios increasing toward 1."""
    suites = {f"n{n}_p{int(p)}": _suite_passes(_inst(n), "hardy", seed, p=p)
              for n, p in ((3, 2.0), (4, 2.0), (4, 3.0))}
    mono = {}
    for n, p in ((3, 2.0), (4, 2.0)):
        reps = [V.verify_hardy(_inst(n), V.hardy_test_family(p, n, d), p)
                for d in (0.2, 0.1, 0.05)]
        ratios = [r.rhs / r.lhs for r in reps]
        mono[f"n{n}_p{int(p)}"] = {"ratios": ratios,
                                   "monotone": ratios[0] < ratios[1] < ratios[2]}
    ok = all(v == 100 for v in suites.values()) and all(
        v["monotone"] and v["ratios"][-1] < 1.0 for v in mono.values())
    return ok, {"suite_passes": suites, "near_extremal": mono}


def _rearrangement_suites(seed):
    """8: rearrangement property suites, and the layer-cake formula for the
    singular weight r^-a over a ball against n w_n R^(n-a) / (n-a)."""
    from .rearrange import layer_cake_integral

    suites = {name: _suite_passes(_inst(2), name, seed)
              for name in ("polya_szego", "hlp", "layer_cake", "equimeasurability")}
    a, r_max = 1.5, 2.0

    def w(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(r > 0, r**-a, np.inf)

    lhs, rhs = layer_cake_integral(_inst(3), w, r_max, points=(1e-6,),
                                   fprime=lambda r: -a * np.asarray(r, dtype=float) ** (-a - 1.0))
    exact = 3.0 * C.omega_n(3) * r_max ** (3.0 - a) / (3.0 - a)
    sing_dev = max(abs(lhs - rhs), abs(lhs - exact)) / exact
    ok = all(v == 100 for v in suites.values()) and sing_dev <= 1e-6
    return ok, {"suite_passes": suites, "singular_layer_cake_dev": sing_dev}


def _isoperimetric(seed):
    """9: isoperimetric equality on each instance's own balls, strict
    inequality on a rectangle and an ellipse, and the eikonal identity
    H*(DH) = 1 on f_eps, a difference gradient against the ascent dual."""
    from .manifold import f_eps_instance
    from .norms import eikonal_residual

    e2, f_eps = _inst(2), f_eps_instance(2, 1.0, normalize=True)
    rows = {
        "euclidean": V.verify_isoperimetric(e2, {"kind": "ball", "radius": 1.0}),
        "euclidean_wulff": V.verify_isoperimetric(e2, {"kind": "wulff", "radius": 1.0}),
        "l4": V.verify_isoperimetric(_inst(2, "l4"), {"kind": "wulff", "radius": 1.0}),
        "f_eps_1": V.verify_isoperimetric(f_eps, {"kind": "wulff", "radius": 1.0}),
    }
    rect = V.verify_isoperimetric(e2, {"kind": "rectangle", "a": 2.0, "b": 1.0})
    ell = V.verify_isoperimetric(e2, {"kind": "ellipse", "a": 2.0, "b": 1.0})
    eikonal = eikonal_residual(f_eps.norm, np.random.default_rng(seed).standard_normal((64, 2)))
    # seed 0 reads at most 2.9e-8 on the Euclidean and l4 balls, 6.5e-6 on
    # f_eps, and an eikonal residual of 2.0e-10
    ok = all(r.passed and abs(r.ratio - 1.0) <= (3e-5 if k == "f_eps_1" else 1e-7)
             for k, r in rows.items()) and all(
        r.passed and r.ratio > 1.0 + 1e-6 for r in (rect, ell)) and eikonal <= 1e-8
    return ok, {
        "equality_ratios": {k: r.ratio for k, r in rows.items()},
        "rectangle_ratio": rect.ratio, "ellipse_ratio": ell.ratio,
        "eikonal_residual": eikonal,
    }


def _f_eps_avr(seed):
    """10: Monte Carlo AVR of the f_eps family passes the avr subcommand's
    verdict: inside the estimator's sandwich interval, which is the
    closed-form band (1+eps)^(-n/2) <= AVR <= 1, widened by three standard
    errors, and within four standard errors of the exact AVR 1 of the flat
    family; Bishop-Gromov holds.  in_band repeats inside, the band's name."""
    from .manifold import f_eps_instance

    rows, ok = [], True
    for n in (2, 3):
        for eps in (0.5, 1.0, 2.0):
            est = estimate_avr(f_eps_instance(n, eps), method="mc", n_samples=150_000, seed=seed)
            passed, inside, near_one = _avr_verdict(est)
            rows.append({"n": n, "eps": eps, "point": est.point, "lo": est.lo,
                         "hi": est.hi, "stderr": est.stderr, "inside": inside,
                         "in_band": inside, "near_one": near_one, "bg_ok": est.bg_ok})
            ok = ok and passed
    return ok, {"cases": rows}


def _mountain_pass(seed):
    """11: mountain-pass ground states, and distinct plateau profiles of the
    oscillatory problem, each sup in its plateau."""
    mp_sets = [
        (3, 1.0, 0.0, 0.0, 3.0), (3, 1.0, 0.2, -5.0, 4.0), (2, 1.0, 0.0, 1.0, 4.0),
        (2, 1.5, 0.0, 2.0, 3.5), (4, 1.0, 0.5, 1.0, 2.5), (3, 1.2, 0.1, 3.0, 3.2),
    ]
    rows, ground_ok = [], True
    for n, radius, mu, lam, p in mp_sets:
        bvp = RadialBvp(n=n, radius=radius, mu=mu, lam=lam, nonlinearity=("power", p))
        sol = mountain_pass_solve(bvp, p=p)
        rows.append({"n": n, "R": radius, "mu": mu, "lam": lam, "p": p,
                     "residual": sol.residual, "level": sol.level,
                     "min_value": float(np.min(sol.values)), "shooting_gap": sol.shooting_gap})
        ground_ok = ground_ok and _ground_state_verdict(sol)
    nl = OscillatoryNonlinearity(4.0)
    bvp = RadialBvp(n=2, radius=1.0, lam=50.0, nonlinearity=("general", nl))
    profs = multiplicity_explore(bvp, h=nl, lam=50.0, k_max=3, p=4.0)
    sups = [c.sup for c in profs]
    # ground-state residuals read at most 2.4e-12 and shooting gaps at most
    # 7.1e-5 at seed 0, and the plateau residuals near 1e-10 keep the looser
    # gate; the sups 2.00017, 16.0002 and 512.018 lie in [2, 4], [16, 64]
    # and [512, 4096]
    ok = ground_ok and _plateau_verdict(profs, nl)
    return ok, {"mountain_pass": rows, "multiplicity_sups": sups,
                "multiplicity_count": len(profs)}


# Criterion i is _repro_criteria[i - 1]: a function of the seed that
# returns (passed, payload).  Its verdict holds every condition of its
# claim; tests/test_acceptance.py asserts these verdicts from one repro run
# instead of restating them.  Payloads hold only deterministic numbers (no
# wall-clock), so a fixed seed reproduces the reports byte for byte.
_repro_criteria = (
    _support_equality, _support_sharpness_limit, _l1_sharpness, _special_functions,
    _eigenvalue_closed_form, _bpv, _hardy, _rearrangement_suites, _isoperimetric,
    _f_eps_avr, _mountain_pass,
)


def _task_repro(cfg: dict) -> int:
    seed = int(cfg.get("seed", 0))
    out_dir = cfg.get("out_dir") or "repro_out"
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.time()
    results = []
    t_prev = t_start
    for index, criterion in enumerate(_repro_criteria, start=1):
        passed, payload = criterion(seed)
        doc = _document(
            dict(cfg, out_dir=out_dir),
            {"criterion": index, "passed": bool(passed), "detail": payload},
        )
        path = os.path.join(out_dir, f"criterion_{index:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        results.append((index, bool(passed)))
        now = time.time()
        print(f"criterion {index:2d}: {'PASS' if passed else 'FAIL'} ({now - t_prev:.1f}s)")
        t_prev = now
    _write_csv(os.path.join(out_dir, "summary.csv"), ("criterion", "passed"), results)
    all_ok = all(p for _, p in results)
    print(f"repro: {sum(p for _, p in results)}/{len(results)} criteria passed "
          f"in {time.time() - t_start:.1f}s")
    return EXIT_OK if all_ok else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument parsing


# Each option once: key -> (type, help, choices).  A descriptor (dict) and
# the radii (list) are strings on the command line; a config document may
# also give them as an object and as a list of reals.  bool is a switch.
OPTIONS = {
    "seed": (int, None, None),
    "out_dir": (str, None, None),
    "out": (str, "output file path", None),
    "timestamp": (bool, "stamp reports with wall-clock time (breaks byte-identity)", None),
    "inequality": (str, None, None),
    "instance": (dict, None, None),
    "profile": (dict, None, None),
    "shape": (dict, None, None),
    "p": (float, None, None),
    "n": (int, None, None),
    "avr": (float, None, None),
    "mu": (float, None, None),
    "lam": (float, None, None),
    "radius": (float, None, None),
    "suite": (int, "run a randomized suite with this many draws", None),
    "kind": (str, None, ("support", "l1")),
    "sweep": (str, "R=1:64:geometric", None),
    "problem": (str, None, ("ep", "p-problem", "d-problem")),
    "k_max": (int, None, None),
    "nodes": (int, None, None),
    "method": (str, None, ("exact", "mc")),
    "samples": (int, None, None),
    "radii": (list, "comma-separated radius schedule", None),
}

_COMMON = ("seed", "out_dir", "out", "timestamp")

# task -> (handler, help, the options it takes, in --help order)
TASKS = {
    "constants": (_task_constants, "evaluate sharp constants for (p, n, avr, mu)",
                  (*_COMMON, "p", "n", "avr", "mu")),
    "verify": (_task_verify, "run one inequality check or a randomized suite",
               (*_COMMON, "inequality", "instance", "profile", "shape", "p", "mu", "radius", "suite")),
    "sweep": (_task_sweep, "sharpness sweep over a radius schedule",
              (*_COMMON, "kind", "instance", "p", "sweep")),
    "pde": (_task_pde, "radial eigenvalue / mountain-pass / multiplicity",
            (*_COMMON, "problem", "n", "radius", "mu", "lam", "p", "k_max", "nodes")),
    "avr": (_task_avr, "asymptotic volume ratio estimate",
            (*_COMMON, "instance", "method", "samples", "radii")),
    # the criteria write their reports into --out-dir
    "repro": (_task_repro, "rerun the acceptance pipeline from one config",
              ("seed", "out_dir", "timestamp")),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag a subcommand lacks must not run as a longer one it has
    ap = argparse.ArgumentParser(
        prog="finsler-sharp",
        description="sharp-inequality verification on Minkowski instances",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers(dest="task", required=True)
    for task, (_, task_help, keys) in TASKS.items():
        sp = sub.add_parser(task, help=task_help, allow_abbrev=False)
        sp.add_argument("--config", help="JSON config document; flags override it")
        for key in keys:
            typ, text, choices = OPTIONS[key]
            kw = ({"action": "store_true"} if typ is bool else
                  {"type": typ if typ in (int, float) else None, "choices": choices})
            sp.add_argument("--" + key.replace("_", "-"), default=None, help=text, **kw)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code) if ex.code is not None else EXIT_USAGE
    try:
        cfg = _merge_config(args)
        return run(cfg)
    except (ConfigError, ValueError) as ex:
        # the library raises ValueError for a domain error: bad input, not a failed check
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, FloatingPointError) as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
