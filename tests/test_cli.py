"""Command line layer: parsing, config merge, exit codes, report bytes."""

import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from finsler_sharp import cli, pde
from finsler_sharp._util import parse_descriptor
from finsler_sharp.manifold import instance_from_descriptor
from finsler_sharp.report import make_report
from finsler_sharp.verify import INEQUALITIES


def run_cli(argv):
    return cli.main(argv)


# -- descriptor / grid parsing ----------------------------------------------


def test_parse_descriptor_types():
    d = parse_descriptor("f_eps:n=3,eps=0.5,normalize=true,tag=abc")
    assert d == {"kind": "f_eps", "n": 3, "eps": 0.5, "normalize": True, "tag": "abc"}


def test_parse_descriptor_dict_passthrough_copies():
    src = {"kind": "euclidean", "n": 2}
    d = parse_descriptor(src)
    assert d == src and d is not src


@pytest.mark.parametrize("bad", ["", "   ", None, 7])
def test_parse_descriptor_rejects_non_specs(bad):
    with pytest.raises(ValueError):
        parse_descriptor(bad)


def test_parse_descriptor_rejects_bare_items():
    with pytest.raises(ValueError):
        parse_descriptor("euclidean:n")


def test_lp_instance_shorthand():
    m = instance_from_descriptor("lp:n=2,p=4")
    assert m.dim == 2 and m.norm.normalized
    with pytest.raises(ValueError):
        instance_from_descriptor("lp:n=2,p=4,extra=1")


def test_sweep_grid_geometric():
    assert cli.parse_sweep_grid("R=1:8:geometric") == [1.0, 2.0, 4.0, 8.0]
    assert cli.parse_sweep_grid("R=1:9:geometric:3") == [1.0, 3.0, 9.0]
    assert cli.parse_sweep_grid("R=2:2:geometric") == [2.0]


def test_sweep_grid_linear():
    grid = cli.parse_sweep_grid("R=0.25:1:linear:4")
    assert grid == [0.25, 0.5, 0.75, 1.0]
    assert cli.parse_sweep_grid("R=2:2:linear:1") == [2.0]


@pytest.mark.parametrize("bad", [
    "Q=1:8:geometric", "R=1:8", "R=8:1:geometric", "R=1:8:geometric:0.5",
    "R=1:8:cubic", 17,
    # radii that do not increase strictly: a geometric step that rounds back
    # to r, and stop = start with more than one radius
    "R=5e-324:5e-324:geometric:1.0000000000000002", "R=1e-322:2e-322:geometric:1.01",
    "R=2:2:linear:3",
    # a radius that is not positive: R = 0 divides 0/0 in the extremal profile
    "R=0:1:linear:5", "R=-1:1:linear:3",
])
def test_sweep_grid_rejects(bad):
    with pytest.raises(cli.ConfigError):
        cli.parse_sweep_grid(bad)


@pytest.mark.parametrize("bad", [
    "R=1:inf:geometric", "R=-inf:1:linear", "R=nan:1:linear:4", "R=1:2:geometric:1.0000001",
    "R=0:1:linear:100000",
])
def test_sweep_grid_rejects_unbounded_schedules(bad):
    # non-finite bounds, and schedules longer than the limit, before any radius is built
    with pytest.raises(cli.ConfigError, match="finite|exceeds|count <="):
        cli.parse_sweep_grid(bad)
    assert len(cli.parse_sweep_grid("R=1:1e4:linear:10000")) == 10_000


@pytest.mark.parametrize("argv", [
    ["--instance", "lp:n=2", "--inequality", "morrey-support", "--profile", "morrey_extremal:p=4"],
    ["--instance", "euclidean:n=2", "--inequality", "isoperimetric", "--shape", "rectangle:a=2"],
    ["--instance", "euclidean:n=2", "--inequality", "isoperimetric", "--shape", "ball:radus=2"],
    ["--instance", "euclidean:n=2.7", "--inequality", "morrey-support", "--profile", "morrey_extremal:p=4"],
    ["--instance", "lp:n=2,p=nan", "--inequality", "morrey-support", "--profile", "morrey_extremal:p=4"],
])
def test_malformed_descriptor_exit_2(argv, capsys):
    assert run_cli(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'" in err  # names the offending kind or key


# -- config merge -----------------------------------------------------------


def test_empty_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    rc = run_cli(["verify", "--config", str(path)])
    assert rc == 2
    assert "empty" in capsys.readouterr().err


def test_unknown_config_keys_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": "constants", "p": 4, "n": 2, "color": "red"}))
    rc = run_cli(["constants", "--config", str(path)])
    assert rc == 2
    assert "color" in capsys.readouterr().err


def test_config_task_must_match_subcommand(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": "constants", "p": 4, "n": 2}))
    rc = run_cli(["verify", "--config", str(path)])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_config_document_drives_a_run(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "verify", "instance": "euclidean:n=2",
        "inequality": "morrey-support", "profile": "morrey_extremal:p=4",
    }))
    rc = run_cli(["verify", "--config", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["passed"] is True
    assert doc["config"]["seed"] == 0  # defaults are materialized
    assert doc["timestamp"] is None


def test_flags_override_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "verify", "instance": "euclidean:n=2",
        "inequality": "morrey-support", "profile": "morrey_extremal:p=4",
        "p": 4.0,
    }))
    rc = run_cli(["verify", "--config", str(path), "--p", "5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["p"] == 5.0
    assert doc["report"]["params"]["p"] == 5.0


@pytest.mark.parametrize("argv", [
    ["verify", "--instance", "euclidean:n=2", "--inequality", "polya-szego",
     "--profile", "cone:R=1", "--p", "nan"],
    ["constants", "--p", "nan", "--n", "2"],
])
def test_nan_flag_exit_2(argv, capsys):
    assert run_cli(argv) == 2
    assert "'p' is NaN" in capsys.readouterr().err


def test_nan_in_config_document_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"task": "constants", "p": NaN, "n": 2}')
    assert run_cli(["constants", "--config", str(path)]) == 2
    assert "'p' is NaN" in capsys.readouterr().err


def test_config_values_are_type_checked(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    # a bool is no number, and no 0 or 1 is a bool
    for key, value in (("seed", "x"), ("n", 1.5), ("p", True), ("seed", None), ("timestamp", 1)):
        path.write_text(json.dumps({"task": "constants", "p": 4, "n": 2, key: value}))
        assert run_cli(["constants", "--config", str(path)]) == 2
        assert f"config value {key!r}" in capsys.readouterr().err
    path.write_text(json.dumps({"task": "constants", "p": 4, "n": 3.0}))
    assert run_cli(["constants", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("p=4 n=3 ")


@pytest.mark.parametrize("task,doc", [
    ("constants", {"p": 4, "n": 2, "k_max": 3}),
    ("verify", {"instance": "euclidean:n=2", "inequality": "morrey-support",
                "profile": "morrey_extremal:p=4", "nodes": 33}),
    ("sweep", {"kind": "support", "instance": "euclidean:n=2", "p": 4,
               "sweep": "R=1:2:geometric", "samples": 10}),
    ("pde", {"problem": "ep", "n": 2, "instance": "euclidean:n=2"}),
    ("avr", {"instance": "euclidean:n=2", "method": "exact", "p": 4}),
    ("repro", {"out": "x.json"}),
])
def test_config_key_of_another_task_exit_2(task, doc, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"task": task, **doc}))
    assert run_cli([task, "--config", str(path)]) == 2
    foreign = {"constants": "k_max", "verify": "nodes", "sweep": "samples", "pde": "instance",
               "avr": "p", "repro": "out"}[task]
    assert f"['{foreign}']" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["constants", "verify", "sweep", "pde", "avr", "repro"])
def test_parser_dests_are_the_document_keys(task, tmp_path):
    parser = cli.build_parser()
    dests = set(vars(parser.parse_args([task]))) - {"task", "config"}
    accepted = set()
    for key in [*cli.OPTIONS, "config", "color"]:
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"task": task, key: {"seed": 0, "timestamp": False}.get(key)}))
        try:
            cli._merge_config(parser.parse_args([task, "--config", str(path)]))
        except cli.ConfigError:
            continue
        accepted.add(key)
    assert dests == accepted


def test_cached_parser_shares_no_state_between_runs(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert run_cli(["verify", "--instance", "euclidean:n=2", "--inequality", "morrey-support",
                    "--profile", "morrey_extremal:p=4", "--timestamp", "--seed", "3"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["timestamp"] is not None and first["config"]["seed"] == 3
    assert run_cli(["constants", "--p", "5", "--n", "3"]) == 0
    assert capsys.readouterr().out.startswith("p=5")
    assert run_cli(["verify", "--instance", "euclidean:n=2", "--inequality", "morrey-l1",
                    "--profile", "cone:R=1", "--p", "4"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["timestamp"] is None and second["config"]["seed"] == 0
    assert second["config"]["inequality"] == "morrey-l1" and "n" not in second["config"]


def test_threads_env_and_option_are_gone(monkeypatch, tmp_path, capsys):
    # every check runs on one core: the variable changes no byte, and the
    # flag and the config key are usage errors
    argv = ["verify", "--instance", "euclidean:n=2", "--inequality", "morrey-support",
            "--profile", "morrey_extremal:p=4"]
    assert run_cli(argv) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("FINSLER_SHARP_THREADS", "3")
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert out == unset and "threads" not in doc and "threads" not in doc["config"]
    assert run_cli(argv + ["--threads", "2"]) == 2
    config = tmp_path / "repro.json"
    config.write_text(json.dumps({"task": "repro", "threads": 2}))
    assert run_cli(["repro", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


# -- exit codes -------------------------------------------------------------


def test_single_check_passes_exit_0(capsys):
    rc = run_cli(["verify", "--instance", "euclidean:n=2",
                  "--inequality", "morrey-support",
                  "--profile", "morrey_extremal:p=4", "--p", "4"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["ratio"] == pytest.approx(1.0, rel=1e-8)


def test_missing_required_parameter_exit_2(capsys):
    rc = run_cli(["verify", "--instance", "euclidean:n=2"])
    assert rc == 2
    assert "inequality" in capsys.readouterr().err


def test_unknown_inequality_exit_2(capsys):
    rc = run_cli(["verify", "--instance", "euclidean:n=2",
                  "--inequality", "agmon", "--profile", "morrey_extremal:p=4"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["constants", "--p", "4", "--n", "2", "--av", "1"],
    ["verify", "--instance", "euclidean:n=2", "--inequality", "morrey-support",
     "--prof", "morrey_extremal:p=4"],
    ["repro", "--out", "x"],
], ids=["av", "prof", "out"])
def test_abbreviated_flag_exit_2(argv, tmp_path, monkeypatch, capsys):
    # each is a prefix of a flag the subcommand has (--avr, --profile, --out-dir)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_unknown_subcommand_exit_2(capsys):
    rc = run_cli(["frobnicate"])
    assert rc == 2
    capsys.readouterr()


_ISO2 = ["verify", "--instance", "euclidean:n=2", "--inequality", "isoperimetric", "--shape"]
_SUPPORT2 = ["verify", "--instance", "euclidean:n=2", "--inequality", "morrey-support", "--profile"]
_BPV2 = ["verify", "--instance", "euclidean:n=2", "--inequality", "bpv", "--profile", "cone:R=1", "--radius"]
_AVR2 = ["avr", "--instance", "euclidean:n=2", "--radii"]


@pytest.mark.parametrize("argv", [
    [*_ISO2, "rectangle:a=inf,b=1"],
    ["verify", "--instance", "f_eps:n=2,eps=1,normalize=true", "--inequality", "isoperimetric",
     "--shape", "wulff:radius=0"],
    [*_ISO2, "ellipse:a=0,b=1"],
    [*_ISO2, "ball:radius=-1"],
    [*_ISO2, "rectangle:a=-1,b=-1"],
    ["verify", "--instance", "euclidean:n=3", "--inequality", "isoperimetric",
     "--shape", "ellipsoid:a=1,b=1,c=inf"],
    [*_ISO2, "ball:radius=1e-200"],
    [*_ISO2, "rectangle:a=1e200,b=1e200"],
    [*_SUPPORT2, "morrey_extremal:p=4,R=0"],
    [*_SUPPORT2, "morrey_extremal:p=4,R=-1"],
    [*_SUPPORT2, "morrey_extremal:p=4,R=inf"],
    [*_SUPPORT2, "morrey_extremal:p=4,R=1e200"],
    [*_BPV2, "1e300"],
    [*_BPV2, "inf"],
    ["verify", "--instance", "f_eps:n=2,eps=1,normalize=true", "--inequality", "isoperimetric",
     "--shape", "wulff:radius=1e200"],
    ["verify", "--instance", "euclidean:n=2", "--inequality", "morrey-l1",
     "--profile", "talenti_l1_extremal:p=4,R=1e200"],
    ["pde", "--problem", "ep", "--n", "3", "--radius=inf"],
    ["pde", "--problem", "ep", "--n", "3", "--radius=1e300"],
    # (R / z)^2 underflows to 0, where lambda1 = 1 / (R / z)^2 would divide by it
    ["pde", "--problem", "ep", "--n", "3", "--radius=1e-200"],
    # lambda1 is finite, the flux scale (R / z)^(d - 2) overflows; then the spectral bound's ball volume
    ["pde", "--problem", "ep", "--n", "8", "--radius=1e100"],
    ["pde", "--problem", "p-problem", "--n", "3", "--p", "3", "--radius=1e200"],
    # the energy underflows to 0 at radii below the first whose ball volume overflows
    ["sweep", "--kind", "support", "--instance", "euclidean:n=2", "--p", "4", "--sweep", "R=1:1e200:geometric"],
    pytest.param(["sweep", "--kind", "l1", "--instance", "euclidean:n=2", "--p", "4", "--sweep", "R=1:1e200:geometric"],
                 id="l1 --sweep R=1:1e200:geometric"),
    # the energy underflows to 0 while every ball volume stays finite
    ["sweep", "--kind", "support", "--instance", "euclidean:n=2", "--p", "4", "--sweep", "R=1:1e140:geometric"],
    pytest.param(["sweep", "--kind", "l1", "--instance", "euclidean:n=2", "--p", "4", "--sweep", "R=1:1e140:geometric"],
                 id="l1 --sweep R=1:1e140:geometric"),
    ["constants", "--n", "2", "--p", "inf"],
    [*_AVR2, "1,inf"],
    [*_AVR2, "1,1e200"],
    [*_AVR2, "1e-200,1"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_non_finite_or_overflowing_lengths_exit_2(argv, capsys):
    # each makes a length, a volume or a constant nan, inf or 0, or overflows a float power,
    # and is refused before a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(argv) == 2
    assert "finite" in capsys.readouterr().err


# the test modules import scipy's solver modules, so only a fresh interpreter
# shows which of them the commands load
_SOLVER_MODULES = """
import json, sys
from finsler_sharp import cli
solvers = ("scipy.integrate", "scipy.optimize", "scipy.linalg")
codes = [
    cli.main(["verify", "--instance", "f_eps:n=2,eps=1,normalize=true",
              "--inequality", "isoperimetric", "--shape", "wulff:radius=1"]),
    cli.main(["avr", "--instance", "f_eps:n=2,eps=1,normalize=true", "--method", "mc"]),
    cli.main(["constants", "--p", "4", "--n", "2"]),
    cli.main(["verify", "--instance", "euclidean:n=2", "--inequality", "bpv", "--profile", "cone:R=1"]),
    cli.main(["verify", "--instance", "euclidean:n=3", "--inequality", "bpv", "--suite", "3"]),
]
before = [m for m in solvers if m in sys.modules]
codes.append(cli.main(["pde", "--problem", "ep", "--n", "3"]))
print(json.dumps({"codes": codes, "before": before, "after": [m for m in solvers if m in sys.modules]}))
"""


def test_geometry_commands_load_no_solver_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(pde.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _SOLVER_MODULES], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == [0] * 6 and doc["before"] == []
    assert doc["after"] == ["scipy.integrate", "scipy.optimize", "scipy.linalg"]


@pytest.mark.parametrize("argv,named", [
    (["constants", "--p", "4", "--n", "2", "--avr", "0"], "avr"),
    (["pde", "--problem", "ep", "--n", "2", "--radius", "0"], "radius"),
    (["pde", "--problem", "ep", "--n", "2", "--nodes", "0"], "nodes"),
    (["pde", "--problem", "d-problem", "--n", "2", "--p", "3", "--k-max", "0"], "k_max"),
    (["avr", "--instance", "euclidean:n=2", "--samples", "0"], "n_samples"),
    # a 0-draw suite, not the single check
    (["verify", "--instance", "euclidean:n=2", "--inequality", "morrey-support",
      "--suite", "0"], "draw"),
], ids=["avr", "radius", "nodes", "k_max", "samples", "suite"])
def test_explicit_zero_is_not_replaced_by_the_default(argv, named, capsys):
    # a given 0 reaches the library's range check instead of running as the default
    assert run_cli(argv) == 2
    assert named in capsys.readouterr().err


def test_failed_check_exit_3(monkeypatch, capsys):
    bad = make_report("morrey_support", {"p": 4.0}, 2.0, 1.0,
                      direction="upper", rtol=0.0)
    monkeypatch.setattr(cli.V, "verify_morrey_support", lambda *a, **k: bad)
    rc = run_cli(["verify", "--instance", "euclidean:n=2",
                  "--inequality", "morrey-support",
                  "--profile", "morrey_extremal:p=4"])
    assert rc == 3
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_failed_suite_exit_3(monkeypatch, capsys):
    bad = make_report("morrey_support", {"p": 4.0}, 2.0, 1.0,
                      direction="upper", rtol=0.0)
    monkeypatch.setattr(cli.V, "randomized_suite", lambda *a, **k: [bad])
    rc = run_cli(["verify", "--instance", "euclidean:n=2",
                  "--inequality", "morrey-support", "--suite", "1"])
    assert rc == 3
    capsys.readouterr()


def test_runtime_error_exit_3(monkeypatch, capsys):
    def boom(*a, **k):
        raise RuntimeError("volume comparison violated")

    monkeypatch.setattr(cli, "estimate_avr", boom)
    rc = run_cli(["avr", "--instance", "euclidean:n=2"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_run_rejects_unknown_task():
    with pytest.raises(cli.ConfigError):
        cli.run({"task": "nonsense"})


# -- emitted documents ------------------------------------------------------


def test_constants_prints_table_row(capsys):
    rc = run_cli(["constants", "--p", "4", "--n", "2"])
    assert rc == 0
    row = capsys.readouterr().out.strip()
    assert row.startswith("p=4")
    fields = dict(item.split("=", 1) for item in row.split())
    assert float(fields["morrey_support"]) == pytest.approx(0.6430370685787438)
    assert "hardy" not in fields  # p > n: no singular-weight constant


def test_constants_report_bytes_are_stable(tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = ["constants", "--p", "4", "--n", "2", "--out", str(out)]
    assert run_cli(argv) == 0
    first = out.read_bytes()
    out.unlink()
    assert run_cli(argv) == 0
    assert out.read_bytes() == first
    capsys.readouterr()


def test_suite_stdout_is_reproducible(capsys):
    argv = ["verify", "--instance", "euclidean:n=2", "--inequality",
            "morrey-support", "--suite", "5", "--seed", "7"]
    assert run_cli(argv) == 0
    first = capsys.readouterr()
    assert run_cli(argv) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert "5/5 draws passed" in first.err


def test_timestamp_flag_breaks_null_default(capsys):
    rc = run_cli(["verify", "--instance", "euclidean:n=2",
                  "--inequality", "morrey-support",
                  "--profile", "morrey_extremal:p=4", "--timestamp"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["timestamp"] is not None


def test_sweep_writes_csv_and_json(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = run_cli(["sweep", "--kind", "support", "--instance", "lp:n=2,p=4",
                  "--p", "4", "--sweep", "R=1:8:geometric", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["R", "lhs", "rhs", "ratio", "target"]
    assert len(rows) == 5
    for row in rows[1:]:
        assert float(row[3]) == pytest.approx(1.0, rel=1e-9)
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["passed"] is True
    assert doc["sweep"]["limit"] == pytest.approx(doc["sweep"]["target"], rel=1e-9)
    capsys.readouterr()


def test_pde_eigensolver_csv(tmp_path, capsys):
    out = tmp_path / "ep.csv"
    rc = run_cli(["pde", "--problem", "ep", "--n", "2", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rho", "u", "du"]
    assert float(rows[-1][1]) == pytest.approx(0.0, abs=1e-12)  # boundary value
    doc = json.loads((tmp_path / "ep.json").read_text())
    assert doc["summary"]["lambda1"] == pytest.approx(5.7831859629467845, rel=1e-6)
    capsys.readouterr()


def test_pde_ep_solves_the_eigenvalue_once(tmp_path, capsys, monkeypatch):
    calls = []
    solve = pde._eigen_solve
    monkeypatch.setattr(pde, "_eigen_solve", lambda bvp: calls.append(bvp) or solve(bvp))
    rc = run_cli(["pde", "--problem", "ep", "--n", "3", "--mu", "0.2", "--nodes", "257",
                  "--out", str(tmp_path / "ep.csv")])
    assert rc == 0 and len(calls) == 1
    summary = json.loads((tmp_path / "ep.json").read_text())["summary"]
    lam1, prof = pde.first_eigenvalue(calls[0])
    assert summary["lambda1"] == lam1
    with open(tmp_path / "ep.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [float(r[1]) for r in rows] == prof.tolist()
    capsys.readouterr()


def test_pde_mountain_pass_json(tmp_path, capsys):
    out = tmp_path / "p.csv"
    rc = run_cli(["pde", "--problem", "p-problem", "--n", "3", "--mu", "0.2", "--lam", "-5",
                  "--p", "4", "--out", str(out)])
    assert rc == 0
    summary = json.loads((tmp_path / "p.json").read_text())["summary"]
    assert summary["residual"] < 1e-6
    assert summary["energy_level"] > 0.0
    capsys.readouterr()


README_PDE = ["pde", "--problem", "p-problem", "--n", "3", "--mu", "0.2", "--lam", "1", "--p", "4"]


def test_pde_p_problem_reads_the_criterion_11_verdict(monkeypatch, capsys):
    # the README example reads residual 5.5e-15 and shooting gap 9.1e-5; a
    # Hardy coupling 10% too weak in the functional the shot is polished on
    # keeps the residual, level and minimum that alone passed the
    # subcommand, and criterion 11's gate on the shooting gap turns it red
    assert run_cli(README_PDE) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["residual"] < 1e-10 and summary["shooting_gap"] <= 1e-3
    real = pde._RadialFunctional.__init__
    monkeypatch.setattr(pde._RadialFunctional, "__init__",
                        lambda self, rho, n, p, lam, mu, nl: real(self, rho, n, p, lam, 0.9 * mu, nl))
    assert run_cli(README_PDE) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    summary = doc["summary"]
    assert summary["residual"] < 1e-10 and summary["energy_level"] > 0 and summary["min_value"] >= -1e-10
    assert summary["shooting_gap"] > 1e-3


def test_pde_multiplicity_finds_three_plateau_sups(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = run_cli(["pde", "--problem", "d-problem", "--n", "2", "--lam", "50", "--p", "4",
                  "--nodes", "33", "--out", str(out)])
    assert rc == 0
    summary = json.loads((tmp_path / "d.json").read_text())["summary"]
    sups = [c["sup"] for c in summary["profiles"]]
    assert summary["distinct"] == 3 and len(set(sups)) == 3
    windows = [(2.0, 4.0), (16.0, 64.0), (512.0, 4096.0)]  # plateaus 1..3 of 2^(k^2)..2^(k^2+k)
    for sup, (lo, hi) in zip(sorted(sups), windows):
        assert lo <= sup <= hi
    assert all((tmp_path / f"d_k{i}.csv").exists() for i in (1, 2, 3))
    capsys.readouterr()


def test_pde_d_problem_reads_the_criterion_11_verdict(monkeypatch, capsys):
    # the subcommand gated residuals only; it now applies criterion 11's
    # plateau verdict, so a sup below its plateau [2, 4] exits 3
    argv = ["pde", "--problem", "d-problem", "--n", "2", "--lam", "50", "--p", "4"]
    for sup, code in ((2.5, 0), (1.9, 3)):
        prof = pde.CriticalProfile(grid=np.linspace(0.0, 1.0, 3), values=np.array([sup, 1.0, 0.0]),
                                   sup=sup, level=-1.0, residual=1e-11, truncation=4.0)
        monkeypatch.setattr(cli, "multiplicity_explore", lambda *args, **kwargs: [prof])
        assert run_cli(argv) == code
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is (code == 0) and doc["summary"]["profiles"][0]["sup"] == sup


def test_avr_exact_path(capsys):
    rc = run_cli(["avr", "--instance", "euclidean:n=2", "--method", "exact"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["point"] == 1.0
    assert doc["passed"] is True


README_AVR = ["avr", "--instance", "f_eps:n=3,eps=1", "--method", "mc", "--samples", "200000"]


def test_avr_gate_reads_the_criterion_10_verdict(monkeypatch, capsys):
    # the README example reads 0.16 sigma from the exact AVR 1 at seed 0; a
    # density 2% too low stays inside the sandwich interval, which alone
    # passed the subcommand, and the 4-sigma gate near_one turns it red
    assert run_cli(README_AVR) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["near_one"] is True and doc["passed"] is True
    from finsler_sharp import manifold

    real = manifold.bh_density
    monkeypatch.setattr(manifold, "bh_density", lambda m: 0.98 * real(m))
    assert run_cli(README_AVR) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["lo"] <= doc["point"] <= doc["hi"] and doc["bishop_gromov_ok"] is True
    assert doc["near_one"] is False and doc["passed"] is False


def test_out_dir_places_default_names(tmp_path, capsys):
    rc = run_cli(["verify", "--instance", "euclidean:n=2",
                  "--inequality", "morrey-support",
                  "--profile", "morrey_extremal:p=4",
                  "--out-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "verify_morrey_support.json").read_text())
    assert doc["passed"] is True
    # status line moves to stdout once the JSON goes to a file
    assert "PASS" in capsys.readouterr().out


# -- profile descriptors on an instance ---------------------------------------


@pytest.mark.parametrize("profile", [
    "cone:R=1,height=2",
    "plateau:inner=0.4,R=1.5,height=3",
    "talenti_l1_extremal:p=4",
])
def test_profile_descriptors_on_an_instance(profile, capsys):
    rc = run_cli(["verify", "--instance", "euclidean:n=2",
                  "--inequality", "morrey-support", "--p", "4",
                  "--profile", profile])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_table_profile_from_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "verify", "instance": "lp:n=2,p=4", "inequality": "morrey-l1", "p": 5,
        "profile": {"kind": "table", "rhos": [0.0, 0.5, 1.0], "values": [2.0, 1.0, 0.0]},
    }))
    assert run_cli(["verify", "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["config"]["profile"]["kind"] == "table"


@pytest.mark.parametrize("rhos,values", [
    ([], []),
    ([0.0, 0.5, 1.0], [1.0, 0.0]),
    ([-0.5, 1.0], [1.0, 0.0]),
], ids=["empty", "mismatched", "negative_radius"])
def test_malformed_table_exits_2(tmp_path, capsys, rhos, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "task": "verify", "instance": "euclidean:n=2", "inequality": "morrey-support", "p": 4,
        "profile": {"kind": "table", "rhos": rhos, "values": values},
    }))
    assert run_cli(["verify", "--config", str(path)]) == 2
    assert "table" in capsys.readouterr().err


def test_u_R_takes_only_the_support_and_l1_families(capsys):
    argv = ["verify", "--instance", "euclidean:n=2", "--inequality", "morrey-l1", "--p", "5"]
    for family in ("support", "l1"):
        assert run_cli([*argv, "--profile", f"u_R:p=5,family={family}"]) == 0
    capsys.readouterr()
    assert run_cli([*argv, "--profile", "u_R:p=5,family=banana"]) == 2
    assert "'banana'" in capsys.readouterr().err


@pytest.mark.parametrize("inequality", [k for k in INEQUALITIES if k != "isoperimetric"])
def test_shape_is_rejected_outside_isoperimetric(inequality, capsys):
    rc = run_cli(["verify", "--instance", "euclidean:n=2", "--inequality", inequality,
                  "--p", "4", "--profile", "morrey_extremal:p=4", "--shape", "ball:radius=2"])
    assert rc == 2
    assert "--shape" in capsys.readouterr().err


@pytest.mark.parametrize("argv,unread", [
    (["morrey-support", "--profile", "morrey_extremal:p=4", "--mu", "0.3"], "--mu"),
    (["bpv", "--profile", "cone:R=1", "--p", "7"], "--p"),
    (["isoperimetric", "--shape", "ball:radius=1", "--profile", "cone:R=1", "--mu", "0.1",
      "--radius", "4"], "--profile, --mu, --radius"),
    *[([name, "--suite", "2", "--profile", "cone:R=1", "--radius", "3"], "--profile, --radius")
      for name in INEQUALITIES if name != "isoperimetric"],
], ids=["support_mu", "bpv_p", "isoperimetric_profile_mu_radius",
        *[f"suite_{name}" for name in INEQUALITIES if name != "isoperimetric"]])
def test_flag_the_inequality_does_not_read_exit_2(argv, unread, tmp_path, monkeypatch, capsys):
    # a value the check would ignore is refused by name, before any check runs
    monkeypatch.chdir(tmp_path)
    assert run_cli(["verify", "--instance", "euclidean:n=2", "--inequality", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f" does not read {unread}\n")


def test_config_key_the_inequality_does_not_read_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    doc = {"task": "verify", "instance": "euclidean:n=2", "inequality": "morrey-support",
           "profile": "morrey_extremal:p=4", "radius": None}
    path.write_text(json.dumps(doc))
    assert run_cli(["verify", "--config", str(path)]) == 0  # null leaves a key unset
    capsys.readouterr()
    path.write_text(json.dumps(dict(doc, radius=2.0)))
    assert run_cli(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: morrey_support does not read --radius\n"


def test_every_inequality_declares_the_keys_it_reads(capsys):
    assert set(cli.VERIFY_KEYS) == set(INEQUALITIES)
    base = ["verify", "--instance", "euclidean:n=2", "--inequality"]
    # each suite takes the keys its draws read
    assert run_cli([*base, "bpv", "--suite", "2", "--mu", "0"]) == 0
    assert run_cli([*base, "hlp", "--suite", "2", "--p", "2"]) == 0
    assert run_cli([*base, "isoperimetric", "--suite", "2"]) == 2
    assert "no randomized suite for 'isoperimetric'" in capsys.readouterr().err


def test_each_inequality_runs_its_own_check(capsys):
    base = ["verify", "--instance", "euclidean:n=2", "--inequality"]
    assert run_cli([*base, "morrey-support", "--profile", "morrey_extremal:p=4", "--p", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["inequality"] == "morrey_support"
    assert rep["ratio"] == pytest.approx(1.0, rel=1e-8)

    # without --radius the domain is the profile's support ball
    assert run_cli([*base, "bpv", "--profile", "cone:R=1.5,height=2"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["params"]["radius"] == 1.5

    assert run_cli([*base, "isoperimetric", "--shape", "ball:radius=2"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["diagnostics"]["equality"]

    # against the Gaussian weight
    assert run_cli([*base, "hlp", "--profile", "cone:R=1.5,height=2", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True

    assert run_cli([*base, "no_such_bound", "--profile", "cone:R=1", "--p", "4"]) == 2
    assert "no_such_bound" in capsys.readouterr().err
    for name in ("layer-cake", "equimeasurability"):  # these run only as suites
        assert run_cli([*base, name, "--profile", "cone:R=1"]) == 2
        assert capsys.readouterr().err == f"error: unknown inequality: {name.replace('-', '_')!r}\n"


def test_cone_profile_passes_morrey_l1_below_equality(capsys):
    assert run_cli(["verify", "--instance", "euclidean:n=2", "--inequality", "morrey-l1",
                    "--profile", "cone:R=1,height=1", "--p", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["passed"] and rep["ratio"] < 1.0


def test_bpv_takes_its_domain_from_radius(capsys):
    rc = run_cli(["verify", "--instance", "euclidean:n=2", "--inequality", "bpv",
                  "--profile", "morrey_extremal:p=4", "--radius", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_profile_dimension_must_match_the_instance(capsys):
    rc = run_cli(["verify", "--instance", "euclidean:n=2",
                  "--inequality", "morrey-support", "--profile", "morrey_extremal:p=4,n=3"])
    assert rc == 2
    assert "key 'n' is 3" in capsys.readouterr().err


def test_extremal_profiles_take_the_instance_dimension(capsys):
    rc = run_cli(["verify", "--instance", "euclidean:n=3",
                  "--inequality", "morrey-support", "--profile", "morrey_extremal:p=4"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["report"]["ratio"] == pytest.approx(1.0, rel=1e-8)
