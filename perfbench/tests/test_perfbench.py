"""Self-tests of the benchmark: its correctness gate, its trace and its contract.

Run from the checkout root with `python3 -m pytest perfbench/tests -q`.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

import hostspeed
import layertrace
import run
import workloads
from workloads import Check, Outcome

import finsler_sharp.norms as norms


def _first_of_each_group(checks, skip=()):
    chosen = {}
    for c in checks:
        if c.group not in chosen and not any(s in c.name for s in skip):
            chosen[c.group] = c
    return list(chosen.values())


def _share_and_digits(checks):
    _, _, outcomes = run.run_pass(checks)
    return sum(not o.passed for o in outcomes) / len(outcomes), run.min_digits(outcomes)


def test_planted_bessel_error_raises_failed_share_and_lowers_digits(monkeypatch):
    eigen = [c for c in workloads.build_solvers(0) if c.group == "pde.eigen"][:4]
    share, digits = _share_and_digits(eigen)
    assert share == 0.0 and digits > 9.0

    true_zero = workloads.bessel_zero_ref
    monkeypatch.setattr(workloads, "bessel_zero_ref", lambda nu: true_zero(nu) * (1.0 + 1e-3))
    planted_share, planted_digits = _share_and_digits(eigen)
    assert planted_share > 0.0
    assert planted_digits < digits - 5.0


def test_bessel_oracle_matches_known_zeros():
    refs = {0.0: 2.404825557695773, 0.5: 3.141592653589793, 1.0: 3.831705970207512}
    for nu, ref in refs.items():
        assert abs(workloads.bessel_zero_ref(nu) - ref) <= 4e-15 * ref


def test_failing_check_exits_nonzero_without_result(monkeypatch, capsys):
    checks = [
        Check("sound", "g", lambda: Outcome(True, 12.0)),
        Check("planted", "g", lambda: Outcome(False, 2.0, "planted miss")),
    ]
    monkeypatch.setattr(workloads, "build", lambda w, s: checks)
    monkeypatch.setattr(run, "cold_start", lambda w, s: (0.5, 0.5))
    assert run.main(["--workload", "suites", "--seed", "0", "--seconds", "0", "--trace", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "planted miss" in captured.err


def test_passing_run_reports_every_end_to_end_metric(monkeypatch, capsys):
    checks = [Check(f"c{i}", "g", lambda: Outcome(True, 12.0)) for i in range(15)]
    monkeypatch.setattr(workloads, "build", lambda w, s: checks)
    monkeypatch.setattr(run, "cold_start", lambda w, s: (0.5, 0.5))
    assert run.main(["--workload", "suites", "--seed", "0", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["attempted"] == 15 * run.BATCHES and result["failed"] == 0


def test_tail_rank_leaves_ten_checks_beyond():
    assert run.tail_rank(37) == 26
    assert 37 - 1 - run.tail_rank(37) == run.TAIL_BEYOND
    assert run.tail_rank(5) == 0


def test_tail_quantile_of_one_pass_is_its_tail_rank():
    latencies = sorted(float(x) for x in range(37))
    q = run.tail_quantile(37)
    assert float(np.quantile(latencies, q)) == latencies[run.tail_rank(37)]
    # more passes of the same checks keep the same quantile
    assert abs(float(np.quantile(sorted(latencies * 4), q)) - latencies[26]) < 1.0


def test_local_factors_follow_the_host_speed_around_each_check():
    ref = hostspeed.REF_UNIT_S
    # units before and after each of six checks; the host halves its speed at check 3
    units = [ref] * 4 + [2.0 * ref] * 3
    factors = hostspeed.local_factors(units)
    assert len(factors) == 6
    assert factors[0] == 1.0
    assert factors[-1] == 0.5
    # a check twice as slow on a host twice as slow reads the same
    assert 2.0 * factors[-1] == factors[0]


def test_scaled_latencies_carry_each_checks_scale(monkeypatch):
    ticks = iter([hostspeed.REF_UNIT_S * 2.0] * 3)
    monkeypatch.setattr(hostspeed, "unit", lambda: next(ticks))
    checks = [Check(f"c{i}", "g", lambda: Outcome(True, 12.0)) for i in range(2)]
    latencies, scales, outcomes = run.run_pass(checks)
    assert scales == [0.5, 0.5] and all(o.passed for o in outcomes)
    assert run.scaled(latencies, scales) == [t / 2.0 for t in latencies]


def _nest_ok(spans):
    for span in spans:
        if span.parent < 0:
            continue
        parent = spans[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end
        root = span
        while root.parent >= 0:
            root = spans[root.parent]
        assert root.name == "check" and root.check == span.check


def test_layer_spans_nest_inside_their_check_with_nonnegative_self_time():
    original = norms.dual_norm
    checks = _first_of_each_group(workloads.build_suites(1))
    checks += _first_of_each_group(workloads.build_geometry(1), skip=("f_eps(",))
    tracer = layertrace.Tracer("selftest")
    tracer.install()
    try:
        _, _, outcomes = run.run_pass(checks, tracer)
    finally:
        tracer.uninstall()
    assert norms.dual_norm is original
    assert all(o.passed for o in outcomes)
    spans = tracer.spans
    assert sum(s.parent < 0 for s in spans) == len(checks)
    assert len(spans) > len(checks)
    _nest_ok(spans)
    assert min(layertrace.self_times(spans)) >= 0.0
    assert all(0.0 < s.scale < 10.0 for s in spans)
    names = {s.name for s in spans}
    assert {"verify.hardy", "quadrature.split_quad", "rearrange.equimeasurability_gap",
            "norms.dual_ascent", "manifold.ball_volume_mc", "cli.verify"} <= names


def test_probes_measure_every_per_layer_metric():
    probes = workloads.build_probes(0)
    tracer = layertrace.Tracer("probes")
    tracer.install()
    try:
        _, _, outcomes = run.run_pass(probes, tracer)
    finally:
        tracer.uninstall()
    assert all(o.passed for o in outcomes)
    _nest_ok(tracer.spans)
    measured = layertrace.layer_metrics(tracer.spans, list(zip(probes, outcomes)))
    measured.update(layertrace.failure_metrics(tracer.spans))
    assert set(layertrace.metric_names()) <= set(measured)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(layertrace.metric_names()) | {
        "trace.untraced_wall_s", "trace.traced_wall_s", "trace.wrap_us", "trace.overhead_s",
        "trace.overhead_share", "trace.spans"}


def test_every_check_group_has_a_warm_up_probe():
    groups = {c.group for w in workloads.PLAN_BUILDS for c in workloads.build(w, 0)}
    probes = workloads.build_probes(0, groups)
    assert {p.group for p in probes} == groups


def test_suite_constants_are_checked_against_closed_forms(monkeypatch):
    m = workloads.M.euclidean_instance(2)
    for ineq in ("morrey_support", "morrey_l1"):
        assert workloads.suite_draw(m, ineq, 3).digits > 12.0
    # a sharp constant 1e-6 too large must fail although the library's own verdict holds
    true_ref = workloads.morrey_support_ref
    monkeypatch.setitem(workloads.FLAT_CONSTANT_REFS, "morrey_support", lambda p, n: true_ref(p, n) * (1.0 - 1e-6))
    assert not workloads.suite_draw(m, "morrey_support", 3).passed


def test_wrapper_cost_is_small_and_positive():
    cost = layertrace.wrapper_cost_s(calls=2000, rounds=3)
    assert 0.0 < cost < 1e-3


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
