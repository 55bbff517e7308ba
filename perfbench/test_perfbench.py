"""Tests of the benchmark's own parts: the exact oracle, the report
checks, the layer tracer and the driver's refusal to run without sources.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import oracle
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

UNIFORM_F2 = {"model": {"kind": "free", "rank": 2}, "walk": {"support": "uniform"}}
UNIFORM_Z23 = {"model": {"kind": "free_product", "orders": [2, 3]}, "walk": {"support": "uniform"}}
ASYM_F2 = {
    "model": {"kind": "free", "rank": 2},
    "walk": {"support": [["a", 0.35], ["A", 0.15], ["b", 0.30], ["B", 0.20]]},
}


# -- oracle ----------------------------------------------------------------


def test_oracle_uniform_f2():
    w = oracle.Walk.from_config(UNIFORM_F2)
    assert all(f == pytest.approx(1 / 3, rel=1e-15) for f in w.F.values())
    assert w.green_ee() == pytest.approx(1.5, rel=1e-15)
    assert w.green("ab") == pytest.approx(1.5 / 9, rel=1e-15)
    assert w.kernel("a", "e(a)^inf") == pytest.approx(3.0, rel=1e-15)
    assert w.kernel("a", "e(b)^inf") == pytest.approx(1 / 3, rel=1e-15)
    assert w.ratio("Bab") == pytest.approx(1 / 3, rel=1e-15)  # conjugate of a
    assert oracle.uniform_cone_mass(2, 1) == 0.25
    assert oracle.uniform_cone_mass(2, 3) * 4 * 3 * 3 == pytest.approx(1.0)


def test_oracle_z23_headline():
    w = oracle.Walk.from_config(UNIFORM_Z23)
    assert w.F[(1, 1)] == pytest.approx(2 / 3, rel=1e-14)
    assert w.F[(2, 1)] == pytest.approx(3 / 4, rel=1e-14)
    assert w.F[(2, 2)] == pytest.approx(3 / 4, rel=1e-14)
    assert w.ratio("st") == pytest.approx(0.5, rel=1e-14)
    assert w.ratio("Ts") == pytest.approx(0.5, rel=1e-14)
    assert oracle.lattice_label([w.ratio("st"), w.ratio("Ts")]) == "III_1/2"


@pytest.mark.parametrize("cfg,point", [(ASYM_F2, "e(b)^inf"), (ASYM_F2, "a(ab)^inf"),
                                       (UNIFORM_Z23, "e(st)^inf"), (UNIFORM_Z23, "t(st)^inf")])
def test_oracle_kernel_is_harmonic(cfg, point):
    # K(., xi) is mu-harmonic with K(e, xi) = 1: sum_y mu(y) K(y, xi) = 1.
    w = oracle.Walk.from_config(cfg)
    names = {(1, 1): "a", (1, -1): "A", (2, 1): "b", (2, -1): "B"}
    if w.model.orders is not None:
        names = {(1, 1): "s", (2, 1): "t", (2, 2): "T"}
    total = sum(p * w.kernel(names[y], point) for y, p in w.mu.items())
    assert total == pytest.approx(1.0, rel=1e-13)


def test_oracle_green_is_harmonic_off_the_diagonal():
    # G(e, g) = sum_y mu(y) G(y, g) for g != e; G(y, g) = G(e, y^-1 g).
    w = oracle.Walk.from_config(ASYM_F2)
    m = w.model
    for g in ("a", "aB", "bba"):
        gw = m.word(g)
        rhs = sum(p * w.green_ee() * w.first_passage(m.mul(m.inverse([y]), gw))
                  for y, p in w.mu.items())
        assert w.green(g) == pytest.approx(rhs, rel=1e-13)


def test_lattice_label():
    assert oracle.lattice_label([0.25, 0.125]) == "III_1/2"
    assert oracle.lattice_label([1.0, 1 / 3]) == "III_1/3"
    assert oracle.lattice_label([0.5, 0.3]) is None


# -- checks ----------------------------------------------------------------


def _report(results, verdicts):
    return {"results": results, "verdicts": verdicts}


def test_check_flags_bracket_that_excludes_exact():
    cfg = dict(UNIFORM_F2, experiments=["green"])
    row = {"word": "a", "value": 0.5, "lower": 0.5001, "upper": 0.51}
    out = checks.check_report(cfg, _report({"green": {"entries": [row]}}, {"green": "pass"}))
    assert out["green"].problems and "excludes exact" in out["green"].problems[0]
    assert out["green"].errors[0][0] == pytest.approx(0.0, abs=1e-15)


def test_check_flags_fail_verdict_and_wrong_label():
    cfg = dict(UNIFORM_Z23, experiments=["classify"])
    res = {"classification": "III_1", "ratios": [
        {"rep": "Ts", "r": 0.49804, "finite_order": False},
        {"rep": "st", "r": 0.50138, "finite_order": False}]}
    out = checks.check_report(cfg, _report({"classify": res}, {"classify": "fail"}))
    assert len(out["classify"].problems) == 2
    assert max(out["classify"].errors)[0] == pytest.approx(3.92e-3, rel=1e-3)


def test_check_monte_carlo_band():
    cfg = dict(UNIFORM_F2, experiments=["rn-check"])
    res = {"g": "a", "cylinder_base": "e(b)^inf", "cylinder_radius": 0, "n_samples": 20000,
           "pulled_mass": 1 / 12, "kernel_integral": 1 / 12}
    assert not checks.check_report(cfg, _report({"rn-check": res}, {"rn-check": "pass"}))[
        "rn-check"].problems
    sigma = math.sqrt((1 / 12) * (11 / 12) / 20000)
    res["pulled_mass"] = 1 / 12 + 6 * sigma
    assert checks.check_report(cfg, _report({"rn-check": res}, {"rn-check": "pass"}))[
        "rn-check"].problems


# -- tracer ----------------------------------------------------------------


def test_self_times_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 11.0])
    rec = tracer.Recorder(clock=lambda: next(ticks))
    with rec.span("outer", "report"):  # 0 .. 11
        with rec.span("inner", "groups"):  # 1 .. 3
            pass
        with rec.span("inner", "groups"):  # 4 .. 10
            pass
    assert rec.keys["outer"].self_s == 3.0
    assert rec.keys["inner"].self_s == 8.0
    assert rec.keys["inner"].calls == 2 and rec.keys["inner"].max_s == 6.0
    assert sum(rec.layer_self().values()) == 11.0


def test_install_patches_every_importer_and_records_absent():
    sys.path.insert(0, SRC)
    try:
        import hypwalk
        from hypwalk import martin, measure, report, walks
    finally:
        sys.path.remove(SRC)
    original = walks.sample_boundary_point
    rec = tracer.Recorder()
    targets = tracer.TARGETS + [("hypwalk.green", "_no_such_name", "x", "green", None),
                                ("hypwalk.no_such_module", "f", "y", "green", None)]
    rec.install(targets)
    try:
        assert walks.sample_boundary_point is not original
        assert measure.sample_boundary_point is walks.sample_boundary_point
        assert report.sample_boundary_point is walks.sample_boundary_point
        assert hypwalk.sample_boundary_point is walks.sample_boundary_point
        assert measure._green_value is martin._green_value
        assert report._EXPERIMENTS["classify"] is report._exp_classify
        assert rec.absent == ["hypwalk.green._no_such_name", "hypwalk.no_such_module.f"]
        assert rec.metrics()["trace.absent"] == (2, "count")
    finally:
        rec.uninstall()
    assert walks.sample_boundary_point is original
    assert measure.sample_boundary_point is original


TINY = {
    "schema_version": 1,
    "model": {"kind": "free", "rank": 2},
    "walk": {"support": "uniform", "seed": 5},
    "budgets": {"max_radius": 7, "n_samples": 400, "gibbs_radii": [1, 2], "maxlen": 2,
                "spectral_steps": 8},
    "experiments": ["rg", "gibbs", "simulate"],
}


def _traced(tmp_path, tag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    result = tmp_path / f"{tag}.json"
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--config", str(cfg),
                    "--out", str(tmp_path / tag), "--result", str(result), "--mode", "trace"],
                   check=True, timeout=120)
    return json.loads(result.read_text())


def test_traced_driver_repeats_counts(tmp_path):
    first, second = _traced(tmp_path, "a"), _traced(tmp_path, "b")
    for res in (first, second):
        assert res["error"] is None and res["passed"]
        trace = res["trace"]
        assert trace["absent"] == [] and trace["hook_errors"] == {}
        assert sum(trace["layer_self_s"].values()) <= trace["wall_s"]
    counts = [{k: v for k, (v, unit) in r["trace"]["metrics"].items() if unit == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["walks.boundary.calls"] > 0 and counts[0]["groups.ball.calls"] > 0
    calls = [{k: s["calls"] for k, s in r["trace"]["spans"].items()} for r in (first, second)]
    assert calls[0] == calls[1]


# -- driver ----------------------------------------------------------------


def test_driver_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "z23-classify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
