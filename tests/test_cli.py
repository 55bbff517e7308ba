"""End-to-end runs of the command-line entry point and its exit codes."""

import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest

import hypwalk
from hypwalk import GroupElement, first_passage, run_experiment
from hypwalk import _exact
from hypwalk.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, EXIT_VERIFICATION_FAILED, main
from hypwalk.config import parse_config
from hypwalk.report import _plain, _utc_isoformat

ASYM_F2 = [["a", 0.35], ["A", 0.15], ["b", 0.30], ["B", 0.20]]


def _run(tmp_path, model, experiments, support="uniform", args=(), out="out", **sections):
    cfg = {
        "schema_version": 1,
        "model": model,
        "walk": {"support": support, "seed": 1},
        "experiments": experiments,
        **sections,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / out
    code = main(["--config", str(path), "--out", str(out), *args])
    report = out / "report.json"
    return code, json.loads(report.read_text()) if report.exists() else None, cfg


def test_asymmetric_f2_hoelder_passes(tmp_path):
    # Kernel differences past the locality scale of g vanish exactly.
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 2}, ["martin", "hoelder"], ASYM_F2)
    assert code == EXIT_OK
    assert report["verdicts"] == {"martin": "pass", "hoelder": "pass"}


def test_f3_green_passes(tmp_path):
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 3}, ["green"])
    assert code == EXIT_OK
    assert report["results"]["green"]["harnack_constant"] == pytest.approx(6.0)


@pytest.mark.parametrize("orders", [[2, 5], [3, 3]])
def test_classify_default_budgets(tmp_path, orders):
    code, report, cfg = _run(tmp_path, {"kind": "free_product", "orders": orders}, ["classify"])
    assert code == EXIT_OK
    walk = parse_config(cfg).walk
    model = walk.model
    e = model.identity()
    rows = report["results"]["classify"]["ratios"]
    assert rows
    for row in rows:
        core = model.word(row["rep"]).cyclic_reduction()[1]
        product = math.prod(
            first_passage(walk, e, GroupElement(model, (syl,))).value for syl in core.syllables
        )
        assert row["r"] == pytest.approx(product, rel=1e-12)
        assert row["lower"] < row["r"] < row["upper"]


@pytest.mark.parametrize("orders", [[2, 4], [2, 5]])
def test_product_boundary_experiments(tmp_path, orders):
    # Every sampled prefix is long enough for its memberships to be exact.
    code, report, _ = _run(
        tmp_path, {"kind": "free_product", "orders": orders}, ["gibbs", "rn-check"],
        budgets={"n_samples": 2000},
    )
    assert code == EXIT_OK
    assert report["verdicts"] == {"gibbs": "pass", "rn-check": "pass"}
    assert report["results"]["rn-check"]["n_samples"] == 2000


@pytest.mark.parametrize(
    "model, margin",
    [
        ({"kind": "free", "rank": 2}, 10),
        ({"kind": "free_product", "orders": [2, 3]}, 10),
        # gibbs needs margin 11 here and rn-check 10: the run draws at 11.
        ({"kind": "free_product", "orders": [3, 7]}, 11),
    ],
    ids=["F_2", "Z2*Z3", "Z3*Z7"],
)
def test_sample_set_blocks_do_not_depend_on_the_other_experiment(tmp_path, model, margin):
    # gibbs and rn-check read one set, whose margin comes from the model,
    # not from the experiment list: each block and CSV is the same run
    # alone or with the other, and both blocks describe the same set.
    blocks = {}
    for experiments in (["gibbs", "rn-check"], ["gibbs"], ["rn-check"]):
        out = "+".join(experiments)
        code, report, _ = _run(tmp_path, model, experiments, out=out,
                               budgets={"n_samples": 3000})
        assert code in (EXIT_OK, EXIT_VERIFICATION_FAILED)
        for name in experiments:
            csv = (tmp_path / out / f"{name.replace('-', '_')}.csv").read_bytes()
            blocks[out, name] = (json.dumps(report["results"][name], sort_keys=True), csv)
    for name in ("gibbs", "rn-check"):
        assert blocks[name, name] == blocks["gibbs+rn-check", name]
    gibbs = json.loads(blocks["gibbs+rn-check", "gibbs"][0])
    rn = json.loads(blocks["gibbs+rn-check", "rn-check"][0])
    for key in ("n_samples", "margin", "n_retries", "n_steps"):
        assert gibbs[key] == rn[key]
    assert gibbs["n_samples"] == 3000 and gibbs["margin"] == rn["margin"] == margin


@pytest.mark.parametrize(
    "experiments, draws",
    [(["gibbs", "rn-check"], 1), (["rn-check", "rg", "gibbs"], 1), (["gibbs"], 1),
     (["rn-check"], 1), (["rg", "martin", "simulate"], 0)],
)
def test_one_sample_set_per_run(tmp_path, monkeypatch, experiments, draws):
    from hypwalk import measure

    calls = []
    draw = measure.boundary_sample_set

    def counting(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(measure, "boundary_sample_set", counting)
    cfg = parse_config({
        "schema_version": 1, "model": {"kind": "free", "rank": 2},
        "walk": {"support": "uniform", "seed": 1}, "experiments": experiments,
        "budgets": {"n_samples": 2000, "gibbs_radii": [1, 2, 3, 4]},
    })
    bundle = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert set(bundle.report["verdicts"].values()) == {"pass"}
    assert len(calls) == draws


def test_green_small_radius_budget(tmp_path):
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["green"], budgets={"max_radius": 3}
    )
    assert code == EXIT_OK
    assert max(row["length"] for row in report["results"]["green"]["entries"]) == 3


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("output", "row_cache", "cache"),
        ("budgets", "workers", 2),
        ("tolerances", "green_tol", 1e-3),
        ("tolerances", "kernel_dev", 1e-3),
        ("model", "delta_hint", 1),
        ("tolerances", "gcd_eps", 1e-3),
        ("budgets", "max_states", 1000),
        ("budgets", "ancona_samples", 100),
        ("budgets", "ancona_max_dist", 8),
        ("tolerances", "solver_rtol", 1e-10),
        ("tolerances", "invariant_tol", 1e-8),
    ],
)
def test_removed_key_is_a_config_error(tmp_path, capsys, section, key, value):
    model = {"kind": "free", "rank": 2}
    sections = {section: {key: value}}
    if section == "model":
        model = {**model, **sections.pop("model")}
    code, report, _ = _run(tmp_path, model, ["classify"], **sections)
    assert code == EXIT_CONFIG and report is None
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("radii", [["x"], [3, None], [1.5, 2], [True, 2], [0, 2], [], 3])
def test_invalid_gibbs_radii_is_a_config_error(tmp_path, capsys, radii):
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["gibbs"], budgets={"gibbs_radii": radii}
    )
    assert code == EXIT_CONFIG and report is None
    assert "budgets.gibbs_radii" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key", ["walk.seed", "budgets.maxlen", "budgets.max_radius", "tolerances.invariant_tol",
            "tolerances.gcd_eps"],
)
def test_boolean_for_a_number_is_a_config_error(tmp_path, capsys, key):
    # isinstance(True, int) holds: without a check, true would run as 1.
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["rg"], args=["--override", f"{key}=true"]
    )
    assert code == EXIT_CONFIG and report is None
    assert key.rpartition(".")[2] in capsys.readouterr().err


@pytest.mark.parametrize(
    "model,support,key",
    [
        ({"kind": "free", "rank": 2.7}, "uniform", "model.rank"),
        ({"kind": "free", "rank": "3"}, "uniform", "model.rank"),
        ({"kind": "free", "rank": True}, "uniform", "model.rank"),
        ({"kind": "free_product", "orders": [2.9, 3]}, "uniform", "model.orders"),
        ({"kind": "free_product", "orders": ["2", 3]}, "uniform", "model.orders"),
        ({"kind": "free", "rank": 2}, [["a", "0.25"], ["A", 0.25], ["b", 0.25], ["B", 0.25]],
         "walk.support"),
        ({"kind": "free", "rank": 2}, [["a", True], ["A", 0.5], ["b", 0.25], ["B", 0.25]],
         "walk.support"),
    ],
)
def test_coerced_model_or_walk_number_is_a_config_error(tmp_path, capsys, model, support, key):
    code, report, _ = _run(tmp_path, model, ["classify"], support)
    assert code == EXIT_CONFIG and report is None
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "model,message",
    [({"kind": "free", "rank": 2, "orders": [2, 3]}, "free model takes no orders"),
     ({"kind": "free_product", "orders": [2, 3], "rank": 7}, "free_product model takes no rank")],
    ids=["free-orders", "free_product-rank"],
)
def test_model_key_of_the_other_kind_is_a_config_error(tmp_path, capsys, model, message):
    # A key that the model's kind ignores is refused, not echoed into the
    # report as though it had been read.
    code, report, _ = _run(tmp_path, model, ["classify"])
    assert code == EXIT_CONFIG and report is None
    assert message in capsys.readouterr().err


def test_nan_support_weight_is_a_config_error(tmp_path, capsys):
    # Python's json reads NaN; every comparison with it is False.
    support = [["a", float("nan")], ["A", 0.25], ["b", 0.25], ["B", 0.25]]
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 2}, ["classify"], support)
    assert code == EXIT_CONFIG and report is None
    assert "walk.support" in capsys.readouterr().err


def test_step_budget_past_32_bits_is_a_config_error(tmp_path, capsys):
    # Walks of F_2 stop after about 40 steps, so such a budget would never
    # bind; the sampler counts steps in int32, and the config is refused.
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["gibbs"],
        budgets={"n_samples": 100, "boundary_max_steps": 3_000_000_000},
    )
    assert code == EXIT_CONFIG and report is None
    assert not (tmp_path / "out").exists()
    assert "budgets.boundary_max_steps" in capsys.readouterr().err
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["gibbs"],
        budgets={"n_samples": 100, "boundary_max_steps": 2**31 - 1},
    )
    assert code != EXIT_CONFIG and "gibbs" in report["verdicts"]


@pytest.mark.parametrize("experiment", ["green", "classify", "simulate"])
def test_degenerate_walk_is_a_config_error(tmp_path, capsys, experiment):
    # a, A and b generate a semigroup without b^-1; refused at parse, not by
    # a traceback from the first experiment that needs a nondegenerate walk.
    support = [["a", 0.4], ["A", 0.3], ["b", 0.3]]
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 2}, [experiment], support)
    assert code == EXIT_CONFIG and report is None
    assert not (tmp_path / "out").exists()
    assert "walk.support" in capsys.readouterr().err


@pytest.mark.parametrize(
    "support,message",
    [
        ([["a", 0.3], ["A", 0.2], ["b", 0.2], ["B", 0.2]], "sum to 0.9, not 1"),
        ([["a", -0.1], ["A", 0.6], ["b", 0.25], ["B", 0.25]], "must be positive"),
        ([["a", 0.0], ["A", 0.5], ["b", 0.25], ["B", 0.25]], "must be positive"),
    ],
    ids=["sum-0.9", "negative", "zero"],
)
def test_invalid_walk_is_a_config_error(tmp_path, capsys, support, message):
    # Refused at parse, before run_experiment creates the output directory.
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 2}, ["classify"], support)
    assert code == EXIT_CONFIG and report is None
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert f"config error: walk.support: step probabilities {message}" in err
    assert "np." not in err


@pytest.mark.parametrize(
    "output,key", [(5, "output"), ("out", "output"), ({"dir": 5}, "output.dir")]
)
def test_malformed_output_is_a_config_error(tmp_path, capsys, output, key):
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 2}, ["classify"], output=output)
    assert code == EXIT_CONFIG and report is None
    assert f"config error: {key} must be" in capsys.readouterr().err


def test_fifth_letter_in_support_parses():
    # On F_5 "e" is a generator, not the identity: a support that lists it
    # parses, and its names are those of the uniform walk, all distinct.
    letters = list("aAbBcCdDeE")
    cfg = {
        "schema_version": 1, "model": {"kind": "free", "rank": 5},
        "walk": {"support": [[x, 0.1] for x in letters], "seed": 1}, "experiments": ["green"],
    }
    walk = parse_config(cfg).walk
    uniform = parse_config({**cfg, "walk": {"support": "uniform", "seed": 1}}).walk
    assert walk == uniform
    assert sorted(str(g) for g, _ in uniform.support) == sorted(letters)


@pytest.mark.parametrize("word", ["ab", "aA", "aa"])
def test_non_letter_support_word_is_a_config_error(tmp_path, capsys, word):
    support = [[word, 0.25], ["A", 0.25], ["b", 0.25], ["B", 0.25]]
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 2}, ["classify"], support)
    assert code == EXIT_CONFIG and report is None
    err = capsys.readouterr().err
    assert "walk.support" in err and repr(word) in err


def test_infeasible_boundary_budget_is_refused(tmp_path, capsys):
    # No stream can stabilize before step max(margin + patience, 2 margin)
    # = 30 here, so the sampler is not started.
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["gibbs"],
        budgets={"n_samples": 20000, "boundary_max_steps": 29},
    )
    assert code == EXIT_BUDGET and report is None
    err = capsys.readouterr().err
    assert "budgets.boundary_max_steps 29" in err and "below 30" in err


def test_state_budget_exhaustion(tmp_path, capsys):
    # B(e, 4) on F_22 holds 3,581,601 words: refused before any Green value.
    start = time.monotonic()
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 22}, ["green"])
    assert code == EXIT_BUDGET and report is None
    assert time.monotonic() - start < 5.0
    assert "3581601 words" in capsys.readouterr().err


def test_green_table_refused_before_any_value(tmp_path, capsys, monkeypatch):
    # B(e, 4) on F_15 holds 757,801 words, the smallest free table above the
    # cap; the refusal comes before the engine is asked for a value, and
    # names the budget that gives a smaller table.
    def solve(*args):
        raise AssertionError("a Green value was computed")

    monkeypatch.setattr(_exact, "_solution", solve)
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 15}, ["green"])
    assert code == EXIT_BUDGET and report is None
    err = capsys.readouterr().err
    assert "757801 words" in err and "budgets.max_radius" in err
    monkeypatch.undo()
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 15}, ["green"],
                           budgets={"max_radius": 3})
    assert code == EXIT_OK and len(report["results"]["green"]["entries"]) == 26_131


def test_rg_refused_before_any_class(tmp_path, capsys, monkeypatch):
    # B(e, 12) on Z/7*Z/7 holds 836,389 words: the refusal comes before a
    # class is listed, and names the budget that gives a smaller ball.
    def listing(*args):
        raise AssertionError("a conjugacy class was listed")

    monkeypatch.setattr(hypwalk.report, "conjugacy_representatives", listing)
    code, report, _ = _run(tmp_path, {"kind": "free_product", "orders": [7, 7]}, ["rg"],
                           budgets={"maxlen": 12})
    assert code == EXIT_BUDGET and report is None
    err = capsys.readouterr().err
    assert "836389 words" in err and "budgets.maxlen" in err


def test_green_experiment_makes_no_per_word_call(tmp_path, monkeypatch):
    # The table extends each word from its parent: no per-word engine value
    # or product, and the walk is validated a fixed number of times.
    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(hypwalk.green, "require_valid")
    counting(_exact, "green")
    counting(_exact, "first_passage")
    counting(_exact._Solution, "product")
    cfg = parse_config({
        "schema_version": 1, "model": {"kind": "free", "rank": 3},
        "walk": {"support": "uniform", "seed": 1}, "experiments": ["green"],
    })
    bundle = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert len(bundle.report["results"]["green"]["entries"]) == 1 + 6 * (5**4 - 1) // 4
    assert calls == {"require_valid": 3}


@pytest.mark.parametrize(
    "model,support",
    [
        ({"kind": "free", "rank": 2}, ASYM_F2),
        ({"kind": "free", "rank": 3}, "uniform"),
        ({"kind": "free_product", "orders": [2, 5]}, "uniform"),
        ({"kind": "free_product", "orders": [3, 3]}, "uniform"),
    ],
)
def test_ancona_passes_fast(tmp_path, model, support):
    start = time.monotonic()
    code, report, _ = _run(tmp_path, model, ["ancona"], support)
    assert time.monotonic() - start < 1.0
    assert code == EXIT_OK and report["verdicts"] == {"ancona": "pass"}
    result = report["results"]["ancona"]
    assert result["rho_max_lower"] <= result["rho_max"] <= result["rho_max_upper"]
    assert (tmp_path / "out" / "ancona.csv").read_text().count("\n") == result["n_triples"] + 1


@pytest.mark.parametrize("steps", [5, 2, 0])
def test_invalid_spectral_steps_is_a_config_error(tmp_path, capsys, steps):
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["simulate"], budgets={"spectral_steps": steps}
    )
    assert code == EXIT_CONFIG and report is None
    assert "spectral_steps" in capsys.readouterr().err


def test_too_few_samples_is_a_config_error(tmp_path, capsys):
    # One sample has no spread: the kernel band would be nan.
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["rn-check"], budgets={"n_samples": 1}
    )
    assert code == EXIT_CONFIG and report is None
    assert "budgets.n_samples" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiments, repeated", [(["rg", "rg", "martin"], "rg"), (["gibbs", "classify", "gibbs"], "gibbs")]
)
def test_repeated_experiment_is_a_config_error(tmp_path, capsys, experiments, repeated):
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 2}, experiments)
    assert code == EXIT_CONFIG and report is None
    assert not (tmp_path / "out").exists()
    assert f"experiment {repeated!r} is listed twice" in capsys.readouterr().err
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["classify"],
        args=("--subcommands", ",".join(experiments)),
    )
    assert code == EXIT_CONFIG and report is None
    assert f"experiment {repeated!r} is listed twice" in capsys.readouterr().err


def test_failed_verification_exit_code(tmp_path):
    # Two samples cannot fill every Gibbs cylinder: the verdict fails.
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["gibbs"], budgets={"n_samples": 2}
    )
    assert code == EXIT_VERIFICATION_FAILED
    assert report["verdicts"] == {"gibbs": "fail"} and report["passed"] is False


def test_override_reaches_config_echo(tmp_path):
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["rg"], args=["--override", "budgets.maxlen=2"]
    )
    assert code == EXIT_OK
    assert report["config_echo"]["budgets"]["maxlen"] == 2
    lengths = [row["length"] for row in report["results"]["rg"]["ratios"]]
    assert max(lengths) == 2


def test_classify_reads_no_budget(tmp_path):
    # The verdict comes from the finite generator set, not from the
    # representatives up to maxlen that rg lists.
    outputs = []
    for maxlen in (2, 4):
        code, report, _ = _run(
            tmp_path, {"kind": "free_product", "orders": [2, 5]}, ["classify"], out=f"m{maxlen}",
            args=["--override", f"budgets.maxlen={maxlen}"],
        )
        assert code == EXIT_OK
        outputs.append((
            json.dumps(report["results"]["classify"], sort_keys=True),
            (tmp_path / f"m{maxlen}" / "classify.csv").read_bytes(),
        ))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])["classification"] == "III_1"


def test_subcommands_select_experiments(tmp_path):
    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["classify", "green"],
        args=["--subcommands", "rg,martin"],
    )
    assert code == EXIT_OK
    assert set(report["verdicts"]) == set(report["results"]) == {"rg", "martin"}


@pytest.mark.parametrize(
    "model,support",
    [
        ({"kind": "free", "rank": 2}, ASYM_F2),
        ({"kind": "free_product", "orders": [2, 3]}, "uniform"),
    ],
)
def test_green_and_hoelder_do_not_depend_on_the_seed(tmp_path, model, support):
    # Both verdicts are exact: the seed feeds only the samplers.
    blocks = []
    for seed in (1, 2, 3):
        code, report, _ = _run(
            tmp_path, model, ["green", "hoelder"], support, out=f"seed{seed}",
            args=["--override", f"walk.seed={seed}"],
        )
        assert code == EXIT_OK
        blocks.append(json.dumps(report["results"], sort_keys=True))
    assert blocks[0] == blocks[1] == blocks[2]


def test_reports_identical_across_runs(tmp_path):
    texts = []
    for out in ("first", "second"):
        code, _, _ = _run(
            tmp_path, {"kind": "free", "rank": 2}, ["simulate", "rg"], ASYM_F2, out=out
        )
        assert code == EXIT_OK
        lines = (tmp_path / out / "report.json").read_text().splitlines()
        texts.append([line for line in lines if '"generated_at"' not in line])
    assert texts[0] == texts[1]


def test_f3_simulate_default_budgets(tmp_path):
    code, report, _ = _run(tmp_path, {"kind": "free", "rank": 3}, ["simulate"])
    assert code == EXIT_OK
    sim = report["results"]["simulate"]
    assert sim["spectral_lower"] <= math.sqrt(5) / 3 <= sim["spectral_upper"]


def _python(code, *args):
    src = os.path.dirname(os.path.dirname(hypwalk.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.split()


def test_cli_import_leaves_out_scipy_stats():
    # scipy and numpy cost import time and no package path needs them at
    # import: the ball solve loads them on first use, the sampler
    # loads with a config that samples, and the report records no scipy
    # version.  hypwalk._solver stays loaded: perfbench's tracer patches
    # RestrictedSolver through it.  The records compile no code, so
    # dataclasses and the inspect it imports stay out, and the report's
    # timestamp needs no datetime.
    code = (
        "import sys, hypwalk.cli\n"
        "print(*(m in sys.modules for m in ('scipy', 'scipy.stats', 'scipy.sparse',"
        " 'hypwalk._solver', 'numpy', 'dataclasses', 'inspect', 'datetime')))"
    )
    assert _python(code) == ["False", "False", "False", "True", "False", "False", "False", "False"]


def _imported_modules(path):
    """The top-level names of the modules a source file imports, at any
    depth of its code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_ball_solver_imports_scipy():
    # Read from the sources, so an import inside a function counts too:
    # scipy serves the ball solve alone, and the Green layer needs no numpy.
    src = pathlib.Path(hypwalk.__file__).parent
    imports = {path.name: _imported_modules(path) for path in sorted(src.glob("*.py"))}
    assert "green.py" in imports and "_solver.py" in imports
    assert [name for name, mods in imports.items() if "scipy" in mods] == ["_solver.py"]
    assert "numpy" not in imports["green.py"]


@pytest.mark.parametrize(
    "ns", [0, 999, 1_700_000_000_123_456_789, 1_700_000_000_000_000_999, 4_102_444_800_000_001_000]
)
def test_timestamp_reads_as_datetime_isoformat(ns):
    seconds, micros = divmod(ns // 1000, 1_000_000)
    stamp = datetime.fromtimestamp(seconds, timezone.utc).replace(microsecond=micros)
    assert _utc_isoformat(ns) == stamp.isoformat()


def test_report_is_stamped_now_in_utc(tmp_path):
    before = datetime.now(timezone.utc)
    code, report, _ = _run(tmp_path, {"kind": "free_product", "orders": [2, 3]}, ["classify"])
    stamp = datetime.fromisoformat(report["generated_at"])
    assert code == EXIT_OK
    assert stamp.utcoffset().total_seconds() == 0
    assert before - timedelta(seconds=1) <= stamp <= datetime.now(timezone.utc)


EXACT_EXPERIMENTS = ["classify", "green", "martin", "rg", "hoelder", "ancona"]


MODELS_WITHOUT_NUMPY = pytest.mark.parametrize(
    "model",
    [{"kind": "free", "rank": 2}, {"kind": "free_product", "orders": [2, 3]}],
    ids=["F_2", "Z2*Z3"],
)


LEFT_OUT = ["False", "False", "False"]  # dataclasses, inspect, datetime


def _main_loads(tmp_path, cfg, *args):
    """Run ``cli.main`` on ``cfg`` in a fresh interpreter: its exit code,
    whether numpy, ``_sampler`` and ``_streams`` were loaded, and whether
    ``dataclasses``, ``inspect`` and ``datetime`` were."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = (
        "import sys\n"
        "from hypwalk.cli import main\n"
        "print(main(['--config', sys.argv[1], '--out', sys.argv[2], *sys.argv[3:]]))\n"
        "print(*(m in sys.modules for m in ('numpy', 'hypwalk._sampler', 'hypwalk._streams',"
        " 'dataclasses', 'inspect', 'datetime')))"
    )
    return _python(code, str(path), str(tmp_path / "out"), *args)[-7:]


@MODELS_WITHOUT_NUMPY
def test_exact_experiments_leave_out_numpy(tmp_path, model):
    # No exact experiment draws a sample, so none loads either sampler or
    # numpy, and the report records no numpy version.
    cfg = {
        "schema_version": 1,
        "model": model,
        "walk": {"support": "uniform", "seed": 1},
        "experiments": EXACT_EXPERIMENTS,
    }
    assert _main_loads(tmp_path, cfg) == [str(EXIT_OK), "False", "False", "False", *LEFT_OUT]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdicts"] == {name: "pass" for name in EXACT_EXPERIMENTS}
    assert report["versions"] == {"hypwalk": hypwalk.__version__}


@MODELS_WITHOUT_NUMPY
def test_simulate_leaves_out_numpy(tmp_path, model):
    # simulate draws one path and 64 boundary walks in plain Python: no
    # sample set, so neither numpy nor the array sampler loads, and the
    # report records no numpy version.
    cfg = {
        "schema_version": 1,
        "model": model,
        "walk": {"support": "uniform", "seed": 1},
        "experiments": ["simulate"],
    }
    assert _main_loads(tmp_path, cfg) == [str(EXIT_OK), "False", "False", "True", *LEFT_OUT]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdicts"] == {"simulate": "pass"}
    assert report["results"]["simulate"]["boundary_failures"] == 0
    assert report["versions"] == {"hypwalk": hypwalk.__version__}


def test_sample_set_run_leaves_out_dataclasses(tmp_path):
    # A run that draws a sample set loads numpy, and numpy itself imports
    # inspect and datetime; hypwalk still loads no dataclasses.
    cfg = {
        "schema_version": 1,
        "model": {"kind": "free", "rank": 2},
        "walk": {"support": "uniform", "seed": 1},
        "experiments": ["rn-check"],
        "budgets": {"n_samples": 2000},
    }
    code, numpy, sampler, streams, dataclasses, *_ = _main_loads(tmp_path, cfg)
    assert [code, numpy, sampler, streams, dataclasses] == [
        str(EXIT_OK), "True", "True", "True", "False",
    ]


def test_subcommands_select_the_modules_loaded(tmp_path):
    # The file names gibbs, but --subcommands selects classify alone: the
    # config is parsed once, after the selection, so no sampler loads.
    cfg = {
        "schema_version": 1,
        "model": {"kind": "free", "rank": 2},
        "walk": {"support": "uniform", "seed": 1},
        "experiments": ["gibbs", "classify"],
    }
    assert _main_loads(tmp_path, cfg, "--subcommands", "classify") == [
        str(EXIT_OK), "False", "False", "False", *LEFT_OUT,
    ]
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdicts"] == {"classify": "pass"}
    assert report["config_echo"]["experiments"] == ["classify"]


def test_unreadable_or_malformed_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["--config", str(missing), "--subcommands", "classify"]) == EXIT_CONFIG
    assert f"cannot read config {missing}" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["--config", str(bad), "--override", "budgets.maxlen=2"]) == EXIT_CONFIG
    assert f"config {bad} is not valid JSON" in capsys.readouterr().err
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    assert main(["--config", str(listed), "--subcommands", "classify"]) == EXIT_CONFIG
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["simulate", "gibbs", "rn-check"])
def test_sampling_config_loads_the_sampler_at_parse(experiment):
    # Import costs belong to set-up: a config that samples loads the
    # plain-Python draws as it is parsed, not on the first draw of the
    # run, and one that draws sample sets loads the array sampler and
    # numpy as well.  simulate draws no sample set.
    cfg = {
        "schema_version": 1,
        "model": {"kind": "free", "rank": 2},
        "walk": {"support": "uniform", "seed": 1},
        "experiments": ["classify", experiment],
    }
    code = (
        "import json, sys\n"
        "from hypwalk.config import parse_config\n"
        "names = ('hypwalk._streams', 'numpy', 'hypwalk._sampler')\n"
        "print(*(m in sys.modules for m in names))\n"
        "parse_config(json.loads(sys.argv[1]))\n"
        "print(*(m in sys.modules for m in names))"
    )
    sets = str(experiment != "simulate")
    assert _python(code, json.dumps(cfg)) == ["False"] * 3 + ["True", sets, sets]


def test_versions_name_numpy_for_a_config_that_samples(tmp_path):
    import numpy

    code, report, _ = _run(
        tmp_path, {"kind": "free", "rank": 2}, ["rg", "gibbs"],
        budgets={"n_samples": 2000, "gibbs_radii": [1, 2, 3, 4]},
    )
    assert code == EXIT_OK
    assert report["versions"] == {"hypwalk": hypwalk.__version__, "numpy": numpy.__version__}


def test_exact_experiments_leave_out_scipy_sparse(tmp_path):
    cfg = {
        "schema_version": 1,
        "model": {"kind": "free", "rank": 2},
        "walk": {"support": "uniform", "seed": 1},
        "experiments": [
            "classify", "green", "martin", "rg", "simulate", "gibbs", "rn-check", "hoelder",
            "ancona",
        ],
        # At 2000 samples the radius-5 Gibbs cylinder (mass about 0.001) can
        # be empty, which fails the verdict; radius 4 is hit on this seed.
        "budgets": {"n_samples": 2000, "gibbs_radii": [1, 2, 3, 4]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = (
        "import sys\n"
        "from hypwalk.cli import main\n"
        "print(main(['--config', sys.argv[1], '--out', sys.argv[2]]))\n"
        "print(*(m in sys.modules for m in ('scipy.stats', 'scipy.sparse')))"
    )
    assert _python(code, str(path), str(tmp_path / "out"))[-3:] == [str(EXIT_OK), "False", "False"]


def test_package_fits_no_lines():
    # Every verdict is exact or judged on enclosures: no line fits remain.
    src = os.path.dirname(hypwalk.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                text = fh.read()
            for word in ("linregress", "polyfit", "scipy.stats"):
                assert word not in text, f"{name} mentions {word}"


def test_plain_refuses_types_that_reports_do_not_hold():
    import numpy as np

    for value in (Fraction(1, 2), np.float64(1.0)):
        with pytest.raises(TypeError, match=type(value).__name__):
            _plain({"rows": [value]})
