"""End-to-end checks of the command-line interface."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fluctua
from fluctua import svgplot
from fluctua.acceptance import CriterionResult, IdentityCheck
from fluctua.channels import IntegrationFailure
from fluctua.cli import main
from fluctua.models import SWEEP_COLUMNS, THREE_LEVEL_COLUMNS, PRESETS
from fluctua.models import closed_form_characteristics, two_qubit_sweep
from fluctua.qcore import dephase
from fluctua.svgplot import line_chart


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_list_presets_names_all(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_module_entry_point_runs():
    src = str(Path(fluctua.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "fluctua", "list-presets"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "fig2-sweep" in proc.stdout


def test_import_leaves_out_the_network_stack():
    # xml.sax.saxutils would pull in urllib.request, http.client, ssl and email
    src = str(Path(fluctua.__file__).resolve().parents[1])
    code = ("import sys, fluctua.cli; "
            "print(sorted(m for m in ('ssl', 'urllib.request') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_chart_text_is_escaped():
    svg = line_chart([0.0, 1.0], {"a<b & c>d": np.array([0.0, 1.0])},
                     title="P&L <x> & y", x_label="t<1", y_label="E>0")
    assert ">P&amp;L &lt;x&gt; &amp; y</text>" in svg
    assert ">t&lt;1</text>" in svg
    assert ">E&gt;0</text>" in svg
    assert ">a&lt;b &amp; c&gt;d</text>" in svg
    assert "&amp;amp;" not in svg


def test_run_exact_sweep_outputs(tmp_path):
    out = tmp_path / "sweep"
    assert main(["run", "fig2-sweep", "--out", str(out)]) == 0
    header, rows = read_csv(out / "results.csv")
    assert header == ["theta", *SWEEP_COLUMNS]
    assert len(rows) == 21
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rows"] == 21
    assert summary["experiment"] == "fig2-sweep"
    assert math.isclose(summary["config"]["beta"], math.log(math.tan(1.0)),
                        rel_tol=0, abs_tol=1e-12)
    doc = xml.dom.minidom.parse(str(out / "plot.svg"))
    assert doc.getElementsByTagName("polyline")


def test_csv_uses_twelve_significant_digits(tmp_path):
    out = tmp_path / "sweep"
    main(["run", "fig2-sweep", "--out", str(out)])
    header, rows = read_csv(out / "results.csv")
    col = header.index("G_EPM")
    beta = math.log(math.tan(1.0))
    expected = closed_form_characteristics(0.0, beta)["G_EPM"]
    assert rows[0][col] == f"{expected:.12g}"


def test_exact_runs_are_bitwise_identical(tmp_path):
    main(["run", "fig2-sweep", "--out", str(tmp_path / "a")])
    main(["run", "fig2-sweep", "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "results.csv").read_bytes() == \
        (tmp_path / "b" / "results.csv").read_bytes()


def test_run_exact_sweep_self_check_passes(tmp_path):
    code = main(["run", "fig2-sweep", "--out", str(tmp_path / "s"),
                 "--check"])
    assert code == 0


def test_shot_mode_columns_and_reproducibility(tmp_path):
    args = ["run", "fig2-sweep", "--shots", "256", "--seed", "3"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    header, rows = read_csv(tmp_path / "a" / "results.csv")
    assert header == ["theta", *SWEEP_COLUMNS,
                      *[name + "_se" for name in SWEEP_COLUMNS]]
    main([*args, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "results.csv").read_bytes() == \
        (tmp_path / "b" / "results.csv").read_bytes()
    main(["run", "fig2-sweep", "--shots", "256", "--seed", "4",
          "--out", str(tmp_path / "c")])
    assert (tmp_path / "c" / "results.csv").read_bytes() != \
        (tmp_path / "a" / "results.csv").read_bytes()


def test_run_three_level_preset(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("# shortened window for test speed\n"
                   "t_max=2.0\nstep=0.005\n")
    out = tmp_path / "open"
    code = main(["run", "figS2b-jarzynski-open", "--config", str(cfg),
                 "--out", str(out), "--check"])
    assert code == 0
    header, rows = read_csv(out / "results.csv")
    assert header == list(THREE_LEVEL_COLUMNS)
    assert len(rows) == 101
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["t_max"] == 2.0
    assert summary["results"]["max_parts_defect_jarzynski"] < 1e-10


def test_seed_changes_initial_coherence(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("t_max=1.0\nstep=0.01\n")
    for seed, name in ((11, "a"), (50, "b")):
        main(["run", "figS2b-jarzynski-open", "--config", str(cfg),
              "--seed", str(seed), "--out", str(tmp_path / name)])
    header, rows_a = read_csv(tmp_path / "a" / "results.csv")
    _, rows_b = read_csv(tmp_path / "b" / "results.csv")
    col = header.index("coherence_l1")
    assert rows_a[0][col] != rows_b[0][col]


def test_beta_flag_sets_reference_temperature(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("t_max=1.0\nstep=0.01\n")
    out = tmp_path / "r"
    main(["run", "figS2-jarzynski-closed", "--config", str(cfg),
          "--beta", "0.8", "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["beta"] == 0.8


def test_config_file_values_and_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment=fig2-sweep\nbeta=0.7\n"
                   f"out={tmp_path / 'a'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["config"]["beta"] == 0.7
    assert main(["run", "--config", str(cfg), "--beta", "0.9",
                 "--out", str(tmp_path / "b")]) == 0
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary["config"]["beta"] == 0.9


def test_default_out_dir_is_preset_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "fig2-sweep"]) == 0
    assert (tmp_path / "fig2-sweep" / "results.csv").is_file()


def test_unknown_preset_exits_2(tmp_path, capsys):
    assert main(["run", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_missing_preset_name_exits_2(capsys):
    assert main(["run"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key=1\n")
    assert main(["run", "fig2-sweep", "--config", str(cfg)]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_malformed_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert main(["run", "fig2-sweep", "--config", str(cfg)]) == 2
    assert "key=value" in capsys.readouterr().err


def test_shots_on_three_level_exits_2(tmp_path, capsys):
    code = main(["run", "figS3-second-moment", "--shots", "128",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "sweep" in capsys.readouterr().err


def test_sweep_rejects_three_level_keys(tmp_path, capsys):
    code = main(["run", "fig2-sweep", "--occupation", "bose",
                 "--out", str(tmp_path)])
    assert code == 2
    code = main(["run", "figS4-entropy", "--theta0", "1.0",
                 "--out", str(tmp_path)])
    assert code == 2


def test_inconsistent_angle_and_beta_exits_2(tmp_path, capsys):
    code = main(["run", "fig2-sweep", "--theta0", "2.0", "--beta", "1.5",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "sech" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path):
    assert main(["run", "fig2-sweep", "--seed", "-1", "--shots", "8",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("preset, argv, config_text", [
    ("fig2-sweep", ["--beta", "nan"], None),
    ("fig2-sweep", ["--beta", "inf"], None),
    ("figS3-second-moment", [], "t_max = inf\n"),
    ("fig2-sweep", [], "theta_grid = 0.1, nan, 0.3\n"),
])
def test_non_finite_number_exits_2_before_writing(preset, argv, config_text,
                                                  tmp_path, capsys):
    out = tmp_path / "out"
    if config_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text)
        argv = argv + ["--config", str(cfg)]
    assert main(["run", preset, *argv, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise IntegrationFailure("trace drift 2.0e-03 at t = 4")
    monkeypatch.setattr("fluctua.cli.three_level_experiment", boom)
    code = main(["run", "figS4-entropy", "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_overflow_exits_3_before_writing(tmp_path, capsys):
    # exp(beta * dE) at beta = 400 overflows in the closed-form check rows;
    # the exact-mode columns computed before them overflow in numpy first
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        assert main(["run", "fig2-sweep", "--beta", "400", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: the closed-form characteristic overflows" in err
    assert "beta*epsilon = 400" in err
    assert not (out / "results.csv").exists()


def test_check_reports_and_exit_codes(monkeypatch, capsys):
    canned = [CriterionResult("alpha", True, "fine"),
              CriterionResult("beta", None, "skipped for the test")]
    monkeypatch.setattr("fluctua.cli.run_all", lambda **kw: canned)
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS alpha" in out
    assert "SKIP beta" in out
    assert "1 passed, 0 failed, 1 skipped" in out

    canned = [CriterionResult("alpha", True, "fine"),
              CriterionResult("gamma", False, "broke")]
    monkeypatch.setattr("fluctua.cli.run_all", lambda **kw: canned)
    assert main(["check"]) == 4
    assert "FAIL gamma" in capsys.readouterr().out


def test_check_forwards_flags(monkeypatch):
    seen = {}

    def spy(**kwargs):
        seen.update(kwargs)
        return [CriterionResult("alpha", True, "fine")]

    monkeypatch.setattr("fluctua.cli.run_all", spy)
    main(["check", "--occupation", "as_printed", "--step", "0.5"])
    assert seen == {"occupation": "as_printed", "integrator_step": 0.5}


@pytest.mark.parametrize("step", ["nan", "inf", "0", "-0.5"])
def test_check_rejects_a_step_that_is_not_positive_and_finite(step, monkeypatch, capsys):
    monkeypatch.setattr("fluctua.cli.run_all", lambda **kw: pytest.fail("battery ran"))
    assert main(["check", "--step", step]) == 2
    assert "--step must be positive and finite" in capsys.readouterr().err


def test_shot_self_check_passes_at_seed_seven(tmp_path):
    code = main(["run", "fig2-sweep", "--shots", "2048", "--seed", "7",
                 "--out", str(tmp_path / "s"), "--check"])
    assert code == 0
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    assert summary["results"]["max_sigma_distance_tpm"] < 5.0


def test_shot_summary_distance_is_the_self_check_z_score(tmp_path, monkeypatch):
    # the summary reports G_TPM's distance from 1 in the same model
    # standard errors that the shot-mode self-check tests against
    seen = {}
    real = fluctua.cli.sweep_checks

    def spy(result):
        seen["result"] = result
        seen["checks"] = real(result)
        return seen["checks"]

    monkeypatch.setattr("fluctua.cli.sweep_checks", spy)
    code = main(["run", "fig2-sweep", "--shots", "2048", "--seed", "5",
                 "--out", str(tmp_path / "s"), "--check"])
    assert code == 0
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    config = dataclasses.replace(PRESETS["fig2-sweep"].two_qubit, n_shots=2048)
    se = two_qubit_sweep(config, 5).model_errors["G_TPM"]
    dev = np.abs(seen["result"].columns["G_TPM"] - 1.0)
    assert np.all(dev[se == 0] <= 1e-12)
    z = dev[se > 0] / se[se > 0]
    check = seen["checks"]["max_sigma_distance_tpm"]
    assert summary["results"]["max_sigma_distance_tpm"] == check.value == z.max()
    assert summary["tolerances"]["max_sigma_distance_tpm"] == check.bound == 5.0
    assert z.max() < check.bound and check.passed


def test_shot_self_check_catches_incoherent_sampler(tmp_path, monkeypatch, capsys):
    # an end-point sampler that loses the initial coherences draws a wrong
    # energy-change law; the estimates then sit many model errors from the
    # closed forms
    real = fluctua.models.sample_shots

    def incoherent(protocol, rho, *args):
        return real(protocol, dephase(rho), *args)

    monkeypatch.setattr("fluctua.models.sample_shots", incoherent)
    code = main(["run", "fig2-sweep", "--shots", "2048", "--seed", "7",
                 "--out", str(tmp_path / "s"), "--check"])
    assert code == 4
    assert "model standard errors from its closed form" in capsys.readouterr().err


def test_failed_self_check_exits_4(tmp_path, monkeypatch, capsys):
    failing = {"synthetic": IdentityCheck(1.0, 0.0, "max", "synthetic defect")}
    monkeypatch.setattr("fluctua.cli.sweep_checks", lambda result: failing)
    code = main(["run", "fig2-sweep", "--out", str(tmp_path / "s"),
                 "--check"])
    assert code == 4
    assert "synthetic defect" in capsys.readouterr().err


def test_plot_contains_legend_labels(tmp_path):
    out = tmp_path / "s"
    main(["run", "fig2-sweep", "--out", str(out)])
    svg = (out / "plot.svg").read_text()
    for name in PRESETS["fig2-sweep"].plot_columns:
        assert name in svg


def per_cell_csv(columns) -> bytes:
    """The per-cell CSV writer that the bulk row format of the outputs replaced."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    names = list(columns)
    writer.writerow(names)
    for i in range(len(columns[names[0]])):
        writer.writerow([f"{float(columns[name][i]):.12g}" for name in names])
    return fh.getvalue().encode()


def per_point_polyline(xs, values, sx, sy) -> str:
    """The per-point polyline formatter that the array form replaced."""
    return " ".join(f"{sx(xv):.2f},{sy(float(yv)):.2f}"
                    for xv, yv in zip(xs, values)
                    if math.isfinite(float(yv)))


ODD_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300,
              -1e300, 5e-324, 0.1, -2.0 / 3.0, 123456789012.5, 2.0 ** 53 + 2]
ODD_TABLES = {
    "mixed": {"x": np.arange(len(ODD_VALUES), dtype=float),
              "odd": np.array(ODD_VALUES),
              "int": np.arange(len(ODD_VALUES)) * 1_000_003 - 7,
              "big_int": np.arange(len(ODD_VALUES)) + 2 ** 53 - 3,
              "float32": np.float32(ODD_VALUES[:3] + [1.1] * 10),
              "reversed": np.array(ODD_VALUES[::-1])},
    "integer": {"n": np.arange(5), "m": np.array([0, -1, 10 ** 12, 2 ** 53 + 1, 7]),
                "odd": np.array([-3, 4, 5, 6, 7])},
}


@pytest.mark.parametrize("table", list(ODD_TABLES))
def test_csv_matches_the_per_cell_writer(table, tmp_path):
    columns = ODD_TABLES[table]
    preset = SimpleNamespace(name="oracle", plot_columns=("odd",))
    fluctua.cli._write_outputs(tmp_path, preset, columns, {})
    assert (tmp_path / "results.csv").read_bytes() == per_cell_csv(columns)


def test_polyline_matches_the_per_point_formatter():
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(-3.0, 7.0, 300))
    series = {"odd": np.array((ODD_VALUES * 24)[:300]),
              "smooth": np.sin(xs) * 1e-3,
              "wide": rng.normal(size=300) * 10.0 ** rng.integers(-300, 290, 300)}
    series["smooth"][::9] = np.nan
    series["wide"][5::17] = -np.inf
    svg = line_chart(xs, series)
    # line_chart's screen transform for a chart without a title
    pool = [float(v) for values in series.values() for v in values if math.isfinite(v)]
    y_lo, y_hi = min(pool), max(pool)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(xs.min()), float(xs.max())
    plot_w = svgplot.WIDTH - svgplot.MARGIN_LEFT - svgplot.MARGIN_RIGHT
    plot_h = svgplot.HEIGHT - 18 - svgplot.MARGIN_BOTTOM

    def sx(v):
        return svgplot.MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return 18 + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    found = re.findall(r'<polyline points="([^"]*)"', svg)
    assert found == [per_point_polyline(xs.tolist(), values, sx, sy)
                     for values in series.values()]
    assert all(found)


def _run_in(directory: Path, argv, fresh: bool):
    """Exit code and output files of ``fluctua <argv>`` run in ``directory``,
    by ``cli.main`` in this process or by a new interpreter."""
    directory.mkdir(parents=True)
    if fresh:
        src = str(Path(fluctua.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = subprocess.run([sys.executable, "-m", "fluctua", *argv], cwd=directory,
                              env=env, capture_output=True, timeout=120).returncode
    else:
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            code = main(argv)
        finally:
            os.chdir(cwd)
    files = {path.relative_to(directory): path.read_bytes()
             for path in sorted(directory.rglob("*")) if path.is_file()}
    return code, files


SHOT_RUN = ["run", "fig2-sweep", "--shots", "2048", "--seed", "5", "--out", "res"]


@pytest.mark.parametrize("sequence", [
    [["run", "fig2-sweep", "--beta", "nan", "--out", "res"], SHOT_RUN],
    [[*SHOT_RUN, "--check"], SHOT_RUN],
], ids=["config-error-then-run", "check-then-no-check"])
def test_repeated_main_calls_match_fresh_processes(sequence, tmp_path):
    # the parser is built once per process; nothing of one call may leak
    # into the next
    in_process = [_run_in(tmp_path / f"in{i}", argv, fresh=False)
                  for i, argv in enumerate(sequence)]
    fresh = [_run_in(tmp_path / f"fresh{i}", argv, fresh=True)
             for i, argv in enumerate(sequence)]
    assert in_process == fresh
    assert [code for code, _ in fresh] == [2 if "nan" in argv else 0 for argv in sequence]
    assert fluctua.cli.build_parser() is fluctua.cli.build_parser()


def test_shot_check_builds_each_record_once(tmp_path, monkeypatch):
    # the self-check reads the model errors the sweep carries: one pair
    # spectrum and one ensemble per record serve the shots and the exact joints
    calls = {"setup": 0, "members": 0}
    real_setup, real_members = fluctua.models.spectral_decompose, fluctua.protocols._member_populations

    def setup(*args):
        calls["setup"] += 1
        return real_setup(*args)

    def members(*args):
        calls["members"] += 1
        return real_members(*args)

    monkeypatch.setattr("fluctua.models.spectral_decompose", setup)
    monkeypatch.setattr("fluctua.protocols._member_populations", members)
    assert main([*SHOT_RUN[:-1], str(tmp_path / "res"), "--check"]) == 0
    assert calls == {"setup": 1, "members": 3}


SWEEP, SERIES = "fig2-sweep", "figS2-jarzynski-closed"

# key: (preset, config-file value, where it must land, parsed value)
# where: a TwoQubitExperimentConfig ("sweep"), ThreeLevelConfig ("model")
# or InitialStateSpec ("state") field, or the sweep's generator seed
KEY_CASES = {
    "experiment": [(SWEEP, SWEEP, None, None), (SERIES, SERIES, None, None)],
    "out": [(SWEEP, "elsewhere", None, None), (SERIES, "elsewhere", None, None)],
    "seed": [(SWEEP, "9", ("gen", "seed"), 9),
             (SERIES, "5", ("state", "coherence_seed"), 5)],
    "shots": [(SWEEP, "16", ("sweep", "n_shots"), 16),
              (SERIES, "exact", None, None)],
    "beta": [(SWEEP, "0.7", ("sweep", "beta"), 0.7),
             (SERIES, "0.8", ("state", "beta_ref"), 0.8)],
    "theta0": [(SWEEP, "1.9", ("sweep", "theta0"), 1.9)],
    "theta_grid": [(SWEEP, "0, 0.5 1", ("sweep", "theta_grid"), (0.0, 0.5, 1.0))],
    "gamma": [(SERIES, "0.25", ("model", "gamma"), 0.25)],
    "beta1": [(SERIES, "2.5", ("model", "beta1"), 2.5)],
    "beta2": [(SERIES, "1.5", ("model", "beta2"), 1.5)],
    "beta3": [(SERIES, "0.5", ("model", "beta3"), 0.5)],
    "drive_amplitude": [(SERIES, "1.25", ("model", "drive_amplitude"), 1.25)],
    "drive_form": [(SERIES, "double_frequency", ("model", "drive_form"),
                    "double_frequency")],
    "t_max": [(SERIES, "3", ("model", "t_max"), 3.0)],
    "step": [(SERIES, "0.002", ("model", "step"), 0.002)],
    "occupation": [(SERIES, "as_printed", ("model", "occupation_convention"),
                    "as_printed")],
    "measurement": [(SERIES, "bare", ("model", "measurement_convention"), "bare")],
}


class _Stop(Exception):
    pass


def test_key_cases_cover_the_key_table():
    assert set(KEY_CASES) == set(fluctua.cli.RUN_KEYS)


@pytest.mark.parametrize("key", sorted(KEY_CASES))
def test_config_key_reaches_its_field(key, tmp_path, monkeypatch, capsys):
    seen = {}
    real_sweep = fluctua.cli.two_qubit_sweep

    def sweep(cfg, gen=None):
        seen.update(sweep=cfg, gen=gen)
        return real_sweep(cfg, gen=gen)

    def series(cfg, state):
        seen.update(model=cfg, state=state)
        raise _Stop

    monkeypatch.setattr("fluctua.cli.two_qubit_sweep", sweep)
    monkeypatch.setattr("fluctua.cli.three_level_experiment", series)
    monkeypatch.chdir(tmp_path)
    for preset, text, where, value in KEY_CASES[key]:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        argv = ["run", "--config", str(cfg)]
        if key != "experiment":
            argv.insert(1, preset)
        seen.clear()
        if preset == SWEEP:
            assert main(argv) == 0
        else:
            with pytest.raises(_Stop):
                main(argv)
        assert ("sweep" if preset == SWEEP else "model") in seen
        if where is not None:
            assert getattr(seen[where[0]], where[1]) == value
    if key == "out":
        assert (tmp_path / "elsewhere" / "results.csv").is_file()

    # a key of only one preset kind is refused by the other kind
    kinds = {preset for preset, *_ in KEY_CASES[key]}
    if kinds != {SWEEP, SERIES}:
        other = SERIES if kinds == {SWEEP} else SWEEP
        text = KEY_CASES[key][0][1]
        cfg.write_text(f"{key} = {text}\n")
        capsys.readouterr()
        assert main(["run", other, "--config", str(cfg)]) == 2
        assert f"{key}: only meaningful for the" in capsys.readouterr().err


def test_config_echo_holds_the_resolved_value_of_each_applicable_key(tmp_path):
    out = tmp_path / "s"
    assert main(["run", SWEEP, "--out", str(out)]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    sweep_keys = {k for k, spec in fluctua.cli.RUN_KEYS.items()
                  if "two_qubit" in spec.targets}
    assert set(config) == sweep_keys
    assert config["theta0"] == 2.0 and config["seed"] == 0
    assert config["shots"] is None and config["out"] == str(out)
    assert math.isclose(config["beta"], math.log(math.tan(1.0)), abs_tol=1e-12)


_SHORT = "t_max=2.0\nstep=0.005\n"


@pytest.mark.parametrize("argv, config_text, code", [
    ([SWEEP], None, 0),
    ([SWEEP, "--shots", "2048", "--seed", "5"], None, 0),
    ([SWEEP, "--shots", "2048", "--seed", "2135193589"], None, 4),
    (["figS2b-jarzynski-open"], _SHORT, 0),
    (["figS3-second-moment"], None, 0),
    (["figS3-second-moment"], _SHORT, 4),
], ids=["exact-sweep", "shot-sweep", "shot-sweep-alarm", "three-level",
        "figS3", "figS3-short"])
def test_check_verdict_is_the_summary_comparison(argv, config_text, code, tmp_path):
    args = ["run", *argv, "--out", str(tmp_path / "s"), "--check"]
    if config_text:
        (tmp_path / "run.cfg").write_text(config_text)
        args += ["--config", str(tmp_path / "run.cfg")]
    assert main(args) == code
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    results, tolerances = summary["results"], summary["tolerances"]
    directions = summary["tolerance_directions"]
    assert tolerances and set(tolerances) <= set(results)
    assert set(directions) == set(tolerances)
    held = [results[k] <= bound if directions[k] == "max" else results[k] >= bound
            for k, bound in tolerances.items()]
    assert code == (0 if all(held) else 4)
    assert set(directions.values()) <= {"max", "min"}
    if argv[0] == "figS3-second-moment":
        assert directions["peak_coherence_fraction"] == "min"
