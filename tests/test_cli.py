"""End-to-end checks of the command-line interface."""

import json
import math
import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

import fluctua
from fluctua.acceptance import CriterionResult
from fluctua.channels import IntegrationFailure
from fluctua.cli import main
from fluctua.models import SWEEP_COLUMNS, THREE_LEVEL_COLUMNS, PRESETS
from fluctua.models import closed_form_characteristics
from fluctua.qcore import dephase


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


def test_run_exact_sweep_outputs(tmp_path):
    out = tmp_path / "sweep"
    assert main(["run", "fig2-sweep", "--out", str(out)]) == 0
    header, rows = read_csv(out / "results.csv")
    assert header == ["theta", *SWEEP_COLUMNS]
    assert len(rows) == 21
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rows"] == 21
    assert summary["experiment"] == "fig2-sweep"
    assert math.isclose(summary["results"]["beta"], math.log(math.tan(1.0)),
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
    assert summary["results"]["t_max"] == 2.0
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
    assert summary["results"]["beta_ref"] == 0.8


def test_config_file_values_and_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment=fig2-sweep\nbeta=0.7\n"
                   f"out={tmp_path / 'a'}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["results"]["beta"] == 0.7
    assert main(["run", "--config", str(cfg), "--beta", "0.9",
                 "--out", str(tmp_path / "b")]) == 0
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert summary["results"]["beta"] == 0.9


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


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise IntegrationFailure("trace drift 2.0e-03 at t = 4")
    monkeypatch.setattr("fluctua.cli.three_level_experiment", boom)
    code = main(["run", "figS4-entropy", "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


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
    real = fluctua.cli._sweep_self_check

    def spy(result, model):
        seen.update(result=result, model=model)
        return real(result, model)

    monkeypatch.setattr("fluctua.cli._sweep_self_check", spy)
    code = main(["run", "fig2-sweep", "--shots", "2048", "--seed", "5",
                 "--out", str(tmp_path / "s"), "--check"])
    assert code == 0
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    se = seen["model"]["G_TPM"]
    z = np.abs(seen["result"].columns["G_TPM"] - 1.0)[se > 0] / se[se > 0]
    assert summary["results"]["max_sigma_distance_tpm"] == z.max()
    assert z.max() < summary["tolerances"]["tpm_sigma"]


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
    monkeypatch.setattr("fluctua.cli._sweep_self_check",
                        lambda result, model: ["synthetic defect"])
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
