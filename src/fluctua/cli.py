"""Command-line front end: run experiment presets and self-check the suite.

Three commands are exposed through the ``fluctua`` console script:

``run <preset> [flags]``
    Execute one named preset and write ``results.csv``, ``summary.json``
    and ``plot.svg`` into the output directory.  ``--check`` additionally
    validates the run against the preset's internal identities.

``check [--occupation ...] [--step X]``
    Run the full acceptance battery and print one line per criterion.

``list-presets``
    Show the available presets with a short description.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 failed self-check.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .acceptance import (
    CLOSED_FORM_TOL,
    COHERENCE_SHARE_MIN,
    TPM_IDENTITY_TOL,
    run_all,
)
from .channels import IntegrationFailure
from .models import (
    PRESETS,
    InconsistentConfig,
    InitialStateSpec,
    InvalidConfig,
    closed_form_characteristics,
    sweep_model_errors,
    three_level_experiment,
    two_qubit_sweep,
)
from .sampling import SeededGenerator
from .svgplot import line_chart

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4

SWEEP_TOLERANCES = {"tpm_identity": TPM_IDENTITY_TOL,
                    "closed_form": CLOSED_FORM_TOL, "split_identity": 1e-10}
SWEEP_SHOT_TOLERANCES = {"tpm_sigma": 5.0, "closed_form_sigma": 5.0}
SERIES_TOLERANCES = {"parts_sum": 1e-10}


class ConfigError(ValueError):
    """Malformed or inapplicable run configuration."""


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {value!r}") from None


def _parse_str(key: str, value: str) -> str:
    return value


def _parse_grid(key: str, value: str) -> tuple[float, ...]:
    tokens = value.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"{key} needs at least one value")
    try:
        return tuple(float(tok) for tok in tokens)
    except ValueError:
        raise ConfigError(f"{key} expects numbers, got {value!r}") from None


_KEY_PARSERS = {
    "experiment": _parse_str,
    "out": _parse_str,
    "seed": _parse_int,
    "shots": _parse_str,
    "beta": _parse_float,
    "theta0": _parse_float,
    "theta_grid": _parse_grid,
    "gamma": _parse_float,
    "beta1": _parse_float,
    "beta2": _parse_float,
    "beta3": _parse_float,
    "drive_amplitude": _parse_float,
    "drive_form": _parse_str,
    "t_max": _parse_float,
    "step": _parse_float,
    "occupation": _parse_str,
    "measurement": _parse_str,
}

_TWO_QUBIT_ONLY = {"theta0", "theta_grid"}
_THREE_LEVEL_ONLY = {"gamma", "beta1", "beta2", "beta3", "drive_amplitude",
                     "drive_form", "t_max", "step", "occupation",
                     "measurement"}


def _read_config_file(path: str) -> dict:
    """Parse a flat key=value file; '#' starts a comment line."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    data: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, value = key.strip(), value.strip()
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown configuration "
                              f"key {key!r}")
        data[key] = _KEY_PARSERS[key](key, value)
    return data


def _merge_run_settings(args) -> dict:
    settings = _read_config_file(args.config) if args.config else {}
    for key in ("out", "seed", "shots", "beta", "theta0", "occupation",
                "measurement"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if args.experiment is not None:
        settings["experiment"] = args.experiment
    return settings


def _resolve_shots(settings: dict) -> int | None:
    raw = settings.get("shots")
    if raw is None or raw == "exact":
        return None
    count = _parse_int("shots", raw) if isinstance(raw, str) else raw
    if count <= 0:
        raise ConfigError("shots must be a positive integer or 'exact'")
    return count


def _check_applicability(settings: dict, kind: str) -> None:
    if kind == "two_qubit":
        stray = sorted(_THREE_LEVEL_ONLY & settings.keys())
        if stray:
            raise ConfigError(
                f"{', '.join(stray)}: only meaningful for the driven "
                "three-level presets")
    else:
        stray = sorted(_TWO_QUBIT_ONLY & settings.keys())
        if stray:
            raise ConfigError(
                f"{', '.join(stray)}: only meaningful for the qubit-pair "
                "sweep preset")
        if _resolve_shots(settings) is not None:
            raise ConfigError(
                "finite-shot sampling is only defined for the qubit-pair "
                "sweep preset; use shots=exact")
    seed = settings.get("seed")
    if seed is not None and seed < 0:
        raise ConfigError("seed must be non-negative")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj


def _write_outputs(out_dir: Path, columns: dict, summary: dict,
                   plot_title: str, x_name: str, plot_columns) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    n_rows = len(columns[names[0]])
    with open(out_dir / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(n_rows):
            writer.writerow([f"{float(columns[name][i]):.12g}"
                             for name in names])
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    series = {name: columns[name] for name in plot_columns if name in columns}
    svg = line_chart(columns[x_name], series, title=plot_title,
                     x_label=x_name)
    (out_dir / "plot.svg").write_text(svg)


def _sweep_self_check(result, model: dict[str, np.ndarray] | None) -> list[str]:
    """Identity and closed-form checks of a sweep; ``model`` holds the
    model standard errors of a shot-mode sweep (``None`` when exact)."""
    cols = result.columns
    fails = []
    closed = closed_form_characteristics(cols["theta"], result.beta, result.epsilon)
    if result.n_shots is None:
        dev_tpm = float(np.abs(cols["G_TPM"] - 1.0).max())
        if dev_tpm > SWEEP_TOLERANCES["tpm_identity"]:
            fails.append(f"max |G_TPM - 1| = {dev_tpm:.3e} exceeds "
                         f"{SWEEP_TOLERANCES['tpm_identity']:g}")
        dev_split = float(np.abs(cols["G_EPM_diag"] + cols["G_EPM_coh"]
                                 - cols["G_EPM"]).max())
        if dev_split > SWEEP_TOLERANCES["split_identity"]:
            fails.append(f"max split defect = {dev_split:.3e} exceeds "
                         f"{SWEEP_TOLERANCES['split_identity']:g}")
        dev_cf = max(float(np.abs(cols[name] - closed[name]).max())
                     for name in ("G_EPM", "G_EPM_diag", "G_EPM_coh"))
        if dev_cf > SWEEP_TOLERANCES["closed_form"]:
            fails.append(f"max closed-form deviation = {dev_cf:.3e} exceeds "
                         f"{SWEEP_TOLERANCES['closed_form']:g}")
    else:
        sigma = SWEEP_SHOT_TOLERANCES["tpm_sigma"]
        bad = np.abs(cols["G_TPM"] - 1.0) > sigma * model["G_TPM"] + 1e-12
        if bad.any():
            fails.append(f"{int(bad.sum())} grid points put G_TPM farther "
                         f"than {sigma:g} model standard errors from 1")
        sigma = SWEEP_SHOT_TOLERANCES["closed_form_sigma"]
        for name in ("G_EPM", "G_EPM_diag", "G_EPM_coh"):
            bad = (np.abs(cols[name] - closed[name])
                   > sigma * model[name] + 1e-12)
            if bad.any():
                fails.append(f"{int(bad.sum())} grid points put {name} "
                             f"farther than {sigma:g} model standard errors "
                             "from its closed form")
    return fails


def _series_self_check(series, preset_name: str) -> list[str]:
    cols = series.columns
    fails = []
    for name, values in cols.items():
        if not np.isfinite(values).all():
            fails.append(f"column {name} contains non-finite values")
    dev_jar = float(np.abs(cols["jarzynski_diagonal"]
                           + cols["jarzynski_coherence"]
                           - cols["jarzynski_epm"]).max())
    if dev_jar > SERIES_TOLERANCES["parts_sum"]:
        fails.append(f"exponential-average parts miss their total by "
                     f"{dev_jar:.3e} (tolerance "
                     f"{SERIES_TOLERANCES['parts_sum']:g})")
    dev_m2 = float(np.abs(cols["m2_population"] + cols["m2_coherence"]
                          - cols["m2_epm"]).max())
    if dev_m2 > SERIES_TOLERANCES["parts_sum"]:
        fails.append(f"second-moment parts miss their total by "
                     f"{dev_m2:.3e} (tolerance "
                     f"{SERIES_TOLERANCES['parts_sum']:g})")
    if preset_name == "figS3-second-moment":
        peak = float(cols["m2_coherence_fraction"].max())
        if peak < COHERENCE_SHARE_MIN:
            fails.append(f"peak coherence share {peak:.4f} is below "
                         f"{COHERENCE_SHARE_MIN:g}")
    return fails


def _run_two_qubit(preset, settings: dict, out_dir: Path) -> list[str]:
    base = preset.two_qubit
    n_shots = _resolve_shots(settings)
    seed = settings.get("seed", 0)
    try:
        cfg = dataclasses.replace(
            base,
            theta0=settings.get("theta0", base.theta0),
            beta=settings.get("beta", base.beta),
            theta_grid=tuple(settings.get("theta_grid", base.theta_grid)),
            n_shots=n_shots)
        theta0, beta = cfg.resolved()
    except (InconsistentConfig, InvalidConfig) as exc:
        raise ConfigError(str(exc)) from None
    result = two_qubit_sweep(cfg, gen=SeededGenerator(seed))
    cols = result.columns
    model = None

    results = {"theta0": theta0, "beta": beta, "epsilon": result.epsilon,
               "grid_points": len(cols["theta"]),
               "max_abs_G_TPM_minus_1": float(np.abs(cols["G_TPM"] - 1).max())}
    if n_shots is None:
        closed = closed_form_characteristics(cols["theta"], beta,
                                             result.epsilon)["G_EPM"]
        results["max_closed_form_deviation"] = \
            float(np.abs(cols["G_EPM"] - closed).max())
        tolerances = dict(SWEEP_TOLERANCES)
    else:
        results["n_shots"] = n_shots
        results["seed"] = seed
        # the estimates are compared with known values, so their distance
        # is measured in the standard errors of the exact distributions the
        # shots are drawn from, not in the errors estimated from the shots;
        # the self-check below uses the same errors
        model = sweep_model_errors(cfg)
        se = model["G_TPM"]
        mask = se > 0
        results["max_sigma_distance_tpm"] = float(
            (np.abs(cols["G_TPM"] - 1)[mask] / se[mask]).max()) \
            if mask.any() else 0.0
        tolerances = dict(SWEEP_SHOT_TOLERANCES)

    summary = {"experiment": preset.name, "kind": preset.kind,
               "description": preset.description,
               "config": {k: settings.get(k) for k in _KEY_PARSERS},
               "results": results, "tolerances": tolerances,
               "columns": result.column_names(),
               "rows": len(cols["theta"])}
    _write_outputs(out_dir, cols, summary, preset.name, "theta",
                   preset.plot_columns)
    return _sweep_self_check(result, model)


def _run_three_level(preset, settings: dict, out_dir: Path) -> list[str]:
    overrides = {}
    for key, field in (("gamma", "gamma"), ("beta1", "beta1"),
                       ("beta2", "beta2"), ("beta3", "beta3"),
                       ("drive_amplitude", "drive_amplitude"),
                       ("drive_form", "drive_form"), ("t_max", "t_max"),
                       ("step", "step"),
                       ("occupation", "occupation_convention"),
                       ("measurement", "measurement_convention")):
        if key in settings:
            overrides[field] = settings[key]
    try:
        cfg = dataclasses.replace(preset.three_level, **overrides)
    except (InvalidConfig, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    state = preset.initial_state or InitialStateSpec()
    if "beta" in settings:
        state = dataclasses.replace(state, beta_ref=settings["beta"])
    if "seed" in settings:
        state = dataclasses.replace(state, coherence_seed=settings["seed"])
    series = three_level_experiment(cfg, state)
    cols = series.columns

    results = {"beta_ref": series.beta_ref, "gamma": cfg.gamma,
               "omega1": cfg.omega1, "omega2": cfg.omega2,
               "omega3": cfg.omega3,
               "drive_amplitude": cfg.drive_amplitude,
               "drive_form": cfg.drive_form, "t_max": cfg.t_max,
               "step": cfg.step,
               "occupation_convention": cfg.occupation_convention,
               "measurement_convention": cfg.measurement_convention,
               "coherence_seed": state.coherence_seed,
               "peak_coherence_fraction":
                   float(cols["m2_coherence_fraction"].max()),
               "final_jarzynski_epm": float(cols["jarzynski_epm"][-1]),
               "final_entropy_gap_epm_tpm":
                   float(cols["entropy_epm"][-1] - cols["entropy_tpm"][-1]),
               "max_parts_defect_jarzynski":
                   float(np.abs(cols["jarzynski_diagonal"]
                                + cols["jarzynski_coherence"]
                                - cols["jarzynski_epm"]).max()),
               "max_parts_defect_m2":
                   float(np.abs(cols["m2_population"] + cols["m2_coherence"]
                                - cols["m2_epm"]).max())}
    tolerances = dict(SERIES_TOLERANCES)
    if preset.name == "figS3-second-moment":
        tolerances["coherence_share_min"] = COHERENCE_SHARE_MIN

    summary = {"experiment": preset.name, "kind": preset.kind,
               "description": preset.description,
               "config": {k: settings.get(k) for k in _KEY_PARSERS},
               "results": results, "tolerances": tolerances,
               "columns": series.column_names(),
               "rows": len(series.times)}
    _write_outputs(out_dir, cols, summary, preset.name, "t",
                   preset.plot_columns)
    return _series_self_check(series, preset.name)


def _cmd_run(args) -> int:
    settings = _merge_run_settings(args)
    name = settings.get("experiment")
    if not name:
        raise ConfigError("no experiment named; pass a preset name or set "
                          "experiment= in the config file")
    preset = PRESETS.get(name)
    if preset is None:
        raise ConfigError(f"unknown preset {name!r}; valid presets: "
                          + ", ".join(sorted(PRESETS)))
    _check_applicability(settings, preset.kind)
    out_dir = Path(settings.get("out", name))
    if preset.kind == "two_qubit":
        failures = _run_two_qubit(preset, settings, out_dir)
    else:
        failures = _run_three_level(preset, settings, out_dir)
    print(f"wrote {out_dir}/results.csv, summary.json, plot.svg")
    if args.check:
        if failures:
            for message in failures:
                print(f"self-check failed: {message}", file=sys.stderr)
            return EXIT_CHECK
        print("self-check passed")
    return EXIT_OK


def _cmd_check(args) -> int:
    results = run_all(occupation=args.occupation, integrator_step=args.step)
    for r in results:
        print(f"{r.status:<4} {r.name:<28} {r.detail}")
    n_fail = sum(1 for r in results if r.passed is False)
    n_skip = sum(1 for r in results if r.passed is None)
    n_pass = len(results) - n_fail - n_skip
    print(f"{n_pass} passed, {n_fail} failed, {n_skip} skipped")
    return EXIT_CHECK if n_fail else EXIT_OK


def _cmd_list_presets(args) -> int:
    for preset in PRESETS.values():
        print(f"{preset.name:<26} {preset.kind:<12} {preset.description}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluctua",
        description="Energy-statistics experiments for small open and "
                    "driven quantum systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a named experiment preset")
    run_p.add_argument("experiment", nargs="?", metavar="PRESET",
                       help="preset name; see list-presets")
    run_p.add_argument("--config", metavar="FILE",
                       help="flat key=value file; flags override its values")
    run_p.add_argument("--out", metavar="DIR",
                       help="output directory (default: ./PRESET)")
    run_p.add_argument("--seed", type=int,
                       help="shot sampling seed, or the coherence seed of "
                            "the driven-system initial state")
    run_p.add_argument("--shots", metavar="N|exact",
                       help="finite-shot estimation with N samples per "
                            "grid point (sweep preset only)")
    run_p.add_argument("--beta", type=float,
                       help="inverse temperature of the initial state")
    run_p.add_argument("--theta0", type=float,
                       help="initial qubit rotation angle (sweep preset)")
    run_p.add_argument("--occupation", choices=("bose", "as_printed"),
                       help="bath occupation convention (three-level)")
    run_p.add_argument("--measurement", choices=("full", "bare"),
                       help="measure the driven or the static Hamiltonian")
    run_p.add_argument("--check", action="store_true",
                       help="validate the run against internal identities")
    run_p.set_defaults(func=_cmd_run)

    check_p = sub.add_parser(
        "check", help="run the acceptance battery and report per criterion")
    check_p.add_argument("--occupation", choices=("bose", "as_printed"),
                         default="bose",
                         help="occupation convention for the relaxation "
                              "criterion (as_printed skips it)")
    check_p.add_argument("--step", type=float,
                         help="override the integrator step used by the "
                              "integrator criterion")
    check_p.set_defaults(func=_cmd_check)

    list_p = sub.add_parser("list-presets", help="show available presets")
    list_p.set_defaults(func=_cmd_list_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationFailure, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
