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
import functools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acceptance import run_all, series_checks, sweep_checks
from .channels import DEFAULT_STEP, IntegrationFailure
from .models import (
    PRESETS,
    InconsistentConfig,
    InitialStateSpec,
    InvalidConfig,
    ThreeLevelConfig,
    TwoQubitExperimentConfig,
    three_level_experiment,
    two_qubit_sweep,
)
from .sampling import SeededGenerator
from .svgplot import line_chart

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4


class ConfigError(ValueError):
    """Malformed or inapplicable run configuration."""


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {value!r}") from None


def _parse_seed(key: str, value: str) -> int:
    seed = _parse_int(key, value)
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    return seed


def _parse_shots(key: str, value: str) -> int | None:
    """A positive shot count, or None for "exact"."""
    if value == "exact":
        return None
    count = _parse_int(key, value)
    if count <= 0:
        raise ConfigError("shots must be a positive integer or 'exact'")
    return count


def _parse_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{key} expects a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} expects a finite number, got {value!r}")
    return number


def _parse_str(key: str, value: str) -> str:
    return value


def _parse_grid(key: str, value: str) -> tuple[float, ...]:
    tokens = value.replace(",", " ").split()
    if not tokens:
        raise ConfigError(f"{key} needs at least one value")
    return tuple(_parse_float(key, tok) for tok in tokens)


@dataclass(frozen=True)
class _RunKey:
    """A run setting: its parser and, per preset kind it applies to, the
    (config class, field) it sets, or None when it sets no config field."""

    parse: Callable[[str, str], object]
    targets: dict[str, tuple[type, str] | None]


def _sweep(field: str) -> dict:
    return {"two_qubit": (TwoQubitExperimentConfig, field)}


def _model(field: str) -> dict:
    return {"three_level": (ThreeLevelConfig, field)}


_BOTH = {"two_qubit": None, "three_level": None}

# every key of a config file and of the run flags, in one table
RUN_KEYS = {
    "experiment": _RunKey(_parse_str, _BOTH),
    "out": _RunKey(_parse_str, _BOTH),
    "seed": _RunKey(_parse_seed, {
        "two_qubit": None,  # seeds the shot sampler
        "three_level": (InitialStateSpec, "coherence_seed")}),
    # shots=exact is accepted by the three-level presets too
    "shots": _RunKey(_parse_shots, {**_sweep("n_shots"), "three_level": None}),
    "beta": _RunKey(_parse_float, {**_sweep("beta"),
                                   "three_level": (InitialStateSpec, "beta_ref")}),
    "theta0": _RunKey(_parse_float, _sweep("theta0")),
    "theta_grid": _RunKey(_parse_grid, _sweep("theta_grid")),
    "gamma": _RunKey(_parse_float, _model("gamma")),
    "beta1": _RunKey(_parse_float, _model("beta1")),
    "beta2": _RunKey(_parse_float, _model("beta2")),
    "beta3": _RunKey(_parse_float, _model("beta3")),
    "drive_amplitude": _RunKey(_parse_float, _model("drive_amplitude")),
    "drive_form": _RunKey(_parse_str, _model("drive_form")),
    "t_max": _RunKey(_parse_float, _model("t_max")),
    "step": _RunKey(_parse_float, _model("step")),
    "occupation": _RunKey(_parse_str, _model("occupation_convention")),
    "measurement": _RunKey(_parse_str, _model("measurement_convention")),
}

# where a key of the other preset kind is meaningful, by preset kind
_ELSEWHERE = {"two_qubit": "driven three-level presets",
              "three_level": "qubit-pair sweep preset"}


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
        if key not in RUN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown configuration "
                              f"key {key!r}")
        data[key] = RUN_KEYS[key].parse(key, value)
    return data


def _merge_run_settings(args) -> dict:
    settings = _read_config_file(args.config) if args.config else {}
    for key, spec in RUN_KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = spec.parse(key, value)
    return settings


def _check_applicability(settings: dict, kind: str) -> None:
    stray = sorted(key for key in settings if kind not in RUN_KEYS[key].targets)
    if stray:
        raise ConfigError(f"{', '.join(stray)}: only meaningful for the "
                          f"{_ELSEWHERE[kind]}")
    if kind == "three_level" and settings.get("shots") is not None:
        raise ConfigError(
            "finite-shot sampling is only defined for the qubit-pair "
            "sweep preset; use shots=exact")


def _overrides(settings: dict, cls: type) -> dict:
    """The ``cls`` fields that the settings override."""
    return {target[1]: settings[key] for key, spec in RUN_KEYS.items()
            if key in settings for target in spec.targets.values()
            if target and target[0] is cls}


def _resolved_config(settings: dict, kind: str, configs) -> dict:
    """Each key that applies to ``kind``, read back from the configs it sets."""
    by_class = {type(cfg): cfg for cfg in configs}
    echo = {}
    for key, spec in RUN_KEYS.items():
        if kind in spec.targets:
            target = spec.targets[kind]
            echo[key] = (getattr(by_class[target[0]], target[1]) if target
                         else settings.get(key))
    return echo


def _write_outputs(out_dir: Path, preset, columns: dict, summary: dict) -> None:
    """Write results.csv, summary.json and plot.svg.  Only the CSV header goes
    through :mod:`csv`; each row is one ``%.12g`` format, ended by ``\r\n``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    row = ",".join(["%.12g"] * len(names)) + "\r\n"
    with open(out_dir / "results.csv", "w", newline="") as fh:
        csv.writer(fh).writerow(names)
        fh.writelines(row % tuple(cells) for cells
                      in np.column_stack(list(columns.values())).tolist())
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    series = {name: columns[name] for name in preset.plot_columns
              if name in columns}
    svg = line_chart(columns[names[0]], series, title=preset.name,
                     x_label=names[0])
    (out_dir / "plot.svg").write_text(svg)


def _run_two_qubit(preset, settings: dict):
    try:
        cfg = dataclasses.replace(preset.two_qubit, **_overrides(
            settings, TwoQubitExperimentConfig))
        theta0, beta = cfg.resolved()
    except (InconsistentConfig, InvalidConfig) as exc:
        raise ConfigError(str(exc)) from None
    result = two_qubit_sweep(cfg, gen=SeededGenerator(settings.setdefault("seed", 0)))
    results = {"epsilon": result.epsilon, "grid_points": len(result.columns["theta"])}
    return (result.columns, [dataclasses.replace(cfg, theta0=theta0, beta=beta)],
            results, sweep_checks(result))


def _run_three_level(preset, settings: dict):
    try:
        cfg = dataclasses.replace(preset.three_level,
                                  **_overrides(settings, ThreeLevelConfig))
    except (InvalidConfig, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    state = dataclasses.replace(preset.initial_state or InitialStateSpec(),
                                **_overrides(settings, InitialStateSpec))
    series = three_level_experiment(cfg, state)
    cols = series.columns
    results = {"omega1": cfg.omega1, "omega2": cfg.omega2, "omega3": cfg.omega3,
               "peak_coherence_fraction": float(cols["m2_coherence_fraction"].max()),
               "final_jarzynski_epm": float(cols["jarzynski_epm"][-1]),
               "final_entropy_gap_epm_tpm":
                   float(cols["entropy_epm"][-1] - cols["entropy_tpm"][-1])}
    return cols, [cfg, state], results, series_checks(series, preset.name)


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
    out_dir = Path(settings.setdefault("out", name))
    run = _run_two_qubit if preset.kind == "two_qubit" else _run_three_level
    columns, configs, results, checks = run(preset, settings)
    # every checked value is reported under results, its bound under
    # tolerances and the side it must stay on ("max" or "min") under
    # tolerance_directions, by the same name
    _write_outputs(out_dir, preset, columns, {
        "experiment": preset.name, "kind": preset.kind,
        "description": preset.description,
        "config": _resolved_config(settings, preset.kind, configs),
        "results": {**results, **{k: c.value for k, c in checks.items()}},
        "tolerances": {k: c.bound for k, c in checks.items()},
        "tolerance_directions": {k: c.direction for k, c in checks.items()},
        "columns": list(columns), "rows": len(columns[next(iter(columns))])})
    print(f"wrote {out_dir}/results.csv, summary.json, plot.svg")
    if args.check:
        failures = [c.failure() for c in checks.values() if not c.passed]
        for message in failures:
            print(f"self-check failed: {message}", file=sys.stderr)
        if failures:
            return EXIT_CHECK
        print("self-check passed")
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.step is not None and not 0.0 < args.step < math.inf:
        raise ConfigError(f"--step must be positive and finite, got {args.step}")
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


@functools.cache
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
    run_p.add_argument("--seed",
                       help="shot sampling seed, or the coherence seed of "
                            "the driven-system initial state")
    run_p.add_argument("--shots", metavar="N|exact",
                       help="finite-shot estimation with N samples per "
                            "grid point (sweep preset only)")
    run_p.add_argument("--beta",
                       help="inverse temperature of the initial state")
    run_p.add_argument("--theta0",
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
                         help="override the Magnus integrator step, and the "
                              "base of its halving measurement, in the "
                              f"integrator criterion (default {DEFAULT_STEP:g} and 0.05); "
                              "0.5 is coarse enough to fail it")
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
            FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
