"""Benchmark of the fluctua package.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each run drives one workload (see ``workloads.py``) as a closed loop with
one client that runs one item at a time, with BLAS threads pinned to one.
Every item is checked for correctness.

With ``--trace 0`` the run reports the end-to-end metrics: the set-up time,
the median and tail item time, items per second, peak RSS and the share of
items that passed their checks.  With ``--trace 1`` it repeats passes over
the first few items, running each item once untraced and once traced, checks
that both give bitwise-identical outputs, and reports per-layer metrics per
pass (see ``tracing.py``).  Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and a readable table.  The exit code is 1 when any
check failed and 2 when the package cannot be found.
"""

import os

# Pinned before numpy loads; child processes inherit it.
PINNED_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 7
PERCENTILES = (50, 90, 95, 99, 99.9)

# The names the workloads' users know the end-to-end metrics by.
ALIASES = {
    "open-series": {"item_ms_p50": ("series_s", 1e-3, "s")},
    "shot-sweep": {"items_per_s": ("sweeps_per_s", 1.0, "1/s"),
                   "item_ms_p50": ("sweep_ms_p50", 1.0, "ms"),
                   "item_ms_tail": ("sweep_ms_tail", 1.0, "ms")},
    "instance-scan": {"items_per_s": ("instances_per_s", 1.0, "1/s"),
                      "item_ms_p50": ("instance_ms_p50", 1.0, "ms"),
                      "item_ms_tail": ("instance_ms_tail", 1.0, "ms")},
}


def import_package():
    """Put the checkout's src/ first on the path and import fluctua from it."""
    src = ROOT / "src"
    if not (src / "fluctua" / "__init__.py").is_file():
        print(f"error: {src / 'fluctua'} not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import fluctua
    if Path(fluctua.__file__).resolve().parent != src / "fluctua":
        print(f"error: imported fluctua from {fluctua.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def build(workload: str, seed: int, scratch: Path):
    """Everything a run does before its first item: imports and inputs."""
    import_package()
    from workloads import WORKLOADS
    wl = WORKLOADS[workload](seed, scratch)
    wl.cleanup(wl.prepare(0))
    return wl


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until its inputs are built."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def environment(args) -> dict:
    import numpy as np
    sha = None  # outside a git checkout source_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fluctua").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "pinned_threads": PINNED_THREADS, "machine": platform.machine(),
    }


def run_item(wl, k: int, tag: str = "", tracer=None, item_id=None) -> dict:
    """Prepare, time, check and clean up one item."""
    item = wl.prepare(k, tag)
    error = result = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.begin_item(item_id)
            tracer.install()
        start = time.perf_counter()
        try:
            result = wl.execute(item)
        except Exception as exc:  # a failing item is counted, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    fails = [error] if error else wl.verify(item, result)
    output = None if fails else wl.output(item, result)
    wl.cleanup(item)
    return {"elapsed": elapsed, "fails": fails, "output": output,
            "warnings": Counter(w.category.__name__ for w in caught)}


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 items beyond it.

    Nearest-rank percentiles; with fewer than 100 items none qualifies and
    the median is reported instead.
    """
    n = len(durations)
    best = max((p for p in PERCENTILES if n - math.ceil(p / 100 * n) >= 10),
               default=None)
    if best is None:
        return 50, statistics.median(durations)
    return best, sorted(durations)[math.ceil(best / 100 * n) - 1]


def untraced_run(args, wl) -> tuple[dict, int, int, list[str], list[str]]:
    setups = measure_setup(args.workload, args.seed)
    wl.warm_up()
    durations, failures, n_failed = [], [], 0
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() + statistics.fmean(durations) <= deadline:
        rec = run_item(wl, k)
        durations.append(rec["elapsed"])
        failures += [f"item {k}: {msg}" for msg in rec["fails"]]
        n_failed += bool(rec["fails"])
        k += 1
    pct, tail_s = tail(durations)
    metrics = {
        "setup_s": statistics.median(setups),
        "item_ms_p50": 1e3 * statistics.median(durations),
        "item_ms_tail": 1e3 * tail_s,
        "items_per_s": len(durations) / sum(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (len(durations) - n_failed) / len(durations),
    }
    notes = [f"items {len(durations)}, timed {sum(durations):.3f} s; tail is "
             f"p{pct:g} of {len(durations)} items",
             "setup runs (s): " + " ".join(f"{s:.4f}" for s in setups)]
    return metrics, len(durations), n_failed, failures, notes + wl.notes()


def traced_run(args, wl) -> tuple[dict, int, int, list[str], list[str]]:
    from tracing import FAILURES, LAYERS, WARNINGS, Tracer
    tracer = Tracer()
    wl.warm_up()
    plain_s = traced_s = 0.0
    attempted, n_failed, failures, warned = 0, 0, [], Counter()
    groups: dict[str, set] = {}
    passes = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        pass_start = time.perf_counter()
        for k in range(wl.trace_items):
            item_id = f"{passes}:{k}"
            plain = run_item(wl, k, "-plain")
            traced = run_item(wl, k, "-traced", tracer, item_id)
            groups.setdefault(wl.group(k), set()).add(item_id)
            attempted += 2
            plain_s += plain["elapsed"]
            traced_s += traced["elapsed"]
            warned += traced["warnings"]
            fails = plain["fails"] + traced["fails"]
            if plain["output"] != traced["output"]:
                fails.append("traced output differs from untraced")
            failures += [f"item {k}: {msg}" for msg in fails]
            n_failed += bool(fails)
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            break

    prof = tracer.profile()
    metrics = {}
    for layer, names in LAYERS.items():
        layer_self = 0.0
        for name in names:
            rec = prof.get(f"{layer}.{name}", {"calls": 0, "self_s": 0.0})
            metrics[f"{layer}.{name}.calls"] = rec["calls"] / passes
            metrics[f"{layer}.{name}.self_s"] = rec["self_s"] / passes
            layer_self += rec["self_s"]
        metrics[f"{layer}.self_s"] = layer_self / passes
        metrics[f"{layer}.share"] = layer_self / traced_s
    series = prof.get("channels.propagator_series", {"calls": 0, "total_s": 0.0})
    metrics["channels.steps"] = tracer.series_steps / passes
    metrics["channels.step_us"] = (1e6 * series["total_s"] / tracer.series_steps
                                   if tracer.series_steps else 0.0)
    metrics["qcore.hermitian_eig.repeat_ratio"] = (
        tracer.eig_repeats / tracer.eig_calls if tracer.eig_calls else 0.0)
    for name in WARNINGS:
        metrics[f"warn.{name}"] = warned[name] / passes
    for name in FAILURES:
        metrics[f"fail.{name}"] = tracer.failures[name] / passes
    metrics["trace.overhead_ratio"] = traced_s / plain_s

    # Bypass predictions, as exact counts: one series per item on the
    # workload that integrates, none elsewhere, and the RK4 steps seen at
    # the propagator_series boundary equal to those the preset's schedule
    # implies.
    per_item = wl.schedule_steps()
    want_calls = wl.trace_items * passes if per_item else 0
    if series["calls"] != want_calls:
        failures.append(f"propagator_series called {series['calls']} times, "
                        f"expected {want_calls}")
    if tracer.series_steps != per_item * want_calls:
        failures.append(f"traced series imply {tracer.series_steps} RK4 steps, "
                        f"the schedule {per_item * want_calls}")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(spans_path)
    notes = [f"{passes} pass(es) over {wl.trace_items} item(s); spans in {spans_path}"]
    for group, items in groups.items():
        top = sorted(tracer.profile(items).items(), key=lambda kv: -kv[1]["self_s"])
        notes.append(f"top self time per pass{'' if group is None else ' on ' + group}: "
                     + ", ".join(f"{name} {rec['self_s'] / passes:.4f} s"
                                 for name, rec in top[:5]))
    return metrics, attempted, n_failed, failures, notes + wl.notes()


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.setup_probe:
        build(args.workload, args.seed, OUT)
        print(time.monotonic())
        return 0

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        wl = build(args.workload, args.seed, scratch)
        run = traced_run if args.trace else untraced_run
        metrics, attempted, n_failed, failures, notes = run(args, wl)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit("error: computed metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    for note in notes:
        print("# " + note)
    for failure in failures:
        print("FAILED " + failure)
    for m in declared:
        print(f"{m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        for name, (alias, scale, unit) in ALIASES[args.workload].items():
            print(f"{alias:<48} {metrics[name] * scale:>14.6g} {unit}")
        print(f"{'fail_ratio':<48} {1.0 - metrics['pass_ratio']:>14.6g} ratio")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": n_failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
