"""The three benchmark workloads.

Each workload turns the workload seed into a deterministic stream of
items; item ``k`` depends only on ``(seed, k)``.  A workload exposes

* ``prepare(k)``: build the inputs of item ``k`` (not timed);
* ``execute(item)``: the calls into fluctua that make up the item (timed);
* ``verify(item, result)``: correctness checks, returning failure messages
  (not timed);
* ``output(item, result)``: the bytes that must not change when the run
  is traced;
* ``cleanup(item)``: remove anything ``prepare`` or ``execute`` wrote.

The package itself only ever sees what ``prepare`` derived from the seed.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import math
import shutil
from pathlib import Path

import numpy as np

from fluctua import cli, models, protocols, qcore
from fluctua.channels import SuperoperatorChannel, UnitaryChannel
from fluctua.models import PRESETS
from run import DEFAULT_SEED
from tracing import rk4_steps

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The open-series references were written with ``capture_reference.py`` at
# the commit that introduced this benchmark, for the first REFERENCE_ITEMS
# items of the default seed.  results.csv prints 12 significant digits, so a
# change of the arithmetic that leaves the mathematics alone shows up as a
# few units in the last printed digit.  Measured on those items with two
# such RK4 variants in place of the stock one: a re-associated ``rhs`` and
# update gave at most 1e-13 absolute and 9e-12 relative deviation, and RK4
# on the d^2 x d^2 Lindblad superoperator gave at most 1e-11 absolute and
# 1e-11 relative.  The largest deviation was 3.2e-4 of the tolerance below,
# a margin of 3000.  A change a plot could show (1e-4) or a flipped
# eigenvector gauge (changes of order 0.1) fails it, as does a 1e-7 change
# to the drive.
REFERENCE_ITEMS = 6
REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-8

# Identity tolerance for the instance-scan checks, relative to max(1, |value|).
# Joints are clamped at -1e-12 and renormalized, and the exponential weights
# exp(beta*|dE|) stay below ~1e3 for the drawn spectra and beta <= 1.
IDENTITY_TOL = 1e-9


def _item_rng(seed: int, k: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, k, *extra])


def read_csv_table(data: bytes) -> tuple[list[str], np.ndarray]:
    lines = data.decode().strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def compare_tables(got: bytes, ref: bytes) -> list[str]:
    """Messages for every way ``got`` misses the reference table."""
    header_g, g = read_csv_table(got)
    header_r, r = read_csv_table(ref)
    if header_g != header_r or g.shape != r.shape:
        return [f"results.csv layout {header_g} {g.shape} differs from the "
                f"reference {header_r} {r.shape}"]
    excess = np.abs(g - r) - (REFERENCE_ATOL + REFERENCE_RTOL * np.abs(r))
    if not (excess <= 0).all():
        i, j = np.unravel_index(np.argmax(excess), excess.shape)
        return [f"results.csv row {i} column {header_r[j]} = {g[i, j]!r} "
                f"misses the reference {r[i, j]!r}"]
    return []


class Workload:
    """Defaults shared by the workloads."""

    # Items per pass of a traced run.
    trace_items = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def cleanup(self, item: dict) -> None:
        pass

    def notes(self) -> list[str]:
        """Lines for the report."""
        return []

    def group(self, k: int) -> str | None:
        """The kind of item k, for a traced profile per kind."""
        return None

    def schedule_steps(self) -> int:
        """RK4 steps one item's propagator_series implies; 0 if it has none."""
        return 0


class CliWorkload(Workload):
    """Items are ``fluctua run <preset> ... --check`` calls through cli.main."""

    preset: str

    def flags(self, rng: np.random.Generator) -> list[str]:
        raise NotImplementedError

    def prepare(self, k: int, tag: str = "", rng=None) -> dict:
        out = self.scratch / f"item{k}{tag}"
        flags = self.flags(rng or _item_rng(self.seed, k))
        argv = ["run", self.preset, *flags, "--check", "--out", str(out)]
        return {"k": k, "argv": argv, "out": out}

    def execute(self, item: dict):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(item["argv"])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, stderr.getvalue()

    def verify(self, item: dict, result) -> list[str]:
        code, stderr = result
        if code != 0:
            return [f"exit code {code}: {stderr.strip()}"]
        return []

    def output(self, item: dict, result) -> bytes:
        return (item["out"] / "results.csv").read_bytes()

    def cleanup(self, item: dict) -> None:
        shutil.rmtree(item["out"], ignore_errors=True)


class OpenSeries(CliWorkload):
    """figS2b: the driven, dissipative three-level series, RK4 dominated."""

    preset = "figS2b-jarzynski-open"

    def flags(self, rng: np.random.Generator) -> list[str]:
        coherence_seed = int(rng.integers(0, 2**31))
        beta = float(rng.uniform(0.3, 1.2))
        return ["--seed", str(coherence_seed), "--beta", repr(beta)]

    def reference_path(self, k: int) -> Path:
        return REFERENCE_DIR / f"open-series-seed{self.seed}-item{k}.csv.gz"

    def verify(self, item: dict, result) -> list[str]:
        fails = super().verify(item, result)
        k = item["k"]
        if fails or self.seed != DEFAULT_SEED or k >= REFERENCE_ITEMS:
            return fails
        path = self.reference_path(k)
        if not path.is_file():
            return [f"reference {path.name} is missing"]
        return compare_tables(self.output(item, result),
                              gzip.decompress(path.read_bytes()))

    def warm_up(self) -> None:
        # A 0.3-time-unit window runs every code path of an item in ~0.1 s.
        item = self.prepare(0, "-warmup")
        item["out"].mkdir(parents=True)
        config = item["out"] / "warmup.cfg"
        config.write_text("t_max = 0.3\n")
        item["argv"][2:2] = ["--config", str(config)]
        self.execute(item)
        self.cleanup(item)

    def schedule_steps(self) -> int:
        # three_level_experiment samples 101 times on [0, t_max].
        cfg = PRESETS[self.preset].three_level
        return rk4_steps(0.0, np.linspace(0.0, cfg.t_max, 101), cfg.step)


class ShotSweep(CliWorkload):
    """fig2-sweep with 2048 shots: sampling and bootstrap, no integrator.

    The CLI's self-check puts each of the 63 estimates of a sweep within 5
    bootstrap standard errors of its closed form.  A run makes hundreds of
    sweeps, so deviations of 4.5 exact standard errors occur, and the
    bootstrap error, taken from the same sample, is smaller exactly when an
    estimate is low because heavily weighted outcomes came up rarely.  So
    the check fires on correct samples: 4 of 3000 drawn seeds at the commit
    that introduced this benchmark, about one 35-second run in three.  Such
    alarms are counted and shown but do not fail an item.  Instead every
    estimate must lie within ``EXACT_SIGMA`` standard errors of the exact
    distribution the shots are drawn from.  Over 600 seeds those z-scores
    had mean 0 and deviation 1 at every grid point; a mean of 2048 bounded
    draws is close to normal, so a correct sampler fails about once in 10^8
    estimates.
    """

    preset = "fig2-sweep"
    shots = 2048
    trace_items = 4
    EXACT_SIGMA = 6.0
    ALARM = "standard errors"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.alarms = 0
        self._exact = None

    def flags(self, rng: np.random.Generator) -> list[str]:
        return ["--shots", str(self.shots), "--seed", str(int(rng.integers(0, 2**31)))]

    def exact(self) -> dict[str, np.ndarray]:
        """Per grid point: (target, standard error) of each sampled column."""
        if self._exact is None:
            cfg = PRESETS[self.preset].two_qubit
            _, beta = cfg.resolved()
            spec = qcore.spectral_decompose(models.two_qubit_hamiltonian(cfg.epsilon))
            rho = models.two_qubit_initial_state(cfg)
            pops = qcore.dephase(rho)
            cols = {"G_TPM": [], "G_EPM": [], "G_EPM_diag": []}
            for theta in cfg.theta_grid:
                chan = UnitaryChannel(models.controlled_gate(-4.0 * theta,
                                                             cfg.phi, cfg.lam))
                closed = models.closed_form_characteristics(theta, beta, cfg.epsilon)
                for name, joint in (
                        ("G_TPM", protocols.tpm_joint(rho, chan, spec, spec)),
                        ("G_EPM", protocols.epm_joint(rho, chan, spec, spec)),
                        ("G_EPM_diag", protocols.epm_joint(pops, chan, spec, spec))):
                    w = np.exp(-beta * joint.delta_grid())
                    var = float(np.sum(joint.probs * w**2) - np.sum(joint.probs * w) ** 2)
                    cols[name].append((closed[name], math.sqrt(max(var, 0.0) / self.shots)))
            self._exact = {k: np.array(v) for k, v in cols.items()}
        return self._exact

    def verify(self, item: dict, result) -> list[str]:
        code, stderr = result
        lines = stderr.strip().splitlines()
        if code == 4 and lines and all(self.ALARM in line for line in lines):
            self.alarms += 1
        elif code != 0:
            return [f"exit code {code}: {stderr.strip()}"]
        header, table = read_csv_table(self.output(item, result))
        fails = []
        for name, ref in self.exact().items():
            est = table[:, header.index(name)]
            excess = np.abs(est - ref[:, 0]) - (self.EXACT_SIGMA * ref[:, 1] + 1e-9)
            if (excess > 0).any():
                i = int(np.argmax(excess))
                fails.append(f"{name} at grid point {i} = {est[i]!r} is more than "
                             f"{self.EXACT_SIGMA:g} exact standard errors "
                             f"({ref[i, 1]:.3g}) from {ref[i, 0]!r}")
        return fails

    def notes(self) -> list[str]:
        return [f"CLI 5-sigma self-check alarms (not failures): {self.alarms}"]

    def warm_up(self) -> None:
        for k in range(2):
            item = self.prepare(k, "-warmup", _item_rng(self.seed, k, 1))
            self.execute(item)
            self.cleanup(item)


# Dimension and purity of item k cycle through this pattern.  Half of the
# items are mixed d = 4 states and they fill the 25-75 % band of item times,
# so the median sits in the middle of one kind of item, far from the edges
# where a slower or faster moment of the machine would swap it for another
# kind.  The d = 9 items fill the top quarter, so they set the tail.
INSTANCE_PATTERN = ((2, True), (2, False), (3, True), (3, False),
                    *((4, False),) * 8, (9, True), (9, False), (9, True), (9, False))


def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_instance(rng: np.random.Generator, k: int) -> dict:
    """Random Hamiltonians, CPTP channel and Gibbs-diagonal state for item k."""
    d, pure = INSTANCE_PATTERN[k % len(INSTANCE_PATTERN)]
    beta = float(rng.uniform(0.2, 1.0))
    basis = _random_unitary(rng, d)
    energies = np.sort(rng.normal(size=d))
    h_i = (basis * energies) @ basis.conj().T
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h_f = (g + g.conj().T) / (2.0 * math.sqrt(d))
    # Kraus operators are the blocks of an isometry from QR, so sum K^dag K = 1.
    n_kraus = 2
    g = rng.normal(size=(n_kraus * d, d)) + 1j * rng.normal(size=(n_kraus * d, d))
    iso, _ = np.linalg.qr(g)
    kraus = iso.reshape(n_kraus, d, d)
    superop = sum(np.kron(op, op.conj()) for op in kraus)
    pops = np.exp(-beta * (energies - energies[0]))
    pops /= pops.sum()
    if pure:
        amps = np.sqrt(pops) * np.exp(2j * np.pi * rng.random(d))
        psi = basis @ amps
        rho = np.outer(psi, psi.conj())
    else:
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        chi = z + z.conj().T
        np.fill_diagonal(chi, 0.0)
        chi *= 0.5 * pops.min() / np.linalg.norm(chi, 2)
        rho = basis @ (np.diag(pops) + chi) @ basis.conj().T
    return {"k": k, "d": d, "pure": pure, "beta": beta, "h_i": h_i, "h_f": h_f,
            "basis": basis, "rho": rho, "channel": SuperoperatorChannel(superop)}


class InstanceScan(Workload):
    """Random small instances through the protocol layer, as a library user."""

    trace_items = len(INSTANCE_PATTERN)

    def prepare(self, k: int, tag: str = "") -> dict:
        return make_instance(_item_rng(self.seed, k), k)

    def execute(self, item: dict) -> dict:
        rho, chan, beta = item["rho"], item["channel"], item["beta"]
        spec_i = qcore.spectral_decompose(item["h_i"])
        spec_f = qcore.spectral_decompose(item["h_f"])
        out = {"spec_i": spec_i.energies, "spec_f": spec_f.energies}
        for name, build in (("EPM", protocols.epm_joint),
                            ("TPM", protocols.tpm_joint),
                            ("MLL", protocols.mll_joint)):
            joint = build(rho, chan, spec_i, spec_f)
            dist = protocols.delta_distribution(joint)
            out[name] = {
                "joint": joint,
                "delta": dist,
                "entropy": protocols.shannon_entropy(dist),
                "m2": protocols.moment(dist, 2),
                "g_op": protocols.characteristic_function(
                    name, rho, chan, spec_i, spec_f, 1j * beta),
                "g_joint": protocols.characteristic_of_distribution(joint, 1j * beta),
            }
        out["m2_epm_joint"] = protocols.moment(out["EPM"]["joint"], 2)
        out["jarzynski"] = protocols.jarzynski(rho, chan, spec_i, spec_f, beta,
                                               basis=item["basis"])
        out["split"] = protocols.epm_second_moment_split(rho, chan, spec_i, spec_f,
                                                         basis=item["basis"])
        tpm = out["TPM"]["joint"]
        product = protocols.JointEnergyDistribution(
            tpm.initial_energies, tpm.final_energies,
            np.outer(tpm.initial_marginal(), tpm.final_marginal()), "TPM")
        out["mutual_information"] = protocols.mutual_information(tpm, product)
        return out

    def verify(self, item: dict, out: dict) -> list[str]:
        fails = []

        def close(label, a, b):
            if not abs(a - b) <= IDENTITY_TOL * max(1.0, abs(a), abs(b)):
                fails.append(f"d={item['d']}: {label}: {a!r} vs {b!r}")

        for name in ("EPM", "TPM", "MLL"):
            close(f"{name} operator vs joint characteristic function",
                  out[name]["g_op"], out[name]["g_joint"])
        jar = out["jarzynski"]
        close("Jarzynski parts vs total",
              jar.diagonal_part + jar.coherence_part, jar.total)
        close("second-moment split total vs EPM moment",
              out["split"].total, out["m2_epm_joint"])
        if item["pure"]:
            gap = float(np.max(np.abs(out["EPM"]["joint"].probs
                                      - out["MLL"]["joint"].probs)))
            if not gap <= IDENTITY_TOL:
                fails.append(f"d={item['d']}: pure state EPM and MLL joints "
                             f"differ by {gap:.3e}")
        return fails

    def output(self, item: dict, out: dict) -> bytes:
        values = [out["spec_i"], out["spec_f"]]
        for name in ("EPM", "TPM", "MLL"):
            r = out[name]
            values += [r["joint"].probs.ravel(), r["delta"].values, r["delta"].probs,
                       [r["entropy"], r["m2"], r["g_op"].real, r["g_op"].imag,
                        r["g_joint"].real, r["g_joint"].imag]]
        jar, split = out["jarzynski"], out["split"]
        values.append([out["m2_epm_joint"], jar.delta_free_energy, jar.total,
                       jar.diagonal_part, jar.coherence_part, split.total,
                       split.population_part, split.coherence_part,
                       out["mutual_information"]])
        return np.concatenate([np.asarray(v, dtype=float).ravel()
                               for v in values]).tobytes()

    def group(self, k: int) -> str:
        return f"d={INSTANCE_PATTERN[k % len(INSTANCE_PATTERN)][0]}"

    def warm_up(self) -> None:
        for k in range(len(INSTANCE_PATTERN)):
            self.execute(make_instance(_item_rng(self.seed, k, 1), k))


WORKLOADS = {"open-series": OpenSeries, "shot-sweep": ShotSweep,
             "instance-scan": InstanceScan}
