"""Quantum channels and Lindblad time evolution.

A channel maps density operators to density operators.  Two concrete
kinds are provided:

* :class:`UnitaryChannel` conjugates by a fixed unitary,
* :class:`SuperoperatorChannel` applies a precomputed matrix to the
  vectorized state.

Vectorization is row-major throughout: ``vec(rho) = rho.reshape(d*d)``
stacks rows, so conjugation by a unitary U has superoperator
``kron(U, conj(U))`` and a map ``rho -> A rho B`` has ``kron(A, B.T)``.

A (possibly driven) Lindblad master equation is solved by
:func:`propagator_series`, which integrates the d^2 x d^2 propagator
with a fixed-step classic Runge-Kutta rule and returns superoperator
channels; :func:`propagate` applies its last snapshot to one state.
The integrator is deliberately fixed-step (no adaptivity) so runs are
bitwise reproducible; the step is an upper bound and each window is
subdivided uniformly.  Each accepted step projects the propagator onto
the Hermiticity-preserving maps, ``S <- (S + P conj(S) P)/2`` with P the
transpose permutation of vec indices, which removes the slow Hermiticity
drift of plain RK4 without touching the dynamics.  The trace of every
column is monitored each step and a drift beyond 1e-6 (or any NaN)
aborts the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qcore import (
    DimensionMismatch,
    NonHermitianInput,
    as_complex_matrix,
    assert_density_operator,
    hermitian_eig,
    is_hermitian,
)

__all__ = [
    "IntegrationFailure",
    "HamiltonianSchedule",
    "JumpOperatorSet",
    "Channel",
    "UnitaryChannel",
    "SuperoperatorChannel",
    "identity_channel",
    "lindblad_generator",
    "propagate",
    "propagator_series",
    "channel_as_superoperator",
    "check_cptp",
    "CPTPReport",
    "vec",
    "unvec",
]

TRACE_DRIFT_ABORT = 1e-6


class IntegrationFailure(RuntimeError):
    """The RK4 run produced NaNs or lost the trace."""


def vec(m: np.ndarray) -> np.ndarray:
    """Row-major vectorization (stack rows)."""
    return np.asarray(m, dtype=np.complex128).reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise DimensionMismatch(f"vector of length {v.size} is not a square matrix")
    return v.reshape(d, d)


@dataclass
class HamiltonianSchedule:
    """Time-dependent Hamiltonian h(t) = base + drive(t).

    ``drive`` maps a time to a Hermitian matrix (or is ``None`` for a
    static Hamiltonian).  ``t_initial``/``t_final`` delimit the window the
    schedule is meant to be integrated over.
    """

    base: np.ndarray
    drive: Callable[[float], np.ndarray] | None = None
    t_initial: float = 0.0
    t_final: float = 0.0

    def __post_init__(self):
        self.base = as_complex_matrix(self.base, "base Hamiltonian")
        if not is_hermitian(self.base):
            raise NonHermitianInput("base Hamiltonian is not Hermitian")

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def at(self, t: float) -> np.ndarray:
        if self.drive is None:
            return self.base
        return self.base + self.drive(t)


@dataclass
class JumpOperatorSet:
    """Lindblad jump operators with optional human-readable labels."""

    operators: list
    labels: list[str] | None = None

    def __post_init__(self):
        self.operators = [as_complex_matrix(op, "jump operator") for op in self.operators]
        dims = {op.shape[0] for op in self.operators}
        if len(dims) > 1:
            raise DimensionMismatch(f"jump operators of mixed dimensions {sorted(dims)}")
        if self.labels is not None and len(self.labels) != len(self.operators):
            raise ValueError("label count differs from operator count")

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)


def _as_operator_list(jump_operators) -> list:
    if jump_operators is None:
        return []
    if isinstance(jump_operators, JumpOperatorSet):
        return list(jump_operators.operators)
    return [as_complex_matrix(op, "jump operator") for op in jump_operators]


# ---------------------------------------------------------------------------
# Channel classes.


class Channel:
    """Common channel interface: a linear, trace-preserving state map."""

    dim: int

    def apply(self, rho) -> np.ndarray:
        """Apply to a density operator (validated)."""
        raise NotImplementedError

    def apply_matrix(self, m) -> np.ndarray:
        """Linear extension to arbitrary matrices (no state validation)."""
        raise NotImplementedError

    def as_superoperator(self) -> np.ndarray:
        """The d^2 x d^2 matrix acting on row-major vectorized states."""
        raise NotImplementedError


class UnitaryChannel(Channel):
    """rho -> U rho U^dag."""

    def __init__(self, unitary):
        u = as_complex_matrix(unitary, "unitary")
        d = u.shape[0]
        if float(np.max(np.abs(u.conj().T @ u - np.eye(d)))) > 1e-10:
            raise ValueError("matrix is not unitary")
        self.unitary = u
        self.dim = d

    def apply(self, rho) -> np.ndarray:
        r = assert_density_operator(rho)
        if r.shape[0] != self.dim:
            raise DimensionMismatch("state and channel dimensions differ")
        return self.unitary @ r @ self.unitary.conj().T

    def apply_matrix(self, m) -> np.ndarray:
        a = as_complex_matrix(m, "matrix")
        return self.unitary @ a @ self.unitary.conj().T

    def as_superoperator(self) -> np.ndarray:
        return np.kron(self.unitary, self.unitary.conj())


class SuperoperatorChannel(Channel):
    """A channel given directly by its vectorized-state matrix."""

    def __init__(self, superoperator):
        s = as_complex_matrix(superoperator, "superoperator")
        d = math.isqrt(s.shape[0])
        if d * d != s.shape[0]:
            raise DimensionMismatch("superoperator side is not a perfect square")
        self.superoperator = s
        self.dim = d

    def apply(self, rho) -> np.ndarray:
        r = assert_density_operator(rho)
        if r.shape[0] != self.dim:
            raise DimensionMismatch("state and channel dimensions differ")
        out = unvec(self.superoperator @ vec(r))
        return 0.5 * (out + out.conj().T)

    def apply_matrix(self, m) -> np.ndarray:
        a = as_complex_matrix(m, "matrix")
        return unvec(self.superoperator @ vec(a))

    def as_superoperator(self) -> np.ndarray:
        return self.superoperator


def identity_channel(dim: int) -> UnitaryChannel:
    return UnitaryChannel(np.eye(dim))


# ---------------------------------------------------------------------------
# Lindblad propagation.


def _hamiltonian_generator(h: np.ndarray) -> np.ndarray:
    """-i(kron(h, I) - kron(I, h.T)), built by broadcasting (np.kron is slower)."""
    d = h.shape[0]
    eye = np.eye(d)
    out = (h[:, None, :, None] * eye[None, :, None, :]
           - eye[:, None, :, None] * h.T[None, :, None, :])
    return -1j * out.reshape(d * d, d * d)


def _dissipator(ops: list, d: int) -> np.ndarray:
    eye = np.eye(d)
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    for L in ops:
        k = L.conj().T @ L
        out += np.kron(L, L.conj()) - 0.5 * (np.kron(k, eye) + np.kron(eye, k.T))
    return out


def lindblad_generator(hamiltonian, jump_operators) -> np.ndarray:
    """Superoperator of -i[H, rho] + sum_k (L rho L^dag - {L^dag L, rho}/2).

    The d^2 x d^2 matrix acts on row-major vectorized states, so
    ``vec(drho/dt) = lindblad_generator(H, ops) @ vec(rho)``.
    """
    h = as_complex_matrix(hamiltonian, "Hamiltonian")
    return _hamiltonian_generator(h) + _dissipator(_as_operator_list(jump_operators),
                                                   h.shape[0])


def propagator_series(schedule: HamiltonianSchedule, jump_operators, times,
                      step: float = 1e-3) -> list[SuperoperatorChannel]:
    """Propagators from the schedule start to each requested time.

    RK4 steps the propagator itself, dS/dt = L(t) S from S = identity,
    once and incrementally, so the cost is one pass over
    [t_initial, max(times)] regardless of how many snapshot times are
    requested.  Each window between consecutive times takes
    ceil(span/step) equal steps.  Times must be non-decreasing and lie
    inside the schedule window.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    ts = [float(t) for t in times]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("snapshot times must be non-decreasing")
    if ts and ts[0] < schedule.t_initial - 1e-12:
        raise ValueError("snapshot before the schedule start")
    if ts and ts[-1] > schedule.t_final + 1e-12:
        raise ValueError("snapshot after the schedule end")
    d = schedule.dim
    dissipator = _dissipator(_as_operator_list(jump_operators), d)

    def generator(t):
        return _hamiltonian_generator(schedule.at(t)) + dissipator

    diagonal = np.arange(d) * (d + 1)  # vec indices of the diagonal entries
    s = np.eye(d * d, dtype=np.complex128)
    out = []
    t0 = schedule.t_initial
    for t1 in ts:
        span = t1 - t0
        if span > 0:
            n_steps = max(1, math.ceil(span / step - 1e-12))
            h = span / n_steps
            tr0 = s[diagonal].sum(axis=0)
            for i in range(n_steps):
                t = t0 + i * h
                mid = generator(t + 0.5 * h)
                k1 = generator(t) @ s
                k2 = mid @ (s + (0.5 * h) * k1)
                k3 = mid @ (s + (0.5 * h) * k2)
                k4 = generator(t + h) @ (s + h * k3)
                s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                # S <- (S + P conj(S) P)/2: the map X -> S(X^dag)^dag, written
                # on the (row, column) indices of input and output
                flipped = s.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
                s = 0.5 * (s + flipped.conj())
                drift = np.max(np.abs(s[diagonal].sum(axis=0) - tr0))
                if not (drift <= TRACE_DRIFT_ABORT):
                    raise IntegrationFailure(
                        f"trace drift {drift:.3e} at t = {t + h:.6g} (step {h:.3g})")
            if np.isnan(s).any():
                raise IntegrationFailure("NaN in integrated propagator")
        t0 = t1
        out.append(SuperoperatorChannel(s))
    return out


def propagate(schedule: HamiltonianSchedule, jump_operators, rho0,
              step: float = 1e-3) -> np.ndarray:
    """Evolve a density operator over the schedule window with fixed-step RK4."""
    rho = assert_density_operator(rho0)
    if rho.shape[0] != schedule.dim:
        raise DimensionMismatch("state and schedule dimensions differ")
    final = propagator_series(schedule, jump_operators, [schedule.t_final], step)[0]
    return final.apply(rho)


def channel_as_superoperator(channel: Channel) -> SuperoperatorChannel:
    """Rewrite any channel as an explicit superoperator channel."""
    if isinstance(channel, SuperoperatorChannel):
        return channel
    return SuperoperatorChannel(channel.as_superoperator())


# ---------------------------------------------------------------------------
# CPTP diagnostics.


@dataclass
class CPTPReport:
    trace_preserving: bool
    choi_min_eig: float
    max_trace_defect: float = 0.0


def choi_matrix(superoperator: np.ndarray) -> np.ndarray:
    """Trace-normalized Choi matrix of a superoperator.

    Row-major vectorization means ``Phi[E_jk]_{mn} = S[(m,n),(j,k)]``; the
    Choi matrix collects these blocks as sum_jk E_jk (x) Phi[E_jk], here
    scaled by 1/d so a trace-preserving map gives trace one.
    """
    s = as_complex_matrix(superoperator, "superoperator")
    d = math.isqrt(s.shape[0])
    if d * d != s.shape[0]:
        raise DimensionMismatch("superoperator side is not a perfect square")
    c = s.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    return c / d


def check_cptp(channel_or_superoperator, tol: float = 1e-8) -> CPTPReport:
    """Trace preservation on matrix units plus Choi positivity.

    ``choi_min_eig`` is the smallest eigenvalue of the trace-normalized
    Choi matrix; complete positivity up to numerical noise means it is not
    meaningfully negative.
    """
    if isinstance(channel_or_superoperator, Channel):
        s = channel_or_superoperator.as_superoperator()
    else:
        s = as_complex_matrix(channel_or_superoperator, "superoperator")
    d = math.isqrt(s.shape[0])
    traces = np.einsum("mmjk->jk", s.reshape(d, d, d, d))
    defect = float(np.max(np.abs(traces - np.eye(d))))
    c = choi_matrix(s)
    if not is_hermitian(c, 1e-8):
        raise NonHermitianInput("Choi matrix is not Hermitian; map does not preserve Hermiticity")
    evals, _ = hermitian_eig(0.5 * (c + c.conj().T))
    return CPTPReport(trace_preserving=defect <= tol,
                      choi_min_eig=float(evals[0]),
                      max_trace_defect=defect)
