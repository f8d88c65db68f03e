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
subdivided uniformly.  The drive is affine, H(t) = H0 + sum_j e_j(t) V_j,
so L(t) = L0 + D + sum_j e_j(t) L_j from pieces built once per run.
Every Lindblad generator maps Hermitian matrices to Hermitian matrices,
so in an orthonormal basis of Hermitian matrices it is a real matrix:
the pieces are rewritten in that basis once, and the whole integration
runs in float64.  One RK4 step of dS/dt = L(t) S is a product S <- M S
with a step map M built from the generators at the step's start,
midpoint and end.  The maps are built a block at a time from one array
call of the envelopes, each block's stack bounded by
:data:`BLOCK_BYTES` (so memory does not grow with the window), and a
prefix scan turns each block into its propagators.  A real propagator
preserves Hermiticity by construction, so no step is projected; a trace
drift beyond 1e-6 (or any NaN) at any step aborts the run.  The
snapshots return to the row-major vec basis in one batched product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
# Bytes of one block's (n, d^2, d^2) float64 stack of RK4 step maps: 50 steps
# at d = 3, 256 at d = 2.
BLOCK_BYTES = 32 * 1024


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
    """Time-dependent Hamiltonian H(t) = base + sum_j e_j(t) V_j.

    The drive is affine: fixed Hermitian ``couplings`` V_j (kept as a
    (J, d, d) array) scaled by real envelopes e_j.  ``envelopes`` maps an
    array of T times to the (J, T) array of envelope values, so the
    integrator reads a whole block of times in one call; a static
    Hamiltonian has no couplings (J = 0).
    ``t_initial``/``t_final`` delimit the window the schedule is meant to
    be integrated over.
    """

    base: np.ndarray
    couplings: Sequence = ()
    envelopes: Callable[[np.ndarray], np.ndarray] = lambda t: np.zeros((0, t.size))
    t_initial: float = 0.0
    t_final: float = 0.0

    def __post_init__(self):
        self.base = as_complex_matrix(self.base, "base Hamiltonian")
        if not is_hermitian(self.base):
            raise NonHermitianInput("base Hamiltonian is not Hermitian")
        d = self.dim
        couplings = [as_complex_matrix(v, "coupling") for v in self.couplings]
        if any(v.shape != (d, d) for v in couplings):
            raise DimensionMismatch(f"couplings must be {d} x {d} like the base")
        if not all(is_hermitian(v) for v in couplings):
            raise NonHermitianInput("coupling is not Hermitian")
        self.couplings = np.array(couplings, dtype=np.complex128).reshape(-1, d, d)
        # probed here so a malformed envelope fails at construction; J + 1
        # times make a (T, J) transposed output differ from (J, T)
        self.envelope_values(np.linspace(self.t_initial, self.t_final,
                                         len(self.couplings) + 1))

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    def envelope_values(self, times: np.ndarray) -> np.ndarray:
        """The (J, T) envelope values at an array of T times."""
        e = np.asarray(self.envelopes(times))
        if e.shape != (len(self.couplings), times.size):
            raise DimensionMismatch(f"envelopes gave shape {e.shape}, not "
                                    f"{(len(self.couplings), times.size)}")
        if np.iscomplexobj(e):
            raise NonHermitianInput("envelopes must be real")
        return e.astype(float, copy=False)

    def at(self, t) -> np.ndarray:
        """H(t) at one time, or the (T, d, d) stack at an array of T times."""
        ts = np.asarray(t, dtype=float)
        e = self.envelope_values(ts.reshape(-1))
        h = self.base + np.tensordot(e.T, self.couplings, axes=1)
        return h if ts.ndim else h[0]


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
    return [as_complex_matrix(op, "jump operator") for op in jump_operators]


# ---------------------------------------------------------------------------
# Channel classes.


def _matrix_stack(m, dim: int) -> np.ndarray:
    """Coerce to complex128 d x d matrices, one or stacked as (..., d, d)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.shape[-2:] != (dim, dim):
        raise DimensionMismatch(f"matrix shape {a.shape} does not end in ({dim}, {dim})")
    return a


class Channel:
    """Common channel interface: a linear, trace-preserving state map."""

    dim: int

    def apply(self, rho) -> np.ndarray:
        """Apply to a density operator (validated)."""
        raise NotImplementedError

    def apply_matrix(self, m) -> np.ndarray:
        """Linear extension to arbitrary matrices (no state validation).

        ``m`` is one d x d matrix or a stack ``(..., d, d)``; each matrix of
        the stack is mapped.  A channel holding a batch of T channels
        returns a leading T axis.
        """
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
        a = _matrix_stack(m, self.dim)
        return self.unitary @ a @ self.unitary.conj().T

    def as_superoperator(self) -> np.ndarray:
        return np.kron(self.unitary, self.unitary.conj())


class SuperoperatorChannel(Channel):
    """A channel given directly by its vectorized-state matrix.

    A (T, d^2, d^2) stack of superoperators is a batch of T channels:
    ``apply`` and ``apply_matrix`` map their input through every member
    in one product and return a leading T axis.
    """

    def __init__(self, superoperator):
        s = as_complex_matrix(superoperator, "superoperator", stack=True)
        d = math.isqrt(s.shape[-1])
        if d * d != s.shape[-1]:
            raise DimensionMismatch("superoperator side is not a perfect square")
        self.superoperator = s
        self.dim = d

    def apply(self, rho) -> np.ndarray:
        r = assert_density_operator(rho)
        if r.shape[0] != self.dim:
            raise DimensionMismatch("state and channel dimensions differ")
        out = (self.superoperator @ vec(r)).reshape(*self.superoperator.shape[:-2],
                                                    self.dim, self.dim)
        return 0.5 * (out + out.swapaxes(-1, -2).conj())

    def apply_matrix(self, m) -> np.ndarray:
        a = _matrix_stack(m, self.dim)
        batch = self.superoperator.shape[:-2]
        # a batch axis of its own in front of the input's axes
        s = self.superoperator.reshape(batch + (1,) * (a.ndim - 2)
                                       + self.superoperator.shape[-2:])
        # each matrix as a vec column, so one matrix takes the same product as apply
        out = s @ a.reshape(*a.shape[:-2], self.dim ** 2, 1)
        return out.reshape(batch + a.shape)

    def as_superoperator(self) -> np.ndarray:
        return self.superoperator


def identity_channel(dim: int) -> UnitaryChannel:
    return UnitaryChannel(np.eye(dim))


# ---------------------------------------------------------------------------
# Lindblad propagation.


def _hamiltonian_generator(h: np.ndarray) -> np.ndarray:
    """-i(kron(h, I) - kron(I, h.T)) for h or each h of a stack (..., d, d).

    Built by broadcasting (np.kron is slower); the result is (..., d^2, d^2).
    """
    d = h.shape[-1]
    eye = np.eye(d)
    out = (h[..., :, None, :, None] * eye[None, :, None, :]
           - eye[:, None, :, None] * np.swapaxes(h, -1, -2)[..., None, :, None, :])
    return -1j * out.reshape(*h.shape[:-2], d * d, d * d)


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


def _hermitian_basis(d: int) -> np.ndarray:
    """Unitary whose columns are row-major vecs of an orthonormal Hermitian basis.

    The basis is the E_jj, then (E_jk + E_kj)/sqrt(2) and
    i(E_jk - E_kj)/sqrt(2) for each j < k.  A map that preserves
    Hermiticity has a real matrix U^dag S U in it, and the trace of a
    matrix is the sum of its first d coordinates.
    """
    u = np.zeros((d, d, d * d), dtype=np.complex128)
    u[range(d), range(d), range(d)] = 1.0
    j, k = np.triu_indices(d, 1)
    sym = d + 2 * np.arange(j.size)
    u[j, k, sym] = u[k, j, sym] = math.sqrt(0.5)
    u[j, k, sym + 1] = 1j * math.sqrt(0.5)
    u[k, j, sym + 1] = -1j * math.sqrt(0.5)
    return u.reshape(d * d, d * d)


def _step_maps(schedule: HamiltonianSchedule, static: np.ndarray,
               coupled: np.ndarray, t0: float, h: float, first: int,
               n: int) -> np.ndarray:
    """RK4 step maps of steps first..first+n-1 from t0 + i h, as (n, d^2, d^2).

    The generator at time t is static + sum_j e_j(t) coupled_j.  With A,
    B, C the generators at a step's start, midpoint and end, the step
    S <- S + h/6 (k1 + 2 k2 + 2 k3 + k4) of dS/dt = L S is S <- M S with
    X2 = B(I + h/2 A), X3 = B(I + h/2 X2), X4 = C(I + h X3) and
    M = I + h/6 (A + 2 X2 + 2 X3 + X4).  Adjacent steps share their end
    node, so the envelopes are evaluated at 2n + 1 times.
    """
    nodes = t0 + np.arange(2 * first, 2 * (first + n) + 1) * (0.5 * h)
    side = static.shape[0]
    drive = schedule.envelope_values(nodes).T @ coupled.reshape(-1, side * side)
    gens = static + drive.reshape(-1, side, side)
    a, b, c = gens[0:-1:2], gens[1::2], gens[2::2]
    x2 = b + (0.5 * h) * (b @ a)
    x3 = b + (0.5 * h) * (b @ x2)
    x4 = c + h * (c @ x3)
    maps = (h / 6.0) * (a + 2.0 * x2 + 2.0 * x3 + x4)
    maps += np.eye(side)
    return maps


def propagator_series(schedule: HamiltonianSchedule, jump_operators, times,
                      step: float = 1e-3) -> list[SuperoperatorChannel]:
    """Propagators from the schedule start to each requested time.

    RK4 steps the propagator itself, dS/dt = L(t) S from S = identity,
    once and incrementally, so the cost is one pass over
    [t_initial, max(times)] regardless of how many snapshot times are
    requested.  Each window between consecutive times takes
    ceil(span/step) equal steps.  The generators are taken to the real
    Hermitian basis of :func:`_hermitian_basis`, L_R = U^dag L U, once per
    call, and everything after runs in float64.  The step maps are built
    a block at a time (see :func:`_step_maps`), as many as fit in
    :data:`BLOCK_BYTES`, so memory does not grow with the window.  With S
    folded into the first map, a Hillis-Steele scan (the level of stride
    k sets P_i <- P_i P_{i-k}) gives the block's propagators
    S_i = M_i ... M_first S in ceil(log2 n) batched products.  Every
    step's propagator is checked for trace drift; none is projected, since
    a real propagator maps Hermitian matrices to Hermitian matrices.  The
    snapshots return as U S_R U^dag in one batched product.  Times must be
    non-decreasing and lie inside the schedule window.
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
    u = _hermitian_basis(d)
    u_dag = u.conj().T
    static = (u_dag @ lindblad_generator(schedule.base, jump_operators) @ u).real.copy()
    coupled = (u_dag @ _hamiltonian_generator(schedule.couplings) @ u).real.copy()
    driven = len(schedule.couplings) > 0
    block = max(1, BLOCK_BYTES // static.nbytes)

    s = np.eye(d * d)
    out = []
    t0 = schedule.t_initial
    for t1 in ts:
        span = t1 - t0
        if span > 0:
            n_steps = max(1, math.ceil(span / step - 1e-12))
            h = span / n_steps
            tr0 = s[:d].sum(axis=0)
            # without a drive every step of the window has the same map
            window_map = None if driven else _step_maps(schedule, static, coupled,
                                                        t0, h, 0, 1)
            for first in range(0, n_steps, block):
                n = min(block, n_steps - first)
                steps = (_step_maps(schedule, static, coupled, t0, h, first, n)
                         if driven else np.repeat(window_map, n, axis=0))
                # a run that blows up overflows in the rest of its block; the
                # drift check below reports the first step that went bad
                with np.errstate(over="ignore", invalid="ignore"):
                    steps[0] = steps[0] @ s
                    stride = 1
                    while stride < n:
                        steps[stride:] = steps[stride:] @ steps[:-stride]
                        stride *= 2
                    drift = np.abs(steps[:, :d].sum(axis=1) - tr0).max(axis=1)
                bad = ~(drift <= TRACE_DRIFT_ABORT)
                if bad.any():
                    i = first + int(np.argmax(bad))
                    raise IntegrationFailure(f"trace drift {drift[i - first]:.3e} at "
                                             f"t = {t0 + i * h + h:.6g} (step {h:.3g})")
                s = steps[-1].copy()
            if np.isnan(s).any():
                raise IntegrationFailure("NaN in integrated propagator")
        t0 = t1
        out.append(s)
    snapshots = u @ np.array(out).reshape(-1, d * d, d * d) @ u_dag
    return [SuperoperatorChannel(m) for m in snapshots]


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
