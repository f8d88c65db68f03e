"""Quantum channels and Lindblad time evolution.

A channel maps density operators to density operators.  There is one
implementation, :class:`SuperoperatorChannel`, which applies a d^2 x d^2
matrix (or a stack of them, a batch of channels) to the vectorized state;
:class:`UnitaryChannel` only builds one from a unitary, conjugation by U.

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
midpoint and end: three products with the stacked pieces [I; L0 + D;
L_j] give I + (h/2)A, (h/2)B and (h/6)C, and three batched matrix
products turn those into M.  Steps are taken a block at a time, as many
consecutive steps as fit in :data:`BLOCK_BYTES` whichever windows they
belong to (so memory does not grow with the run), with one array call of
the envelopes per block.  A chunked scan turns each block's maps into its
propagators: prefix products inside chunks of about sqrt(n) maps, run in
lock-step, then a carry from each chunk into the next.  A real
propagator preserves Hermiticity by construction, so no step is
projected; a trace drift beyond 1e-6 (or any NaN) at any step aborts
the run.  The snapshots return to the row-major vec basis in one batched
product.
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
    "unitary_superoperator",
    "identity_channel",
    "lindblad_generator",
    "propagate",
    "propagator_series",
    "check_cptp",
    "CPTPReport",
    "vec",
    "unvec",
]

TRACE_DRIFT_ABORT = 1e-6
# Bytes of one block's (n, d^2, d^2) float64 stack of RK4 step maps: 202 steps
# at d = 3, 1024 at d = 2.  A block works in about five such stacks.
BLOCK_BYTES = 128 * 1024


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
    """Base class of the channel types; it has no methods of its own.

    It stays for the protocols' type hints, and so that code wrapping
    the channel methods from outside (the benchmark's tracer) finds every
    channel class among its subclasses.  :class:`SuperoperatorChannel`
    is the one implementation.
    """

    dim: int


def _assert_unitary(u: np.ndarray) -> None:
    """Raise unless u, or every matrix of a (T, d, d) stack, is unitary to 1e-10."""
    if float(np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])))) > 1e-10:
        raise ValueError("matrix is not unitary")


def unitary_superoperator(unitary) -> np.ndarray:
    """kron(U, conj(U)) of a unitary, or of each matrix of a (T, d, d) stack.

    The whole stack is checked unitary, then multiplied with its conjugate
    in one broadcast product (each entry is the same single product as in
    np.kron), giving (d^2, d^2) or (T, d^2, d^2).
    """
    u = as_complex_matrix(unitary, "unitary", stack=True)
    _assert_unitary(u)
    d = u.shape[-1]
    return (u[..., :, None, :, None] * u.conj()[..., None, :, None, :]).reshape(
        *u.shape[:-2], d * d, d * d)


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


class UnitaryChannel(SuperoperatorChannel):
    """rho -> U rho U^dag, or a batch of T channels from a (T, d, d) stack."""

    def __init__(self, unitary):
        super().__init__(unitary_superoperator(unitary))


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
    """sum_L kron(L, L*) - (kron(k, I) + kron(I, k.T))/2 with k = L^dag L.

    Built by broadcasting, as :func:`_hamiltonian_generator` is; each
    product and sum is the one np.kron would take, so the result is the same.
    """
    eye = np.eye(d)
    out = np.zeros((d, d, d, d), dtype=np.complex128)
    for L in ops:
        k = L.conj().T @ L
        out += (L[:, None, :, None] * L.conj()[None, :, None, :]
                - 0.5 * (k[:, None, :, None] * eye[None, :, None, :]
                         + eye[:, None, :, None] * k.T[None, :, None, :]))
    return out.reshape(d * d, d * d)


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


def _step_maps(pieces: np.ndarray, weights: np.ndarray, work: np.ndarray,
               n: int) -> np.ndarray:
    """RK4 step maps of n steps, as an (n, d^2, d^2) view of ``work[0, :n]``.

    ``pieces`` is the (K, d^4) stack of the flattened I, L0 + D and L_j,
    and ``work`` a (3, m, d^4) buffer with m >= n.  The rows of
    ``weights[:, :n] @ pieces`` are, for each step of size h with
    generators A, B, C at its start, midpoint and end, Y1 = I + (h/2) A,
    B' = (h/2) B and C' = (h/6) C.  The step S <- S + h/6 (k1 + 2 k2 +
    2 k3 + k4) of dS/dt = L S is then S <- M S with Y2 = I + B' Y1,
    Y3 = I + 2 B' Y2 and M = (Y1 + 2 Y2 + Y3)/3 + C' Y3 - I/3, which is
    I + h/6 (A + 2 B Y1 + 2 B Y2 + C Y3) regrouped.
    """
    side = math.isqrt(pieces.shape[1])
    np.matmul(weights[:, :n], pieces, out=work[:, :n])
    y1, b, c = work[:, :n].reshape(3, n, side, side)
    y2 = b @ y1
    _diagonal(y2)[:] += 1.0
    y3 = b @ y2
    y3 *= 2.0
    _diagonal(y3)[:] += 1.0
    y1 += y2
    y1 += y2
    y1 += y3
    y1 *= 1.0 / 3.0
    y1 += np.matmul(c, y3, out=y2)
    _diagonal(y1)[:] -= 1.0 / 3.0
    return y1


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """Writable (n, k) view of the diagonals of a contiguous (n, k, k) stack."""
    return stack.reshape(len(stack), -1)[:, ::stack.shape[-1] + 1]


def _prefix_products(maps: np.ndarray, s: np.ndarray) -> None:
    """maps[i] <- maps[i] ... maps[0] s in place.

    The n maps are cut into chunks of c = ceil(sqrt(n)) consecutive maps.
    The products inside the chunks run in lock-step, one batched product
    per position in a chunk; then each chunk is carried into the next by
    the last product of the one before.  That is about 2n products in
    about 2 sqrt(n) calls.
    """
    n = len(maps)
    c = math.isqrt(n - 1) + 1
    maps[0] = maps[0] @ s
    for j in range(1, c):
        here = maps[j::c]
        here[:] = here @ maps[j - 1::c][:len(here)]
    for first in range(c, n, c):
        maps[first:first + c] = maps[first:first + c] @ maps[first - 1]


def _blocks(windows: list, block: int):
    """Cut the steps of consecutive windows into blocks of ``block`` steps.

    ``windows`` holds (start, step size, step count) per window.  Yields
    (n, segments) per block, a segment being (start, step size, first
    step in the window, count, offset in the block) of one window's steps.
    """
    segments, k = [], 0
    for t0, h, n_steps in windows:
        first = 0
        while first < n_steps:
            take = min(n_steps - first, block - k)
            segments.append((t0, h, first, take, k))
            first += take
            k += take
            if k == block:
                yield k, segments
                segments, k = [], 0
    if k:
        yield k, segments


def _drive_weights(schedule: HamiltonianSchedule, segments: list,
                   weights: np.ndarray, n: int) -> None:
    """Fill ``weights[:, :n, 1:]`` for the steps of one block.

    The envelopes are read in one call at the nodes of the block's
    segments, 2 c + 1 nodes for c steps since adjacent steps of a window
    share their end node.  Column 1 weights L0 + D and column 1 + j
    weights L_j: h/2 at a step's start and midpoint, h/6 at its end.
    """
    nodes = np.concatenate([
        t0 + np.arange(2 * first, 2 * (first + take) + 1) * (0.5 * h)
        for t0, h, first, take, _ in segments])
    e = schedule.envelope_values(nodes)
    counts = [seg[3] for seg in segments]
    # step i of the j-th segment starts at node 2 i + j
    start = 2 * np.arange(n) + np.repeat(np.arange(len(segments)), counts)
    hs = np.array([seg[1] for seg in segments])
    scale = np.repeat(np.array([0.5 * hs, 0.5 * hs, hs / 6.0]), counts, axis=1)
    weights[:, :n, 1] = scale
    weights[:, :n, 2:] = (e[:, start + np.arange(3)[:, None]] * scale).transpose(1, 2, 0)


def propagator_series(schedule: HamiltonianSchedule, jump_operators, times,
                      step: float = 1e-3) -> list[SuperoperatorChannel]:
    """Propagators from the schedule start to each requested time.

    RK4 steps the propagator itself, dS/dt = L(t) S from S = identity,
    once and incrementally, so the cost is one pass over
    [t_initial, max(times)] regardless of how many snapshot times are
    requested.  Each window between consecutive times takes
    ceil(span/step) equal steps.  The generators are taken to the real
    Hermitian basis of :func:`_hermitian_basis`, L_R = U^dag L U, once per
    call, and everything after runs in float64.  The steps are taken a
    block at a time: as many consecutive steps as fit in
    :data:`BLOCK_BYTES`, whichever windows they belong to, each with its
    own step size.  The drive is read once per block, at the nodes of the
    windows the block covers; the block's step maps come from
    :func:`_step_maps` (one map per window when nothing drives the
    schedule), and :func:`_prefix_products`, with S folded into the first
    map, turns them into the propagators S_i = M_i ... M_first S.  A
    window's snapshot is the propagator at its last step.  Every step's
    propagator is checked for trace drift, max |t S_i - t| with t the
    trace row (ones on the first d coordinates); none is projected, since
    a real propagator maps Hermitian matrices to Hermitian matrices.  The
    snapshots return as U S_R U^dag in one batched product.  Times must
    be non-decreasing and lie inside the schedule window.
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
    side = d * d
    u = _hermitian_basis(d)
    u_dag = u.conj().T
    static = (u_dag @ lindblad_generator(schedule.base, jump_operators) @ u).real
    coupled = (u_dag @ _hamiltonian_generator(schedule.couplings) @ u).real
    pieces = np.concatenate([np.eye(side)[None], static[None], coupled]).reshape(
        -1, side * side)
    driven = len(schedule.couplings) > 0

    windows, t0 = [], schedule.t_initial
    for t1 in ts:
        n_steps = max(1, math.ceil((t1 - t0) / step - 1e-12)) if t1 > t0 else 0
        windows.append((t0, (t1 - t0) / max(n_steps, 1), n_steps))
        t0 = t1
    # a window's snapshot is the propagator after step ends[w] - 1
    ends = np.cumsum([n_steps for *_, n_steps in windows], dtype=int)
    block = max(1, min(BLOCK_BYTES // (8 * side * side), int(ends[-1]) if ts else 0))
    snapshots = np.empty((len(ts), side, side))
    snapshots[ends == 0] = np.eye(side)
    work = np.empty((3, block, side * side))
    # weights of the pieces for Y1, B' and C': the identity only in Y1
    weights = np.zeros((3, block, len(pieces)))
    weights[0, :, 0] = 1.0
    trace = np.zeros(side)
    trace[:d] = 1.0

    s = np.eye(side)
    g = 0
    for n, segments in _blocks(windows, block):
        if driven:
            _drive_weights(schedule, segments, weights, n)
            steps = _step_maps(pieces, weights, work, n)
        else:
            # every step of a window has the same map, built once per window
            steps = work[0, :n].reshape(n, side, side)
            for _, h, first, take, offset in segments:
                if first == 0:
                    one = np.array([[[1.0, 0.5 * h]], [[0.0, 0.5 * h]], [[0.0, h / 6.0]]])
                    window_map = _step_maps(pieces, one, np.empty((3, 1, side * side)), 1)
                steps[offset:offset + take] = window_map
        # a run that blows up overflows in the rest of its block; the drift
        # check below reports the first step that went bad
        with np.errstate(over="ignore", invalid="ignore"):
            _prefix_products(steps, s)
            drift = np.abs(trace[:d] @ steps[:, :d] - trace)
        if not drift.max() <= TRACE_DRIFT_ABORT:
            drift = drift.max(axis=1)
            i = int(np.argmax(~(drift <= TRACE_DRIFT_ABORT)))
            t0, h, first, _, offset = next(seg for seg in reversed(segments)
                                           if seg[4] <= i)
            raise IntegrationFailure(f"trace drift {drift[i]:.3e} at t = "
                                     f"{t0 + (first + i - offset) * h + h:.6g} "
                                     f"(step {h:.3g})")
        s = steps[-1].copy()
        if np.isnan(s).any():
            raise IntegrationFailure("NaN in integrated propagator")
        lo, hi = np.searchsorted(ends, [g, g + n], side="right")
        snapshots[lo:hi] = steps[ends[lo:hi] - 1 - g]
        g += n
    snapshots = u @ snapshots @ u_dag
    return [SuperoperatorChannel(m) for m in snapshots]


def propagate(schedule: HamiltonianSchedule, jump_operators, rho0,
              step: float = 1e-3) -> np.ndarray:
    """Evolve a density operator over the schedule window with fixed-step RK4."""
    rho = assert_density_operator(rho0)
    if rho.shape[0] != schedule.dim:
        raise DimensionMismatch("state and schedule dimensions differ")
    final = propagator_series(schedule, jump_operators, [schedule.t_final], step)[0]
    return final.apply(rho)


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
    if isinstance(channel_or_superoperator, SuperoperatorChannel):
        s = channel_or_superoperator.superoperator
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
