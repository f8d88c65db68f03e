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
with fixed steps of the sixth-order Magnus expansion and returns its
snapshots as one batched :class:`SuperoperatorChannel`; :func:`propagate`
applies the last member to one state.  The integrator is deliberately
fixed-step (no adaptivity) so runs are bitwise reproducible; the step is
an upper bound and each window is subdivided uniformly.  The drive is affine, H(t) = H0 +
sum_j e_j(t) V_j, so L(t) = L0 + D + sum_j e_j(t) L_j from pieces built
once per run.  Every Lindblad generator maps Hermitian matrices to
Hermitian matrices, so in an orthonormal basis of Hermitian matrices it
is a real matrix: the pieces are rewritten in that basis once, and the
whole integration runs in float64.  One step of size h of dS/dt = L(t) S
is S <- exp(Omega) S.  Omega is the three-node Gauss form of the
sixth-order Magnus expansion (Blanes, Casas, Oteo and Ros, Phys. Rep.
470 (2009) 151; Iserles and Norsett, Phil. Trans. R. Soc. A 357 (1999)
983): one product with the stacked pieces [L0 + D; L_j] gives three
combinations of the generators at the Gauss nodes, and three
commutators give Omega, which is h L exactly for a static generator.
The exponential is a degree-12 Taylor polynomial in Paterson-Stockmeyer
form with scaling and squaring, accurate to the unit roundoff.  The
global error is O(h^6): a step of 0.02 is off by below 1e-12 on the
three-level presets.  The trace row t has t L = 0 for every generator,
so t Omega = 0 and exp(Omega) keeps the trace up to roundoff; without
dissipation Omega is antisymmetric and exp(Omega) orthogonal.  The
windows between snapshot times form one table (start, step size, step
count and cumulative end of each), and every step of the run is a global
index into it; a static schedule takes the same path with no envelopes
and one step per window, since its exponent span*L needs no subdividing
and the exponential's scaling and squaring covers the span.
Steps are taken a block at a time, as many consecutive indices as fit in
:data:`BLOCK_BYTES` whichever windows they belong to (so memory does not
grow with the run), with one array call of the envelopes per block; the
step maps are built in buffers allocated once per call.  A chunked scan
turns each block's maps into its propagators: prefix products inside
chunks of about sqrt(n) maps, run in lock-step, then a carry from each
chunk into the next.  A real propagator preserves Hermiticity by
construction, so no step is projected; a trace drift beyond 1e-6 (or any
NaN, as from a non-finite drive) at any step aborts the run.  The
snapshots return to the row-major vec basis in one batched product.

A schedule may declare that its drive is periodic with period P (the
schedule checks the claim on a few times when it is built).  Then only
the first period is integrated: a time t = t0 + kP + tau with tau in
(0, P] is folded onto t0 + tau, the folded times and t0 + P go through
the block loop in one pass, and S(t) = S(t0 + tau) M^k with M = S(t0 + P)
the propagator over one period.  Each power M^k is formed once, and the
composed snapshots are checked for trace drift again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qcore import (
    DimensionMismatch,
    NonHermitianInput,
    _check_orthonormal,
    _gauged_eigh,
    as_complex_matrix,
    assert_density_operator,
    density_spectrum,
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
# check_cptp's bound on the trace defect and on the Choi matrix's Hermiticity.
CPTP_TOL = 1e-8
# The default upper bound on the integrator step.
DEFAULT_STEP = 0.02
# Bytes of one block's (n, d^2, d^2) float64 stack of step maps: 202 steps at
# d = 3, 1024 at d = 2.  A block works in six such stacks.
BLOCK_BYTES = 128 * 1024
# Three-node Gauss points of [0, 1], where the sixth-order Magnus step reads
# the generator.
_GAUSS_NODES = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
# The largest 1-norm of a step's exponent that its degree-12 Taylor polynomial
# takes unscaled: theta^13/13! = 2^-53, so the first omitted term is at most
# the unit roundoff.
_TAYLOR_THETA = (2.0 ** -53 * math.factorial(13)) ** (1.0 / 13.0)
# Paterson-Stockmeyer form of that polynomial with P = [X, X^2, X^3, X^4]:
# B0 + X^4 (B1 + X^4 B2), where B_r is _PS_ROWS[r] times P plus
# _PS_DIAGONAL[r] times the identity.
_PS_ROWS = np.array([[1.0, 1.0 / 2.0, 1.0 / 6.0, 0.0],
                     [1.0 / math.factorial(k) for k in (5, 6, 7)] + [0.0],
                     [1.0 / math.factorial(k) for k in (9, 10, 11, 12)]])
_PS_DIAGONAL = (1.0, 1.0 / math.factorial(4), 1.0 / math.factorial(8))


class IntegrationFailure(RuntimeError):
    """A propagator lost the trace beyond 1e-6, or turned NaN, at some step.

    Raised by :func:`propagator_series` (and so :func:`propagate`) with
    the time and the step size where it happened; a non-finite drive
    value reaches the same check.
    """


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
    be integrated over.  ``period``, when given, states that the envelopes
    repeat with that period, so :func:`propagator_series` integrates one
    period and composes the rest from its propagator.  It is a fact about
    the drive, not a tuning option: the envelopes are probed at a few
    times t in the first period and at t + period, and a difference above
    1e-12 (relative to the largest envelope value, if that exceeds 1)
    raises at construction.
    """

    base: np.ndarray
    couplings: Sequence = ()
    envelopes: Callable[[np.ndarray], np.ndarray] = lambda t: np.zeros((0, t.size))
    t_initial: float = 0.0
    t_final: float = 0.0
    period: float | None = None

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
        if self.period is not None:
            self._check_period()

    def _check_period(self) -> None:
        if not 0.0 < self.period < math.inf:
            raise ValueError(f"period must be positive and finite, got {self.period}")
        # fractions of the period with no simple ratio between them, so a
        # declared period that is a fraction of the true one is caught
        probe = self.t_initial + self.period * np.array([0.0, 0.137, 0.291,
                                                         0.463, 0.618, 0.859])
        first = self.envelope_values(probe)
        gap = np.abs(self.envelope_values(probe + self.period) - first).max(initial=0.0)
        if gap > 1e-12 * max(1.0, np.abs(first).max(initial=0.0)):
            raise ValueError(f"envelopes are not periodic with period {self.period:g}: "
                             f"they differ by {gap:.3g} one period apart")

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


def unitary_superoperator(unitary) -> np.ndarray:
    """kron(U, conj(U)) of a unitary, or of each matrix of a (T, d, d) stack.

    The whole stack is checked unitary (else :class:`~fluctua.qcore.NonOrthonormalBasis`),
    then multiplied with its conjugate in one broadcast product (each entry
    is the same single product as in np.kron), giving (d^2, d^2) or (T, d^2, d^2).
    """
    u = as_complex_matrix(unitary, "unitary", stack=True)
    _check_orthonormal(u, "unitary")
    d = u.shape[-1]
    return (u[..., :, None, :, None] * u.conj()[..., None, :, None, :]).reshape(
        *u.shape[:-2], d * d, d * d)


def _square_side(n: int) -> int:
    """d for a superoperator side n = d^2."""
    d = math.isqrt(n)
    if d * d != n:
        raise DimensionMismatch("superoperator side is not a perfect square")
    return d


class SuperoperatorChannel(Channel):
    """A channel given directly by its vectorized-state matrix.

    A (T, d^2, d^2) stack of superoperators is a batch of T channels:
    ``apply`` and ``apply_matrix`` map their input through every member
    in one product and return a leading T axis.  Indexing a batch with
    an int gives that member channel, with an index array the sub-batch.
    """

    def __init__(self, superoperator):
        self.superoperator = as_complex_matrix(superoperator, "superoperator", stack=True)
        self.dim = _square_side(self.superoperator.shape[-1])

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

    def __getitem__(self, index) -> "SuperoperatorChannel":
        if self.superoperator.ndim == 2:
            raise TypeError("an unbatched channel has no members to index")
        return SuperoperatorChannel(self.superoperator[index])


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
    ops = _as_operator_list(jump_operators)
    for op in ops:
        if op.shape != h.shape:
            raise DimensionMismatch(f"jump operator of shape {op.shape} does not "
                                    f"match the Hamiltonian of shape {h.shape}")
    return _hamiltonian_generator(h) + _dissipator(ops, h.shape[0])


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


def _node_weights(schedule: HamiltonianSchedule, t0: np.ndarray, h: np.ndarray,
                  k: np.ndarray, weights: np.ndarray) -> None:
    """Fill ``weights[:, :n]`` for n steps of one block.

    Step i is step ``k[i]`` of a window that starts at ``t0[i]`` with step
    size ``h[i]``; its Gauss nodes are t0 + (k + c_j) h, and the envelopes
    are read at all 3 n nodes in one call.  Column 0 weights L0 + D and
    column j weights L_j.  The rows give, for generators A1, A2, A3 at
    the nodes, alpha1 = h A2, alpha2 = (sqrt(15) h/3)(A3 - A1) and
    alpha3 = (10 h/3)(A3 - 2 A2 + A1); L0 + D enters alpha1 only, so its
    weight in the other two rows stays the zero it was allocated with.
    """
    n = len(k)
    nodes = t0 + (k + _GAUSS_NODES[:, None]) * h
    e = schedule.envelope_values(nodes.reshape(-1)).reshape(-1, 3, n)
    e1, e2, e3 = e.transpose(1, 2, 0)
    weights[0, :n, 0] = h
    weights[0, :n, 1:] = h[:, None] * e2
    weights[1, :n, 1:] = (math.sqrt(15.0) / 3.0 * h)[:, None] * (e3 - e1)
    weights[2, :n, 1:] = (10.0 / 3.0 * h)[:, None] * (e3 - 2.0 * e2 + e1)


def _commutator(a: np.ndarray, b: np.ndarray, out: np.ndarray,
                scratch: np.ndarray) -> None:
    """out <- a b - b a for stacks, with ``scratch`` as the second product."""
    np.matmul(a, b, out=out)
    out -= np.matmul(b, a, out=scratch)


def _magnus_maps(pieces: np.ndarray, weights: np.ndarray, work: np.ndarray,
                 n: int) -> np.ndarray:
    """Step maps exp(Omega) of n steps, as an (n, d^2, d^2) view into ``work``.

    ``pieces`` is the (K, d^4) stack of the flattened L0 + D and L_j, and
    ``work`` a (6, m, d^2, d^2) buffer with m >= n.  The rows of
    ``weights[:, :n] @ pieces`` are alpha1, alpha2 and alpha3 (see
    :func:`_node_weights`).  With C1 = [alpha1, alpha2] and
    C2 = -[alpha1, 2 alpha3 + C1]/60, the sixth-order Magnus exponent is
    Omega = alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240.
    A static generator makes alpha2 and alpha3 zero, so Omega = h A.
    """
    a1, a2, a3, c1, y, z = work[:, :n]
    np.matmul(weights[:, :n], pieces, out=work[:3, :n].reshape(3, n, -1))
    _commutator(a1, a2, c1, y)
    np.multiply(a3, 2.0, out=y)
    y += c1
    # alpha2 + C2 = alpha2 - (alpha1 y - y alpha1)/60 with y = 2 alpha3 + C1
    np.matmul(a1, y, out=z)
    z *= 1.0 / 60.0
    a2 -= z
    np.matmul(y, a1, out=z)
    z *= 1.0 / 60.0
    a2 += z
    c1 -= a3
    c1 -= np.multiply(a1, 20.0, out=y)
    _commutator(c1, a2, y, z)
    a3 *= 1.0 / 12.0
    a1 += a3
    y *= 1.0 / 240.0
    a1 += y
    return _taylor_exp(work, n)


def _taylor_exp(work: np.ndarray, n: int) -> np.ndarray:
    """exp of each matrix of ``work[0, :n]``, as a view into ``work[4, :n]``.

    Each matrix is scaled by 2^-s so that its 1-norm is at most
    :data:`_TAYLOR_THETA`, the degree-12 Taylor polynomial is taken in
    Paterson-Stockmeyer form (five batched products), and the result is
    squared s times.  A matrix with a non-finite norm is not scaled, so
    its NaNs reach the caller's drift check.  ``work[1:4, :n]`` take the
    powers and ``work[5, :n]`` is scratch.
    """
    x, x2, x3, x4, b, c = work[:, :n]
    norm = np.abs(x, out=x2).sum(axis=-2).max(axis=-1)
    big = (norm > _TAYLOR_THETA) & (norm < math.inf)  # NaN compares false
    squarings = np.zeros(n, dtype=int)
    if big.any():
        squarings[big] = np.ceil(np.log2(norm[big] / _TAYLOR_THETA))
        x *= np.ldexp(1.0, -squarings)[:, None, None]
    np.matmul(x, x, out=x2)
    np.matmul(x2, x, out=x3)
    np.matmul(x2, x2, out=x4)
    powers = work[:4, :n].reshape(4, -1)
    # b <- B2, c <- B1 + x^4 B2, b <- x^4 (B1 + x^4 B2), c <- B0, b <- b + c
    np.matmul(_PS_ROWS[2], powers, out=b.reshape(-1))
    _diagonal(b)[:] += _PS_DIAGONAL[2]
    np.matmul(x4, b, out=c)
    c += np.matmul(_PS_ROWS[1], powers, out=b.reshape(-1)).reshape(b.shape)
    _diagonal(c)[:] += _PS_DIAGONAL[1]
    np.matmul(x4, c, out=b)
    b += np.matmul(_PS_ROWS[0], powers, out=c.reshape(-1)).reshape(c.shape)
    _diagonal(b)[:] += _PS_DIAGONAL[0]
    for j in range(squarings.max()):
        again = b[squarings > j]
        b[squarings > j] = again @ again
    return b


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


def _compose_periods(snapshots: np.ndarray, folds: np.ndarray, period_map: np.ndarray,
                     trace: np.ndarray, times: list[float]) -> None:
    """snapshots[i] <- snapshots[i] M^folds[i] in place, M = ``period_map``.

    M is the propagator over one period; M^1 ... M^k for the largest k are
    formed once, one product each, and applied to the folded snapshots in
    one batched product.  A trace drift beyond
    :data:`TRACE_DRIFT_ABORT` (or a NaN) in a composed snapshot aborts.
    """
    d = math.isqrt(len(trace))
    powers = np.empty((folds.max() + 1,) + snapshots.shape[1:])
    powers[0] = np.eye(len(trace))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, len(powers)):
            np.matmul(powers[j - 1], period_map, out=powers[j])
        later = folds > 0
        snapshots[later] = snapshots[later] @ powers[folds[later]]
        drift = np.abs(trace[:d] @ snapshots[:, :d] - trace).max(axis=1)
    if not drift.max() <= TRACE_DRIFT_ABORT:
        i = int(np.argmax(~(drift <= TRACE_DRIFT_ABORT)))
        raise IntegrationFailure(f"trace drift {drift[i]:.3e} at t = {times[i]:.6g} "
                                 f"after composing {folds[i]} periods")


def propagator_series(schedule: HamiltonianSchedule, jump_operators, times,
                      step: float = DEFAULT_STEP) -> SuperoperatorChannel:
    """Propagators from the schedule start to each requested time.

    Returns one batched :class:`SuperoperatorChannel` whose member k, a
    (d^2, d^2) superoperator, maps the state at the schedule start to
    the state at ``times[k]``.

    The propagator itself, dS/dt = L(t) S from S = identity, is stepped
    once and incrementally, so the cost is one pass over
    [t_initial, max(times)] regardless of how many snapshot times are
    requested.  Each window between consecutive times takes
    ceil(span/step) equal steps (one step on a static schedule, whose
    exponent span*L is exact and which the exponential scales and
    squares), and each step of size h is the map
    exp(Omega) of the sixth-order Magnus expansion with the generator read
    at the three Gauss nodes of the step (:func:`_magnus_maps`); its
    error per unit time is O(h^6).  The generators are taken to the real
    Hermitian basis of :func:`_hermitian_basis`, L_R = U^dag L U, once
    per call, and everything after runs in float64.  The windows form one
    table of arrays, their ``starts``, step ``sizes``, step ``counts`` and
    ``ends = cumsum(counts)``, and every step of the run has a global
    index into it: step g lies in the window w with ends[w - 1] <= g <
    ends[w], as its step g - ends[w - 1].  The steps are taken a block at
    a time, as many consecutive indices as fit in :data:`BLOCK_BYTES`,
    whichever windows they belong to.  The drive is read once per block
    by :func:`_node_weights`, the block's step maps come from
    :func:`_magnus_maps` (a static schedule takes the same path with no
    envelopes, and its exponent is exactly h L), and
    :func:`_prefix_products`, with S folded into the first map, turns them
    into the propagators S_g = M_g ... M_0.  A window's snapshot is the
    propagator after its last step, ends[w] - 1.  Every step's propagator
    is checked for trace drift, max |t S_g - t| with t the trace row (ones
    on the first d coordinates); none is projected, since a real
    propagator maps Hermitian matrices to Hermitian matrices.

    With a ``period`` P on the schedule, a time t past the first period
    is folded: k = ceil((t - t0)/P) - 1 and t - kP in (t0, t0 + P].  The
    window table is then built over the sorted distinct folded times and
    t0 + P, so the loop above integrates [t0, t0 + P] once, and each
    snapshot is composed as S(t) = S(t - kP) M^k with M = S(t0 + P), in
    one batched product over powers M^k each formed once.  The composed
    snapshots are checked for trace drift once more.  With no period, or
    no time past t0 + P, every k is 0 and nothing is composed.  The
    snapshots return as U S_R U^dag in one batched product.  Times must
    be at least one, finite, non-decreasing and inside the schedule
    window.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    ts = [float(t) for t in times]
    if not ts:
        raise ValueError("propagator_series needs at least one snapshot time")
    if not all(math.isfinite(t) for t in [schedule.t_initial, *ts]):
        raise ValueError("snapshot times and the schedule start must be finite")
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("snapshot times must be non-decreasing")
    if ts[0] < schedule.t_initial - 1e-12:
        raise ValueError("snapshot before the schedule start")
    if ts[-1] > schedule.t_final + 1e-12:
        raise ValueError("snapshot after the schedule end")
    d = schedule.dim
    side = d * d
    u = _hermitian_basis(d)
    u_dag = u.conj().T
    static = (u_dag @ lindblad_generator(schedule.base, jump_operators) @ u).real
    coupled = (u_dag @ _hamiltonian_generator(schedule.couplings) @ u).real
    pieces = np.concatenate([static[None], coupled]).reshape(-1, side * side)

    t_first, period = schedule.t_initial, schedule.period
    folded, folds = np.array(ts), np.zeros(len(ts), dtype=int)
    if period is not None:
        folds = np.maximum(np.ceil((folded - t_first) / period).astype(int) - 1, 0)
        folded = np.clip(folded - folds * period, t_first, t_first + period)
    # the integrated times: distinct, sorted, and the period end if any folds
    # (sorted in Python: under numpy 2.4 the first np.unique call pages in
    # about 0.6 MB of code, which shows in a short run's peak RSS)
    grid = set(folded.tolist())
    if folds.any():
        grid.add(t_first + period)
    grid = np.array(sorted(grid), dtype=float)
    starts = np.append(t_first, grid[:-1])
    counts = np.array([max(1, math.ceil((t1 - t0) / step - 1e-12)) if t1 > t0 else 0
                       for t0, t1 in zip(starts, grid)], dtype=int)
    if not len(schedule.couplings):
        # a static generator's exponent is span * L whatever the step, and
        # the exponential scales and squares it: one step per window
        counts = np.minimum(counts, 1)
    sizes = (grid - starts) / np.maximum(counts, 1)
    # a window's snapshot is the propagator after step ends[w] - 1
    ends = np.cumsum(counts)
    total = int(counts.sum())
    block = max(1, min(BLOCK_BYTES // (8 * side * side), total))
    snapshots = np.empty((len(grid), side, side))
    snapshots[ends == 0] = np.eye(side)
    work = np.empty((6, block, side, side))
    weights = np.zeros((3, block, len(pieces)))
    trace = np.zeros(side)
    trace[:d] = 1.0

    s = np.eye(side)
    for g in range(0, total, block):
        idx = np.arange(g, min(g + block, total))
        n = len(idx)
        w = np.searchsorted(ends, idx, side="right")
        k = idx - (ends[w] - counts[w])
        # a non-finite drive, or a run that blows up, overflows in the rest
        # of its block; the drift check below reports the first step that
        # went bad
        with np.errstate(over="ignore", invalid="ignore"):
            _node_weights(schedule, starts[w], sizes[w], k, weights)
            steps = _magnus_maps(pieces, weights, work, n)
            _prefix_products(steps, s)
            drift = np.abs(trace[:d] @ steps[:, :d] - trace)
        if not drift.max() <= TRACE_DRIFT_ABORT:
            drift = drift.max(axis=1)
            i = int(np.argmax(~(drift <= TRACE_DRIFT_ABORT)))
            h = sizes[w[i]]
            raise IntegrationFailure(f"trace drift {drift[i]:.3e} at t = "
                                     f"{starts[w[i]] + (k[i] + 1) * h:.6g} "
                                     f"(step {h:.3g})")
        s = steps[-1].copy()
        if np.isnan(s).any():
            raise IntegrationFailure("NaN in integrated propagator")
        lo, hi = np.searchsorted(ends, [g, g + n], side="right")
        snapshots[lo:hi] = steps[ends[lo:hi] - 1 - g]
    period_map = snapshots[-1] if folds.any() else None
    snapshots = snapshots[np.searchsorted(grid, folded)]
    if period_map is not None:
        _compose_periods(snapshots, folds, period_map, trace, ts)
    return SuperoperatorChannel(u @ snapshots @ u_dag)


def propagate(schedule: HamiltonianSchedule, jump_operators, rho0,
              step: float = DEFAULT_STEP) -> np.ndarray:
    """Evolve a density operator over the schedule window.

    The state is validated once and mapped by the one-member batch
    :func:`propagator_series` returns for ``t_final``, so the step rule and
    its checks are those of that function.
    """
    rho = density_spectrum(rho0)
    if rho.matrix.shape[0] != schedule.dim:
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
    d = _square_side(s.shape[0])
    c = s.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    return c / d


def check_cptp(channel_or_superoperator) -> CPTPReport:
    """Trace preservation on matrix units plus Choi positivity.

    Both hold to :data:`CPTP_TOL`, and a Choi matrix that is not Hermitian to
    it raises.  ``choi_min_eig`` is the smallest eigenvalue of the
    trace-normalized Choi matrix; complete positivity up to numerical noise
    means it is not meaningfully negative.  It checks one channel: a batch
    has to be indexed first.
    """
    s = channel_or_superoperator
    if isinstance(s, SuperoperatorChannel):
        s = s.superoperator
    s = as_complex_matrix(s, "superoperator", stack=True)
    if s.ndim == 3:
        raise DimensionMismatch(f"check_cptp takes one channel, not a batch of "
                                f"{len(s)}; index the batch first")
    d = _square_side(s.shape[0])
    traces = np.einsum("mmjk->jk", s.reshape(d, d, d, d))
    defect = float(np.max(np.abs(traces - np.eye(d))))
    c = choi_matrix(s)
    if not is_hermitian(c, CPTP_TOL):
        raise NonHermitianInput("Choi matrix is not Hermitian; map does not preserve Hermiticity")
    evals, _ = _gauged_eigh(c)
    return CPTPReport(trace_preserving=defect <= CPTP_TOL,
                      choi_min_eig=float(evals[0]),
                      max_trace_defect=defect)
