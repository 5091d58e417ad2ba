"""Quantum channels: Kraus sets and Pauli transfer matrices.

Two representations share one interface (``n``, ``d``, ``lambdas(ks=None)``
and ``ptm()``); every shipped path works on Pauli coefficients through it.
``KrausChannel.apply(rho, method)`` also maps a dense state, by the Kraus
sum, the diagonal or the transfer matrix:

* :class:`KrausChannel` -- explicit operator-sum form; a random Pauli map
  carries instead its probability vector over Pauli strings, or, for the
  Markov-correlated families, its marginal p and correlation mu, which
  unlock the fast diagonal paths below.
* :class:`PTM` -- the full d^2 x d^2 real transfer matrix with entries
  Tr[P_j Phi(P_q)]/d.

``lambdas()`` gives every diagonal entry, and ``lambdas(ks)`` a lookup by
flat index that holds those at ks: the entries alone for a
Markov-correlated map, the full vector for any other.
Conversions are explicit and cached per instance.
Diagonal entries of a Pauli map given by its weights are computed from
the commutation signs between Pauli strings (lambda_j = sum_m beta_m *
s(m, j)) instead of matrix traces.  Those of a Markov-correlated map are
a product of n 4x4 factors per entry (``_markov_lambdas``), so
``lambdas(ks)`` costs O(len(ks) * n) with no 4**n array.  A
general Kraus set gets its transfer matrix from the superoperator
sum_i K_i (x) conj(K_i), taken to the Pauli basis by per-qubit 4x4
kernels on both sides, with no loop over the 4**n basis strings: both
are made in place in one D x D complex work array, 1 MB block by block
(``_superoperator_ptm``), and its memory goes back to the OS before the
inversion that usually follows.

A PTM's entries are fixed for its lifetime (``matrix`` is a read-only
property), so the general deconvolution path inverts the transposed
matrix once per PTM: the inverse and the condition bound
sqrt(kappa_1 * kappa_inf) >= kappa_2 taken from it once (no SVD) are
kept on the PTM and shared, read-only, by every plan built on it.

Channel families:

* ``correlated_pauli_channel`` -- per-qubit error distribution chained by
  a Markov rule with correlation parameter mu in [0, 1] (mu=0 memoryless,
  mu=1 full memory).
* ``bit_flip_channel`` / ``depolarizing_channel`` / ``dephasing_channel``
  -- standard single-parameter marginals fed into the correlated family.
* ``correlated_amplitude_damping`` -- two-qubit non-Pauli channel mixing
  independent per-qubit damping with a collective damping term.

Dense full transfer matrices are capped at MAX_QUBITS_FULL_PTM qubits;
the full diagonal, the weight vector and the Kraus operators at
pauli.MAX_QUBITS.  A Markov-correlated channel is built up to
MAX_QUBITS_SPARSE qubits, where only ``lambdas(ks)`` is within its caps.
"""

from __future__ import annotations

import mmap
import numbers
import threading
from itertools import product
from typing import Mapping, Sequence, Union

import numpy as np

from .exceptions import (
    ConfigError,
    DimensionMismatch,
    InvalidCorrelation,
    InvalidProbability,
    NotPauliDiagonal,
    NotTracePreserving,
)
from .pauli import (
    _DEVEC_KERNEL,
    _VEC_KERNEL,
    _transform_per_qubit,
    check_qubits,
    devectorize,
    label_index,
    num_qubits,
    pauli_element,
    vectorize,
)

__all__ = [
    "MAX_QUBITS_FULL_PTM",
    "MAX_QUBITS_SPARSE",
    "KrausChannel",
    "PTM",
    "Channel",
    "apply_channel",
    "correlated_pauli_weights",
    "correlated_pauli_channel",
    "bit_flip_channel",
    "depolarizing_channel",
    "dephasing_channel",
    "correlated_amplitude_damping",
    "channel_from_config",
    "CHANNEL_FAMILIES",
]

# Full d^2 x d^2 transfer matrices above this cap are memory-prohibitive.
MAX_QUBITS_FULL_PTM = 5

# Markov-correlated channels answer lambdas(ks) up to this cap, where every
# flat index 4**n - 1 still fits an int64.
MAX_QUBITS_SPARSE = 31

TP_TOL = 1e-10
DIAGONAL_TOL = 1e-12
PTM_RESIDUE_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12
_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number", bool: "boolean", type(None): "null"}

# s1[a, b] = +1 when single-qubit sigma_a and sigma_b commute, -1 otherwise.
_COMMUTATION_SIGNS = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ],
    dtype=float,
)


def _config_int(value, what: str) -> int:
    """An integer config field: a JSON integer or an integral float such as
    2.0.  Bools, fractions and strings raise ConfigError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _config_float(value, what: str) -> float:
    """A real config field: any JSON number.  Bools and strings raise ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return float(value)


def _config_object(cfg, what: str) -> Mapping:
    """``cfg`` itself when it is a mapping; else ConfigError naming its JSON type."""
    if not isinstance(cfg, Mapping):
        raise ConfigError(f"{what} must be a JSON object, got {_JSON_TYPES.get(type(cfg), type(cfg).__name__)}")
    return cfg


def _config_keys(cfg: Mapping, allowed, what: str) -> None:
    """Refuse a key of ``cfg`` outside ``allowed`` with ConfigError naming
    it: a misspelt optional key would otherwise leave its default in force."""
    unknown = sorted(map(str, set(cfg) - set(allowed)))
    if unknown:
        raise ConfigError(f"{what} has unknown key {unknown[0]!r}; expected keys among {sorted(allowed)}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def _validate_probability_vector(p, size: int, what: str) -> np.ndarray:
    """Check shape, nonnegativity and normalization, then renormalize the
    (at most 1e-9) rounding slack away so downstream invariants hold to
    machine precision."""
    p = np.asarray(p, dtype=float)
    if p.shape != (size,):
        raise InvalidProbability(f"{what} must have length {size}, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidProbability(f"{what} has non-finite entries")
    if not (np.min(p) >= -1e-12 and np.max(p) <= 1.0 + 1e-9):  # so the sum cannot overflow
        raise InvalidProbability(f"{what} has entries outside [0, 1] ({float(np.min(p))!r}..{float(np.max(p))!r})")
    if abs(p.sum() - 1.0) > 1e-9:
        raise InvalidProbability(f"{what} must sum to 1, got {float(p.sum())!r}")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


class PTM:
    """Real transfer matrix of a trace-preserving map in the Pauli basis:
    the first row must equal (1, 0, ..., 0).

    ``matrix`` is read-only and fixed for the instance's lifetime, so the
    diagonal verdict of ``lambdas()``, the inverse of the transpose and the
    condition bound taken from that inverse (both filled in by the general
    deconvolution path) are computed once and kept; nothing per observable is.
    """

    def __init__(self, n: int, matrix):
        self.n = int(n)
        check_qubits(self.n, MAX_QUBITS_FULL_PTM)
        M = np.asarray(matrix)
        dim = 4**self.n
        if M.shape != (dim, dim):
            raise DimensionMismatch(f"expected shape ({dim}, {dim}), got {M.shape}")
        if np.iscomplexobj(M):
            resid = float(np.max(np.abs(M.imag)))
            if resid >= PTM_RESIDUE_TOL:
                raise NotTracePreserving(
                    f"transfer matrix has imaginary residue {resid:.3e}"
                )
            M = M.real
        first = np.zeros(dim)
        first[0] = 1.0
        if np.max(np.abs(M[0] - first)) > 1e-9:
            raise NotTracePreserving("first row of the transfer matrix is not (1, 0, ..., 0)")
        self._matrix = _readonly(np.asarray(M, dtype=float))
        # inv(matrix.T) and its condition bound (inf, with no inverse, when the
        # inversion refused the matrix), set by deconvolution on first use;
        # the inverse is shared read-only by its plans.
        self._inverse_adjoint: np.ndarray | None = None
        self._condition_number: float | None = None
        # (lambdas, None) or (None, refusal), from the first lambdas() call.
        self._diagonal: tuple[np.ndarray | None, Exception | None] | None = None
        self._lock = threading.RLock()

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def condition_number(self) -> float:
        """Condition bound sqrt(kappa_1 * kappa_inf) of the transposed matrix,
        from the inverse the general deconvolution path keeps (inverted here on
        first use): never below the 2-norm condition number, equal to it for a
        diagonal matrix, and inf for a matrix the inversion refuses as singular."""
        from .deconvolution import _kept_inverse_adjoint  # deconvolution imports this module
        return _kept_inverse_adjoint(self)[1]

    @property
    def d(self) -> int:
        return 2**self.n

    def lambdas(self, ks=None) -> np.ndarray:
        """Diagonal entries of a Pauli-diagonal map, the whole vector for any
        ``ks``: lambda_0 = 1 (the first-row check) and every |lambda_k| <= 1.
        The verdict is reached once per PTM; a refusal raises again on every
        call."""
        with self._lock:
            if self._diagonal is None:
                self._diagonal = self._diagonal_verdict()
        lam, refusal = self._diagonal
        if refusal is not None:
            raise type(refusal)(*refusal.args)
        return lam

    def _diagonal_verdict(self) -> tuple[np.ndarray | None, Exception | None]:
        M = self._matrix
        lam = np.diag(M)
        if np.max(np.abs(M - np.diag(lam))) > DIAGONAL_TOL:
            return None, NotPauliDiagonal("transfer matrix is not diagonal")
        if np.max(np.abs(lam)) > 1.0 + 1e-9:
            return None, NotPauliDiagonal("lambda entries must lie in [-1, 1]")
        lam = np.array(lam)
        lam[0] = 1.0  # trace preservation; the first-row check bounds M[0, 0] within 1e-9
        return _readonly(lam), None

    def ptm(self) -> "PTM":
        return self

    def __repr__(self) -> str:
        return f"PTM(n={self.n}, shape={self.matrix.shape})"


class KrausChannel:
    """Channel in operator-sum form: rho -> sum_i K_i rho K_i^dag.

    A random Pauli map is built from its weight vector
    (:meth:`from_pauli_weights`) or, for the Markov-correlated families,
    from its marginal p and correlation mu (``correlated_pauli_channel``).
    Its weights (``pauli_weights``), its Kraus operators sqrt(w_k) P_k, its
    full diagonal and its transfer matrix are built on first access, each
    under its own cap; a Markov-correlated map answers ``lambdas(ks)`` at
    any n up to MAX_QUBITS_SPARSE without them.  Operators given directly
    must satisfy sum K^dag K = 1 to within TP_TOL.
    """

    def __init__(self, kraus_ops: Sequence[np.ndarray]):
        ops = [np.asarray(K, dtype=complex) for K in kraus_ops]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        n = num_qubits(ops[0])
        for K in ops:
            if K.shape != ops[0].shape:
                raise DimensionMismatch("Kraus operators must share one shape")
        acc = sum(K.conj().T @ K for K in ops)
        if np.max(np.abs(acc - np.eye(2**n))) > TP_TOL:
            raise NotTracePreserving(f"sum K^dag K deviates from identity beyond {TP_TOL}")
        self._setup(n, [_readonly(K) for K in ops])

    def _setup(self, n: int, kraus=None, weights=None, markov=None) -> None:
        self.n = int(n)
        self._kraus: list[np.ndarray] | None = kraus
        self._weights: np.ndarray | None = weights
        self._markov: tuple[np.ndarray, float] | None = markov  # (p, mu)
        self._lambdas: np.ndarray | None = None
        self._ptm: PTM | None = None
        self._lock = threading.RLock()

    @classmethod
    def from_pauli_weights(cls, n: int, weights) -> "KrausChannel":
        """Random Pauli map with probability weights[k] on Pauli string k."""
        check_qubits(n)
        self = cls.__new__(cls)
        self._setup(n, weights=_readonly(_validate_probability_vector(weights, 4**n, "Pauli weight vector")))
        return self

    @property
    def d(self) -> int:
        return 2**self.n

    @property
    def pauli_weights(self) -> np.ndarray | None:
        """The weight vector of a Pauli map (built from p and mu on first use,
        up to pauli.MAX_QUBITS), else None."""
        if self._weights is None and self._markov is not None:
            with self._lock:
                if self._weights is None:
                    w = correlated_pauli_weights(self.n, *self._markov)
                    self._weights = _readonly(_validate_probability_vector(w, 4**self.n, "Pauli weight vector"))
        return self._weights

    @property
    def is_pauli(self) -> bool:
        return self._weights is not None or self._markov is not None

    @property
    def kraus_ops(self) -> list[np.ndarray]:
        with self._lock:
            if self._kraus is None:
                w = self.pauli_weights
                self._kraus = [_readonly(np.sqrt(w[k]) * pauli_element(int(k), self.n)) for k in np.nonzero(w)[0]]
        return self._kraus

    def lambdas(self, ks=None) -> np.ndarray | dict[int, float]:
        """Diagonal transfer-matrix entries, with lambda_0 = 1 exactly: a
        lookup by flat index k that holds every k in ``ks``, or all of them.
        A Markov-correlated map answers ``ks`` with the dict {k: lambda_k} of
        those entries alone (``_markov_lambdas``), bit for bit as its full
        vector holds them.  Any other ``ks``, or none, gets the full vector,
        built once without the full matrix (so up to n = MAX_QUBITS): from a
        Markov-correlated map's p and mu, from a Pauli map's weights through
        the per-qubit commutation signs, else from ``ptm()``."""
        if ks is not None and self._markov is not None:
            ks = list(ks)
            return dict(zip(ks, _markov_lambdas(self.n, *self._markov, ks).tolist()))
        with self._lock:
            if self._lambdas is None:
                self._lambdas = self._full_lambdas()
            return self._lambdas

    def _full_lambdas(self) -> np.ndarray:
        if self._markov is not None:
            check_qubits(self.n)
            return _readonly(_markov_lambdas(self.n, *self._markov))
        if self._weights is not None:
            lam = _transform_per_qubit([_COMMUTATION_SIGNS] * self.n, self._weights)
            lam[0] = 1.0  # trace preservation; the transform gives sum(w), off by rounding
            return _readonly(lam)
        return self._ptm_locked().lambdas()

    def _ptm_locked(self) -> PTM:
        if self._ptm is None:
            if self.is_pauli:
                check_qubits(self.n, MAX_QUBITS_FULL_PTM)
                self._ptm = PTM(self.n, np.diag(self.lambdas()))
            else:
                self._ptm = _superoperator_ptm(self.kraus_ops, self.n)
        return self._ptm

    def ptm(self) -> PTM:
        with self._lock:
            return self._ptm_locked()

    def apply(self, rho: np.ndarray, method: str = "auto") -> np.ndarray:
        """Map rho through the Kraus operators, the diagonal or the full
        transfer matrix; ``auto`` takes the diagonal for Pauli maps at n >= 4."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.d, self.d):
            raise DimensionMismatch(f"state shape {rho.shape} does not match d={self.d}")
        if method == "auto":
            method = "diagonal" if (self.is_pauli and self.n >= 4) else "kraus"
        if method == "kraus":
            out = np.zeros_like(rho)
            for K in self.kraus_ops:
                out += K @ rho @ K.conj().T
            return out
        if method == "diagonal":
            return devectorize(self.lambdas() * vectorize(rho))
        if method == "ptm":
            return devectorize(self.ptm().matrix @ vectorize(rho))
        raise ValueError(f"unknown application method {method!r}")

    def __repr__(self) -> str:
        kind = "pauli" if self.is_pauli else "generic"
        return f"KrausChannel(n={self.n}, kind={kind})"


Channel = Union[KrausChannel, PTM]


def _superoperator_ptm(kraus_ops: Sequence[np.ndarray], n: int) -> PTM:
    """Transfer matrix of rho -> sum_i K_i rho K_i^dag in one basis change.

    With each qubit's (row, column) entry axes of the superoperator S made
    adjacent, the vectorize kernel on the output side and the devectorize
    kernel on the input side give Gamma = V S W / d in 2n per-qubit
    contractions, 1/d folded into the last kernel (exact, as d is a power of
    two).  S and Gamma share one D x D complex work array (``_work_array``),
    viewed as (4**lead, block) with lead = max(0, 2n - _BLOCK_AXES), and one
    more row of scratch: S is formed a row at a time, the first ``lead``
    contractions run over column chunks of one block's size and the other
    2n - lead over one row at a time, each in place, so a pass over the array
    reads memory once instead of once per contraction.  Every entry goes
    through the same operations, in the same order, as with one pass per
    contraction, so the bits are the same.  Up to n = 4 the array is one
    block (lead = 0): S is one product and each contraction one pass.
    """
    check_qubits(n, MAX_QUBITS_FULL_PTM)
    d = 2**n
    lead = max(0, 2 * n - _BLOCK_AXES)
    kernels = [_VEC_KERNEL] * n + [_DEVEC_KERNEL.T] * (n - 1) + [_DEVEC_KERNEL.T / d]
    work = _work_array(4**lead + 1, 4 ** (2 * n - lead))
    work, scratch = work[:-1], work[-1]
    _superoperator(kraus_ops, n, lead, work, scratch)
    chunk = work.shape[1] >> 2 * lead
    for j in range(0, work.shape[1], chunk) if lead else ():
        cols = work[:, j:j + chunk]
        cols[...] = _transform_per_qubit(kernels[:lead], cols).reshape(chunk, -1).T
    for row in work:
        _transform_in_place(kernels[lead:], row, scratch)
    return PTM(n, work.reshape(d * d, d * d))


# A block of the transfer-matrix build spans this many per-qubit axes: 4**8
# complex entries, 1 MB, which stays in a core's L2 cache.
_BLOCK_AXES = 8


def _work_array(rows: int, cols: int) -> np.ndarray:
    """An uninitialized (rows, cols) complex array.  One of more than two
    rows is an anonymous mapping, populated when made, whose pages go back
    to the OS when the array is freed, so the inversion that usually follows
    does not grow the heap by it.  Two rows (a one-block build, n <= 4) come
    from the heap: there the mapping's system calls and page faults would
    cost more than the build."""
    if rows <= 2:
        return np.empty((rows, cols), dtype=complex)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, 16 * rows * cols, flags=flags), dtype=complex).reshape(rows, cols)


def _transform_in_place(kernels: Sequence[np.ndarray], block: np.ndarray, scratch: np.ndarray) -> None:
    """``_transform_per_qubit`` of a contiguous ``block`` for an even number of
    kernels, left in ``block``: each step is the same product, written into the
    other of ``block`` and ``scratch`` (of the same size)."""
    src, dst = block, scratch
    for kernel in kernels:
        np.dot(src.reshape(4, -1).T, kernel.T, out=dst.reshape(-1, 4))
        src, dst = dst, src


def _superoperator(kraus_ops: Sequence[np.ndarray], n: int, lead: int, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write S = sum_i K_i (x) conj(K_i), which maps the row-major entries of rho
    to those of its image, into ``out`` with its axes in qubit order: output
    (row, column) bits of each qubit, then input (row, column) bits of each
    qubit.  Row L of ``out``, (4**lead, 4**(2n - lead)), holds the entries
    whose first ``lead`` output pairs (a_q, b_q) spell L; it is one product
    over the rows of the stacked operators with those leading bits of a and b,
    made in ``scratch`` (one row's size) and copied into place."""
    stacked = np.stack(kraus_ops).reshape((len(kraus_ops),) + (2,) * lead + (-1,))
    conj = stacked.conj()
    # prod[(a, c), (b, e)] = sum_i K_i[a, c] conj(K_i[b, e]), for output entry
    # (a, b) and input entry (c, e); axes a and b hold the rest = n - lead
    # bits after the leading ones, c and e all n bits.
    rest = n - lead
    a, c, b, e = (range(lo, lo + width) for lo, width in
                  zip((0, rest, rest + n, 2 * rest + n), (rest, n, rest, n)))
    order = [ax for q in range(rest) for ax in (a[q], b[q])] + [ax for q in range(n) for ax in (c[q], e[q])]
    shape = (2,) * 2 * (rest + n)
    prod = scratch.reshape(2 ** (rest + n), -1)
    for row, bits in zip(out, product((0, 1), repeat=2 * lead)):  # bits: a_0, b_0, a_1, b_1, ...
        np.matmul(stacked[(slice(None), *bits[0::2])].T, conj[(slice(None), *bits[1::2])], out=prod)
        row.reshape(shape)[...] = prod.reshape(shape).transpose(order)


def apply_channel(ch: KrausChannel, rho: np.ndarray, method: str = "auto") -> np.ndarray:
    """Apply a Kraus-form channel to a density matrix (or any operator)."""
    return ch.apply(rho, method=method)


def _markov_parameters(p_vec, mu) -> tuple[np.ndarray, float]:
    """The validated marginal p and correlation mu of the Markov-correlated family."""
    p = _validate_probability_vector(p_vec, 4, "p_vec")
    mu = float(mu)
    if not 0.0 <= mu <= 1.0:
        raise InvalidCorrelation(f"correlation parameter must be in [0, 1], got {mu}")
    return p, mu


def correlated_pauli_weights(n: int, p_vec, mu: float) -> np.ndarray:
    """Pauli-string probabilities of the Markov-correlated family.

    The first qubit draws its error index from ``p_vec``; every later
    qubit repeats its predecessor's index with probability mu and draws
    fresh from ``p_vec`` otherwise:

        w[a_1 ... a_n] = p[a_1] * prod_j ((1 - mu) p[a_j] + mu delta(a_{j-1}, a_j))
    """
    check_qubits(n)
    p, mu = _markov_parameters(p_vec, mu)
    cond = (1.0 - mu) * np.tile(p, (4, 1)) + mu * np.eye(4)
    w = p
    for _ in range(n - 1):
        w = w[..., None] * cond
    w = w.reshape(-1)
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidProbability(f"weights sum to {float(w.sum())!r}, expected 1")
    return w


def _markov_lambdas(n: int, p: np.ndarray, mu: float, ks=None) -> np.ndarray:
    """Diagonal entries of the Markov-correlated map with marginal p and
    correlation mu at the flat indices ``ks`` (None: every k, in index
    order), with lambda_0 = 1 exactly.

    In its hidden-Markov form (Macchiavello & Palma, PRA 65, 050301, 2002)
    an entry is a product over the digits a_1 ... a_n of k:

        lambda_k = (p o s_{a_1})^T . prod_{j >= 2} (C diag(s_{a_j})) . 1,  C = (1 - mu) 1 p^T + mu I,

    with s_a column a of the commutation signs.  As v C = (1 - mu) (v . 1) p
    + mu v, one factor takes the row vector v of the first j - 1 digits to
    ((1 - mu) (v . 1) p + mu v) o s_{a_j} in a few elementwise operations.
    v is held for each k's own prefix as the columns of a (4, len(ks)) array,
    in O(len(ks) * n), with no 4**n array for the entries alone.
    """
    signs = _COMMUTATION_SIGNS.T  # symmetric; column a is s_a
    q = ((1.0 - mu) * p)[:, None]
    p = p[:, None]
    ks = np.arange(4**n) if ks is None else np.asarray(ks, dtype=np.int64)
    if ks.size and not (0 <= ks.min() and ks.max() < 4**n):
        raise IndexError(f"flat indices must lie in 0..{4**n - 1}")
    s = signs[:, (ks >> 2 * np.arange(n - 1, -1, -1)[:, None]) & 3]  # [b, j, entry] = s_{a_j}[b]
    v = s[:, 0] * p
    for j in range(1, n):
        v = (q * _column_sums(v) + mu * v) * s[:, j]
    lam = _column_sums(v)
    lam[ks == 0] = 1.0
    return lam


def _column_sums(v: np.ndarray) -> np.ndarray:
    """v[0] + v[1] + v[2] + v[3], in that order, whatever the column count."""
    return v[0] + v[1] + v[2] + v[3]


def correlated_pauli_channel(n: int, p_vec, mu: float) -> KrausChannel:
    """Markov-correlated random Pauli channel on n qubits, kept as its
    marginal and correlation: up to MAX_QUBITS_SPARSE qubits."""
    check_qubits(n, MAX_QUBITS_SPARSE)
    ch = KrausChannel.__new__(KrausChannel)
    ch._setup(n, markov=_markov_parameters(p_vec, mu))
    return ch


def bit_flip_channel(n: int, p: float, mu: float = 0.0) -> KrausChannel:
    """Correlated bit-flip channel: per-qubit marginal [1-p, p, 0, 0]."""
    return correlated_pauli_channel(n, [1.0 - p, p, 0.0, 0.0], mu)


def dephasing_channel(n: int, p: float, mu: float = 0.0) -> KrausChannel:
    """Correlated phase-flip channel: per-qubit marginal [1-p, 0, 0, p]."""
    return correlated_pauli_channel(n, [1.0 - p, 0.0, 0.0, p], mu)


def depolarizing_channel(n: int, q: float, mu: float = 0.0) -> KrausChannel:
    """Correlated depolarizing channel: marginal [1-3q/4, q/4, q/4, q/4].

    q = 1 contracts the single-qubit Bloch sphere to a point (every
    non-identity diagonal entry vanishes), so that channel is not
    invertible.
    """
    return correlated_pauli_channel(
        n, [1.0 - 0.75 * q, 0.25 * q, 0.25 * q, 0.25 * q], mu
    )


def correlated_amplitude_damping(eta: float, mu: float) -> KrausChannel:
    """Two-qubit amplitude damping with correlation parameter mu.

    A convex mixture of two independent single-qubit dampings (weight
    1 - mu) and a collective damping acting only on |11> (weight mu);
    1 - eta is the per-use loss probability.
    """
    eta = float(eta)
    mu = float(mu)
    if not 0.0 <= eta <= 1.0:
        raise InvalidProbability(f"transmissivity must be in [0, 1], got {eta}")
    if not 0.0 <= mu <= 1.0:
        raise InvalidCorrelation(f"correlation parameter must be in [0, 1], got {mu}")
    E0 = np.array([[1.0, 0.0], [0.0, np.sqrt(eta)]], dtype=complex)
    E1 = np.array([[0.0, np.sqrt(1.0 - eta)], [0.0, 0.0]], dtype=complex)
    singles = [np.kron(a, b) for a in (E0, E1) for b in (E0, E1)]
    B0 = np.diag(np.array([1.0, 1.0, 1.0, np.sqrt(eta)], dtype=complex))
    B1 = np.zeros((4, 4), dtype=complex)
    B1[0, 3] = np.sqrt(1.0 - eta)
    ops = [np.sqrt(1.0 - mu) * A for A in singles] + [np.sqrt(mu) * B for B in (B0, B1)]
    ops = [K for K in ops if np.max(np.abs(K)) > 0.0]
    return KrausChannel(ops)


# The keys each family's config may hold.
_FAMILY_KEYS = {
    "bit_flip": ("family", "n", "p", "mu"),
    "depolarizing": ("family", "n", "q", "mu"),
    "dephasing": ("family", "n", "p", "mu"),
    "pauli_custom": ("family", "n", "p_vec", "mu", "beta"),
    "amp_damp_corr": ("family", "n", "eta", "mu"),
}
CHANNEL_FAMILIES = tuple(_FAMILY_KEYS)

# Key under which each family stores its scalar strength in a config.
STRENGTH_KEYS = {
    "bit_flip": "p",
    "depolarizing": "q",
    "dephasing": "p",
    "amp_damp_corr": "eta",
}


def channel_from_config(cfg: Mapping) -> KrausChannel:
    """Build a channel from a configuration mapping.

    Required key ``family``; the remaining keys depend on the family:

    * ``bit_flip`` / ``dephasing``: ``n``, ``p``, optional ``mu``
    * ``depolarizing``: ``n``, ``q``, optional ``mu``
    * ``pauli_custom``: ``n`` plus either ``p_vec`` (+ optional ``mu``)
      or ``beta`` (list of length 4**n, or {pauli-string: weight})
    * ``amp_damp_corr``: ``eta``, ``mu`` (n is fixed at 2)

    Any other key, ``beta`` with ``p_vec`` or ``mu``, raises ConfigError.
    """
    try:
        family = _config_object(cfg, "channel config")["family"]
    except KeyError:
        raise ConfigError("channel config lacks the 'family' key") from None
    if family not in CHANNEL_FAMILIES:
        raise ConfigError(
            f"unknown channel family {family!r}; expected one of {CHANNEL_FAMILIES}"
        )
    _config_keys(cfg, _FAMILY_KEYS[family], f"channel config for {family!r}")
    if "beta" in cfg and ("p_vec" in cfg or "mu" in cfg):
        raise ConfigError("pauli_custom takes 'beta' alone, or 'p_vec' with optional 'mu'; "
                          f"got 'beta' with {'p_vec' if 'p_vec' in cfg else 'mu'!r}")
    try:
        if family == "amp_damp_corr":
            if _config_int(cfg.get("n", 2), "n") != 2:
                raise ConfigError("amp_damp_corr is defined for n=2 only")
            return correlated_amplitude_damping(_config_float(cfg["eta"], "eta"),
                                                _config_float(cfg.get("mu", 0.0), "mu"))
        n = _config_int(cfg["n"], "n")
        mu = _config_float(cfg.get("mu", 0.0), "mu")
        if family == "bit_flip":
            return bit_flip_channel(n, _config_float(cfg["p"], "p"), mu)
        if family == "dephasing":
            return dephasing_channel(n, _config_float(cfg["p"], "p"), mu)
        if family == "depolarizing":
            return depolarizing_channel(n, _config_float(cfg["q"], "q"), mu)
        # pauli_custom
        if "beta" in cfg:
            check_qubits(n)  # before 4**n weights are allocated
            beta = cfg["beta"]
            if isinstance(beta, Mapping):
                w, labels = np.zeros(4**n), {}  # k -> the label that set it
                for label, weight in beta.items():
                    qubits, k = label_index(str(label))
                    if qubits != n:
                        raise ValueError(f"index is for n={qubits}, expected n={n}")
                    if k in labels:
                        raise ConfigError(f"beta label {label!r} repeats {labels[k]!r}")
                    w[k], labels[k] = _config_float(weight, "beta entry"), label
            else:
                w = np.array([_config_float(v, "beta entry") for v in beta])
            return KrausChannel.from_pauli_weights(n, w)
        return correlated_pauli_channel(n, [_config_float(v, "p_vec entry") for v in cfg["p_vec"]], mu)
    except KeyError as exc:
        raise ConfigError(f"channel config for {family!r} lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        if isinstance(exc, (InvalidProbability, InvalidCorrelation)):
            raise
        raise ConfigError(f"bad channel config value: {exc}") from None
