"""Quantum channels: Kraus sets and Pauli transfer matrices.

Two representations share one interface (``n``, ``d``, ``lambdas()``,
``ptm()`` and ``apply(rho, method)``):

* :class:`KrausChannel` -- explicit operator-sum form; also carries the
  probability vector over Pauli strings when the channel is a random
  Pauli map, which unlocks the fast diagonal paths below.
* :class:`PTM` -- the full d^2 x d^2 real transfer matrix with entries
  Tr[P_j Phi(P_q)]/d.

Conversions are explicit and cached per instance.  Diagonal entries of a
Pauli channel are computed from the commutation signs between Pauli
strings (lambda_j = sum_m beta_m * s(m, j)) instead of matrix traces,
which keeps the cost per entry linear in the number of weights.  A
general Kraus set gets its transfer matrix from the superoperator
sum_i K_i (x) conj(K_i), taken to the Pauli basis by per-qubit 4x4
kernels on both sides, with no loop over the 4**n basis strings.

A PTM's entries are fixed for its lifetime (``matrix`` is a read-only
property), so the general deconvolution path inverts the transposed
matrix once per PTM: the inverse and the condition bound
sqrt(kappa_1 * kappa_inf) >= kappa_2 taken from it (no SVD) are kept on
the PTM and shared, read-only, by every plan built on it.

Channel families:

* ``correlated_pauli_channel`` -- per-qubit error distribution chained by
  a Markov rule with correlation parameter mu in [0, 1] (mu=0 memoryless,
  mu=1 full memory).
* ``bit_flip_channel`` / ``depolarizing_channel`` / ``dephasing_channel``
  -- standard single-parameter marginals fed into the correlated family.
* ``correlated_amplitude_damping`` -- two-qubit non-Pauli channel mixing
  independent per-qubit damping with a collective damping term.

Dense full transfer matrices are capped at MAX_QUBITS_FULL_PTM qubits;
diagonal-only computations extend to pauli.MAX_QUBITS.
"""

from __future__ import annotations

import numbers
import threading
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
    PauliIndex,
    _transform_per_qubit,
    as_index,
    check_qubits,
    devectorize,
    num_qubits,
    pauli_element,
    vectorize,
)

__all__ = [
    "MAX_QUBITS_FULL_PTM",
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

TP_TOL = 1e-10
DIAGONAL_TOL = 1e-12
PTM_IMAG_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12

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
    deconvolution path) are computed once and kept.
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
            if resid >= PTM_IMAG_TOL:
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
        # observable terms -> (m, inverse applied m times to its coefficients),
        # the latest image per observable, kept by the general deconvolution path.
        self._inverse_images: dict[tuple, tuple[int, np.ndarray]] = {}
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

    def lambdas(self) -> np.ndarray:
        """Diagonal entries of a Pauli-diagonal map: lambda_0 = 1 (the
        first-row check) and every |lambda_k| <= 1.  The verdict is reached
        once per PTM; a refusal raises again on every call."""
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
        return _readonly(lam), None

    def ptm(self) -> "PTM":
        return self

    def apply(self, rho: np.ndarray, method: str = "auto") -> np.ndarray:
        """Map rho through the matrix (``auto``/``ptm``) or its diagonal."""
        return _apply_transfer(self, _as_operator(rho, self.d), "ptm" if method == "auto" else method)

    def __repr__(self) -> str:
        return f"PTM(n={self.n}, shape={self.matrix.shape})"


class KrausChannel:
    """Channel in operator-sum form: rho -> sum_i K_i rho K_i^dag.

    When the channel is a random Pauli map, construct it through
    :meth:`from_pauli_weights` (or the family helpers); the weight vector
    is then available as ``pauli_weights`` and the Kraus operators
    sqrt(w_k) P_k are materialized lazily on first access.  Operators given
    directly must satisfy sum K^dag K = 1 to within TP_TOL.
    """

    def __init__(self, kraus_ops: Sequence[np.ndarray]):
        ops = [np.asarray(K, dtype=complex) for K in kraus_ops]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        self.n = num_qubits(ops[0])
        for K in ops:
            if K.shape != ops[0].shape:
                raise DimensionMismatch("Kraus operators must share one shape")
        acc = sum(K.conj().T @ K for K in ops)
        if np.max(np.abs(acc - np.eye(self.d))) > TP_TOL:
            raise NotTracePreserving(f"sum K^dag K deviates from identity beyond {TP_TOL}")
        self._kraus: list[np.ndarray] | None = [_readonly(K) for K in ops]
        self._weights: np.ndarray | None = None
        self._lambdas: np.ndarray | None = None
        self._ptm: PTM | None = None
        self._lock = threading.RLock()

    @classmethod
    def from_pauli_weights(cls, n: int, weights) -> "KrausChannel":
        """Random Pauli map with probability weights[k] on Pauli string k."""
        check_qubits(n)
        w = _validate_probability_vector(weights, 4**n, "Pauli weight vector")
        self = cls.__new__(cls)
        self.n = int(n)
        self._kraus = None
        self._weights = _readonly(w)
        self._lambdas = None
        self._ptm = None
        self._lock = threading.RLock()
        return self

    @property
    def d(self) -> int:
        return 2**self.n

    @property
    def pauli_weights(self) -> np.ndarray | None:
        return self._weights

    @property
    def is_pauli(self) -> bool:
        return self._weights is not None

    @property
    def kraus_ops(self) -> list[np.ndarray]:
        with self._lock:
            if self._kraus is None:
                ops = []
                for k in np.nonzero(self._weights)[0]:
                    K = np.sqrt(self._weights[k]) * pauli_element(int(k), self.n)
                    ops.append(_readonly(K))
                self._kraus = ops
        return self._kraus

    def lambdas(self) -> np.ndarray:
        """Diagonal transfer-matrix entries.  A Pauli map gets them from its
        weights through the per-qubit commutation signs, once, without the
        full matrix (so up to n = MAX_QUBITS), with lambda_0 = 1 exactly."""
        if self._lambdas is not None:  # set once, so read without the lock
            return self._lambdas
        with self._lock:
            if self._lambdas is None:
                if self._weights is not None:
                    lam = _transform_per_qubit([_COMMUTATION_SIGNS] * self.n, self._weights)
                    lam[0] = 1.0  # trace preservation; the transform gives sum(w), off by rounding
                    self._lambdas = _readonly(lam)
                else:
                    self._lambdas = self._ptm_locked().lambdas()
        return self._lambdas

    def _ptm_locked(self) -> PTM:
        if self._ptm is None:
            if self._weights is not None:
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
        rho = _as_operator(rho, self.d)
        if method == "auto":
            method = "diagonal" if (self.is_pauli and self.n >= 4) else "kraus"
        if method == "kraus":
            out = np.zeros_like(rho)
            for K in self.kraus_ops:
                out += K @ rho @ K.conj().T
            return out
        return _apply_transfer(self, rho, method)

    def __repr__(self) -> str:
        kind = "pauli" if self.is_pauli else "generic"
        return f"KrausChannel(n={self.n}, kind={kind})"


Channel = Union[KrausChannel, PTM]


def _as_operator(rho, d: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise DimensionMismatch(f"state shape {rho.shape} does not match d={d}")
    return rho


def _apply_transfer(ch: Channel, rho: np.ndarray, method: str) -> np.ndarray:
    if method == "diagonal":
        return devectorize(ch.lambdas() * vectorize(rho))
    if method == "ptm":
        return devectorize(ch.ptm().matrix @ vectorize(rho))
    raise ValueError(f"unknown application method {method!r}")


def _superoperator_ptm(kraus_ops: Sequence[np.ndarray], n: int) -> PTM:
    """Transfer matrix of rho -> sum_i K_i rho K_i^dag in one basis change.

    S = sum_i K_i (x) conj(K_i) maps the row-major entries of rho to those
    of its image; one product over the stacked operators forms it.  With
    each qubit's (row, column) entry axes made adjacent, the vectorize
    kernel on the output side and the devectorize kernel on the input side
    give Gamma = V S W / d in 2n per-qubit contractions.
    """
    check_qubits(n, MAX_QUBITS_FULL_PTM)
    d = 2**n
    stacked = np.stack(kraus_ops).reshape(len(kraus_ops), d * d)
    # S[(a, c), (b, e)] = sum_i K_i[a, c] conj(K_i[b, e]), for output entry
    # (a, b) and input entry (c, e); axes a, c, b, e hold n qubit bits each.
    S = (stacked.T @ stacked.conj()).reshape((2,) * (4 * n))
    a, c, b, e = (range(i * n, (i + 1) * n) for i in range(4))
    order = [ax for q in range(n) for ax in (a[q], b[q])] + [ax for q in range(n) for ax in (c[q], e[q])]
    S = np.ascontiguousarray(S.transpose(order))
    gamma = _transform_per_qubit([_VEC_KERNEL] * n + [_DEVEC_KERNEL.T] * n, S)
    gamma /= d
    return PTM(n, gamma.reshape(d * d, d * d))


def apply_channel(ch: Channel, rho: np.ndarray, method: str = "auto") -> np.ndarray:
    """Apply a channel to a density matrix (or any operator)."""
    return ch.apply(rho, method=method)


def correlated_pauli_weights(n: int, p_vec, mu: float) -> np.ndarray:
    """Pauli-string probabilities of the Markov-correlated family.

    The first qubit draws its error index from ``p_vec``; every later
    qubit repeats its predecessor's index with probability mu and draws
    fresh from ``p_vec`` otherwise:

        w[a_1 ... a_n] = p[a_1] * prod_j ((1 - mu) p[a_j] + mu delta(a_{j-1}, a_j))
    """
    check_qubits(n)
    p = _validate_probability_vector(p_vec, 4, "p_vec")
    mu = float(mu)
    if not 0.0 <= mu <= 1.0:
        raise InvalidCorrelation(f"correlation parameter must be in [0, 1], got {mu}")
    cond = (1.0 - mu) * np.tile(p, (4, 1)) + mu * np.eye(4)
    w = p
    for _ in range(n - 1):
        w = w[..., None] * cond
    w = w.reshape(-1)
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidProbability(f"weights sum to {float(w.sum())!r}, expected 1")
    return w


def correlated_pauli_channel(n: int, p_vec, mu: float) -> KrausChannel:
    """Markov-correlated random Pauli channel on n qubits."""
    return KrausChannel.from_pauli_weights(n, correlated_pauli_weights(n, p_vec, mu))


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
    B0 = np.diag([1.0, 1.0, 1.0, np.sqrt(eta)]).astype(complex)
    B1 = np.zeros((4, 4), dtype=complex)
    B1[0, 3] = np.sqrt(1.0 - eta)
    ops = [np.sqrt(1.0 - mu) * A for A in singles] + [np.sqrt(mu) * B for B in (B0, B1)]
    ops = [K for K in ops if np.max(np.abs(K)) > 0.0]
    return KrausChannel(ops)


CHANNEL_FAMILIES = ("bit_flip", "depolarizing", "dephasing", "pauli_custom", "amp_damp_corr")

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
    """
    try:
        family = cfg["family"]
    except (KeyError, TypeError):
        raise ConfigError("channel config lacks the 'family' key") from None
    if family not in CHANNEL_FAMILIES:
        raise ConfigError(
            f"unknown channel family {family!r}; expected one of {CHANNEL_FAMILIES}"
        )
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
                w = np.zeros(4**n)
                for label, weight in beta.items():
                    w[as_index(PauliIndex.from_label(str(label)), n).k] = _config_float(weight, "beta entry")
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
