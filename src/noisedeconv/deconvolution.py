"""Recover noiseless expectation values from noisy measurement data.

A plan is one linear map from noisy Pauli expectations to the noiseless
value: weights w_j with <O>_ideal = sum_j w_j <P_j>_noisy.
``plan(obs, channel, m)`` chooses how the weights are found for m
applications of a channel.  With a diagonal transfer matrix they are a
per-term rescaling: each Pauli component of the observable is divided by
the matching diagonal entry to the m-th power, so a plan consults exactly
r entries where r is the number of nonzero components.  Otherwise the
full transfer matrix is transposed and inverted, and the observable's
coefficient vector is pushed through the inverse m times to give the
weights; that path materializes all d^4 matrix entries.  The inverse
belongs to the channel, not to the observable: it is computed once per
PTM and shared by every plan on it, and a plan at m costs m
matrix-vector products.  A general-path plan warns when its weights
amplify the observable's coefficients (sum_j |w_j| / sum_k |c_k|) beyond
CONDITION_WARN: rounding in the data is then amplified as much.

Every source answers ``lambdas(ks)`` with a lookup by index that holds
the diagonal entries at the observable's indices, and ``plan`` asks
once: a full vector answers as it is, and a Markov-correlated channel
computes just those r entries, so the diagonal path costs O(r * n) at
any n up to channels.MAX_QUBITS_SPARSE.  A characterization
report is a lambda source like any channel: a diagonal report gives its
rows (a term it lacks raises MissingMeasurement), and a full report
answers as its transfer matrix does: an exact report of Pauli noise
consults r entries.

Plans are immutable; ``deconvolve`` is a pure function of the plan and
the supplied noisy expectation values, summed in ascending index order
so results do not depend on scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channels import PTM, Channel
from .exceptions import (
    DimensionMismatch,
    IllConditionedWarning,
    MathematicalError,
    MissingMeasurement,
    NonInvertibleChannel,
    NotPauliDiagonal,
    SingularPTM,
)
from .pauli import Observable

__all__ = [
    "DeconvolutionPlan",
    "plan",
    "plan_pauli",
    "rescaling_weights",
    "plan_general",
    "deconvolve",
    "propagated_std_error",
    "INVERTIBILITY_TOL",
    "CONDITION_WARN",
]

INVERTIBILITY_TOL = 1e-12
CONDITION_WARN = 1e8

# Relative threshold below which an inverse-map weight is treated as an
# exact zero, so no measurement is demanded for that basis element.
_WEIGHT_PRUNE = 1e-12


@dataclass(frozen=True)
class DeconvolutionPlan:
    """Everything needed to turn noisy Pauli expectations into the ideal one.

    ``weights`` maps each required measurement index j to its coefficient,
    so the deconvolved value is sum_j weights[j] * noisy[j] on both paths:
    c_k * lambda_k**(-m) for each term k on the diagonal path, the m-fold
    image of the coefficients under inv(Gamma^T) on the general one.
    ``entries_consulted`` counts transfer-matrix entries used: r for the
    diagonal path, d^4 for the general one.
    """

    observable: Observable
    entries_consulted: int
    weights: dict[int, float]


def _finite(x: float, what: str) -> float:
    if not math.isfinite(x):
        raise MathematicalError(f"{what} is {float(x)!r}; the inputs overflow the float range")
    return x


def plan(obs: Observable, ch: Channel, m: int = 1) -> DeconvolutionPlan:
    """Plan the recovery of ``obs`` after m applications of ``ch`` (a channel or a
    characterization report): the diagonal path when ``ch.lambdas(ks)`` answers for
    the observable's indices, an answer the rescaling then reads, and the general
    one on ``ch.ptm()`` when it raises NotPauliDiagonal."""
    try:
        lam = ch.lambdas(obs.terms if obs.n == ch.n else ())  # a mismatch is refused by either path
    except NotPauliDiagonal:
        return plan_general(obs, ch.ptm(), m=m)
    return plan_pauli(obs, ch, m, lam)


def plan_pauli(obs: Observable, ch: Channel, m: int = 1, lam=None) -> DeconvolutionPlan:
    """Diagonal-path plan: divide each term k by lambda_k**m (m applications of the
    channel), the one-m case of ``rescaling_weights``.  ``lam`` is ``ch.lambdas(ks)``
    for the observable's indices, a lookup by k, asked of ``ch`` when not given."""
    if m < 0:
        raise ValueError(f"repetition count must be >= 0, got {m}")
    if ch.n != obs.n:
        raise DimensionMismatch(f"observable is on n={obs.n}, channel on n={ch.n}")
    if lam is None:
        lam = ch.lambdas(obs.terms)
    weights = rescaling_weights(obs.terms, lam, [m])[0]
    return DeconvolutionPlan(observable=obs, entries_consulted=len(weights), weights=dict(zip(obs.terms, weights)))


def rescaling_weights(terms: dict[int, float], lam, ms) -> list[list[float]]:
    """The diagonal path's weights c_k / lambda_k**m of each term k -> c_k, a row per m in
    ``ms``.  Refuses, k by k, a lambda_k missing from ``lam`` and |lambda_k| <=
    INVERTIBILITY_TOL; then, m-major, the first lambda_k**(-m) that overflows."""
    lams = []
    for k in terms:
        try:
            lam_k = float(lam[k])
        except KeyError:
            raise MissingMeasurement(f"characterization report lacks the diagonal entry k={k}") from None
        if abs(lam_k) <= INVERTIBILITY_TOL:
            raise NonInvertibleChannel(f"diagonal entry {lam_k!r} at k={k} is not invertible (tol {INVERTIBILITY_TOL})")
        lams.append(lam_k)
    table = []
    for m in ms:
        row = []
        for k, coeff, lam_k in zip(terms, terms.values(), lams):
            power = lam_k ** m
            if power == 0.0 or not math.isfinite(1.0 / power):
                raise NonInvertibleChannel(f"lambda_k**(-m) overflows at k={k}, m={m}")
            row.append(coeff / power)
        table.append(row)
    return table


def _check_condition(cond: float, cond_warn: float) -> None:
    """Refuse a numerically singular matrix; warn above ``cond_warn``,
    attributed to the caller of the plan that asked for the inverse."""
    if not np.isfinite(cond) or cond > 1.0 / np.finfo(float).eps:
        raise SingularPTM(f"transfer matrix is numerically singular (cond {cond:.3e})")
    if cond > cond_warn:
        warnings.warn(
            f"transfer-matrix inversion with condition number {cond:.3e}",
            IllConditionedWarning,
            stacklevel=4,
        )


def _condition_bound(adj: np.ndarray, inv: np.ndarray) -> float:
    """sqrt(kappa_1 * kappa_inf) of ``adj`` from its inverse ``inv``: exact
    once the inverse exists, never below the 2-norm condition number
    kappa_2 (||A||_2**2 <= ||A||_1 * ||A||_inf) and equal to it for a
    diagonal matrix.  inf or nan when the inverse overflowed.  Taken as
    sqrt(kappa_1) * sqrt(kappa_inf) in Python floats, so that a bound past
    sqrt(float max), such as 1e160, neither overflows nor warns."""
    adj_1, adj_inf = _one_and_inf_norms(adj)
    inv_1, inv_inf = _one_and_inf_norms(inv)
    return math.sqrt(adj_1 * inv_1) * math.sqrt(adj_inf * inv_inf)


def _one_and_inf_norms(a: np.ndarray) -> tuple[float, float]:
    """``np.linalg.norm(a, 1)`` and ``np.linalg.norm(a, np.inf)``, by the same
    reductions, from one pass of ``np.abs``."""
    a = np.abs(a)
    return float(a.sum(axis=0).max()), float(a.sum(axis=1).max())


def _invert_adjoint(matrix: np.ndarray, cond_warn: float, keep_on: PTM | None = None) -> np.ndarray:
    """inv(matrix.T) behind the singularity gate and the conditioning
    warning, both read from the bound sqrt(kappa_1 * kappa_inf) >= kappa_2
    of the inverse just made; every inversion on the general path runs here.
    With ``keep_on``, the PTM of ``matrix``, the inverse (read-only) and that
    bound are kept on it, so the bound is computed once per PTM."""
    adj = matrix.T
    try:
        inv = np.linalg.inv(adj)
    except np.linalg.LinAlgError as exc:
        raise SingularPTM(str(exc)) from None
    cond = _condition_bound(adj, inv)
    _check_condition(cond, cond_warn)
    if keep_on is not None:
        inv.setflags(write=False)
        keep_on._inverse_adjoint, keep_on._condition_number = inv, cond
    return inv


def _kept_inverse_adjoint(ptm: PTM) -> tuple[np.ndarray | None, float]:
    """inv(Gamma^T) of ``ptm`` and its condition bound, from one inversion on
    first use and kept on the PTM; (None, inf) once the inversion refused
    the matrix as singular, so no later call inverts it again."""
    with ptm._lock:
        if ptm._condition_number is None:
            try:
                _invert_adjoint(ptm.matrix, math.inf, keep_on=ptm)
            except SingularPTM:
                ptm._condition_number = math.inf
        return ptm._inverse_adjoint, ptm._condition_number


def _shared_inverse_adjoint(ptm: PTM) -> np.ndarray:
    """The kept inv(Gamma^T) of ``ptm``, shared read-only by every plan on it.
    The singularity gate and the conditioning warning (above CONDITION_WARN)
    apply on every call, to the kept bound sqrt(kappa_1 * kappa_inf) >= kappa_2."""
    inv, cond = _kept_inverse_adjoint(ptm)
    _check_condition(cond, CONDITION_WARN)
    return inv


def _pruned_weights(w: np.ndarray) -> dict[int, float]:
    """Nonzero entries of a weight vector, relative cut _WEIGHT_PRUNE."""
    cut = _WEIGHT_PRUNE * max(1.0, float(np.max(np.abs(w))))
    return {int(j): float(w[j]) for j in np.nonzero(np.abs(w) > cut)[0]}


def _warn_amplified(w: np.ndarray, scale: float, m: int) -> bool:
    """Warn, attributed to the caller of ``plan_general``, when the 1-norm of the weights
    ``w`` passes CONDITION_WARN times ``scale``, the coefficients' 1-norm; True if it warned."""
    amplification = float(np.sum(np.abs(w)))
    if amplification > CONDITION_WARN * scale:
        message = f"deconvolution weights amplify the observable by {amplification / scale:.3e} (m = {m})"
        warnings.warn(message, IllConditionedWarning, stacklevel=3)
    return amplification > CONDITION_WARN * scale


def plan_general(obs: Observable, ptm: PTM, m: int = 1) -> DeconvolutionPlan:
    """General-path plan: the inverse of the transposed transfer matrix, which ``ptm``
    computes once and shares with every plan on it, applied m times to the coefficients.
    Warns when the weights' 1-norm exceeds CONDITION_WARN times the coefficients'.  An
    observable with no terms plans no weights and consults no entry, as on the diagonal path."""
    if m < 0:
        raise ValueError(f"repetition count must be >= 0, got {m}")
    if ptm.n != obs.n:
        raise DimensionMismatch(f"observable is on n={obs.n}, transfer matrix on n={ptm.n}")
    if not obs.terms:
        return DeconvolutionPlan(observable=obs, entries_consulted=0, weights={})
    inv = _shared_inverse_adjoint(ptm)
    w = obs.coefficient_vector()
    for _ in range(m):
        w = inv @ w
    _warn_amplified(w, sum(abs(c) for c in obs.terms.values()), m)
    return DeconvolutionPlan(observable=obs, entries_consulted=inv.size, weights=_pruned_weights(w))


def deconvolve(plan: DeconvolutionPlan, noisy) -> float:
    """Combine noisy expectation values into the noiseless one.

    ``noisy`` maps flat Pauli indices k (ints) to measured values and must
    cover every index in ``plan.weights``.
    """
    table = {int(k): float(v) for k, v in noisy.items()}
    total = 0.0
    for j in sorted(plan.weights):
        if j not in table:
            raise MissingMeasurement(f"no measurement supplied for index {j}")
        total += plan.weights[j] * table[j]
    return _finite(total, "deconvolved value")


def propagated_std_error(plan: DeconvolutionPlan, std_errors) -> float:
    """Standard error of the deconvolved value for independent inputs, from
    ``std_errors`` keyed by flat Pauli index k (an int); a missing k counts as 0."""
    table = {int(k): float(v) for k, v in std_errors.items()}
    acc = 0.0
    try:
        for j in sorted(plan.weights):
            # ``** 2`` is libm's pow, not always rounded as x * x (glibc 2.36: about 0.1% of
            # doubles), so the last bit can depend on the libm; x * x moves golden digests.
            acc += (plan.weights[j] * table.get(j, 0.0)) ** 2
    except OverflowError:  # float ** 2 raises where numpy scalars give inf
        acc = float("inf")
    return _finite(math.sqrt(acc), "propagated standard error")

