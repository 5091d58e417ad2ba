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
PTM and shared by every plan on it, and the PTM keeps each observable's
latest m-fold image, so plans at m, m + 1, ... cost one matrix-vector
product each.  A general-path plan warns when its weights amplify the
observable's coefficients (sum_j |w_j| / sum_k |c_k|) beyond
CONDITION_WARN: rounding in the data is then amplified as much.

A characterization report is a lambda source like any channel: a
diagonal report gives its rows (a term it lacks raises
MissingMeasurement), and a full report answers as its transfer matrix
does: an exact report of Pauli noise consults r entries.

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
from .pauli import Observable, PauliIndex, as_index

__all__ = [
    "DeconvolutionPlan",
    "plan",
    "plan_pauli",
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

    @property
    def n(self) -> int:
        return self.observable.n

    @property
    def required_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.weights))


def _as_k(key, n: int) -> int:
    """The flat index of an int key, or of a PauliIndex key, which must be on n qubits."""
    return as_index(key, n).k if isinstance(key, PauliIndex) else int(key)


def _finite(x: float, what: str) -> float:
    if not math.isfinite(x):
        raise MathematicalError(f"{what} is {float(x)!r}; the inputs overflow the float range")
    return x


def plan(obs: Observable, ch: Channel, m: int = 1) -> DeconvolutionPlan:
    """Plan the recovery of ``obs`` after m applications of ``ch`` (a channel or a
    characterization report): the diagonal path when ``ch.lambdas()`` gives the
    diagonal, the general one on ``ch.ptm()`` when it raises NotPauliDiagonal."""
    try:
        ch.lambdas()
    except NotPauliDiagonal:
        return plan_general(obs, ch.ptm(), m=m)
    return plan_pauli(obs, ch, m=m)


def plan_pauli(obs: Observable, ch: Channel, m: int = 1) -> DeconvolutionPlan:
    """Diagonal-path plan: divide each term k by lambda_k**m (m applications of the
    channel).  Refuses |lambda_k| <= INVERTIBILITY_TOL, an overflowing
    lambda_k**(-m), and a report that lacks lambda_k."""
    if m < 0:
        raise ValueError(f"repetition count must be >= 0, got {m}")
    if ch.n != obs.n:
        raise DimensionMismatch(f"observable is on n={obs.n}, channel on n={ch.n}")
    lam = ch.lambdas()
    weights: dict[int, float] = {}
    for k, coeff in obs.items():
        try:
            lam_k = float(lam[k])
        except KeyError:
            raise MissingMeasurement(f"characterization report lacks the diagonal entry k={k}") from None
        if abs(lam_k) <= INVERTIBILITY_TOL:
            raise NonInvertibleChannel(
                f"diagonal entry {lam_k!r} at k={k} is not invertible (tol {INVERTIBILITY_TOL})"
            )
        power = lam_k ** m
        if power == 0.0 or not math.isfinite(1.0 / power):
            raise NonInvertibleChannel(f"lambda_k**(-m) overflows at k={k}, m={m}")
        weights[k] = coeff / power
    return DeconvolutionPlan(observable=obs, entries_consulted=len(weights), weights=weights)


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
    kappa_1 = float(np.linalg.norm(adj, 1)) * float(np.linalg.norm(inv, 1))
    kappa_inf = float(np.linalg.norm(adj, np.inf)) * float(np.linalg.norm(inv, np.inf))
    return math.sqrt(kappa_1) * math.sqrt(kappa_inf)


def _invert_adjoint(matrix: np.ndarray, cond_warn: float) -> np.ndarray:
    """inv(matrix.T) behind the singularity gate and the conditioning
    warning, both read from the bound sqrt(kappa_1 * kappa_inf) >= kappa_2
    of the inverse just made; every inversion on the general path runs here."""
    adj = matrix.T
    try:
        inv = np.linalg.inv(adj)
    except np.linalg.LinAlgError as exc:
        raise SingularPTM(str(exc)) from None
    _check_condition(_condition_bound(adj, inv), cond_warn)
    return inv


def _kept_inverse_adjoint(ptm: PTM) -> tuple[np.ndarray | None, float]:
    """inv(Gamma^T) of ``ptm`` and its condition bound, from one inversion on
    first use and kept on the PTM; (None, inf) once the inversion refused
    the matrix as singular, so no later call inverts it again."""
    with ptm._lock:
        if ptm._condition_number is None:
            try:
                inv = _invert_adjoint(ptm.matrix, math.inf)
            except SingularPTM:
                ptm._condition_number = math.inf
            else:
                inv.setflags(write=False)
                ptm._inverse_adjoint = inv
                ptm._condition_number = _condition_bound(ptm.matrix.T, inv)
        return ptm._inverse_adjoint, ptm._condition_number


def _shared_inverse_adjoint(ptm: PTM, cond_warn: float) -> np.ndarray:
    """The kept inv(Gamma^T) of ``ptm``, shared read-only by every plan on it.
    The singularity gate and the conditioning warning apply on every call,
    to the kept bound sqrt(kappa_1 * kappa_inf) >= kappa_2 and against this
    call's ``cond_warn``."""
    inv, cond = _kept_inverse_adjoint(ptm)
    _check_condition(cond, cond_warn)
    return inv


def _pruned_weights(w: np.ndarray) -> dict[int, float]:
    """Nonzero entries of a weight vector, relative cut _WEIGHT_PRUNE."""
    cut = _WEIGHT_PRUNE * max(1.0, float(np.max(np.abs(w))))
    return {int(j): float(w[j]) for j in np.nonzero(np.abs(w) > cut)[0]}


def _inverse_image(ptm: PTM, inv: np.ndarray, obs: Observable, m: int) -> np.ndarray:
    """``inv`` applied m times to the coefficient vector of ``obs``.  The PTM
    keeps the latest image per observable (about one per matrix row), so
    plans at m, m + 1, ... on one PTM cost one product each."""
    key = tuple(obs.items())
    with ptm._lock:
        start, w = ptm._inverse_images.get(key, (0, None))
        if w is None or start > m:
            start, w = 0, obs.coefficient_vector()
        for _ in range(m - start):
            w = inv @ w
        if len(ptm._inverse_images) > inv.shape[0]:
            ptm._inverse_images.clear()
        ptm._inverse_images[key] = (m, w)
    return w


def plan_general(obs: Observable, ptm: PTM, cond_warn: float = CONDITION_WARN,
                 m: int = 1) -> DeconvolutionPlan:
    """General-path plan: the inverse of the transposed transfer matrix, which ``ptm``
    computes once and shares with every plan on it, applied m times to the coefficients.
    Warns when the weights' 1-norm exceeds ``cond_warn`` times the coefficients'."""
    if m < 0:
        raise ValueError(f"repetition count must be >= 0, got {m}")
    if ptm.n != obs.n:
        raise DimensionMismatch(f"observable is on n={obs.n}, transfer matrix on n={ptm.n}")
    inv = _shared_inverse_adjoint(ptm, cond_warn)
    w = _inverse_image(ptm, inv, obs, m)
    amplification = float(np.sum(np.abs(w)))
    scale = sum(abs(c) for c in obs.terms.values())
    if amplification > cond_warn * scale:
        warnings.warn(
            f"deconvolution weights amplify the observable by {amplification / scale:.3e} (m = {m})",
            IllConditionedWarning,
            stacklevel=2,
        )
    return DeconvolutionPlan(observable=obs, entries_consulted=inv.size, weights=_pruned_weights(w))


def deconvolve(plan: DeconvolutionPlan, noisy) -> float:
    """Combine noisy expectation values into the noiseless one.

    ``noisy`` maps Pauli indices (ints, or PauliIndex on the plan's qubit
    count) to measured values and must cover every index in
    ``plan.required_indices``.
    """
    n = plan.n
    table = {_as_k(key, n): float(v) for key, v in noisy.items()}
    total = 0.0
    for j in sorted(plan.weights):
        if j not in table:
            raise MissingMeasurement(f"no measurement supplied for index {j}")
        total += plan.weights[j] * table[j]
    return _finite(total, "deconvolved value")


def propagated_std_error(plan: DeconvolutionPlan, std_errors) -> float:
    """Standard error of the deconvolved value for independent inputs."""
    n = plan.n
    table = {_as_k(key, n): float(v) for key, v in std_errors.items()}
    acc = 0.0
    try:
        for j in sorted(plan.weights):
            acc += (plan.weights[j] * table.get(j, 0.0)) ** 2
    except OverflowError:  # float ** 2 raises where numpy scalars give inf
        acc = float("inf")
    return _finite(math.sqrt(acc), "propagated standard error")

