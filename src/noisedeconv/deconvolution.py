"""Recover noiseless expectation values from noisy measurement data.

``plan(obs, channel, m)`` chooses the path for m applications of a
channel.  With a diagonal transfer matrix the recovery is a per-term
rescaling: each Pauli component of the observable is divided by the
matching diagonal entry to the m-th power, so a plan consults exactly r
entries where r is the number of nonzero components.  Otherwise the full
transfer matrix is transposed and inverted, and the observable's
coefficient vector is pushed through the inverse m times; that path
materializes all d^4 matrix entries.  The inverse belongs to the channel,
not to the observable: it is computed once per PTM and shared by every
plan on it, and the PTM keeps each observable's latest m-fold image, so
plans at m, m + 1, ... cost one matrix-vector product each.

Plans are immutable; ``deconvolve`` is a pure function of the plan and
the supplied noisy expectation values, summed in ascending index order
so results do not depend on scheduling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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
from .pauli import Observable, PauliIndex

__all__ = [
    "DeconvolutionPlan",
    "plan",
    "plan_pauli",
    "plan_general",
    "plan_composed",
    "plan_from_characterization",
    "deconvolve",
    "propagated_std_error",
    "reconstruction_factor",
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

    Exactly one of ``factors`` (diagonal path: k -> lambda_k**(-m)) and
    ``inverse_adjoint_ptm`` (general path: the one-step inverse inv(Gamma^T)
    for every m) is set.  ``weights`` maps each required measurement index j
    to its final coefficient, so the deconvolved value is
    sum_j weights[j] * noisy[j] in both cases.  ``inverse_adjoint_ptm`` is
    read-only: every ``plan_general`` plan on one PTM shares the array that
    PTM keeps for its lifetime, so a second plan costs no inversion.
    ``entries_consulted`` counts transfer-matrix entries used: r for the
    diagonal path, d^4 for the general one.
    """

    observable: Observable
    entries_consulted: int
    factors: dict[int, float] | None = None
    inverse_adjoint_ptm: np.ndarray | None = None
    weights: dict[int, float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.observable.n

    @property
    def required_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.weights))


def _as_k(key) -> int:
    return key.k if isinstance(key, PauliIndex) else int(key)


def _finite(x: float, what: str) -> float:
    if not math.isfinite(x):
        raise MathematicalError(f"{what} is {float(x)!r}; the inputs overflow the float range")
    return x


def _diagonal_power(lam: float, k: int, m: int, inv_tol: float) -> float:
    """lam**m for the diagonal entry at k; refuses |lam| <= inv_tol and an overflowing lam**(-m)."""
    if abs(lam) <= inv_tol:
        raise NonInvertibleChannel(
            f"diagonal entry {float(lam)!r} at k={k} is not invertible (tol {inv_tol})"
        )
    power = float(lam) ** m
    if power == 0.0 or not math.isfinite(1.0 / power):
        raise NonInvertibleChannel(f"lambda_k**(-m) overflows at k={k}, m={m}")
    return power


def _rescaling_plan(obs: Observable, lam, inv_tol: float, m: int = 1) -> DeconvolutionPlan:
    """Diagonal-path plan: divide each term k by lam[k]**m."""
    factors: dict[int, float] = {}
    weights: dict[int, float] = {}
    for k, coeff in obs.items():
        power = _diagonal_power(lam[k], k, m, inv_tol)
        factors[k] = 1.0 / power
        weights[k] = coeff / power
    return DeconvolutionPlan(
        observable=obs,
        entries_consulted=len(factors),
        factors=factors,
        weights=weights,
    )


def plan(obs: Observable, ch: Channel, m: int = 1) -> DeconvolutionPlan:
    """Plan the recovery of ``obs`` after m applications of ``ch``: the diagonal
    path when the channel's transfer matrix is diagonal, the general one otherwise."""
    try:
        ch.lambdas()
    except NotPauliDiagonal:
        return plan_general(obs, ch.ptm(), m=m)
    return plan_pauli(obs, ch, m=m)


def plan_pauli(obs: Observable, ch: Channel, inv_tol: float = INVERTIBILITY_TOL,
               m: int = 1) -> DeconvolutionPlan:
    """Diagonal-path plan: divide each term k by lambda_k**m (m applications of the channel)."""
    if m < 0:
        raise ValueError(f"repetition count must be >= 0, got {m}")
    if ch.n != obs.n:
        raise DimensionMismatch(f"observable is on n={obs.n}, channel on n={ch.n}")
    return _rescaling_plan(obs, ch.lambdas(), inv_tol, m)


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


def _invert_adjoint(matrix: np.ndarray, cond_warn: float, cond: float | None = None) -> np.ndarray:
    """inv(matrix.T) behind the singularity gate and the conditioning
    warning; every inversion on the general path runs here.  ``cond`` is
    the 2-norm condition number when the caller already has it, else one
    SVD computes it."""
    adj = matrix.T
    _check_condition(np.linalg.cond(adj) if cond is None else cond, cond_warn)
    try:
        return np.linalg.inv(adj)
    except np.linalg.LinAlgError as exc:
        raise SingularPTM(str(exc)) from None


def _shared_inverse_adjoint(ptm: PTM, cond_warn: float) -> np.ndarray:
    """inv(Gamma^T) of ``ptm``, inverted on first use and kept on the PTM;
    every later plan on it shares that read-only array.  The singularity
    gate and the conditioning warning apply on every call, against this
    call's ``cond_warn``."""
    with ptm._lock:
        cond = ptm.condition_number
        _check_condition(cond, cond_warn)
        if ptm._inverse_adjoint is None:
            inv = _invert_adjoint(ptm.matrix, math.inf, cond)
            inv.setflags(write=False)
            ptm._inverse_adjoint = inv
        return ptm._inverse_adjoint


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
    computes once and shares with every plan on it, applied m times to the coefficients."""
    if m < 0:
        raise ValueError(f"repetition count must be >= 0, got {m}")
    if ptm.n != obs.n:
        raise DimensionMismatch(f"observable is on n={obs.n}, transfer matrix on n={ptm.n}")
    inv = _shared_inverse_adjoint(ptm, cond_warn)
    return DeconvolutionPlan(
        observable=obs,
        entries_consulted=inv.size,
        inverse_adjoint_ptm=inv,
        weights=_pruned_weights(_inverse_image(ptm, inv, obs, m)),
    )


def plan_composed(
    obs: Observable,
    pauli_part: Channel,
    other: PTM,
    pauli_first: bool = True,
    inv_tol: float = INVERTIBILITY_TOL,
    cond_warn: float = CONDITION_WARN,
) -> DeconvolutionPlan:
    """Plan for a composition of a diagonal channel with a general one.

    Only the non-diagonal factor is inverted numerically; the diagonal
    factor enters as an analytic rescaling of the inverse's rows or
    columns (``pauli_first`` states which map acts on the state first).
    """
    if pauli_part.n != obs.n or other.n != obs.n:
        raise DimensionMismatch("observable and both channel factors must share one qubit count")
    lam = pauli_part.lambdas()
    k = int(np.argmin(np.abs(lam)))
    _diagonal_power(lam[k], k, 1, inv_tol)  # refuses the smallest entry if it is not invertible
    inv_other = _shared_inverse_adjoint(other, cond_warn)
    if pauli_first:
        # Gamma = Gamma_other @ D, so inv(Gamma^T) = inv(other^T) scaled
        # on the right ... columns divided by lambda.
        inv = inv_other / lam[None, :]
    else:
        inv = inv_other / lam[:, None]
    inv.setflags(write=False)
    return DeconvolutionPlan(
        observable=obs,
        entries_consulted=inv.size,
        inverse_adjoint_ptm=inv,
        weights=_pruned_weights(inv @ obs.coefficient_vector()),
    )


def plan_from_characterization(obs: Observable, char, inv_tol: float = INVERTIBILITY_TOL,
                               cond_warn: float = CONDITION_WARN) -> DeconvolutionPlan:
    """Plan built from estimated transfer-matrix entries.

    ``char`` is a CharacterizedPTM: diagonal-only reports supply the
    reciprocal factors directly, full reports go through the general
    inversion path.
    """
    if char.mode == "full":
        return plan_general(obs, char.to_ptm(), cond_warn)
    lam: dict[int, float] = {}
    for k in obs.terms:
        entry = char.entries.get((k, k), (1.0, 0.0) if k == 0 else None)
        if entry is None:
            raise MissingMeasurement(f"characterization report lacks the diagonal entry k={k}")
        lam[k] = entry[0]
    return _rescaling_plan(obs, lam, inv_tol)


def deconvolve(plan: DeconvolutionPlan, noisy) -> float:
    """Combine noisy expectation values into the noiseless one.

    ``noisy`` maps Pauli indices (ints or PauliIndex) to measured values
    and must cover every index in ``plan.required_indices``.
    """
    table = {_as_k(key): float(v) for key, v in noisy.items()}
    total = 0.0
    for j in sorted(plan.weights):
        if j not in table:
            raise MissingMeasurement(f"no measurement supplied for index {j}")
        total += plan.weights[j] * table[j]
    return _finite(total, "deconvolved value")


def propagated_std_error(plan: DeconvolutionPlan, std_errors) -> float:
    """Standard error of the deconvolved value for independent inputs."""
    table = {_as_k(key): float(v) for key, v in std_errors.items()}
    acc = 0.0
    try:
        for j in sorted(plan.weights):
            acc += (plan.weights[j] * table.get(j, 0.0)) ** 2
    except OverflowError:  # float ** 2 raises where numpy scalars give inf
        acc = float("inf")
    return _finite(math.sqrt(acc), "propagated standard error")


def reconstruction_factor(ch: Channel, k, m: int = 1, inv_tol: float = INVERTIBILITY_TOL) -> float:
    """Rescaling factor lambda_k**(-m) for m applications of a diagonal channel."""
    k = _as_k(k)
    return plan_pauli(Observable(ch.n, {k: 1.0}), ch, inv_tol, m).factors[k]
