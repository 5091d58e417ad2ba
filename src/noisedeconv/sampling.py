"""Exact and shot-sampled Pauli expectation values.

A Pauli string has a +/-1 spectrum, so a finite-shot measurement is a
Bernoulli experiment with success probability (1 + e)/2 where e is the
exact expectation value.  The default sampler draws from that marginal
directly, and ``sample_marginal`` is the one copy of that draw: it takes
e, so a caller holding the state's Pauli coefficient vector reads e from
it (``coefficient_expectations``) with no dense matrix.  A projective
sampler that draws from the full eigenbasis distribution of a density
matrix is available for cross-validation and is equivalent in
distribution for a single observable.

Every sampler consumes a numpy Generator; ``derive_rng`` builds
independent deterministic streams from a base seed plus integer tags so
results do not depend on evaluation order.  ``read_expectations`` is the
one readout the experiments and the probe estimators share: it holds the
exact/sampled switch and the stream layout, one stream
(seed, *tags, j) per entry j read.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .exceptions import ConfigError, InvalidState, ProbabilityOutOfRange
from .pauli import as_index, devectorize, num_qubits, pauli_element

__all__ = [
    "SAMPLING_METHODS",
    "MAX_SHOTS",
    "check_shots_and_seed",
    "derive_rng",
    "exact_pauli_expectation",
    "coefficient_expectations",
    "sample_marginal",
    "sample_pauli_expectation",
    "read_expectations",
]

SAMPLING_METHODS = ("marginal", "projective")

# numpy's binomial and multinomial take counts up to the int64 maximum.
MAX_SHOTS = 2**63 - 1

_IMAG_TOL = 1e-10
_RANGE_TOL = 1e-9


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for the stream (seed, tag1, tag2, ...)."""
    entropy = [int(seed), *map(int, tags)]
    if any(t < 0 for t in entropy):
        raise ValueError(f"seed and stream tags must be nonnegative, got {entropy}")
    return np.random.default_rng(entropy)


def check_shots_and_seed(shots: int, seed: int) -> None:
    """The shot budget and base seed every command accepts: 0 <= shots <=
    MAX_SHOTS (0 = exact readout) and seed >= 0, else ConfigError."""
    if not 0 <= shots <= MAX_SHOTS:
        raise ConfigError(f"shots must be in 0..{MAX_SHOTS} (2**63 - 1), got {shots}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _check_real(val: complex, n: int, k: int) -> None:
    if abs(val.imag) >= _IMAG_TOL:
        raise InvalidState(
            f"expectation of {as_index(k, n).label} has imaginary residue {val.imag:.3e}"
        )


def exact_pauli_expectation(rho: np.ndarray, k) -> float:
    """Tr[P_k rho] for a Hermitian unit-trace rho."""
    rho = np.asarray(rho, dtype=complex)
    idx = as_index(k, num_qubits(rho))
    val = complex(np.einsum("ij,ji->", pauli_element(idx), rho))
    _check_real(val, idx.n, idx.k)
    return float(val.real)


def coefficient_expectations(coeffs: np.ndarray, ks) -> list[float]:
    """Tr[P_k rho] for each k in ``ks``, read from rho's scaled Pauli
    coefficient vector ``coeffs = d * vectorize(rho)`` (entry j is
    Tr[P_j rho]); every entry read gets the imaginary-residue check."""
    ks = np.asarray(ks, dtype=int)
    vals = coeffs[ks]
    bad = np.abs(vals.imag) >= _IMAG_TOL
    if bad.any():
        i = int(np.argmax(bad))
        _check_real(complex(vals[i]), (coeffs.size.bit_length() - 1) // 2, int(ks[i]))
    return vals.real.tolist()


@lru_cache(maxsize=256)
def _pauli_eigensystem(n: int, k: int):
    vals, vecs = np.linalg.eigh(np.asarray(pauli_element(k, n)))
    vals = np.round(vals).astype(float)  # spectrum is exactly +/-1
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


def _check_draw(e: float, shots: int) -> None:
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if abs(e) > 1.0 + _RANGE_TOL:
        raise ProbabilityOutOfRange(
            f"expectation value {e!r} lies outside [-1, 1]; upstream state is corrupted"
        )


def _estimate(value: float, shots: int) -> tuple[float, float]:
    return value, float(np.sqrt(max(0.0, 1.0 - value * value) / shots))


def sample_marginal(e: float, shots: int, rng: np.random.Generator) -> tuple[float, float]:
    """Finite-shot estimate of a +/-1-valued observable whose exact
    expectation is ``e``: one binomial draw of the +1 count.

    Returns ``(value, std_error)`` with std_error = sqrt((1 - value^2)/shots).
    """
    _check_draw(e, shots)
    p_plus = min(1.0, max(0.0, 0.5 * (1.0 + e)))
    plus = int(rng.binomial(shots, p_plus))
    return _estimate(2.0 * plus / shots - 1.0, shots)


def sample_pauli_expectation(
    rho: np.ndarray,
    k,
    shots: int,
    rng: np.random.Generator,
    method: str = "marginal",
) -> tuple[float, float]:
    """Finite-shot estimate of Tr[P_k rho].

    Returns ``(value, std_error)`` with std_error = sqrt((1 - value^2)/shots).
    ``method`` is ``"marginal"`` (single Bernoulli draw on the +/-1
    outcome, :func:`sample_marginal`) or ``"projective"`` (multinomial
    over the full eigenbasis).
    """
    e = exact_pauli_expectation(rho, k)
    if method == "marginal":
        return sample_marginal(e, shots, rng)
    _check_draw(e, shots)
    if method != "projective":
        raise ValueError(f"unknown sampling method {method!r}")
    idx = as_index(k, num_qubits(rho))
    vals, vecs = _pauli_eigensystem(idx.n, idx.k)
    probs = np.einsum("ij,jk,ki->i", vecs.conj().T, np.asarray(rho, complex), vecs).real
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if not 0.0 < total <= 1.0 + _RANGE_TOL:
        raise ProbabilityOutOfRange(f"outcome probabilities sum to {total!r}")
    counts = rng.multinomial(shots, probs / total)
    return _estimate(float(counts @ vals) / shots, shots)


def read_expectations(
    coeffs: np.ndarray, ks, shots: int, seed: int, *tags: int, method: str = "marginal"
) -> list[tuple[float, float]]:
    """``(value, std_error)`` of Tr[P_j rho] for each j in ``ks``, from
    rho's scaled Pauli coefficient vector ``coeffs = d * vectorize(rho)``.

    ``shots = 0`` reads the entries exactly (std_error 0).  Otherwise each
    entry is one draw from the stream ``derive_rng(seed, *tags, j)``:
    marginal (:func:`sample_marginal`), or projective
    (:func:`sample_pauli_expectation` on rho, rebuilt once per call).
    """
    if method not in SAMPLING_METHODS:
        raise ValueError(f"unknown sampling method {method!r}")
    if shots and method == "projective":
        rho = devectorize(coeffs / math.isqrt(coeffs.size))
        return [sample_pauli_expectation(rho, j, shots, derive_rng(seed, *tags, j), method)
                for j in ks]
    es = coefficient_expectations(coeffs, ks)
    if not shots:
        return [(e, 0.0) for e in es]
    return [sample_marginal(e, shots, derive_rng(seed, *tags, j)) for j, e in zip(ks, es)]
