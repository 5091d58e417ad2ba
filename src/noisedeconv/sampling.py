"""Exact and shot-sampled Pauli expectation values.

A Pauli string has a +/-1 spectrum, so a finite-shot measurement is a
Bernoulli experiment with success probability (1 + e)/2 where e is the
exact expectation value.  The default sampler draws from that marginal
directly; a projective sampler that draws from the full eigenbasis
distribution is available for cross-validation and is equivalent in
distribution for a single observable.

Every sampler consumes a numpy Generator; ``derive_rng`` builds
independent deterministic streams from a base seed plus integer tags so
results do not depend on evaluation order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exceptions import InvalidState, ProbabilityOutOfRange
from .pauli import as_index, num_qubits, pauli_element

__all__ = [
    "SAMPLING_METHODS",
    "derive_rng",
    "exact_pauli_expectation",
    "sample_pauli_expectation",
]

SAMPLING_METHODS = ("marginal", "projective")

_IMAG_TOL = 1e-10
_RANGE_TOL = 1e-9


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for the stream (seed, tag1, tag2, ...)."""
    entropy = [int(seed), *map(int, tags)]
    if any(t < 0 for t in entropy):
        raise ValueError(f"seed and stream tags must be nonnegative, got {entropy}")
    return np.random.default_rng(entropy)


def exact_pauli_expectation(rho: np.ndarray, k) -> float:
    """Tr[P_k rho] for a Hermitian unit-trace rho."""
    rho = np.asarray(rho, dtype=complex)
    idx = as_index(k, num_qubits(rho))
    val = complex(np.einsum("ij,ji->", pauli_element(idx), rho))
    if abs(val.imag) >= _IMAG_TOL:
        raise InvalidState(
            f"expectation of {idx.label} has imaginary residue {val.imag:.3e}"
        )
    return float(val.real)


@lru_cache(maxsize=256)
def _pauli_eigensystem(n: int, k: int):
    vals, vecs = np.linalg.eigh(np.asarray(pauli_element(k, n)))
    vals = np.round(vals).astype(float)  # spectrum is exactly +/-1
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


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
    outcome) or ``"projective"`` (multinomial over the full eigenbasis).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    e = exact_pauli_expectation(rho, k)
    if abs(e) > 1.0 + _RANGE_TOL:
        raise ProbabilityOutOfRange(
            f"expectation value {e!r} lies outside [-1, 1]; upstream state is corrupted"
        )
    if method == "marginal":
        p_plus = min(1.0, max(0.0, 0.5 * (1.0 + e)))
        plus = int(rng.binomial(shots, p_plus))
        value = 2.0 * plus / shots - 1.0
    elif method == "projective":
        idx = as_index(k, num_qubits(rho))
        vals, vecs = _pauli_eigensystem(idx.n, idx.k)
        probs = np.einsum("ij,jk,ki->i", vecs.conj().T, np.asarray(rho, complex), vecs).real
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if not 0.0 < total <= 1.0 + _RANGE_TOL:
            raise ProbabilityOutOfRange(f"outcome probabilities sum to {total!r}")
        counts = rng.multinomial(shots, probs / total)
        value = float(counts @ vals) / shots
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    std_error = float(np.sqrt(max(0.0, 1.0 - value * value) / shots))
    return value, std_error
