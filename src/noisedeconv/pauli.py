"""Dense n-qubit Pauli basis, Hilbert-Schmidt geometry and observables.

Basis elements are the tensor products sigma_a1 x ... x sigma_an with
a_i in {0,1,2,3} <-> {I,X,Y,Z}, enumerated lexicographically by the flat
index k = sum_i a_i * 4**(n-i), first qubit most significant.  Under the
normalized Hilbert-Schmidt inner product Tr[A^dag B]/d (d = 2**n) the
basis is orthonormal, so every operator has a unique real-or-complex
coefficient vector over it; Hermitian operators have real coefficients.

Dense matrices are materialized lazily per (n, k) and are supported for
n up to MAX_QUBITS; beyond that, entry points raise ResourceCapExceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .exceptions import (
    ConfigError,
    DimensionMismatch,
    NonHermitianInput,
    ParseError,
    ResourceCapExceeded,
)

__all__ = [
    "MAX_QUBITS",
    "HERMITIAN_TOL",
    "PRUNE_TOL",
    "SIGMAS",
    "PAULI_LABELS",
    "PauliIndex",
    "Observable",
    "pauli_element",
    "hs_inner",
    "vectorize",
    "devectorize",
    "num_qubits",
    "is_hermitian",
]

# Hard cap for dense operators: 4**6 basis elements of 64x64 entries.
MAX_QUBITS = 6

HERMITIAN_TOL = 1e-10
PRUNE_TOL = 1e-14

PAULI_LABELS = "IXYZ"

SIGMAS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
for _s in SIGMAS:
    _s.setflags(write=False)


def _check_dense_cap(n: int) -> None:
    if n > MAX_QUBITS:
        raise ResourceCapExceeded(
            f"dense operators are capped at n={MAX_QUBITS} qubits, got n={n}"
        )


@dataclass(frozen=True)
class PauliIndex:
    """Flat index of an n-qubit Pauli string.

    The base-4 digits of ``k`` select the single-qubit factor on each
    qubit; digit i of value a means sigma_a on qubit i, with the first
    qubit in the most significant position.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        if not 0 <= self.k < 4**self.n:
            raise ValueError(f"index {self.k} out of range for n={self.n}")

    @classmethod
    def from_digits(cls, digits: Iterable[int]) -> "PauliIndex":
        digits = tuple(digits)
        if not digits or any(d not in (0, 1, 2, 3) for d in digits):
            raise ValueError(f"digits must be a nonempty sequence over 0..3: {digits!r}")
        k = 0
        for d in digits:
            k = 4 * k + d
        return cls(len(digits), k)

    @classmethod
    def from_label(cls, label: str) -> "PauliIndex":
        try:
            return cls.from_digits(PAULI_LABELS.index(c) for c in label.upper())
        except ValueError:
            raise ValueError(f"invalid Pauli label {label!r}") from None

    @property
    def digits(self) -> tuple[int, ...]:
        out = []
        k = self.k
        for _ in range(self.n):
            out.append(k % 4)
            k //= 4
        return tuple(reversed(out))

    @property
    def label(self) -> str:
        return "".join(PAULI_LABELS[d] for d in self.digits)

    @property
    def is_identity(self) -> bool:
        return self.k == 0


def as_index(k, n: int) -> PauliIndex:
    """Normalize an int or PauliIndex to a PauliIndex on n qubits."""
    if isinstance(k, PauliIndex):
        if k.n != n:
            raise DimensionMismatch(f"index is for n={k.n}, expected n={n}")
        return k
    return PauliIndex(n, int(k))


@lru_cache(maxsize=512)
def _pauli_matrix(n: int, k: int) -> np.ndarray:
    mat = np.ones((1, 1), dtype=complex)
    for d in PauliIndex(n, k).digits:
        mat = np.kron(mat, SIGMAS[d])
    mat.setflags(write=False)
    return mat


def pauli_element(idx, n: int | None = None) -> np.ndarray:
    """Dense matrix of the Pauli string ``idx`` (read-only array).

    ``idx`` may be a PauliIndex, or a plain int combined with ``n``.
    """
    if not isinstance(idx, PauliIndex):
        if n is None:
            raise ValueError("plain integer index requires the qubit count n")
        idx = PauliIndex(n, int(idx))
    _check_dense_cap(idx.n)
    return _pauli_matrix(idx.n, idx.k)


def num_qubits(A: np.ndarray) -> int:
    """Qubit count of a square 2**n x 2**n matrix."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    d = A.shape[0]
    n = d.bit_length() - 1
    if d < 2 or 2**n != d:
        raise DimensionMismatch(f"matrix dimension {d} is not a power of two >= 2")
    _check_dense_cap(n)
    return n


def is_hermitian(A: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    A = np.asarray(A)
    return bool(np.max(np.abs(A - A.conj().T)) <= tol)


def hs_inner(A: np.ndarray, B: np.ndarray) -> complex:
    """Normalized Hilbert-Schmidt inner product Tr[A^dag B]/d."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch {A.shape} vs {B.shape}")
    num_qubits(A)
    return complex(np.vdot(A, B) / A.shape[0])


# Per-qubit kernels mapping between matrix entries and Pauli coefficients.
# Entry index m = 2*row + col of the single-qubit block:
#   _VEC_KERNEL[a, m]   = sigma_a[col, row]   (trace pairing)
#   _DEVEC_KERNEL[m, a] = sigma_a[row, col]   (expansion)
_VEC_KERNEL = np.array(
    [[SIGMAS[a][c, r] for r in (0, 1) for c in (0, 1)] for a in range(4)]
)
_DEVEC_KERNEL = np.array(
    [[SIGMAS[a][r, c] for a in range(4)] for r in (0, 1) for c in (0, 1)]
)


def _transform_per_qubit(kernel: np.ndarray, flat: np.ndarray, n: int) -> np.ndarray:
    """Apply a 4x4 kernel along every qubit axis of a length-4**n vector."""
    t = flat.reshape((4,) * n)
    for q in range(n):
        t = np.moveaxis(np.tensordot(kernel, t, axes=(1, q)), 0, q)
    return t.reshape(-1)


def vectorize(A: np.ndarray) -> np.ndarray:
    """Coefficient vector of A over the Pauli basis.

    Component k equals hs_inner(P_k, A); the result has length 4**n.
    """
    A = np.asarray(A, dtype=complex)
    n = num_qubits(A)
    t = A.reshape((2,) * (2 * n))
    order = [ax for q in range(n) for ax in (q, n + q)]
    t = np.ascontiguousarray(t.transpose(order)).reshape(-1)
    return _transform_per_qubit(_VEC_KERNEL, t, n) / (2**n)


def devectorize(coeffs: np.ndarray) -> np.ndarray:
    """Reassemble the dense matrix sum_k coeffs[k] * P_k."""
    v = np.asarray(coeffs, dtype=complex).reshape(-1)
    n = round(np.log2(v.size)) // 2 if v.size > 1 else 0
    if v.size < 4 or 4**n != v.size:
        raise DimensionMismatch(f"coefficient length {v.size} is not 4**n")
    _check_dense_cap(n)
    t = _transform_per_qubit(_DEVEC_KERNEL, v, n).reshape((2,) * (2 * n))
    order = [2 * q for q in range(n)] + [2 * q + 1 for q in range(n)]
    return np.ascontiguousarray(t.transpose(order)).reshape(2**n, 2**n)


class Observable:
    """Sparse real-coefficient expansion of an operator over the Pauli basis.

    Stores only coefficients with magnitude above the pruning tolerance,
    keyed by flat index k in ascending order.  ``r`` is the number of
    stored terms.  Instances are immutable by convention.
    """

    def __init__(self, n: int, terms: Mapping, prune_tol: float = PRUNE_TOL):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        self.n = int(n)
        cleaned: dict[int, float] = {}
        for key, coeff in terms.items():
            idx = as_index(key, self.n)
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ConfigError(f"coefficient of {idx.label} is not finite: {coeff!r}")
            if abs(coeff) > prune_tol:
                cleaned[idx.k] = cleaned.get(idx.k, 0.0) + coeff
        self.terms: dict[int, float] = dict(sorted(cleaned.items()))

    @property
    def r(self) -> int:
        return len(self.terms)

    def items(self):
        return self.terms.items()

    def indices(self) -> list[PauliIndex]:
        return [PauliIndex(self.n, k) for k in self.terms]

    def coefficient_vector(self) -> np.ndarray:
        v = np.zeros(4**self.n)
        for k, c in self.terms.items():
            v[k] = c
        return v

    def to_operator(self) -> np.ndarray:
        return devectorize(self.coefficient_vector())

    @classmethod
    def from_operator(cls, A: np.ndarray, prune_tol: float = PRUNE_TOL) -> "Observable":
        A = np.asarray(A, dtype=complex)
        n = num_qubits(A)
        if not is_hermitian(A):
            raise NonHermitianInput(
                f"operator deviates from Hermiticity by more than {HERMITIAN_TOL}"
            )
        coeffs = vectorize(A)
        return cls(n, {k: coeffs[k].real for k in range(coeffs.size)}, prune_tol)

    @classmethod
    def from_pairs(cls, pairs: Iterable, n: int | None = None) -> "Observable":
        """Build from (label, coefficient) pairs such as [("ZZZ", 1.0)]."""
        terms: dict[int, float] = {}
        for label, coeff in pairs:
            idx = PauliIndex.from_label(str(label))
            if n is None:
                n = idx.n
            elif idx.n != n:
                raise ValueError(f"label {label!r} has {idx.n} qubits, expected {n}")
            terms[idx.k] = terms.get(idx.k, 0.0) + float(coeff)
        if n is None:
            raise ValueError("cannot build an observable from no terms")
        return cls(n, terms)

    @classmethod
    def from_text(cls, text: str) -> "Observable":
        """Parse the line format ``<pauli-string> <coefficient>``."""
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected '<pauli-string> <coefficient>', got {raw!r}")
            label, coeff = fields
            if any(c not in PAULI_LABELS for c in label.upper()):
                raise ParseError(f"line {lineno}: invalid Pauli string {label!r}")
            try:
                pairs.append((label, float(coeff)))
            except ValueError:
                raise ParseError(f"line {lineno}: invalid coefficient {coeff!r}") from None
        if not pairs:
            raise ParseError("observable text contains no terms")
        try:
            return cls.from_pairs(pairs)
        except ValueError as exc:  # labels on different qubit counts
            raise ParseError(str(exc)) from None

    def to_text(self) -> str:
        lines = [
            f"{PauliIndex(self.n, k).label} {float(c)!r}" for k, c in self.terms.items()
        ]
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Observable)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        body = ", ".join(f"{PauliIndex(self.n, k).label}: {c!r}" for k, c in self.terms.items())
        return f"Observable(n={self.n}, {{{body}}})"
