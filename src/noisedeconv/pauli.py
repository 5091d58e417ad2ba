"""Dense n-qubit Pauli basis, Hilbert-Schmidt geometry and observables.

Basis elements are the tensor products sigma_a1 x ... x sigma_an with
a_i in {0,1,2,3} <-> {I,X,Y,Z}, enumerated lexicographically by the flat
index k = sum_i a_i * 4**(n-i), first qubit most significant.  Under the
normalized Hilbert-Schmidt inner product Tr[A^dag B]/d (d = 2**n) the
basis is orthonormal, so every operator has a unique real-or-complex
coefficient vector over it; Hermitian operators have real coefficients.

Dense matrices are materialized lazily per (n, k) and are supported for
n up to MAX_QUBITS.  ``check_qubits`` holds every qubit cap of the
package: outside 1..cap it raises ResourceCapExceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, count
from typing import Iterable, Mapping, Sequence

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
    "check_qubits",
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

# Lines of text split at a time: a whole report's fields at once would hold
# every field string of the text alive together.
CHUNK_LINES = 256

# Values a text memo keeps: past this many distinct tokens it only costs time
# and memory.
MEMO_SIZE = 4096

PAULI_LABELS = "IXYZ"
_LABEL_DIGITS = str.maketrans(PAULI_LABELS, "0123")
_LABEL_TEXT = frozenset(PAULI_LABELS + " ")  # labels joined by spaces

SIGMAS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
for _s in SIGMAS:
    _s.setflags(write=False)


def check_qubits(n: int, cap: int = MAX_QUBITS) -> None:
    """Refuse a qubit count outside 1..cap with ResourceCapExceeded."""
    if not 1 <= n <= cap:
        raise ResourceCapExceeded(f"supported qubit range is 1..{cap}, got n={n}")


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
    def from_label(cls, label: str) -> "PauliIndex":
        """I, X, Y, Z in either case, first qubit first, read as base-4 digits."""
        return cls(*_label_index(label))

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


def _label_index(label: str) -> tuple[int, int]:
    """(qubit count, flat index) of a Pauli label: I, X, Y, Z in either case,
    first qubit first, read as base-4 digits; anything else raises ValueError."""
    upper = label.upper()
    if not upper or upper.strip(PAULI_LABELS):
        raise ValueError(f"invalid Pauli label {label!r}")
    return len(upper), int(upper.translate(_LABEL_DIGITS), 4)


def as_index(k, n: int | None = None) -> PauliIndex:
    """Normalize a PauliIndex, or an int with its qubit count n, to a
    PauliIndex on n qubits."""
    if isinstance(k, PauliIndex):
        if n is not None and k.n != n:
            raise DimensionMismatch(f"index is for n={k.n}, expected n={n}")
        return k
    if n is None:
        raise ValueError("plain integer index requires the qubit count n")
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
    idx = as_index(idx, n)
    check_qubits(idx.n)
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
    check_qubits(n)
    return n


def is_hermitian(A: np.ndarray) -> bool:
    A = np.asarray(A)
    return bool(np.max(np.abs(A - A.conj().T)) <= HERMITIAN_TOL)


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


def _transform_per_qubit(kernels: Sequence[np.ndarray], flat: np.ndarray) -> np.ndarray:
    """Apply kernels[q], a 4x4 matrix, along axis q of ``flat`` viewed as
    an array of shape (4,) * len(kernels); return the result flattened.

    Each step contracts the leading axis and appends its image as the last
    axis, so a step is one matrix product over a transposed view, with no
    copy, and the previous step's array is freed as soon as it is used.
    That includes ``flat`` itself when the caller passes its only reference:
    at most two arrays of its size are alive at once.
    """
    t = flat.reshape(-1)
    del flat
    for kernel in kernels:
        t = np.dot(t.reshape(4, -1).T, kernel.T)
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
    return _transform_per_qubit([_VEC_KERNEL] * n, t) / (2**n)


def devectorize(coeffs: np.ndarray) -> np.ndarray:
    """Reassemble the dense matrix sum_k coeffs[k] * P_k."""
    v = np.asarray(coeffs, dtype=complex).reshape(-1)
    n = round(np.log2(v.size)) // 2 if v.size > 1 else 0
    if v.size < 4 or 4**n != v.size:
        raise DimensionMismatch(f"coefficient length {v.size} is not 4**n")
    check_qubits(n)
    t = _transform_per_qubit([_DEVEC_KERNEL] * n, v).reshape((2,) * (2 * n))
    order = [2 * q for q in range(n)] + [2 * q + 1 for q in range(n)]
    return np.ascontiguousarray(t.transpose(order)).reshape(2**n, 2**n)


def read_text(text: str, take) -> None:
    """Hand ``text`` to a format's checker ``take(first, lines, fields)``
    CHUNK_LINES lines at a time, ``first`` the number of the first line: the
    one grammar of observable, measurement and report text, where only a
    newline ends a line (any other break ``str.splitlines`` knows is
    whitespace), ``#`` starts a comment and a line's fields are split at
    whitespace, with none on a line without data.  ``take`` takes the whole
    chunk, or raises ParseError and takes nothing; a refused chunk is handed
    over again one data line at a time, so that the refusal names the line."""
    lines = text.split("\n")
    for start in range(0, len(lines), CHUNK_LINES):
        chunk = lines[start:start + CHUNK_LINES]
        fields = [line.split("#", 1)[0].split() if "#" in line else line.split() for line in chunk]
        try:
            take(start + 1, chunk, fields)
        except ParseError:
            if len(chunk) == 1:
                raise
            for lineno, line, row in zip(range(start + 1, start + 1 + len(chunk)), chunk, fields):
                if row:
                    take(lineno, [line], [row])


class Memo(dict):
    """token -> convert(token), each distinct token of a text converted once;
    a conversion that raises is not kept, and nothing is past MEMO_SIZE
    values (an exact report of non-Pauli noise has a new one on every row)."""

    __slots__ = ("convert",)

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, token):
        value = self.convert(token)
        if len(self) < MEMO_SIZE:
            self[token] = value
        return value


def labelled_rows(text: str, form: str, widths: tuple[int, ...]) -> tuple[int, list]:
    """The qubit count and rows (line number, flat index k, numbers) of ``form``
    lines, ``<pauli-string> <number>...`` with a field count in ``widths``; k and
    the qubit count are read from the upper-cased label.  A line with another
    field count, a bad string or number, a non-finite number or another qubit
    count raises ParseError naming it; so does no row.  A chunk of
    ``read_text`` is checked column by column: its labels joined, numbers per row."""
    rows = []
    n = None
    sizes = {0, *widths}  # field counts of a line without data or a row

    def take(first, lines, fields):  # a message names ``first``, the line of a chunk of one
        nonlocal n
        if not sizes.issuperset(map(len, fields)):
            raise ParseError(f"line {first}: expected '{form}', got {lines[0]!r}")
        try:
            labels = " ".join([row[0] for row in fields if row]).upper()
            if not _LABEL_TEXT.issuperset(labels):
                for row in filter(None, fields):
                    _label_index(row[0])  # raises for the first bad label
            numbers = [list(map(float, row[1:])) for row in fields if row]
        except ValueError as exc:
            raise ParseError(f"line {first}: {exc}") from None
        if not all(map(math.isfinite, chain.from_iterable(numbers))):
            raise ParseError(f"line {first}: numbers must be finite, got {lines[0]!r}")
        if not numbers:
            return
        digits = labels.translate(_LABEL_DIGITS).split(" ")
        qubits = n or len(digits[0])
        if {*map(len, digits)} != {qubits}:
            label = next(filter(None, fields))[0]
            raise ParseError(f"line {first}: {label!r} has {len(digits[0])} qubits, expected {qubits}")
        n = qubits
        rows.extend(zip(compress(count(first), fields), [int(k, 4) for k in digits], numbers))

    read_text(text, take)
    if not rows:
        raise ParseError(f"expected '{form}' lines, found none")
    return n, rows


class Observable:
    """Sparse real-coefficient expansion of an operator over the Pauli basis.

    Stores only coefficients with magnitude above the pruning tolerance,
    keyed by flat index k in ascending order.  ``r`` is the number of
    stored terms.  Instances are immutable by convention.
    """

    def __init__(self, n: int, terms: Mapping):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        self.n = int(n)
        size = 4**self.n
        cleaned: dict[int, float] = {}
        for key, coeff in terms.items():
            # an int key in range is its own flat index; as_index checks any other
            k = key if type(key) is int and 0 <= key < size else as_index(key, self.n).k
            coeff = float(coeff)
            if not math.isfinite(coeff):
                raise ConfigError(f"coefficient of {PauliIndex(self.n, k).label} is not finite: {coeff!r}")
            if abs(coeff) > PRUNE_TOL:
                cleaned[k] = cleaned.get(k, 0.0) + coeff
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
    def from_operator(cls, A: np.ndarray) -> "Observable":
        A = np.asarray(A, dtype=complex)
        n = num_qubits(A)
        if not is_hermitian(A):
            raise NonHermitianInput(
                f"operator deviates from Hermiticity by more than {HERMITIAN_TOL}"
            )
        coeffs = vectorize(A)
        return cls(n, {k: coeffs[k].real for k in range(coeffs.size)})

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
        """Parse the line format ``<pauli-string> <coefficient>``; a repeated
        string adds its coefficients."""
        n, rows = labelled_rows(text, "<pauli-string> <coefficient>", (2,))
        terms: dict[int, float] = {}
        for _, k, (coeff,) in rows:
            terms[k] = terms.get(k, 0.0) + coeff
        return cls(n, terms)

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
