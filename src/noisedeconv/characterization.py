"""Transfer-matrix estimation from probe states, and probe positivity.

When the noise parameters are unknown, prepare the probe (1 + P_k)/d,
send it through the channel once and measure P_k: for a unital channel
that expectation equals the diagonal transfer-matrix entry at k.
Measuring every P_j over the same output state fills row entries, giving
the full matrix without process tomography.  The channel is accessed
purely as a black-box state transformer here.

The probe's positive semidefiniteness is certified through the
characteristic-polynomial coefficients S_m, computed by the trace-power
recursion (S_0 = 1):

    S_m = (1/m) * sum_{j=1..m} (-1)**(j-1) Tr[rho^j] S_{m-j}

A Hermitian unit-trace operator is positive semidefinite iff every S_m
is nonnegative; for the probes, S_m > 0 for m < 1 + d/2 and S_m = 0
beyond, independent of k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import PTM, Channel, _check_full_ptm_cap, _check_qubit_range, apply_channel
from .exceptions import (
    IdentityProbe,
    NonUnitalChannel,
    ParseError,
)
from .pauli import as_index, num_qubits, pauli_element, vectorize
from .sampling import (
    coefficient_expectations,
    derive_rng,
    exact_pauli_expectation,
    sample_marginal,
    sample_pauli_expectation,
)

__all__ = [
    "ProbeState",
    "CharacterizedPTM",
    "probe_state",
    "estimate_diagonal_entry",
    "estimate_diagonal_entries",
    "estimate_full_ptm",
    "positivity_coefficients",
    "is_positive_semidefinite",
    "positivity_certificate",
    "UNITALITY_TOL",
    "PSD_TOL",
]

UNITALITY_TOL = 1e-9
PSD_TOL = -1e-10


@dataclass(frozen=True)
class ProbeState:
    """Probe (1 + P_k)/d used to read transfer-matrix entries."""

    n: int
    k: int
    operator: np.ndarray

    @property
    def index(self):
        return as_index(self.k, self.n)


def probe_state(k, n: int | None = None) -> ProbeState:
    """Build the probe for basis element k (k = 0 needs no probe)."""
    if not hasattr(k, "k") and n is None:
        raise ValueError("plain integer index requires the qubit count n")
    idx = k if hasattr(k, "k") else as_index(k, n)
    if idx.k == 0:
        raise IdentityProbe(
            "the k=0 entry equals 1 by trace preservation; no probe is needed"
        )
    d = 2**idx.n
    op = (np.eye(d, dtype=complex) + pauli_element(idx)) / d
    op.setflags(write=False)
    return ProbeState(n=idx.n, k=idx.k, operator=op)


def _check_unital(ch: Channel) -> None:
    """Reject channels that move the maximally mixed state (which would
    bias every probe estimate)."""
    d = ch.d
    out = apply_channel(ch, np.eye(d, dtype=complex) / d)
    coeffs = vectorize(out) * d  # entry j is Tr[P_j Phi(1/d)]
    coeffs[0] -= 1.0
    resid = float(np.max(np.abs(coeffs)))
    if resid > UNITALITY_TOL:
        raise NonUnitalChannel(f"channel is not unital: identity-column residual {resid:.3e}")


@dataclass(frozen=True)
class CharacterizedPTM:
    """Estimated transfer-matrix entries with their standard errors.

    ``entries`` maps (j, k) to (estimate, std_error).  Diagonal-only mode
    stores just the requested (k, k) pairs; full mode stores the whole
    matrix, with the k = 0 row and column filled from trace preservation
    and unitality rather than measurement.
    """

    n: int
    mode: str  # "diagonal" | "full"
    entries: dict[tuple[int, int], tuple[float, float]]
    shots: int
    seed: int

    def to_ptm(self) -> PTM:
        if self.mode != "full":
            raise ValueError("only full-mode reports define a complete transfer matrix")
        _check_full_ptm_cap(self.n)
        dim = 4**self.n
        M = np.zeros((dim, dim))
        for (j, k), (est, _) in self.entries.items():
            M[j, k] = est
        return PTM(self.n, M)

    def to_report_text(self) -> str:
        lines = [
            "# transfer-matrix characterization report",
            f"n {self.n}",
            f"mode {self.mode}",
        ]
        for (j, k) in sorted(self.entries):
            est, err = self.entries[(j, k)]
            lines.append(f"{j} {k} {float(est)!r} {float(err)!r} {self.shots} {self.seed}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_report_text(cls, text: str) -> "CharacterizedPTM":
        n = None
        mode = None
        shots = 0
        seed = 0
        entries: dict[tuple[int, int], tuple[float, float]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) == 2:
                key, value = fields
                if key == "n" and value.isdigit():
                    n = int(value)
                elif key == "mode":
                    mode = value
                else:
                    raise ParseError(f"line {lineno}: bad header line {raw!r}")
                continue
            if len(fields) != 6:
                raise ParseError(
                    f"line {lineno}: expected 'j k estimate std_error shots seed'"
                )
            try:
                j, k = int(fields[0]), int(fields[1])
                est, err = float(fields[2]), float(fields[3])
                shots, seed = int(fields[4]), int(fields[5])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed row {raw!r}") from None
            if not (math.isfinite(est) and math.isfinite(err)):
                raise ParseError(f"line {lineno}: non-finite estimate or error in {raw!r}")
            entries[(j, k)] = (est, err)
        if n is None or mode not in ("diagonal", "full"):
            raise ParseError("report lacks a valid 'n'/'mode' header")
        _check_qubit_range(n)
        if entries and not (0 <= min(map(min, entries)) and max(map(max, entries)) < 4**n):
            raise ParseError(f"report entries must have j and k in 0..{4**n - 1}")
        return cls(n=n, mode=mode, entries=entries, shots=shots, seed=seed)


def estimate_diagonal_entry(ch: Channel, k, shots: int = 0, seed: int = 0) -> tuple[float, float]:
    """Estimate the diagonal entry at k by probing the channel once.

    ``shots = 0`` means exact readout.  Raises NonUnitalChannel when the
    channel moves the maximally mixed state, which would bias the
    probe estimates.
    """
    idx = as_index(k, ch.n)
    return estimate_diagonal_entries(ch, [idx], shots, seed).entries[(idx.k, idx.k)]


def estimate_diagonal_entries(ch: Channel, ks, shots: int = 0, seed: int = 0) -> CharacterizedPTM:
    """Estimate the requested diagonal entries: one probe per entry, and
    one unitality check per call, before the first probe."""
    n = ch.n
    entries: dict[tuple[int, int], tuple[float, float]] = {}
    for i, k in enumerate(ks):
        idx = as_index(k, n)
        if idx.k == 0:
            raise IdentityProbe("the k=0 entry equals 1 by trace preservation")
        if i == 0:
            _check_unital(ch)
        out = apply_channel(ch, probe_state(idx).operator)
        entries[(idx.k, idx.k)] = (
            (exact_pauli_expectation(out, idx), 0.0) if shots == 0
            else sample_pauli_expectation(out, idx, shots, derive_rng(seed, idx.k, idx.k))
        )
    return CharacterizedPTM(n=n, mode="diagonal", entries=entries, shots=shots, seed=seed)


def estimate_full_ptm(ch: Channel, shots: int = 0, seed: int = 0) -> CharacterizedPTM:
    """Estimate every transfer-matrix entry from 4**n - 1 probes.

    For each k != 0 the channel is applied to one probe and all P_j are
    read from the output's Pauli coefficient vector (with shots, one
    marginal draw per entry from the stream (seed, k, j)); the k = 0 row
    and column are filled from the trace-preservation and unitality
    identities.
    """
    n = ch.n
    _check_unital(ch)
    dim = 4**n
    entries: dict[tuple[int, int], tuple[float, float]] = {(0, 0): (1.0, 0.0)}
    for q in range(1, dim):
        entries[(0, q)] = (0.0, 0.0)
        entries[(q, 0)] = (0.0, 0.0)
    for k in range(1, dim):
        out = apply_channel(ch, probe_state(k, n).operator)
        row = vectorize(out) * (2**n)  # entry j is Tr[P_j out]
        for j, e in enumerate(coefficient_expectations(row, range(1, dim)), start=1):
            entries[(j, k)] = (e, 0.0) if shots == 0 else sample_marginal(e, shots, derive_rng(seed, k, j))
    return CharacterizedPTM(n=n, mode="full", entries=entries, shots=shots, seed=seed)


def positivity_coefficients(rho: np.ndarray, d: int | None = None) -> list[float]:
    """Characteristic-polynomial coefficients S_0 ... S_d of rho.

    Computed by the trace-power recursion; all nonnegative iff rho is
    positive semidefinite (given Hermitian unit trace).
    """
    rho = np.asarray(rho, dtype=complex)
    num_qubits(rho)
    if d is None:
        d = rho.shape[0]
    power = np.eye(rho.shape[0], dtype=complex)
    traces = [0.0]  # placeholder so traces[j] = Tr[rho^j]
    for _ in range(d):
        power = power @ rho
        traces.append(float(np.trace(power).real))
    S = [1.0]
    for m in range(1, d + 1):
        acc = 0.0
        for j in range(1, m + 1):
            acc += (-1.0) ** (j - 1) * traces[j] * S[m - j]
        S.append(acc / m)
    return S


def positivity_certificate(rho: np.ndarray, tol: float = PSD_TOL) -> tuple[list[float], bool]:
    """The coefficients S_0 ... S_d of rho and its PSD verdict.

    The verdict also requires the smallest eigenvalue to be >= tol: the
    high-order S_m are products of many eigenvalues, so past n = 3 a
    negative eigenvalue can leave every S_m above an absolute tolerance.
    """
    S = positivity_coefficients(rho)
    ok = all(s >= tol for s in S) and float(np.linalg.eigvalsh(rho)[0]) >= tol
    return S, ok


def is_positive_semidefinite(rho: np.ndarray, tol: float = PSD_TOL) -> bool:
    """PSD verdict of :func:`positivity_certificate`."""
    return positivity_certificate(rho, tol)[1]
