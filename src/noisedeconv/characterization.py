"""Transfer-matrix estimation from probe states, and probe positivity.

When the noise parameters are unknown, prepare the probe (1 + P_k)/d
(``probe_state``, a read-only array), send it through the channel once
and measure P_k: for a unital channel that expectation equals the
diagonal transfer-matrix entry at k.  Measuring every P_j over the same
output state fills row entries, giving the full matrix without process
tomography; like every full transfer matrix it is capped at
MAX_QUBITS_FULL_PTM qubits.  A probe's output is read in coefficient
space, from the channel's transfer matrix: the probe's Pauli coefficient
vector is e_0 + e_k, so the output's entry j is Gamma[j, 0] + Gamma[j, k],
which is lambda_k at j = k and 0 elsewhere for a Pauli channel (from
``lambdas()``, at any n; any other channel is read from ``ptm()`` and
capped with it).  Both reports come from one probe loop whose entries go
through one ``sampling.read_batch``: probe k is one read from the stream
(seed, k), its entries drawn in turn with (k, k) first, so a diagonal
entry equals the full report's bit for bit whatever other probes a report
holds, and an exact one equals the channel's lambda_k.  This layout
replaced one stream (seed, k, j) per entry, so sampled reports differ
from those of earlier versions; the report text is unchanged and those
reports still parse.

A report is a lambda source for ``deconvolution.plan``: a diagonal
report gives its rows as the lambdas, and a full report answers as its
transfer matrix (``ptm()``) does, so an exactly diagonal one takes the
diagonal path and any other the general path.

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
from functools import cached_property

import numpy as np

from .channels import MAX_QUBITS_FULL_PTM, PTM, Channel
from .channels import apply_channel  # noqa: F401  (unused; the benchmark self-test counts this binding)
from .exceptions import (
    IdentityProbe,
    NonUnitalChannel,
    NotPauliDiagonal,
    ParseError,
)
from .pauli import as_index, check_qubits, is_hermitian, num_qubits, pauli_element, text_rows
from .sampling import read_batch

__all__ = [
    "CharacterizedPTM",
    "probe_state",
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


def probe_state(k, n: int | None = None) -> np.ndarray:
    """The probe (1 + P_k)/d for basis element k, a read-only array; k is a
    PauliIndex, or an int with n (k = 0 needs no probe)."""
    idx = as_index(k, n)
    if idx.k == 0:
        raise IdentityProbe(
            "the k=0 entry equals 1 by trace preservation; no probe is needed"
        )
    d = 2**idx.n
    op = (np.eye(d, dtype=complex) + pauli_element(idx)) / d
    op.setflags(write=False)
    return op


def _probe_outputs(ch: Channel):
    """The map (k, js) -> entries js of the coefficient vector of the
    channel's output on the probe (1 + P_k)/d, Gamma[js, 0] + Gamma[js, k],
    as floats.  A non-Pauli channel is checked for unitality here, once:
    Gamma[:, 0] != e_0 would bias every estimate."""
    try:
        lam = ch.lambdas()
    except NotPauliDiagonal:
        gamma = ch.ptm().matrix
        resid = float(np.max(np.abs(gamma[:, 0] - (np.arange(len(gamma)) == 0))))
        if resid > UNITALITY_TOL:
            raise NonUnitalChannel(f"channel is not unital: identity-column residual {resid:.3e}") from None
        return lambda k, js: (gamma[js, 0] + gamma[js, k]).tolist()
    return lambda k, js: np.where(np.asarray(js) == k, lam[k], 0.0).tolist()


@dataclass(frozen=True)
class CharacterizedPTM:
    """Estimated transfer-matrix entries with their standard errors, planned
    like a channel (``n``, ``lambdas()``, ``ptm()``).

    ``entries`` maps (j, k) to (estimate, std_error).  Diagonal-only mode
    stores just the requested (k, k) pairs, k >= 1; full mode stores the
    whole matrix, with the k = 0 row and column filled from trace
    preservation and unitality rather than measurement, and builds its
    ``ptm()`` once.  Every entry shares one ``shots`` and ``seed``.
    """

    n: int
    mode: str  # "diagonal" | "full"
    entries: dict[tuple[int, int], tuple[float, float]]
    shots: int
    seed: int

    def lambdas(self) -> dict[int, float] | np.ndarray:
        """A diagonal report's rows, with lambda_0 = 1 from trace preservation.
        A full report answers as its matrix does (``PTM.lambdas``): its diagonal
        within DIAGONAL_TOL, else NotPauliDiagonal, planned from ``ptm()``."""
        if self.mode == "full":
            return self.ptm().lambdas()
        return {0: 1.0} | {k: est for (_, k), (est, _) in self.entries.items()}

    def ptm(self) -> PTM:
        if self.mode != "full":
            raise ValueError("only full-mode reports define a complete transfer matrix")
        return self._ptm

    @cached_property
    def _ptm(self) -> PTM:
        check_qubits(self.n, MAX_QUBITS_FULL_PTM)
        missing = 16**self.n - len(self.entries)
        if missing:
            raise ParseError(f"full report lacks {missing} of its {16**self.n} entries (j, k)")
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
        run = None  # (shots, seed) of the first row, shared by every row
        entries: dict[tuple[int, int], tuple[float, float]] = {}
        for lineno, line, fields in text_rows(text):
            if len(fields) == 2:
                key, value = fields
                if key == "n" and value.isdigit():
                    n = int(value)
                elif key == "mode":
                    mode = value
                else:
                    raise ParseError(f"line {lineno}: bad header line {line!r}")
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
                raise ParseError(f"line {lineno}: malformed row {line!r}") from None
            if not (math.isfinite(est) and math.isfinite(err)):
                raise ParseError(f"line {lineno}: non-finite estimate or error in {line!r}")
            if err < 0 or shots < 0 or seed < 0:
                raise ParseError(f"line {lineno}: std_error, shots and seed must be >= 0 in {line!r}")
            if run is None:
                run = shots, seed
            elif shots != run[0] or seed != run[1]:
                raise ParseError(f"line {lineno}: shots {shots} and seed {seed} differ from the first row's {run}")
            if (j, k) in entries:
                raise ParseError(f"line {lineno}: entry ({j}, {k}) repeats an earlier row")
            entries[(j, k)] = (est, err)
        if n is None or mode not in ("diagonal", "full"):
            raise ParseError("report lacks a valid 'n'/'mode' header")
        check_qubits(n)
        if entries and not (0 <= min(map(min, entries)) and max(map(max, entries)) < 4**n):
            raise ParseError(f"report entries must have j and k in 0..{4**n - 1}")
        if mode == "diagonal" and not all(j == k > 0 for j, k in entries):
            raise ParseError("a diagonal report holds only (k, k) rows with k >= 1")
        return cls(n, mode, entries, *(run or (0, 0)))


def _probe_report(ch: Channel, mode: str, ks, entries: dict, shots: int, seed: int) -> CharacterizedPTM:
    """Probe the channel once per k in ``ks`` and add to ``entries`` what
    its output gives: (k, k) in diagonal mode, every (j, k) with j != 0 in
    full mode, j = k first, all read from the probe's stream (seed, k) by
    one readout of the whole report.  Every index is validated, then
    unitality is checked once, before the first probe."""
    idxs = [as_index(k, ch.n) for k in ks]
    if any(idx.k == 0 for idx in idxs):
        raise IdentityProbe("the k=0 entry equals 1 by trace preservation")
    output = _probe_outputs(ch)
    D = 4**ch.n
    reads = [([k, *range(1, k), *range(k + 1, D)] if mode == "full" else [k], (k,))
             for k in (idx.k for idx in idxs)]
    exact = (output(k, js) for js, (k,) in reads)
    for (js, (k,)), values in zip(reads, read_batch(exact, reads, shots, seed)):
        entries.update(zip([(j, k) for j in js], values))
    return CharacterizedPTM(n=ch.n, mode=mode, entries=entries, shots=shots, seed=seed)


def estimate_diagonal_entries(ch: Channel, ks, shots: int = 0, seed: int = 0) -> CharacterizedPTM:
    """Estimate the diagonal entry at each k in ``ks``, one probe each.

    ``shots = 0`` means exact readout.  Raises NonUnitalChannel when the
    channel moves the maximally mixed state, which would bias the probe
    estimates, and ResourceCapExceeded for a non-Pauli channel past
    MAX_QUBITS_FULL_PTM qubits.  Entry (k, k) equals the full report's,
    byte for byte.
    """
    return _probe_report(ch, "diagonal", ks, {}, shots, seed)


def estimate_full_ptm(ch: Channel, shots: int = 0, seed: int = 0) -> CharacterizedPTM:
    """Estimate every transfer-matrix entry from 4**n - 1 probes.

    Each probe's output gives a column: all P_j are read from its Pauli
    coefficient vector.  The k = 0 row and column are filled from the
    trace-preservation and unitality identities.  Past
    MAX_QUBITS_FULL_PTM qubits it refuses before the first probe.
    """
    check_qubits(ch.n, MAX_QUBITS_FULL_PTM)
    ks = range(1, 4**ch.n)
    identities = {(0, 0): (1.0, 0.0)} | {jk: (0.0, 0.0) for q in ks for jk in ((0, q), (q, 0))}
    return _probe_report(ch, "full", ks, identities, shots, seed)


def positivity_coefficients(rho: np.ndarray) -> list[float]:
    """Characteristic-polynomial coefficients S_0 ... S_d of rho.

    Computed by the trace-power recursion; all nonnegative iff rho is
    positive semidefinite (given Hermitian unit trace).
    """
    rho = np.asarray(rho, dtype=complex)
    num_qubits(rho)
    d = rho.shape[0]
    power = np.eye(d, dtype=complex)
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


def positivity_certificate(rho: np.ndarray) -> tuple[list[float], bool]:
    """The coefficients S_0 ... S_d of rho and its PSD verdict.

    The verdict requires rho to be Hermitian (``eigvalsh`` reads only one
    triangle) and its smallest eigenvalue to be >= PSD_TOL: the high-order
    S_m are products of many eigenvalues, so past n = 3 a negative
    eigenvalue can leave every S_m above an absolute tolerance.
    """
    S = positivity_coefficients(rho)
    ok = is_hermitian(rho) and all(s >= PSD_TOL for s in S) and float(np.linalg.eigvalsh(rho)[0]) >= PSD_TOL
    return S, ok


def is_positive_semidefinite(rho: np.ndarray) -> bool:
    """PSD verdict of :func:`positivity_certificate`."""
    return positivity_certificate(rho)[1]
