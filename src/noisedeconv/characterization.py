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
``lambdas(ks)`` for the probes of a diagonal report, so a Markov-correlated
channel is probed up to MAX_QUBITS_SPARSE qubits, and from ``lambdas()``
for a full one; any other channel is read from ``ptm()`` and capped with
it).  Both reports come from one probe loop whose entries go
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
diagonal path and any other the general path.  A diagonal report parses
up to MAX_QUBITS_SPARSE qubits, a full one up to pauli.MAX_QUBITS.

Report text is read and written through memos that live for one call.  A
sampled estimate is 2c/shots - 1 for a count c, and its std_error is a
function of the same count, so a column holds at most shots + 1 distinct
values (about 150 in a 4096-row report at 1000 shots), and every row
shares one shots/seed pair.  int, float and repr are pure functions of
their argument, so converting each distinct token once, and formatting
each distinct (estimate, std_error) pair once, gives the same entries and
the same bytes as a call per field.  A pair that holds a zero bypasses the
writer's memo, since -0.0 == 0.0 but the two print differently, and a
memo stops growing at pauli.MEMO_SIZE values.  ``pauli.read_text`` hands
the text over CHUNK_LINES lines at a time to one checker, which checks a
chunk column by column; a chunk it refuses is handed over again one line
at a time, and the checker names the first bad line.

The probe's positive semidefiniteness is certified through the
characteristic-polynomial coefficients S_m, computed by the trace-power
recursion (S_0 = 1):

    S_m = (1/m) * sum_{j=1..m} (-1)**(j-1) Tr[rho^j] S_{m-j}

In exact arithmetic a Hermitian unit-trace operator is positive
semidefinite iff every S_m is nonnegative; for the probes, S_m > 0 for
m < 1 + d/2 and S_m = 0 beyond, independent of k.  A stack of states is
certified in one pass, each certificate equal to the state's alone, bit
for bit (``positivity_certificates``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import MAX_QUBITS_FULL_PTM, MAX_QUBITS_SPARSE, PTM, Channel
from .channels import apply_channel  # noqa: F401  (unused; the benchmark self-test counts this binding)
from .exceptions import (
    ConfigError,
    DimensionMismatch,
    IdentityProbe,
    NonUnitalChannel,
    NotPauliDiagonal,
    ParseError,
)
from .pauli import HERMITIAN_TOL, MAX_QUBITS, Memo, as_index, check_qubits, num_qubits, pauli_element, read_text
from .sampling import check_shots_and_seed, read_batch

__all__ = [
    "CharacterizedPTM",
    "probe_state",
    "estimate_diagonal_entries",
    "estimate_full_ptm",
    "positivity_coefficients",
    "is_positive_semidefinite",
    "positivity_certificate",
    "positivity_certificates",
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


def _probe_outputs(ch: Channel, ks):
    """The map (k, js) -> entries js of the coefficient vector of the
    channel's output on the probe (1 + P_k)/d, Gamma[js, 0] + Gamma[js, k],
    as floats, for the probes ``ks`` (None: every k).  A Pauli channel
    answers with ``lambdas(ks)``.  A non-Pauli channel is checked for
    unitality here, once: Gamma[:, 0] != e_0 would bias every estimate."""
    try:
        lam = ch.lambdas(ks)
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

    def lambdas(self, ks=None) -> dict[int, float] | np.ndarray:
        """A diagonal report's rows, with lambda_0 = 1 from trace preservation,
        for any ``ks``: a k it lacks is missing from the dict.  A full report
        answers as its matrix does (``PTM.lambdas``): its diagonal within
        DIAGONAL_TOL, else NotPauliDiagonal, planned from ``ptm()``."""
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
        """The report text, rows in (j, k) order.  Each distinct (estimate,
        std_error) pair is formatted once per call; -0.0 == 0.0, but the two
        print differently, so a pair that holds a zero is keyed with its signs."""
        tail = f" {self.shots} {self.seed}"
        cells = Memo(lambda key: f"{float(key[0])!r} {float(key[1])!r}{tail}")
        lines = ["# transfer-matrix characterization report", f"n {self.n}", f"mode {self.mode}"]
        for jk in sorted(self.entries):
            est, err = self.entries[jk]
            key = (est, err) if est and err else (est, err, math.copysign(1, est), math.copysign(1, err))
            lines.append(f"{jk[0]} {jk[1]} {cells[key]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_report_text(cls, text: str) -> "CharacterizedPTM":
        """Parse report text: ``n`` and ``mode`` header lines, each once, and
        rows ``j k estimate std_error shots seed`` sharing one shots/seed
        pair, which must pass ``check_shots_and_seed``.  A bad line raises
        ParseError naming it."""
        reader = _ReportReader()
        read_text(text, reader.take)
        return cls(*reader.result())


# What a report row's numbers can fail, in the order a row is checked:
# conversion, finiteness, sign.  The converters raise the last two.
_ROW_FAULTS = ("malformed row", "non-finite estimate or error in", "std_error, shots and seed must be >= 0 in")


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(_ROW_FAULTS[1])
    return value


def _std_error(token: str) -> float:
    value = _finite(token)
    if value < 0:
        raise ValueError(_ROW_FAULTS[2])
    return value


def _count(token: str) -> int:
    value = int(token)
    if value < 0:
        raise ValueError(_ROW_FAULTS[2])
    return value


def _fault(memo: Memo, token: str) -> int:
    """Index in _ROW_FAULTS of the check ``token`` fails, or past them all."""
    try:
        memo[token]
    except ValueError as exc:
        return _ROW_FAULTS.index(exc.args[0]) if exc.args[0] in _ROW_FAULTS else 0
    return len(_ROW_FAULTS)


class _ReportReader:
    """The state of one parse of report text, read by ``pauli.read_text``.

    ``take`` checks a chunk column by column, each column through one memo
    of this parse whose converter checks conversion, finiteness and sign.
    A refused line is named for the first check it fails in single-line
    order: field count and header, conversion, finiteness, sign,
    shots/seed, repeat.  The j/k range and the diagonal-mode rule need the
    header, which may come last, so ``result`` checks them from the extent
    of the int columns.
    """

    def __init__(self):
        self.header: dict[str, tuple] = {}  # "n" / "mode" -> (value, line number)
        self.run: tuple[int, int] | None = None  # (shots, seed) of the first row
        self.entries: dict[tuple[int, int], tuple[float, float]] = {}
        self.lo, self.hi = math.inf, -math.inf  # least and greatest j or k
        self.diagonal = True  # j == k on every row
        self.ints, self.ests, self.errs, self.counts = Memo(int), Memo(_finite), Memo(_std_error), Memo(_count)

    def take(self, first: int, lines: list[str], fields: list[list[str]]) -> None:
        """Take a chunk's header lines and rows if every check passes, else
        raise ParseError naming ``first``, the line of a chunk of one."""
        rows = [row for row in fields if len(row) == 6]
        header = {}
        if len(rows) < len(fields):
            for lineno, row in enumerate(fields, first):
                if row and len(row) != 6:
                    if len(row) != 2:
                        raise ParseError(f"line {first}: expected 'j k estimate std_error shots seed'")
                    key, value = row
                    if not (key == "mode" or key == "n" and value.isdecimal()):
                        raise ParseError(f"line {first}: bad header line {lines[0]!r}")
                    if key in self.header or key in header:
                        raise ParseError(f"line {first}: header {key!r} repeats line {(header | self.header)[key][1]}")
                    header[key] = (int(value) if key == "n" else value, lineno)
        if rows:
            ints, counts = self.ints.__getitem__, self.counts.__getitem__
            try:
                js, ks, ests, errs, shots, seeds = zip(*rows)
                js, ks = list(map(ints, js)), list(map(ints, ks))
                chunk = dict(zip(zip(js, ks), zip(map(self.ests.__getitem__, ests),
                                                   map(self.errs.__getitem__, errs))))
                # each column's distinct values: one shots/seed pair iff one value in each
                shots, seeds = set(map(counts, set(shots))), set(map(counts, set(seeds)))
            except ValueError:
                if len(lines) > 1:
                    raise ParseError("a row of the chunk is refused") from None
                memos = (self.ints, self.ints, self.ests, self.errs, self.counts, self.counts)
                fault = _ROW_FAULTS[min(map(_fault, memos, rows[0]))]
                raise ParseError(f"line {first}: {fault} {lines[0]!r}") from None
            if len(shots) != 1 or len(seeds) != 1:
                raise ParseError("rows of the chunk differ in shots or seed")
            run = (*shots, *seeds)
            if self.run is None:
                try:
                    check_shots_and_seed(*run)
                except ConfigError as exc:
                    raise ParseError(f"line {first}: {exc}") from None
            elif run != self.run:
                raise ParseError(f"line {first}: shots {run[0]} and seed {run[1]} differ from the first row's {self.run}")
            if len(chunk) < len(rows) or not self.entries.keys().isdisjoint(chunk):
                raise ParseError(f"line {first}: entry ({js[0]}, {ks[0]}) repeats an earlier row")
            self.run = run
            self.entries.update(chunk)
            self.lo = min(self.lo, min(js), min(ks))
            self.hi = max(self.hi, max(js), max(ks))
            self.diagonal = self.diagonal and js == ks
        self.header.update(header)

    def result(self) -> tuple:
        """(n, mode, entries, shots, seed) once every chunk is read."""
        n = self.header.get("n", (None,))[0]
        mode = self.header.get("mode", (None,))[0]
        if n is None or mode not in ("diagonal", "full"):
            raise ParseError("report lacks a valid 'n'/'mode' header")
        check_qubits(n, MAX_QUBITS_SPARSE if mode == "diagonal" else MAX_QUBITS)
        if not (0 <= self.lo and self.hi < 4**n):
            raise ParseError(f"report entries must have j and k in 0..{4**n - 1}")
        if mode == "diagonal" and not (self.diagonal and self.lo > 0):
            raise ParseError("a diagonal report holds only (k, k) rows with k >= 1")
        return (n, mode, self.entries, *(self.run or (0, 0)))


def _probe_report(ch: Channel, mode: str, ks, entries: dict, shots: int, seed: int) -> CharacterizedPTM:
    """Probe the channel once per k in ``ks`` and add to ``entries`` what
    its output gives: (k, k) in diagonal mode, every (j, k) with j != 0 in
    full mode, j = k first, all read from the probe's stream (seed, k) by
    one readout of the whole report.  Every index is validated, then
    unitality is checked once, before the first probe."""
    ks = [as_index(k, ch.n).k for k in ks]
    if 0 in ks:
        raise IdentityProbe("the k=0 entry equals 1 by trace preservation")
    output = _probe_outputs(ch, None if mode == "full" else ks)
    D = 4**ch.n
    reads = [([k, *range(1, k), *range(k + 1, D)] if mode == "full" else [k], (k,)) for k in ks]
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


def _trace_powers(states: np.ndarray) -> list[list[float]]:
    """Tr[rho^j], j = 1..d, of each state of a (count, d, d) stack: the
    products and the sums of one state alone, rho^j = ((1 @ rho) @ rho)...
    and each trace summed along its diagonal as ``np.trace`` sums it."""
    count, d, _ = states.shape
    diagonals = np.empty((count, d, d), dtype=complex)  # [state, j - 1, i]
    power, spare = np.eye(d, dtype=complex) @ states, np.empty_like(states)
    diagonals[:, 0] = power.diagonal(axis1=1, axis2=2)
    for j in range(1, d):
        power, spare = np.matmul(power, states, out=spare), power
        diagonals[:, j] = power.diagonal(axis1=1, axis2=2)
    return diagonals.sum(axis=2).real.tolist()


def _newton(traces: list[float]) -> list[float]:
    """S_0 ... S_d from traces[j - 1] = Tr[rho^j] by the trace-power
    recursion, in Python floats, summed in ascending j."""
    signed = [-t if j % 2 else t for j, t in enumerate(traces)]  # (-1)**(j-1) Tr[rho^j]
    S = [1.0]
    for m in range(1, len(traces) + 1):
        acc = 0.0
        for t, s in zip(signed, reversed(S)):  # S[m - 1], ..., S[0]
            acc += t * s
        S.append(acc / m)
    return S


def positivity_coefficients(rho: np.ndarray) -> list[float]:
    """Characteristic-polynomial coefficients S_0 ... S_d of rho.

    Computed by the trace-power recursion.  In exact arithmetic a Hermitian
    unit-trace rho is positive semidefinite iff every S_m is nonnegative; in
    floating point a small negative eigenvalue can leave every S_m above any
    absolute tolerance, so the verdict is ``positivity_certificate``'s, which
    also reads the smallest eigenvalue.
    """
    rho = np.asarray(rho, dtype=complex)
    num_qubits(rho)
    return _newton(_trace_powers(rho[None])[0])


def positivity_certificates(states) -> list[tuple[list[float], bool]]:
    """(S_0 ... S_d, PSD verdict) of each state of a stack of 2**n x 2**n
    matrices (an array or a sequence), in one pass over the stack.

    A verdict requires the state to be Hermitian (``eigvalsh`` reads only
    one triangle), every S_m to be >= PSD_TOL, and the smallest eigenvalue
    to be >= PSD_TOL: the high-order S_m are products of many eigenvalues,
    so past n = 3 a negative eigenvalue can leave every S_m above an
    absolute tolerance.  Eigenvalues are taken only of the states that
    pass the first two checks.  The recursion runs once per distinct row
    of traces; all 4**n - 1 probes share one.
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim != 3:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {states.shape}")
    if len(states):
        num_qubits(states[0])
    memo = {}  # traces -> (S, every S_m >= PSD_TOL)
    rows = []
    for traces in _trace_powers(states):
        key = tuple(traces)
        if key not in memo:
            S = _newton(traces)
            memo[key] = S, all(s >= PSD_TOL for s in S)
        rows.append(memo[key])
    # pauli.is_hermitian, state by state
    hermitian = np.abs(states - states.conj().swapaxes(1, 2)).max(axis=(1, 2)) <= HERMITIAN_TOL
    ok = [h and nonnegative for h, (_, nonnegative) in zip(hermitian.tolist(), rows)]
    todo = [i for i, passed in enumerate(ok) if passed]
    if todo:
        for i, smallest in zip(todo, np.linalg.eigvalsh(states[todo])[:, 0].tolist()):
            ok[i] = smallest >= PSD_TOL
    return [(S[:], passed) for (S, _), passed in zip(rows, ok)]


def positivity_certificate(rho: np.ndarray) -> tuple[list[float], bool]:
    """The coefficients S_0 ... S_d of rho and its PSD verdict: the
    certificate of ``positivity_certificates`` for a stack of one."""
    return positivity_certificates(np.asarray(rho, dtype=complex)[None])[0]


def is_positive_semidefinite(rho: np.ndarray) -> bool:
    """PSD verdict of :func:`positivity_certificate`."""
    return positivity_certificate(rho)[1]
