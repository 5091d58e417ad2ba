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
it).  Both reports come from one probe loop, and probe k is one
``sampling.reader`` read from the stream (seed, k), its entries drawn in
turn with (k, k) first, so a diagonal entry equals the full report's bit
for bit whatever other probes a report holds, and an exact one equals the
channel's lambda_k.  This layout
replaced one stream (seed, k, j) per entry, so sampled reports differ
from those of earlier versions; the report text is unchanged and those
reports still parse.

A report is a lambda source for ``deconvolution.plan``: a diagonal
report gives its rows as the lambdas, and a full report answers as its
transfer matrix (``ptm()``) does, so an exactly diagonal one takes the
diagonal path and any other the general path.  A diagonal report parses
up to MAX_QUBITS_SPARSE qubits, a full one up to pauli.MAX_QUBITS.

A report is four columns in row order (js, ks, estimates, std_errors),
extended probe by probe or chunk by chunk, with no object per entry.
Report text is read and written through memos that live for one call.  A
sampled estimate is 2c/shots - 1 for a count c, and its std_error is a
function of the same count, so a column holds at most shots + 1 distinct
values; int, float and repr are pure, so converting each distinct token
once, and formatting each distinct (estimate, std_error) pair once, gives
the columns and bytes of a call per field.  A pair that holds a zero is
keyed with its signs (-0.0 == 0.0, but the two print differently), and a
memo stops growing at pauli.MEMO_SIZE values.  ``pauli.read_text`` hands
the text over in chunks of whole lines, each about pauli.CHUNK_CHARS
characters; a chunk the reader refuses is handed over again one line at a
time, and the reader names the first bad line.  Repeated (j, k) are found
from the whole columns once the text is read, and named before any later
refusal.

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
from types import MappingProxyType

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
from .pauli import HERMITIAN_TOL, MAX_QUBITS, Memo, _check_index, check_qubits, num_qubits, pauli_element, read_text
from .sampling import check_shots_and_seed, reader

__all__ = [
    "CharacterizedPTM",
    "probe_state",
    "estimate_diagonal_entries",
    "estimate_full_ptm",
    "positivity_certificates",
    "UNITALITY_TOL",
    "PSD_TOL",
]

UNITALITY_TOL = 1e-9
PSD_TOL = -1e-10


def probe_state(k: int, n: int) -> np.ndarray:
    """The probe (1 + P_k)/d for the flat index k on n qubits, a read-only
    array (k = 0 needs no probe)."""
    if k == 0:
        raise IdentityProbe(
            "the k=0 entry equals 1 by trace preservation; no probe is needed"
        )
    P = pauli_element(k, n)
    op = (np.eye(len(P), dtype=complex) + P) / len(P)
    op.setflags(write=False)
    return op


def _probe_outputs(ch: Channel, ks):
    """The map (k, js) -> entries js of the coefficient vector of the
    channel's output on the probe (1 + P_k)/d, Gamma[js, 0] + Gamma[js, k],
    as a float array, for the probes ``ks`` (None: every k).  A Pauli channel
    answers with ``lambdas(ks)``.  A non-Pauli channel is checked for
    unitality here, once: Gamma[:, 0] != e_0 would bias every estimate."""
    try:
        lam = ch.lambdas(ks)
    except NotPauliDiagonal:
        gamma = ch.ptm().matrix
        resid = float(np.max(np.abs(gamma[:, 0] - (np.arange(len(gamma)) == 0))))
        if resid > UNITALITY_TOL:
            raise NonUnitalChannel(f"channel is not unital: identity-column residual {resid:.3e}") from None
        return lambda k, js: gamma[js, 0] + gamma[js, k]
    return lambda k, js: np.where(np.asarray(js) == k, lam[k], 0.0)


@dataclass(frozen=True, eq=False)
class CharacterizedPTM:
    """Estimated transfer-matrix entries with their standard errors, planned
    like a channel (``n``, ``lambdas()``, ``ptm()``).

    Entry i is (``js[i]``, ``ks[i]``) with ``estimates[i]`` and
    ``std_errors[i]``: Python ints and floats, no (j, k) twice, never changed
    once built.  Diagonal mode holds the requested (k, k), k >= 1; full mode
    the whole matrix, its k = 0 row and column from trace preservation and
    unitality, scattered into its ``ptm()`` once.  Every entry shares one
    ``shots`` and ``seed``.  ``entries`` is a read-only view (j, k) ->
    (estimate, std_error) in row order; reports are equal when it is.
    """

    n: int
    mode: str  # "diagonal" | "full"
    js: list[int]
    ks: list[int]
    estimates: list[float]
    std_errors: list[float]
    shots: int
    seed: int

    @cached_property
    def entries(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(zip(self.js, self.ks), zip(self.estimates, self.std_errors))))

    def __eq__(self, other):
        return isinstance(other, CharacterizedPTM) and all(
            getattr(self, name) == getattr(other, name) for name in ("n", "mode", "shots", "seed", "entries"))

    def lambdas(self, ks=None) -> dict[int, float] | np.ndarray:
        """A diagonal report's rows, with lambda_0 = 1 from trace preservation,
        for any ``ks``: a k it lacks is missing from the dict.  A full report
        answers as its matrix does (``PTM.lambdas``): its diagonal within
        DIAGONAL_TOL, else NotPauliDiagonal, planned from ``ptm()``."""
        if self.mode == "full":
            return self.ptm().lambdas()
        return {0: 1.0} | dict(zip(self.ks, self.estimates))

    def ptm(self) -> PTM:
        if self.mode != "full":
            raise ValueError("only full-mode reports define a complete transfer matrix")
        return self._ptm

    @cached_property
    def _ptm(self) -> PTM:
        check_qubits(self.n, MAX_QUBITS_FULL_PTM)
        missing = 16**self.n - len(self.js)
        if missing:
            raise ParseError(f"full report lacks {missing} of its {16**self.n} entries (j, k)")
        M = np.zeros((4**self.n, 4**self.n))
        M[_int64(self.js), _int64(self.ks)] = np.fromiter(self.estimates, float, len(self.estimates))
        return PTM(self.n, M)

    @property
    def sorted_columns(self) -> list[list]:
        """The four columns, rows in (j, k) order: one stable argsort of the
        flat index j * 4**n + k (below 16**MAX_QUBITS in full mode), or of k
        alone in diagonal mode, where j == k."""
        key = _int64(self.ks)
        if self.mode == "full":
            key += _int64(self.js) * 4**self.n
        order = np.argsort(key, kind="stable").tolist()
        return [list(map(column.__getitem__, order)) for column in (self.js, self.ks, self.estimates, self.std_errors)]

    def to_report_text(self) -> str:
        """The report text, rows in (j, k) order.  Each distinct (estimate,
        std_error) pair is formatted once per call; -0.0 == 0.0, but the two
        print differently, so a pair that holds a zero is keyed with its signs."""
        tail = f" {self.shots} {self.seed}"
        cells = Memo(lambda key: f"{float(key[0])!r} {float(key[1])!r}{tail}")
        lines = ["# transfer-matrix characterization report", f"n {self.n}", f"mode {self.mode}"]
        for j, k, est, err in zip(*self.sorted_columns):
            key = (est, err) if est and err else (est, err, math.copysign(1, est), math.copysign(1, err))
            lines.append(f"{j} {k} {cells[key]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_report_text(cls, text: str) -> "CharacterizedPTM":
        """Parse report text: ``n`` and ``mode`` header lines, each once, and
        rows ``j k estimate std_error shots seed`` sharing one shots/seed
        pair, which must pass ``check_shots_and_seed``.  A bad line raises
        ParseError naming it."""
        reader = _ReportReader()
        try:
            read_text(text, reader.take)
        finally:  # a repeated row is refused before any later line
            j, k = reader.index_arrays(text)
        return cls(*reader.result(j, k))


def _int64(column: list[int]) -> np.ndarray:
    """``column`` as int64, or as Python ints past int64 (and every range)."""
    try:
        return np.fromiter(column, np.int64, len(column))
    except OverflowError:
        return np.array(column, dtype=object)


def _checked(convert, ok):
    """``convert``, refusing (ValueError) a value that fails ``ok``."""
    def checked(token: str):
        if ok(value := convert(token)):
            return value
        raise ValueError(token)
    return checked


def _row_fault(row: list[str]) -> str:
    """The first check a refused row fails: conversion, finiteness, sign."""
    try:
        est, err, *_ = float(row[2]), float(row[3]), *map(int, row[:2] + row[4:])
    except ValueError:
        return "malformed row"
    if math.isfinite(est) and math.isfinite(err):
        return "std_error, shots and seed must be >= 0 in"
    return "non-finite estimate or error in"


class _ReportReader:
    """The state of one parse of report text, read by ``pauli.read_text``.

    ``take`` checks a chunk column by column, each through a memo whose
    converter checks conversion, finiteness and sign, and appends it to the
    columns.  A refused line is named for the first check it fails in
    single-line order: field count and header, conversion, finiteness,
    sign, shots/seed, repeat.  Repeats, the j/k range and the diagonal rule
    are checked on whole columns once the text is read.
    """

    def __init__(self):
        self.header: dict[str, tuple] = {}  # "n" / "mode" -> (value, line number)
        self.run: tuple[int, int] | None = None  # (shots, seed) of the first row
        self.columns: tuple[list, ...] = ([], [], [], [])  # js, ks, estimates, std_errors
        ints, errs = Memo(int), Memo(_checked(float, lambda err: 0 <= err < math.inf))
        self.memos = ints, ints, Memo(_checked(float, math.isfinite)), errs  # one per column
        self.counts = Memo(_checked(int, (0).__le__))  # shots and seed

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
            try:
                *columns, shots, seeds = zip(*rows)
                chunk = [list(map(memo.__getitem__, column)) for memo, column in zip(self.memos, columns)]
                # each column's distinct values: one shots/seed pair iff one value in each
                shots, seeds = (set(map(self.counts.__getitem__, set(column))) for column in (shots, seeds))
            except ValueError:
                if len(lines) > 1:
                    raise ParseError("a row of the chunk is refused") from None
                raise ParseError(f"line {first}: {_row_fault(rows[0])} {lines[0]!r}") from None
            if len(shots) != 1 or len(seeds) != 1:
                raise ParseError("rows of the chunk differ in shots or seed")
            run = (*shots, *seeds)
            if self.run not in (None, run):
                raise ParseError(f"line {first}: shots {run[0]} and seed {run[1]} differ from the first row's {self.run}")
            try:
                check_shots_and_seed(*run)
            except ConfigError as exc:
                raise ParseError(f"line {first}: {exc}") from None
            self.run = run
            for column, values in zip(self.columns, chunk):
                column += values
        self.header.update(header)

    def index_arrays(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        """The j and k columns as arrays if no row taken repeats the (j, k) of
        an earlier one, else ParseError naming the first that does (row i is
        the text's i-th line of six fields)."""
        js, ks = self.columns[:2]
        j, k = _int64(js), _int64(ks)
        order = np.lexsort((k, j))  # stable: the rows of one (j, k) in row order
        sj, sk = j[order], k[order]
        repeats = order[1:][(sj[1:] == sj[:-1]) & (sk[1:] == sk[:-1])]
        if len(repeats):
            i, lines = int(repeats.min()), []
            read_text(text, lambda first, _, rows: lines.extend(n for n, f in enumerate(rows, first) if len(f) == 6))
            raise ParseError(f"line {lines[i]}: entry ({js[i]}, {ks[i]}) repeats an earlier row") from None
        return j, k

    def result(self, j: np.ndarray, k: np.ndarray) -> tuple:
        """(n, mode, js, ks, estimates, std_errors, shots, seed) once every
        chunk is read and no row repeats, ``j`` and ``k`` the index arrays."""
        n = self.header.get("n", (None,))[0]
        mode = self.header.get("mode", (None,))[0]
        if n is None or mode not in ("diagonal", "full"):
            raise ParseError("report lacks a valid 'n'/'mode' header")
        check_qubits(n, MAX_QUBITS_SPARSE if mode == "diagonal" else MAX_QUBITS)
        if len(j) and not (0 <= min(j.min(), k.min()) and max(j.max(), k.max()) < 4**n):
            raise ParseError(f"report entries must have j and k in 0..{4**n - 1}")
        if mode == "diagonal" and not ((j == k).all() and 0 not in k):
            raise ParseError("a diagonal report holds only (k, k) rows with k >= 1")
        return (n, mode, *self.columns, *(self.run or (0, 0)))


def _probe_report(ch: Channel, mode: str, ks, columns: tuple[list, ...], shots: int, seed: int) -> CharacterizedPTM:
    """Probe the channel once per distinct k in ``ks`` and append to the four
    ``columns`` what its output gives: (k, k) in diagonal mode, every (j, k)
    with j != 0 in full mode, j = k first, read from the probe's stream
    (seed, k) by one reader per probe.  Every index is validated, then
    unitality is checked once, before the first probe."""
    ks = list(dict.fromkeys(_check_index(int(k), ch.n) for k in ks))  # a repeated k is probed once
    if 0 in ks:
        raise IdentityProbe("the k=0 entry equals 1 by trace preservation")
    output = _probe_outputs(ch, None if mode == "full" else ks)
    D = 4**ch.n
    for k in ks:
        js = [k, *range(1, k), *range(k + 1, D)] if mode == "full" else [k]
        values = reader(shots, seed, k)(output(k, js))
        for column, part in zip(columns, (js, [k] * len(js), *zip(*values))):
            column += part
    return CharacterizedPTM(ch.n, mode, *columns, shots, seed)


def estimate_diagonal_entries(ch: Channel, ks, shots: int = 0, seed: int = 0) -> CharacterizedPTM:
    """Estimate the diagonal entry at each k in ``ks``, one probe each.

    ``shots = 0`` means exact readout.  Raises NonUnitalChannel when the
    channel moves the maximally mixed state, which would bias the probe
    estimates, and ResourceCapExceeded for a non-Pauli channel past
    MAX_QUBITS_FULL_PTM qubits.  Entry (k, k) equals the full report's,
    byte for byte.
    """
    return _probe_report(ch, "diagonal", ks, ([], [], [], []), shots, seed)


def estimate_full_ptm(ch: Channel, shots: int = 0, seed: int = 0) -> CharacterizedPTM:
    """Estimate every transfer-matrix entry from 4**n - 1 probes.

    Each probe's output gives a column: all P_j are read from its Pauli
    coefficient vector.  The k = 0 row and column are filled from the
    trace-preservation and unitality identities.  Past
    MAX_QUBITS_FULL_PTM qubits it refuses before the first probe.
    """
    check_qubits(ch.n, MAX_QUBITS_FULL_PTM)
    D = 4**ch.n  # the identities first: row 0, then column 0
    js, ks, zeros = [0] * D + [*range(1, D)], [*range(D)] + [0] * (D - 1), [0.0] * (2 * D - 1)
    return _probe_report(ch, "full", range(1, D), (js, ks, [1.0] + zeros[1:], zeros), shots, seed)


def _trace_powers(states: np.ndarray) -> list[list[float]]:
    """Tr[rho^j], j = 1..d, of each state of a (count, d, d) stack: the
    products and the sums of one state alone, rho^j = ((1 @ rho) @ rho)...
    and each trace summed along its diagonal as ``np.trace`` sums it."""
    count, d, _ = states.shape
    diagonals = np.empty((count, d, d), dtype=complex)  # [state, j - 1, i]
    power, spare = np.eye(d, dtype=complex) @ states, np.empty_like(states)
    diagonals[:, 0] = power.diagonal(axis1=1, axis2=2)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge state's powers go inf or nan and fail
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
