"""Shared brute-force oracles and random-input helpers.

The oracles here deliberately avoid the library's fast paths: Pauli
matrices are built by explicit Kronecker products over itertools.product
orderings, coefficients by explicit traces, and transfer matrices by
column-wise trace formulas, so tests compare two independent routes.
The Markov-correlated entries are evaluated in exact rationals, one
4x4 product per entry.  The reference readers of labelled (observable and
measurement) text and of report text read one line at a time, with no memo.
The reference positivity certificate takes one state at a time: its
powers, each trace by ``np.trace``, the recursion with an explicit
(-1)**(j-1), then the Hermiticity check and ``eigvalsh`` only when the
earlier checks pass.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from noisedeconv.exceptions import ParseError
from noisedeconv.pauli import check_qubits

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = (I2, SX, SY, SZ)


def pauli_basis_bruteforce(n):
    """All 4**n Pauli strings in lexicographic order via itertools.product."""
    mats = []
    for digits in product(range(4), repeat=n):
        m = np.ones((1, 1), dtype=complex)
        for d in digits:
            m = np.kron(m, SINGLE[d])
        mats.append(m)
    return mats


def vectorize_bruteforce(A):
    """Coefficients via explicit traces Tr[P_k A]/d."""
    A = np.asarray(A, dtype=complex)
    d = A.shape[0]
    n = d.bit_length() - 1
    return np.array([np.trace(P @ A) / d for P in pauli_basis_bruteforce(n)])


def ptm_bruteforce(kraus_ops, n):
    """Transfer matrix via the trace formula Tr[P_j sum_i K_i P_q K_i^dag]/d."""
    basis = pauli_basis_bruteforce(n)
    d = 2**n
    dim = 4**n
    M = np.zeros((dim, dim), dtype=complex)
    for q in range(dim):
        out = sum(K @ basis[q] @ K.conj().T for K in kraus_ops)
        for j in range(dim):
            M[j, q] = np.trace(basis[j] @ out) / d
    assert np.max(np.abs(M.imag)) < 1e-10
    return M.real


# Exact commutation signs between single-qubit Pauli indices.
SIGNS = ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))


def markov_lambda_exact(k, n, p_vec, mu):
    """Diagonal entry k of the Markov-correlated Pauli channel as a Fraction:
    (p o s_{a_1})^T . prod_{j >= 2} (C diag(s_{a_j})) . 1 with the matrix
    C = (1 - mu) 1 p^T + mu I written out entry by entry and every product
    taken in exact rationals (floats enter exactly through Fraction)."""
    p = [Fraction(x) for x in p_vec]
    mu = Fraction(mu)
    C = [[(1 - mu) * p[b] + (mu if a == b else 0) for b in range(4)] for a in range(4)]
    digits = [(k >> 2 * (n - 1 - q)) & 3 for q in range(n)]
    v = [p[b] * SIGNS[digits[0]][b] for b in range(4)]
    for a in digits[1:]:
        v = [sum(v[c] * C[c][b] for c in range(4)) * SIGNS[a][b] for b in range(4)]
    return sum(v)


def random_density(n, rng):
    d = 2**n
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def positivity_certificate_reference(rho, psd_tol, hermitian_tol):
    """(S_0 ... S_d, PSD verdict) of one state, by the trace-power recursion."""
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    power = np.eye(d, dtype=complex)
    traces = [0.0]  # traces[j] = Tr[rho^j]
    for _ in range(d):
        power = power @ rho
        traces.append(float(np.trace(power).real))
    S = [1.0]
    for m in range(1, d + 1):
        acc = 0.0
        for j in range(1, m + 1):
            acc += (-1.0) ** (j - 1) * traces[j] * S[m - j]
        S.append(acc / m)
    hermitian = bool(np.max(np.abs(rho - rho.conj().T)) <= hermitian_tol)
    ok = hermitian and all(s >= psd_tol for s in S) and float(np.linalg.eigvalsh(rho)[0]) >= psd_tol
    return S, ok


def random_hermitian(n, rng, scale=1.0):
    d = 2**n
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (A + A.conj().T) / 2


def projective_sample_bruteforce(rho, P, shots, rng):
    """Finite-shot <P> from a projective measurement in the full eigenbasis
    of the +/-1-valued matrix P: eigh, a multinomial over the outcome
    probabilities <v|rho|v>, then the eigenvalue-weighted mean of the counts."""
    vals, vecs = np.linalg.eigh(P)
    probs = np.clip(np.einsum("ji,jk,ki->i", vecs.conj(), rho, vecs).real, 0.0, None)
    counts = rng.multinomial(shots, probs / probs.sum())
    return float(counts @ np.round(vals)) / shots


def labelled_rows_reference(text, form, widths):
    """The qubit count and rows (line number, k, numbers) of ``form`` lines,
    read one line at a time: the reader before chunks were checked column by
    column, kept as the oracle.  A label is upper-cased, then must be a
    non-empty string over IXYZ, read as base-4 digits."""
    rows = []
    n = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) not in widths:
            raise ParseError(f"line {lineno}: expected '{form}', got {line!r}")
        upper = fields[0].upper()
        if not upper or upper.strip("IXYZ"):
            raise ParseError(f"line {lineno}: invalid Pauli label {fields[0]!r}")
        n_row, k = len(upper), int(upper.translate(str.maketrans("IXYZ", "0123")), 4)
        try:
            numbers = [float(x) for x in fields[1:]]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if not all(map(math.isfinite, numbers)):
            raise ParseError(f"line {lineno}: numbers must be finite, got {line!r}")
        if n is None:
            n = n_row
        elif n_row != n:
            raise ParseError(f"line {lineno}: {fields[0]!r} has {n_row} qubits, expected {n}")
        rows.append((lineno, k, numbers))
    if not rows:
        raise ParseError(f"expected '{form}' lines, found none")
    return n, rows


def report_from_text_reference(text):
    """(n, mode, entries, shots, seed) of report text, read one row at a time:
    the parser before reports were read in chunks, kept as the oracle.  It
    lets a repeated 'n' or 'mode' line win, takes any shot count, and an
    'n' value that isdigit() but is no decimal (such as a superscript)
    raises ValueError."""
    n = None
    mode = None
    run = None  # (shots, seed) of the first row, shared by every row
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
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
            raise ParseError(f"line {lineno}: expected 'j k estimate std_error shots seed'")
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
    return (n, mode, entries, *(run or (0, 0)))
