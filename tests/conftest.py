"""Shared brute-force oracles and random-input helpers.

The oracles here deliberately avoid the library's fast paths: Pauli
matrices are built by explicit Kronecker products over itertools.product
orderings, coefficients by explicit traces, and transfer matrices by
column-wise trace formulas, so tests compare two independent routes.
The transfer matrix of a Kraus set is also built one whole-array pass per
step (``ptm_one_pass``), the order of operations the blocked library build
must keep bit for bit.
The dense-state oracles build a preset as the Kronecker power of its
one-qubit factor, evolve a density matrix by the Kraus sum over a
channel's ``kraus_ops`` and read Tr[P_k rho] by an explicit trace; the
library itself works only on Pauli coefficients.
The Markov-correlated entries are evaluated in exact rationals, one
4x4 product per entry.  The reference readers of labelled (observable and
measurement) text and of report text read one line at a time, with no memo,
and a full report's matrix is filled one entry at a time.
The reference positivity certificate takes one state at a time: its
powers, each trace by ``np.trace``, the recursion with an explicit
(-1)**(j-1), then the Hermiticity check and ``eigvalsh`` only when the
earlier checks pass.
The reference general-path experiment rows (``general_rows_per_record``)
plan every record on its own, plan(P_k, channel, m), and deconvolve it
through that plan.
"""

import math
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

from noisedeconv.deconvolution import deconvolve, plan, propagated_std_error
from noisedeconv.exceptions import ParseError
from noisedeconv.pauli import Observable, check_qubits
from noisedeconv.sampling import read_batch, sample_marginal
from noisedeconv.simulator import PRESET_BLOCH

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = (I2, SX, SY, SZ)


def kron_string(digits):
    """The Pauli string with single-qubit indices ``digits``, one Kronecker
    product per digit."""
    m = np.ones((1, 1), dtype=complex)
    for d in digits:
        m = np.kron(m, SINGLE[d])
    return m


def pauli_basis_bruteforce(n):
    """All 4**n Pauli strings in lexicographic order via itertools.product."""
    return [kron_string(digits) for digits in product(range(4), repeat=n)]


def pauli_string_bruteforce(k, n):
    """Pauli string k on n qubits, its digits read from k in base 4."""
    return kron_string((k >> 2 * (n - 1 - q)) & 3 for q in range(n))


def product_state(b, n):
    """The dense product of n one-qubit factors (b_I I + b_X X + b_Y Y + b_Z Z)/2,
    one Kronecker product per qubit."""
    one = sum(x * sigma for x, sigma in zip(b, SINGLE)) / 2
    rho = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        rho = np.kron(rho, one)
    return rho


def preset_state(name, n):
    """A preset made dense: |0...0>, |+...+>, or the maximally mixed state."""
    return product_state(PRESET_BLOCH[name], n)


def kraus_sum(kraus_ops, A):
    """sum_i K_i A K_i^dag."""
    return sum(K @ A @ K.conj().T for K in kraus_ops)


def evolve(rho, ch, m):
    """rho after m uses of the channel, each the Kraus sum over ``ch.kraus_ops``."""
    out = np.asarray(rho, dtype=complex)
    for _ in range(m):
        out = kraus_sum(ch.kraus_ops, out)
    return out


def exact_pauli_expectation(rho, k):
    """Tr[P_k rho] for the flat index k, by an explicit trace."""
    rho = np.asarray(rho, dtype=complex)
    val = np.trace(pauli_string_bruteforce(k, rho.shape[0].bit_length() - 1) @ rho)
    assert abs(val.imag) < 1e-10
    return float(val.real)


def observable_expectation(rho, obs):
    """Tr[O rho] for O = sum_k c_k P_k, one explicit trace per term."""
    return sum(c * exact_pauli_expectation(rho, k) for k, c in obs.items())


def sample_pauli_expectation(rho, k, shots, rng):
    """Finite-shot Tr[P_k rho]: the marginal draw of the exact trace."""
    return sample_marginal(exact_pauli_expectation(rho, k), shots, rng)


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
        out = kraus_sum(kraus_ops, basis[q])
        for j in range(dim):
            M[j, q] = np.trace(basis[j] @ out) / d
    assert np.max(np.abs(M.imag)) < 1e-10
    return M.real


def ptm_one_pass(kraus_ops, n):
    """The Kraus-to-transfer-matrix build one whole-array pass per step, as the
    library made it before it worked in blocks: the full product of the
    stacked operators, a 4n-axis transpose copy to paired (row, column) axes,
    ``_transform_per_qubit`` over all 2n kernels, then a division by d.  The
    complex D x D result, for bit-for-bit comparison with the blocked build."""
    from noisedeconv.pauli import _DEVEC_KERNEL, _VEC_KERNEL, _transform_per_qubit

    d = 2**n
    stacked = np.stack(kraus_ops).reshape(len(kraus_ops), d * d)
    S = (stacked.T @ stacked.conj()).reshape((2,) * (4 * n))
    a, c, b, e = (range(i * n, (i + 1) * n) for i in range(4))
    order = [ax for q in range(n) for ax in (a[q], b[q])] + [ax for q in range(n) for ax in (c[q], e[q])]
    gamma = _transform_per_qubit([_VEC_KERNEL] * n + [_DEVEC_KERNEL.T] * n, np.ascontiguousarray(S.transpose(order)))
    gamma /= d
    return gamma.reshape(d * d, d * d)


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


def random_observable(n, rng):
    """An observable with a standard-normal coefficient on every Pauli string."""
    return Observable(n, dict(enumerate(rng.normal(size=4**n).tolist())))


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


def report_matrix_reference(n, entries):
    """The transfer matrix of a complete full report's entries {(j, k):
    (estimate, std_error)}, filled one entry at a time: the fill from before
    reports were held as columns, kept as the oracle."""
    dim = 4**n
    M = np.zeros((dim, dim))
    for (j, k), (est, _) in entries.items():
        M[j, k] = est
    return M


def general_rows_per_record(cfg, ch, c, ks, tags):
    """The rows of ``simulator._general_rows``, record by record: each through its
    own plan(P_k, channel, m), then deconvolve and propagated_std_error on the
    entries that plan reads.  The plans' entries are read in one read_batch,
    m-major, then j ascending."""
    gamma = ch.ptm().matrix
    plans = [[plan(Observable(cfg.n, {k: 1.0}), ch, m) for k in ks] for m in range(cfg.m_max + 1)]
    needed = [sorted({j for p in ps for j in p.weights} | set(ks)) for ps in plans]
    evolved = accumulate(range(cfg.m_max), lambda v, _: gamma @ v, initial=c)  # c after m = 0..m_max uses
    exact = [e for v, js in zip(evolved, needed) for e in v[js].tolist()]
    got = iter(read_batch([exact], [tags], cfg.shots, cfg.seed)[0])
    rows = []
    for ps, js in zip(plans, needed):
        step = dict(zip(js, got))  # j -> (value, std_error) after m uses
        rows += [(*step[k], deconvolve(p, {j: step[j][0] for j in p.weights}),
                  propagated_std_error(p, {j: step[j][1] for j in p.weights})) for k, p in zip(ks, ps)]
    return rows
