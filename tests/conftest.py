"""Shared brute-force oracles and random-input helpers.

The oracles here deliberately avoid the library's fast paths: Pauli
matrices are built by explicit Kronecker products over itertools.product
orderings, coefficients by explicit traces, and transfer matrices by
column-wise trace formulas, so tests compare two independent routes.
"""

from itertools import product

import numpy as np

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


def random_density(n, rng):
    d = 2**n
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


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
