"""Reference math for the benchmark's correctness gates.

Everything here is written from the definitions, without calling the
``noisedeconv`` package, so that a gate compares the program against an
independent computation:

* Pauli coefficients by explicit traces against dense Pauli strings;
* diagonal transfer-matrix entries of the Markov-correlated Pauli family
  as a product of 4x4 matrices, O(n) per entry;
* the characteristic-polynomial coefficients of a probe state in closed
  form;
* a Bernstein bound on a binomial readout, built from the true variance.
"""

from __future__ import annotations

import math

import numpy as np

LABELS = "IXYZ"

SIGMAS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# s[a, b] = +1 when single-qubit sigma_a and sigma_b commute, -1 otherwise.
COMMUTATION = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float
)


def digits(k: int, n: int) -> list[int]:
    """Base-4 digits of k, first qubit most significant."""
    return [(k >> (2 * (n - 1 - q))) & 3 for q in range(n)]


def label(k: int, n: int) -> str:
    return "".join(LABELS[a] for a in digits(k, n))


def index(label: str) -> int:
    k = 0
    for c in label.upper():
        k = 4 * k + LABELS.index(c)
    return k


def all_paulis(n: int) -> np.ndarray:
    """Dense stack of every n-qubit Pauli string, shape (4**n, 2**n, 2**n)."""
    P = np.ones((1, 1, 1), dtype=complex)
    for _ in range(n):
        m, d = P.shape[0], P.shape[1]
        P = (P[:, None, :, None, :, None] * SIGMAS[None, :, None, :, None, :]).reshape(
            4 * m, 2 * d, 2 * d
        )
    return P


def pauli_coefficients(A: np.ndarray, paulis: np.ndarray) -> np.ndarray:
    """x[k] = Tr[P_k A], real part (A Hermitian)."""
    return np.einsum("kij,ji->k", paulis, A).real


def depolarizing_marginal(q: float) -> list[float]:
    return [1.0 - 0.75 * q, 0.25 * q, 0.25 * q, 0.25 * q]


def markov_lambda(k: int, n: int, p_vec, mu: float) -> float:
    """Diagonal entry k of the Markov-correlated Pauli channel.

    lambda_k = (p o s_{k1})^T . prod_{j>=2} C diag(s_{kj}) . 1 with
    C = (1 - mu) 1 p^T + mu I, where s_{kj} is the commutation-sign
    column of qubit j's digit.
    """
    p = np.asarray(p_vec, dtype=float)
    p = p / p.sum()
    C = (1.0 - mu) * np.tile(p, (4, 1)) + mu * np.eye(4)
    ds = digits(k, n)
    v = p * COMMUTATION[:, ds[0]]
    for a in ds[1:]:
        v = (v @ C) * COMMUTATION[:, a]
    return float(v.sum())


def product_state_coefficient(k: int, n: int, blochs: np.ndarray) -> float:
    """Tr[P_k rho] for rho a product of single-qubit states with Bloch
    vectors ``blochs[q] = (1, x, y, z)``."""
    out = 1.0
    for q, a in enumerate(digits(k, n)):
        out *= float(blochs[q][a])
    return out


def probe_positivity(n: int) -> list[float]:
    """S_0..S_d of the probe (1 + P_k)/d, the same for every k != 0.

    Its spectrum is 2/d with multiplicity d/2 and 0 otherwise, so
    S_m = C(d/2, m) (2/d)**m.
    """
    d = 2**n
    return [math.comb(d // 2, m) * (2.0 / d) ** m for m in range(d + 1)]


def amp_damp_kraus(eta: float, mu: float) -> list[np.ndarray]:
    """Two-qubit correlated amplitude damping, from its definition: a mix
    of independent damping (weight 1 - mu) and collective damping of |11>
    (weight mu)."""
    E0 = np.array([[1.0, 0.0], [0.0, math.sqrt(eta)]])
    E1 = np.array([[0.0, math.sqrt(1.0 - eta)], [0.0, 0.0]])
    ops = [math.sqrt(1.0 - mu) * np.kron(a, b) for a in (E0, E1) for b in (E0, E1)]
    B1 = np.zeros((4, 4))
    B1[0, 3] = math.sqrt(1.0 - eta)
    ops += [math.sqrt(mu) * np.diag([1.0, 1.0, 1.0, math.sqrt(eta)]), math.sqrt(mu) * B1]
    return [K.astype(complex) for K in ops]


def binomial_bound(expectation: float, shots: int, delta: float) -> float:
    """Half-width t with P(|estimate - expectation| > t) <= delta.

    The estimate is 2 * plus/shots - 1 with plus ~ Binomial(shots, p),
    p = (1 + expectation)/2.  Bernstein's inequality on the mean of
    ``shots`` Bernoulli draws with variance p(1 - p) gives the half-width
    on p; the estimate's is twice that.  Unlike a plain multiple of sigma
    it stays valid when p is near 0 or 1, where the binomial is skewed.
    """
    p = min(1.0, max(0.0, 0.5 * (1.0 + expectation)))
    var = p * (1.0 - p)
    L = math.log(2.0 / delta)
    a = L / (3.0 * shots)
    t = a + math.sqrt(a * a + 2.0 * var * L / shots)
    return 2.0 * t
