import numpy as np
import pytest
from conftest import pauli_basis_bruteforce, random_hermitian, vectorize_bruteforce

from noisedeconv.exceptions import (
    ConfigError,
    DimensionMismatch,
    NonHermitianInput,
    ParseError,
    ResourceCapExceeded,
)
from noisedeconv.pauli import (
    MAX_QUBITS,
    Observable,
    PauliIndex,
    check_qubits,
    devectorize,
    hs_inner,
    pauli_element,
    vectorize,
)


class TestPauliIndex:
    def test_digit_index_bijection_exhaustive(self):
        for n in range(1, 7):
            for k in range(4**n):
                idx = PauliIndex(n, k)
                assert PauliIndex.from_label(idx.label) == idx

    def test_first_qubit_most_significant(self):
        assert PauliIndex.from_label("xy").k == 6
        assert PauliIndex(2, 6).digits == (1, 2)
        assert PauliIndex.from_label("XY").k == 6
        assert PauliIndex(3, 63).label == "ZZZ"

    def test_identity_is_zero(self):
        assert PauliIndex.from_label("III").k == 0
        assert PauliIndex(3, 0).is_identity

    def test_range_validation(self):
        with pytest.raises(ValueError):
            PauliIndex(1, 4)
        with pytest.raises(ValueError):
            PauliIndex(0, 0)
        for label in ("XQ", "", "X1", "X Y", "-Z"):
            with pytest.raises(ValueError, match="invalid Pauli label"):
                PauliIndex.from_label(label)


class TestPauliElement:
    def test_single_qubit_matrices(self):
        assert np.array_equal(pauli_element(0, 1), np.eye(2))
        assert np.array_equal(pauli_element(3, 1), np.diag([1.0, -1.0]))

    def test_lexicographic_order_matches_bruteforce(self):
        for n in (1, 2, 3):
            basis = pauli_basis_bruteforce(n)
            for k in range(4**n):
                assert np.array_equal(pauli_element(k, n), basis[k])

    def test_k6_is_x_tensor_y(self):
        assert np.array_equal(pauli_element(6, 2), np.kron(pauli_element(1, 1), pauli_element(2, 1)))

    def test_basis_element_properties(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            d = 2**n
            for k in rng.integers(0, 4**n, 8):
                P = np.asarray(pauli_element(int(k), n))
                assert np.max(np.abs(P - P.conj().T)) == 0  # Hermitian
                assert np.max(np.abs(P @ P - np.eye(d))) == 0  # unitary
                assert np.trace(P) == (d if k == 0 else 0)

    def test_qubit_cap(self):
        with pytest.raises(ResourceCapExceeded):
            pauli_element(0, 7)


class TestCheckQubits:
    @pytest.mark.parametrize("n, cap", [(1, 6), (6, 6), (4, 4), (5, 5)])
    def test_inside_the_range_passes(self, n, cap):
        assert check_qubits(n, cap) is None

    @pytest.mark.parametrize("n, cap", [(0, 6), (-1, 6), (7, 6), (5, 4), (6, 5)])
    def test_outside_the_range_is_a_cap(self, n, cap):
        with pytest.raises(ResourceCapExceeded, match=rf"1\.\.{cap}, got n={n}"):
            check_qubits(n, cap)

    def test_default_cap_is_max_qubits(self):
        check_qubits(MAX_QUBITS)
        with pytest.raises(ResourceCapExceeded):
            check_qubits(MAX_QUBITS + 1)


class TestHsInner:
    def test_orthonormality(self):
        for n in (1, 2):
            for j in range(4**n):
                for k in range(4**n):
                    val = hs_inner(pauli_element(j, n), pauli_element(k, n))
                    assert val == (1.0 if j == k else 0.0)

    def test_sigma_z_on_ground_state(self):
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        assert hs_inner(pauli_element(3, 1), rho) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hs_inner(np.eye(2), np.eye(4))

    def test_expectation_bridge(self):
        # Tr[rho O] = d * <<rho|O>> for Hermitian rho, O
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            rho = random_hermitian(n, rng)
            O = random_hermitian(n, rng)
            lhs = np.trace(rho @ O)
            rhs = 2**n * np.vdot(vectorize(rho), vectorize(O))
            assert abs(lhs - rhs) < 1e-10


class TestVectorize:
    def test_identity(self):
        assert np.allclose(vectorize(np.eye(2)), [1, 0, 0, 0])

    def test_ground_state(self):
        v = vectorize(np.array([[1, 0], [0, 0]], dtype=complex))
        assert np.allclose(v, [0.5, 0, 0, 0.5], atol=1e-15)

    def test_xx_single_component(self):
        v = vectorize(np.kron(pauli_element(1, 1), pauli_element(1, 1)))
        expected = np.zeros(16)
        expected[5] = 1.0
        assert np.allclose(v, expected, atol=1e-15)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4):
            A = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            assert np.max(np.abs(vectorize(A) - vectorize_bruteforce(A))) < 1e-13

    def test_completeness_roundtrip(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            A = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            assert np.max(np.abs(devectorize(vectorize(A)) - A)) < 1e-12

    def test_hermitian_iff_real_coefficients(self):
        rng = np.random.default_rng(4)
        H = random_hermitian(2, rng)
        assert np.max(np.abs(vectorize(H).imag)) < 1e-12
        coeffs = rng.normal(size=16)
        M = devectorize(coeffs)
        assert np.max(np.abs(M - M.conj().T)) < 1e-12


class TestDevectorize:
    def test_identity_coeffs(self):
        v = np.zeros(4)
        v[0] = 1.0
        assert np.allclose(devectorize(v), np.eye(2))

    def test_ground_state_roundtrip(self):
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        assert np.allclose(devectorize(vectorize(rho)), rho, atol=1e-15)

    def test_bad_length(self):
        with pytest.raises(DimensionMismatch):
            devectorize(np.zeros(8))


class TestObservable:
    def test_single_basis_element(self):
        obs = Observable.from_operator(np.asarray(pauli_element(63, 3)))
        assert obs.terms == {63: 1.0}
        assert obs.r == 1

    def test_two_term_sum(self):
        A = np.kron(np.eye(2), pauli_element(3, 1)) + np.kron(pauli_element(3, 1), np.eye(2))
        obs = Observable.from_operator(A)
        assert set(obs.terms) == {3, 12}
        assert obs.r == 2
        assert np.allclose(list(obs.terms.values()), [1.0, 1.0])

    def test_random_hermitian_roundtrip(self):
        rng = np.random.default_rng(7)
        A = random_hermitian(2, rng)
        obs = Observable.from_operator(A)
        assert obs.r <= 16
        assert np.max(np.abs(obs.to_operator() - A)) < 1e-12

    def test_non_hermitian_rejected(self):
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NonHermitianInput):
            Observable.from_operator(A)

    def test_pruning(self):
        obs = Observable(1, {0: 1.0, 3: 1e-15})
        assert obs.terms == {0: 1.0}

    def test_text_roundtrip_bit_exact(self):
        obs = Observable.from_pairs([("ZZZ", 1.0), ("IXZ", -0.1234567890123456)])
        text = obs.to_text()
        again = Observable.from_text(text)
        assert again == obs
        assert again.to_text() == text

    def test_text_parse_errors(self):
        with pytest.raises(ParseError, match="line 2"):
            Observable.from_text("ZZ 1.0\nZQ 2.0\n")
        with pytest.raises(ParseError, match="line 1"):
            Observable.from_text("ZZ notanumber\n")
        with pytest.raises(ParseError):
            Observable.from_text("# only a comment\n")

    @pytest.mark.parametrize("coeff", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ConfigError):
            Observable(1, {3: coeff})
        with pytest.raises(ConfigError):
            Observable.from_text(f"Z {coeff!r}\n")

    def test_from_pairs_merges_duplicates(self):
        obs = Observable.from_pairs([("Z", 0.5), ("Z", 0.25)])
        assert obs.terms == {3: 0.75}
