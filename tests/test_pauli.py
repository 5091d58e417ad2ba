from unittest import mock

import numpy as np
import pytest
from conftest import labelled_rows_reference, pauli_basis_bruteforce, random_hermitian, vectorize_bruteforce
from hypothesis import given, settings
from hypothesis import strategies as st

from noisedeconv import pauli

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
    labelled_rows,
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

    def test_labelled_rows_read_the_index_from_the_label(self):
        n, rows = labelled_rows("xy 1.0\n# note\nZZ 2.0 0.5\n", "<pauli-string> <value>", (2, 3))
        assert n == 2 and rows == [(1, 6, [1.0]), (3, 15, [2.0, 0.5])]
        assert all(type(k) is int for _, k, _ in rows)

    @pytest.mark.parametrize("text, message", [
        ("ZZ 1.0\nZQ 2.0\n", "line 2: invalid Pauli label 'ZQ'"),
        ("ZZ 1.0\nZ 2.0\n", "line 2: 'Z' has 1 qubits, expected 2"),
        ("ZZ 1.0 2.0\n", "line 1: expected '<pauli-string> <coefficient>', got 'ZZ 1.0 2.0'"),
    ])
    def test_labelled_rows_name_the_bad_line(self, text, message):
        with pytest.raises(ParseError) as err:
            Observable.from_text(text)
        assert str(err.value) == message

    def test_keys_other_than_in_range_ints_are_checked(self):
        assert Observable(2, {np.int64(6): 1.0, PauliIndex(2, 15): 0.5, True: 0.25}).terms == \
            {1: 0.25, 6: 1.0, 15: 0.5}
        with pytest.raises(ValueError, match="out of range"):
            Observable(1, {4: 1.0})
        with pytest.raises(ValueError, match="out of range"):
            Observable(1, {-1: 1.0})
        with pytest.raises(DimensionMismatch):
            Observable(2, {PauliIndex(1, 3): 1.0})
        with pytest.raises(ConfigError, match="coefficient of XY is not finite"):
            Observable(2, {6: float("nan")})

    def test_from_pairs_merges_duplicates(self):
        obs = Observable.from_pairs([("Z", 0.5), ("Z", 0.25)])
        assert obs.terms == {3: 0.75}


# Letters of drawn labels past IXYZ: lower case, other letters and digits,
# and non-ASCII letters whose upper case is in IXYZ (dotless i) or is longer
# than the letter itself (sharp s, the fi ligature).
LABEL_LETTERS = "IXYZ" * 4 + "ixyz" * 2 + "Q03_\u0131\u00df\ufb01"
# Numbers past plain floats: non-finite and overflowing ones, forms float()
# takes (underscores, a sign, Arabic-Indic digits) and forms it refuses.
ODD_NUMBERS = ["nan", "inf", "-inf", "1e400", "-1e400", "1_0", "+2", "\u0661", "0x1", "x", "1,5", "--1"]


@st.composite
def labelled_texts(draw):
    """Observable or measurement text: rows of an n-qubit label and one or
    two numbers, with blank, comment-only and carriage-return lines, and
    rows drawn with a wrong field count, label or number."""
    n = draw(st.integers(1, 4))
    rnd = draw(st.randoms(use_true_random=False))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = rnd.choice(["row"] * 6 + ["blank", "comment", "odd_label", "odd_number", "field_count"])
        if kind == "blank":
            lines.append(rnd.choice(["", "   ", "\t", "\r", " \x0c "]))
            continue
        if kind == "comment":
            lines.append(rnd.choice(["# note", "#", "  # 1 2 3"]))
            continue
        label = "".join(rnd.choice("IXYZ") for _ in range(n))
        if kind == "odd_label":
            size = max(1, n + rnd.choice([-1, 0, 1]))
            label = "".join(rnd.choice(LABEL_LETTERS) for _ in range(size))
        numbers = [repr(rnd.uniform(-1, 1)) for _ in range(rnd.choice([1, 1, 2]))]
        if kind == "odd_number":
            numbers[rnd.randrange(len(numbers))] = rnd.choice(ODD_NUMBERS)
        elif kind == "field_count":
            numbers = rnd.choice([[], numbers + ["0.1", "0.2"]])
        tail = rnd.choice(["", "", " # checked", "#x", "\r", "\t"])
        lines.append(rnd.choice([" ", "\t", "  "]).join([label, *numbers]) + tail)
    return "\n".join(lines) + rnd.choice(["\n", ""])


def _labelled_outcome(read, text, widths):
    try:
        n, rows = read(text, "<pauli-string> <value> [std_error]", widths)
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)
    return n, repr(rows)


@settings(max_examples=400, deadline=None)
@given(text=labelled_texts(), widths=st.sampled_from([(2,), (2, 3)]), chunk=st.sampled_from([1, 3, 256]))
def test_column_reader_agrees_with_the_row_by_row_reference(text, widths, chunk):
    with mock.patch.object(pauli, "CHUNK_LINES", chunk):
        got = _labelled_outcome(labelled_rows, text, widths)
    assert got == _labelled_outcome(labelled_rows_reference, text, widths)


@pytest.mark.parametrize("chunk", [1, 3, 256])
@pytest.mark.parametrize("text, message", [
    ("\n\nZZ 1.0 2.0 3.0\n\n", "line 3: expected '<pauli-string> <value> [std_error]', got 'ZZ 1.0 2.0 3.0'"),
    ("\n# a\n\u0131Z 1.0\nZ\u00df 2.0\n", "line 4: invalid Pauli label 'Z\u00df'"),
    ("ZZ 1.0\n\nZZ 1e400\n", "line 3: numbers must be finite, got 'ZZ 1e400'"),
    ("ZZ 1.0\nZZ 2.0\n\nZZZ 0x1\n", "line 4: could not convert string to float: '0x1'"),
    ("ZZ 1.0\nZZ 2.0\n\nZZZ 1.0\n", "line 4: 'ZZZ' has 3 qubits, expected 2"),
])
def test_labelled_rows_name_a_lone_row_past_the_chunks_first_line(text, message, chunk):
    with mock.patch.object(pauli, "CHUNK_LINES", chunk), pytest.raises(ParseError) as err:
        labelled_rows(text, "<pauli-string> <value> [std_error]", (2, 3))
    assert str(err.value) == message
    with pytest.raises(ParseError) as err:
        labelled_rows_reference(text, "<pauli-string> <value> [std_error]", (2, 3))
    assert str(err.value) == message
