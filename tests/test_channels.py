import numpy as np
import pytest
from conftest import ptm_bruteforce, random_density

from noisedeconv import channels
from noisedeconv.channels import (
    KrausChannel,
    PTM,
    apply_channel,
    bit_flip_channel,
    channel_from_config,
    correlated_amplitude_damping,
    correlated_pauli_channel,
    correlated_pauli_weights,
    dephasing_channel,
    depolarizing_channel,
)
from noisedeconv.exceptions import (
    ConfigError,
    InvalidCorrelation,
    InvalidProbability,
    NotPauliDiagonal,
    NotTracePreserving,
    ResourceCapExceeded,
)
from noisedeconv.pauli import devectorize, pauli_element, vectorize


def kron_power(M, n):
    out = M
    for _ in range(n - 1):
        out = np.kron(out, M)
    return out


class TestPtmFromKraus:
    def test_identity_channel(self):
        ch = KrausChannel([np.eye(2)])
        assert np.allclose(ch.ptm().matrix, np.eye(4))

    def test_bit_flip_diagonal(self):
        p = 0.1
        lam = bit_flip_channel(1, p).lambdas()
        assert np.allclose(lam, [1, 1, 1 - 2 * p, 1 - 2 * p], atol=1e-14)

    def test_depolarizing_diagonal(self):
        q = 0.2
        lam = depolarizing_channel(1, q).lambdas()
        assert np.allclose(lam, [1, 1 - q, 1 - q, 1 - q], atol=1e-14)

    def test_dephasing_diagonal(self):
        p = 0.15
        lam = dephasing_channel(1, p).lambdas()
        assert np.allclose(lam, [1, 1 - 2 * p, 1 - 2 * p, 1], atol=1e-14)

    def test_matches_bruteforce_traces(self):
        rng = np.random.default_rng(0)
        for n in (1, 2):
            w = rng.dirichlet(np.ones(4**n))
            ch = KrausChannel.from_pauli_weights(n, w)
            ref = ptm_bruteforce(ch.kraus_ops, n)
            assert np.max(np.abs(ch.ptm().matrix - ref)) < 1e-12
        chA = correlated_amplitude_damping(0.3, 0.6)
        ref = ptm_bruteforce(chA.kraus_ops, 2)
        assert np.max(np.abs(chA.ptm().matrix - ref)) < 1e-12

    def test_not_trace_preserving_rejected(self):
        with pytest.raises(NotTracePreserving):
            KrausChannel([0.5 * np.eye(2)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_superoperator_build_matches_bruteforce(self, n):
        rng = np.random.default_rng(10 + n)
        d = 2**n
        # Random isometry split into r blocks: trace preserving, not unital.
        r = 3
        A = rng.normal(size=(r * d, d)) + 1j * rng.normal(size=(r * d, d))
        V = np.linalg.qr(A)[0]
        kraus = [V[i * d:(i + 1) * d] for i in range(r)]
        assert np.max(np.abs(KrausChannel(kraus).ptm().matrix[:, 0] - np.eye(d * d)[0])) > 1e-9  # not unital
        H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        unitary = [np.linalg.qr(H)[0]]
        for ops in (kraus, unitary):
            ref = ptm_bruteforce(ops, n)
            assert np.max(np.abs(KrausChannel(ops).ptm().matrix - ref)) < 1e-12
        if n == 2:
            ops = correlated_amplitude_damping(0.35, 0.55).kraus_ops
            ref = ptm_bruteforce(ops, n)
            assert np.max(np.abs(KrausChannel(ops).ptm().matrix - ref)) < 1e-12

    def test_unchecked_non_trace_preserving_set_fails_at_the_ptm(self):
        ops = [0.5 * np.eye(4), 0.5 * np.kron(pauli_element(1, 1), np.eye(2))]
        with pytest.raises(NotTracePreserving, match="first row"):
            channels._superoperator_ptm(ops, 2)

    def test_matrix_is_a_read_only_property(self):
        ptm = bit_flip_channel(1, 0.1).ptm()
        with pytest.raises(AttributeError):
            ptm.matrix = np.eye(4)
        assert not ptm.matrix.flags.writeable

    def test_first_row_invariant(self):
        for ch in (
            bit_flip_channel(2, 0.2, 0.4),
            depolarizing_channel(1, 0.3),
            correlated_amplitude_damping(0.4, 0.7),
        ):
            row = ch.ptm().matrix[0]
            expect = np.zeros(row.size)
            expect[0] = 1.0
            assert np.max(np.abs(row - expect)) < 1e-12


class TestApplyChannel:
    def test_identity(self):
        rng = np.random.default_rng(1)
        rho = random_density(2, rng)
        ch = KrausChannel([np.eye(4)])
        assert np.allclose(apply_channel(ch, rho), rho)

    def test_bit_flip_half_on_ground(self):
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        out = apply_channel(bit_flip_channel(1, 0.5), rho)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_full_depolarizing_collapses(self):
        rng = np.random.default_rng(2)
        rho = random_density(1, rng)
        out = apply_channel(depolarizing_channel(1, 1.0), rho)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_kraus_vs_ptm_agree(self):
        rng = np.random.default_rng(3)
        for ch in (
            bit_flip_channel(2, 0.2, 0.5),
            depolarizing_channel(3, 0.1, 0.25),
            correlated_amplitude_damping(0.35, 0.5),
        ):
            rho = random_density(ch.n, rng)
            via_kraus = ch.apply(rho, method="kraus")
            via_ptm = ch.apply(rho, method="ptm")
            assert np.max(np.abs(via_kraus - via_ptm)) < 1e-10
            assert abs(np.trace(via_kraus) - 1.0) < 1e-10

    def test_diagonal_method_agrees(self):
        rng = np.random.default_rng(4)
        ch = depolarizing_channel(3, 0.05, 0.8)
        rho = random_density(3, rng)
        assert np.max(np.abs(ch.apply(rho, "kraus") - ch.apply(rho, "diagonal"))) < 1e-12


class TestTransferMatrixAlgebra:
    """The general deconvolution path rests on these two identities."""

    def test_transpose_is_the_adjoint_map(self):
        # Tr[Phi(A)^dag B] = Tr[A^dag Phi*(B)] on random A, B, with Phi* from Gamma^T
        rng = np.random.default_rng(5)
        ch = correlated_amplitude_damping(0.6, 0.3)
        gamma_t = ch.ptm().matrix.T
        for _ in range(5):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            lhs = np.trace(apply_channel(ch, A).conj().T @ B)
            rhs = np.trace(A.conj().T @ devectorize(gamma_t @ vectorize(B)))
            assert abs(lhs - rhs) < 1e-10

    def test_matrix_power_matches_repeated_application(self):
        # column q of the m-fold map is vec(N^m(P_q))
        rng = np.random.default_rng(6)
        for ch in (bit_flip_channel(1, 0.23, 0.0), depolarizing_channel(3, 0.2, 0.6),
                   correlated_amplitude_damping(0.5, 0.4)):
            n = ch.n
            for m in (1, 3, 10):
                ref = np.zeros((4**n, 4**n), dtype=complex)
                for q in range(4**n):
                    out = np.asarray(pauli_element(q, n), dtype=complex)
                    for _ in range(m):
                        out = apply_channel(ch, out)
                    ref[:, q] = vectorize(out)
                got = np.linalg.matrix_power(ch.ptm().matrix, m)
                assert np.max(np.abs(got - ref.real)) < 1e-9


class TestCorrelatedPauliFamily:
    def test_memoryless_factorizes(self):
        p_vec = [0.7, 0.1, 0.05, 0.15]
        single = correlated_pauli_channel(1, p_vec, 0.0).ptm().matrix
        for n in (2, 3):
            full = correlated_pauli_channel(n, p_vec, 0.0).ptm().matrix
            assert np.max(np.abs(full - kron_power(single, n))) < 1e-12

    def test_full_memory_bit_flip_weights(self):
        p = 0.2
        w = correlated_pauli_weights(2, [1 - p, p, 0, 0], 1.0)
        expected = np.zeros(16)
        expected[0] = 1 - p  # II
        expected[5] = p      # XX
        assert np.allclose(w, expected, atol=1e-15)

    def test_two_qubit_bit_flip_zz_entry(self):
        p, mu = 0.12, 0.4
        lam = bit_flip_channel(2, p, mu).lambdas()
        assert abs(lam[15] - (1 + 4 * (mu - 1) * (1 - p) * p)) < 1e-14

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4):
            p_vec = rng.dirichlet(np.ones(4))
            w = correlated_pauli_weights(n, p_vec, rng.uniform(0, 1))
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.min(w) >= 0

    def test_ptm_is_diagonal(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            ch = correlated_pauli_channel(n, rng.dirichlet(np.ones(4)), rng.uniform(0, 1))
            M = ptm_bruteforce(ch.kraus_ops, n)
            assert np.max(np.abs(M - np.diag(np.diag(M)))) < 1e-12

    def test_ptm_diagonal_n4_single_point(self):
        ch = depolarizing_channel(4, 0.1, 0.5)
        M = ptm_bruteforce(ch.kraus_ops, 4)
        assert np.max(np.abs(M - np.diag(np.diag(M)))) < 1e-12
        assert np.max(np.abs(np.diag(M) - ch.lambdas())) < 1e-12

    def test_family_parametrizations(self):
        # marginals quoted for each family
        w = correlated_pauli_weights(1, [0.9, 0.1, 0, 0], 0.0)
        assert np.allclose(w, [0.9, 0.1, 0, 0])
        q = 0.2
        w = correlated_pauli_weights(1, [1 - 0.75 * q, 0.25 * q, 0.25 * q, 0.25 * q], 0.0)
        assert np.allclose(depolarizing_channel(1, q).lambdas(),
                           np.array([w @ s for s in np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])]))

    def test_depolarizing_zero_strength_is_identity(self):
        for mu in (0.0, 0.5, 1.0):
            lam = depolarizing_channel(2, 0.0, mu).lambdas()
            assert np.allclose(lam, np.ones(16))

    def test_parameter_validation(self):
        with pytest.raises(InvalidProbability):
            correlated_pauli_channel(1, [0.5, 0.2, 0.2, 0.2], 0.0)
        with pytest.raises(InvalidProbability):
            correlated_pauli_channel(1, [1.2, -0.2, 0, 0], 0.0)
        with pytest.raises(InvalidCorrelation):
            correlated_pauli_channel(1, [0.7, 0.1, 0.1, 0.1], 1.5)
        with pytest.raises(ResourceCapExceeded):
            correlated_pauli_channel(7, [0.7, 0.1, 0.1, 0.1], 0.0)


class TestCorrelatedAmplitudeDamping:
    def test_full_transmission_is_identity(self):
        ch = correlated_amplitude_damping(1.0, 0.3)
        assert np.max(np.abs(ch.ptm().matrix - np.eye(16))) < 1e-12

    def test_memoryless_factorizes(self):
        eta = 0.4
        E0 = np.array([[1, 0], [0, np.sqrt(eta)]], dtype=complex)
        E1 = np.array([[0, np.sqrt(1 - eta)], [0, 0]], dtype=complex)
        single = ptm_bruteforce([E0, E1], 1)
        full = correlated_amplitude_damping(eta, 0.0).ptm().matrix
        assert np.max(np.abs(full - np.kron(single, single))) < 1e-12

    def test_full_memory_preserves_zz(self):
        for eta in (0.2, 0.5, 0.8):
            M = correlated_amplitude_damping(eta, 1.0).ptm().matrix
            assert abs(M[15, 15] - 1.0) < 1e-12

    def test_trace_preserving(self):
        for eta, mu in ((0.3, 0.7), (0.9, 0.1), (0.0, 0.5)):
            ch = correlated_amplitude_damping(eta, mu)
            acc = sum(K.conj().T @ K for K in ch.kraus_ops)
            assert np.max(np.abs(acc - np.eye(4))) < 1e-12

    def test_unital_only_at_full_transmission(self):
        identity_column = np.eye(16)[0]
        assert np.max(np.abs(correlated_amplitude_damping(1.0, 0.2).ptm().matrix[:, 0] - identity_column)) <= 1e-9
        assert np.max(np.abs(correlated_amplitude_damping(0.5, 0.2).ptm().matrix[:, 0] - identity_column)) > 1e-9

    def test_parameter_range(self):
        with pytest.raises(InvalidProbability):
            correlated_amplitude_damping(1.2, 0.0)
        with pytest.raises(InvalidCorrelation):
            correlated_amplitude_damping(0.5, -0.1)


class TestPTMLambdas:
    def test_first_row_must_be_trace_preserving(self):
        with pytest.raises(NotTracePreserving, match="first row"):
            PTM(1, np.diag([0.9, 1, 1, 1]))

    def test_probs_validated(self):
        with pytest.raises(InvalidProbability):
            KrausChannel.from_pauli_weights(1, [0.5, 0.1, 0.1, 0.1])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidProbability):
                KrausChannel.from_pauli_weights(1, [bad, 0.0, 0.0, 0.0])
        # the sum of these overflowed with a RuntimeWarning before the refusal
        with pytest.raises(InvalidProbability, match=r"outside \[0, 1\]"):
            KrausChannel.from_pauli_weights(1, [0.0, 0.0, 9e307, 9e307])

    def test_off_diagonal_and_out_of_range_rejected(self):
        with pytest.raises(NotPauliDiagonal):
            correlated_amplitude_damping(0.5, 0.2).ptm().lambdas()
        with pytest.raises(NotPauliDiagonal):
            PTM(1, np.diag([1.0, 1.5, 1, 1])).lambdas()

    def test_verdict_kept_per_ptm(self):
        ptm = PTM(2, bit_flip_channel(2, 0.1, 0.3).ptm().matrix)
        lam = ptm.lambdas()
        assert ptm.lambdas() is lam and not lam.flags.writeable
        general = correlated_amplitude_damping(0.5, 0.2).ptm()
        for _ in range(3):
            with pytest.raises(NotPauliDiagonal, match="not diagonal"):
                general.lambdas()
        out_of_range = PTM(1, np.diag([1.0, 1.5, 1, 1]))
        for _ in range(2):
            with pytest.raises(NotPauliDiagonal, match=r"\[-1, 1\]"):
                out_of_range.lambdas()

    def test_apply_matches_kraus(self):
        ch = bit_flip_channel(2, 0.1, 0.3)
        ptm = PTM(2, ch.ptm().matrix)
        assert ptm.ptm() is ptm and ptm.d == ch.d
        assert np.array_equal(ptm.lambdas(), ch.lambdas())
        rho = random_density(2, np.random.default_rng(9))
        for method in ("auto", "diagonal", "ptm"):
            assert np.max(np.abs(ptm.apply(rho, method) - ch.apply(rho, "kraus"))) < 1e-12


class TestCaps:
    def test_full_ptm_cap(self):
        ch = bit_flip_channel(6, 0.1)
        with pytest.raises(ResourceCapExceeded):
            ch.ptm()

    def test_diagonal_allowed_to_n6(self):
        lam = bit_flip_channel(6, 0.1, 0.5).lambdas()
        assert lam.shape == (4**6,)
        assert abs(lam[0] - 1.0) < 1e-12


class TestChannelConfig:
    def test_families(self):
        ch = channel_from_config({"family": "bit_flip", "n": 2, "p": 0.1, "mu": 0.5})
        assert ch.n == 2 and ch.is_pauli
        ch = channel_from_config({"family": "amp_damp_corr", "eta": 0.5, "mu": 0.1})
        assert ch.n == 2 and not ch.is_pauli
        ch = channel_from_config({"family": "pauli_custom", "n": 1, "beta": {"I": 0.9, "Z": 0.1}})
        assert np.allclose(ch.pauli_weights, [0.9, 0, 0, 0.1])
        ch = channel_from_config({"family": "pauli_custom", "n": 1,
                                  "p_vec": [0.7, 0.1, 0.1, 0.1], "mu": 0.3})
        assert ch.is_pauli

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            channel_from_config({"family": "nonsense"})
        with pytest.raises(ConfigError):
            channel_from_config({"n": 1, "p": 0.1})
        with pytest.raises(ConfigError):
            channel_from_config({"family": "bit_flip", "n": 1})
        with pytest.raises(ConfigError):
            channel_from_config({"family": "amp_damp_corr", "n": 3, "eta": 0.5})

    def test_invalid_probability_passes_through(self):
        with pytest.raises(InvalidProbability):
            channel_from_config({"family": "bit_flip", "n": 1, "p": 1.5})

    @pytest.mark.parametrize("n", [0, -1, 7])
    def test_pauli_weights_outside_qubit_range(self, n):
        with pytest.raises(ResourceCapExceeded):
            KrausChannel.from_pauli_weights(n, [1.0])
        with pytest.raises(ResourceCapExceeded):
            channel_from_config({"family": "pauli_custom", "n": n, "beta": [1.0]})
        with pytest.raises(ResourceCapExceeded):
            channel_from_config({"family": "pauli_custom", "n": n, "beta": {"I": 1.0}})


class TestConcurrencyContract:
    def test_conversion_cache_thread_safe(self):
        from concurrent.futures import ThreadPoolExecutor

        ch = depolarizing_channel(3, 0.1, 0.4)
        with ThreadPoolExecutor(8) as pool:
            lams = list(pool.map(lambda _: ch.lambdas(), range(16)))
            ptms = list(pool.map(lambda _: ch.ptm(), range(16)))
        assert all(l is lams[0] for l in lams)
        assert all(p is ptms[0] for p in ptms)

    def test_returned_arrays_read_only(self):
        ch = bit_flip_channel(2, 0.1, 0.3)
        assert not ch.lambdas().flags.writeable
        assert not ch.ptm().matrix.flags.writeable
        assert not ch.kraus_ops[0].flags.writeable
        assert not pauli_element(5, 2).flags.writeable
