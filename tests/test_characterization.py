import numpy as np
import pytest
from conftest import random_density

from noisedeconv.channels import (
    KrausChannel,
    apply_channel,
    bit_flip_channel,
    correlated_amplitude_damping,
    dephasing_channel,
    depolarizing_channel,
)
from noisedeconv.characterization import (
    CharacterizedPTM,
    estimate_diagonal_entries,
    estimate_full_ptm,
    is_positive_semidefinite,
    positivity_coefficients,
    probe_state,
)
from noisedeconv.exceptions import IdentityProbe, NonUnitalChannel, ParseError, ResourceCapExceeded
from noisedeconv.pauli import PauliIndex
from noisedeconv.sampling import derive_rng, sample_pauli_expectation


class TestProbeState:
    def test_single_qubit_z_probe(self):
        probe = probe_state(3, 1)
        assert np.allclose(probe, np.diag([1.0, 0.0]))

    def test_two_qubit_zz_probe(self):
        probe = probe_state(15, 2)
        assert np.allclose(probe, np.diag([0.5, 0.0, 0.0, 0.5]))

    def test_eigenvalues_zero_or_two_over_d(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 4):
            d = 2**n
            for k in rng.integers(1, 4**n, 5):
                vals = np.linalg.eigvalsh(probe_state(int(k), n))
                assert np.all(np.isclose(vals, 0.0) | np.isclose(vals, 2.0 / d))

    def test_unit_trace_hermitian(self):
        op = probe_state(7, 2)
        assert abs(np.trace(op) - 1.0) < 1e-12
        assert np.max(np.abs(op - op.conj().T)) == 0

    def test_identity_probe_rejected(self):
        with pytest.raises(IdentityProbe):
            probe_state(0, 2)


class TestEstimateDiagonalEntry:
    def test_identity_channel(self):
        ch = KrausChannel([np.eye(4)])
        for k in (1, 5, 15):
            value, err = estimate_diagonal_entries(ch, [k]).entries[(k, k)]
            assert value == pytest.approx(1.0, abs=1e-12)
            assert err == 0.0

    def test_depolarizing_exact(self):
        value, _ = estimate_diagonal_entries(depolarizing_channel(1, 0.2), [3]).entries[(3, 3)]
        assert value == pytest.approx(0.8, abs=1e-12)

    def test_matches_ptm_from_kraus(self):
        ch = bit_flip_channel(2, 0.2, 0.6)
        k = PauliIndex.from_label("ZZ").k
        value, _ = estimate_diagonal_entries(ch, [k]).entries[(k, k)]
        assert value == pytest.approx(ch.ptm().matrix[k, k], abs=1e-12)

    def test_non_unital_rejected(self):
        with pytest.raises(NonUnitalChannel):
            estimate_diagonal_entries(correlated_amplitude_damping(0.5, 0.0), [15])

    def test_identity_index_rejected(self):
        with pytest.raises(IdentityProbe):
            estimate_diagonal_entries(bit_flip_channel(1, 0.1), [0])

    def test_shot_convergence_bound(self):
        ch = depolarizing_channel(1, 0.2)
        exact, _ = estimate_diagonal_entries(ch, [3]).entries[(3, 3)]
        for shots in (1024, 8192, 65536):
            value, err = estimate_diagonal_entries(ch, [3], shots=shots, seed=13).entries[(3, 3)]
            assert abs(value - exact) <= 3.0 / np.sqrt(shots)
            assert err <= np.sqrt(1.0 / shots)

    def test_sampled_deterministic(self):
        ch = bit_flip_channel(2, 0.1, 0.4)
        a = estimate_diagonal_entries(ch, [15], shots=4096, seed=7).entries[(15, 15)]
        b = estimate_diagonal_entries(ch, [15], shots=4096, seed=7).entries[(15, 15)]
        assert a == b


class TestEstimateFullPtm:
    def test_identity_channel(self):
        result = estimate_full_ptm(KrausChannel([np.eye(2)]))
        assert np.allclose(result.ptm().matrix, np.eye(4))

    def test_unital_amp_damp_edge(self):
        result = estimate_full_ptm(correlated_amplitude_damping(1.0, 0.4))
        assert np.allclose(result.ptm().matrix, np.eye(16))

    def test_pauli_channel_matches_kraus_route(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3):
            ch = KrausChannel.from_pauli_weights(n, rng.dirichlet(np.ones(4**n)))
            est = estimate_full_ptm(ch).ptm().matrix
            assert np.max(np.abs(est - ch.ptm().matrix)) < 1e-12

    def test_non_unital_rejected(self):
        with pytest.raises(NonUnitalChannel):
            estimate_full_ptm(correlated_amplitude_damping(0.3, 0.5))

    def test_identity_row_column_filled(self):
        result = estimate_full_ptm(bit_flip_channel(1, 0.2))
        M = result.ptm().matrix
        assert np.array_equal(M[0], [1, 0, 0, 0])
        assert np.array_equal(M[:, 0], [1, 0, 0, 0])

    @pytest.mark.parametrize("n", [1, 2])
    def test_sampled_equals_dense_sampler_per_entry(self, n):
        ch = depolarizing_channel(n, 0.2, 0.4) if n == 2 else dephasing_channel(1, 0.15)
        shots, seed = 700, 13
        result = estimate_full_ptm(ch, shots=shots, seed=seed)
        for k in range(1, 4**n):
            # probe k is one stream (seed, k), read with j = k first
            out, rng = apply_channel(ch, probe_state(k, n)), derive_rng(seed, k)
            for j in [k, *(j for j in range(1, 4**n) if j != k)]:
                assert result.entries[(j, k)] == sample_pauli_expectation(out, j, shots, rng)

    def test_sampled_within_four_sigma(self):
        ch = bit_flip_channel(1, 0.1)
        exact = ch.ptm().matrix
        result = estimate_full_ptm(ch, shots=65536, seed=3)
        for (j, k), (est, err) in result.entries.items():
            if j == 0 or k == 0:
                continue
            assert abs(est - exact[j, k]) <= max(4 * err, 1e-12)


class TestDiagonalEntries:
    def test_r_probe_accounting(self):
        ch = depolarizing_channel(2, 0.1, 0.3)
        ks = [3, 12, 15]
        result = estimate_diagonal_entries(ch, ks)
        assert result.mode == "diagonal"
        assert set(result.entries) == {(k, k) for k in ks}
        assert len(result.entries) == len(ks)

    @pytest.mark.parametrize("ch", [depolarizing_channel(2, 0.1, 0.3), correlated_amplitude_damping(1.0, 0.4)],
                             ids=["pauli", "kraus"])
    def test_unitality_checked_once_per_call(self, monkeypatch, ch):
        from noisedeconv import characterization

        reads, probes = [], []
        original = characterization._probe_outputs

        def counting(channel):
            reads.append(channel)
            output = original(channel)
            return lambda k, js: probes.append(k) or output(k, js)

        monkeypatch.setattr(characterization, "_probe_outputs", counting)
        ks = [1, 3, 5, 12, 15]
        result = estimate_diagonal_entries(ch, ks)
        assert reads == [ch] and probes == ks
        for k in ks:
            reads.clear(), probes.clear()
            assert estimate_diagonal_entries(ch, [k]).entries[(k, k)] == result.entries[(k, k)]
            assert reads == [ch] and probes == [k]

    def test_non_unital_rejected(self):
        with pytest.raises(NonUnitalChannel):
            estimate_diagonal_entries(correlated_amplitude_damping(0.5, 0.3), [3, 12])

    @pytest.mark.parametrize("ch", [depolarizing_channel(2, 0.1, 0.3), correlated_amplitude_damping(1.0, 0.4)],
                             ids=["pauli", "kraus"])
    def test_each_entry_is_the_full_reports(self, ch):
        full = estimate_full_ptm(ch, shots=300, seed=8).entries
        for k in range(1, 16):
            assert estimate_diagonal_entries(ch, [k], shots=300, seed=8).entries == {(k, k): full[(k, k)]}

    def test_entry_does_not_depend_on_the_other_probes(self):
        ch = bit_flip_channel(2, 0.15, 0.25)
        alone = estimate_diagonal_entries(ch, [3], shots=700, seed=2).entries[(3, 3)]
        assert estimate_diagonal_entries(ch, [5, 3], shots=700, seed=2).entries[(3, 3)] == alone
        assert estimate_diagonal_entries(ch, [3, 15, 5], shots=700, seed=2).entries[(3, 3)] == alone

    def test_kraus_channel_past_the_full_cap_refused(self):
        # Probe outputs come from the transfer matrix, so a non-Pauli channel
        # is capped as plan() and run_experiment cap it; a Pauli one is not.
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        h6 = np.ones((1, 1))
        for _ in range(6):
            h6 = np.kron(h6, hadamard)
        ch = KrausChannel([np.sqrt(0.9) * np.eye(64), np.sqrt(0.1) * h6])
        assert not ch.is_pauli
        with pytest.raises(ResourceCapExceeded, match="1..5"):
            estimate_diagonal_entries(ch, [4095])
        pauli = bit_flip_channel(6, 0.1)
        assert estimate_diagonal_entries(pauli, [4095]).entries[(4095, 4095)] == (pauli.lambdas()[4095], 0.0)


class TestReportFormat:
    def test_roundtrip(self):
        ch = bit_flip_channel(2, 0.15, 0.25)
        result = estimate_diagonal_entries(ch, [5, 15], shots=2048, seed=9)
        text = result.to_report_text()
        again = CharacterizedPTM.from_report_text(text)
        assert again == result
        assert again.to_report_text() == text

    def test_full_roundtrip(self):
        result = estimate_full_ptm(dephasing_channel(1, 0.2))
        again = CharacterizedPTM.from_report_text(result.to_report_text())
        assert np.allclose(again.ptm().matrix, result.ptm().matrix)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            CharacterizedPTM.from_report_text("nonsense header\n")
        with pytest.raises(ParseError):
            CharacterizedPTM.from_report_text("n 1\nmode diagonal\n1 1 bad 0.0 0 0\n")
        with pytest.raises(ParseError):
            CharacterizedPTM.from_report_text("")

    def test_repeated_row_rejected(self):
        with pytest.raises(ParseError, match="line 4"):
            CharacterizedPTM.from_report_text("n 1\nmode diagonal\n3 3 0.8 0.0 0 0\n3 3 0.2 0.0 0 0\n")

    @pytest.mark.parametrize("row", ["4 4 0.9 0.0 0 0", "-1 1 0.9 0.0 0 0", "1 1 nan 0.0 0 0",
                                     "0 0 0.5 0.0 0 0", "1 3 0.5 0.0 0 0", "3 3 0.8 -0.1 0 0",
                                     "3 3 0.8 0.1 -5 0", "3 3 0.8 0.1 5 -7"])
    def test_out_of_range_or_non_finite_row(self, row):
        with pytest.raises(ParseError):
            CharacterizedPTM.from_report_text(f"n 1\nmode diagonal\n{row}\n")


class TestPositivityCoefficients:
    def test_single_qubit_probe(self):
        S = positivity_coefficients(probe_state(3, 1))
        assert np.allclose(S, [1.0, 1.0, 0.0], atol=1e-14)

    def test_two_qubit_probe(self):
        S = positivity_coefficients(probe_state(15, 2))
        assert np.allclose(S, [1.0, 1.0, 0.25, 0.0, 0.0], atol=1e-14)

    def test_maximally_mixed(self):
        for n in (1, 2, 3):
            d = 2**n
            S = positivity_coefficients(np.eye(d) / d)
            assert all(s > 0 for s in S)

    def test_negative_eigenvalue_detected(self):
        S = positivity_coefficients(np.diag([1.5, -0.5]))
        assert S[2] == pytest.approx(-0.75, abs=1e-14)
        assert not is_positive_semidefinite(np.diag([1.5, -0.5]))

    def test_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density(2, rng)
            # mix in occasional non-PSD perturbations
            if rng.uniform() < 0.5:
                rho = rho - 0.3 * np.eye(4) / 4
                rho = rho / np.trace(rho)
            psd_oracle = bool(np.min(np.linalg.eigvalsh(rho)) >= -1e-10)
            assert is_positive_semidefinite(rho) == psd_oracle

    @pytest.mark.parametrize("n", [4, 5])
    def test_negative_eigenvalue_detected_past_three_qubits(self, n):
        # Every S_m stays above PSD_TOL here: S_d is -0.01 times 15 (31)
        # eigenvalues of about 1/d.
        d = 2**n
        rho = np.diag([-0.01] + [1.01 / (d - 1)] * (d - 1))
        assert min(positivity_coefficients(rho)) > -1e-10
        assert not is_positive_semidefinite(rho)

    def test_probe_theorem_all_k(self):
        # S_m > 0 below delta = 1 + d/2, zero at and beyond, for every k
        for n in (1, 2, 3):
            d = 2**n
            delta = 1 + d // 2
            for k in range(1, 4**n):
                S = positivity_coefficients(probe_state(k, n))
                assert all(s > 0 for s in S[:delta]), (n, k, S)
                assert all(abs(s) < 1e-10 for s in S[delta:]), (n, k, S)
