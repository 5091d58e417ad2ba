import numpy as np
import pytest
from conftest import random_density, random_hermitian

from noisedeconv.channels import (
    PTM,
    apply_channel,
    bit_flip_channel,
    compose,
    correlated_amplitude_damping,
    dephasing_channel,
    depolarizing_channel,
)
from noisedeconv.deconvolution import (
    deconvolve,
    plan_composed,
    plan_from_characterization,
    plan_general,
    plan_pauli,
    propagated_std_error,
    reconstruction_factor,
)
from noisedeconv.exceptions import (
    IllConditionedWarning,
    MathematicalError,
    MissingMeasurement,
    NonInvertibleChannel,
    SingularPTM,
)
from noisedeconv.pauli import Observable, PauliIndex
from noisedeconv.sampling import exact_pauli_expectation
from noisedeconv.characterization import estimate_diagonal_entries, estimate_full_ptm


def k_of(label):
    return PauliIndex.from_label(label).k


class TestPlanPauli:
    def test_bit_flip_factor(self):
        plan = plan_pauli(Observable.from_pairs([("Z", 1.0)]), bit_flip_channel(1, 0.1))
        assert plan.factors == {3: pytest.approx(1.25, abs=1e-14)}
        assert plan.entries_consulted == 1

    def test_identity_component_factor_one(self):
        plan = plan_pauli(Observable.from_pairs([("I", 2.0)]), bit_flip_channel(1, 0.3))
        assert plan.factors == {0: 1.0}

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleChannel):
            plan_pauli(Observable.from_pairs([("Z", 1.0)]), depolarizing_channel(1, 1.0))

    def test_consults_r_entries(self):
        rng = np.random.default_rng(0)
        obs = Observable.from_operator(random_hermitian(2, rng))
        plan = plan_pauli(obs, depolarizing_channel(2, 0.1, 0.5))
        assert plan.entries_consulted == obs.r == len(plan.factors)


class TestDeconvolve:
    def test_identity_channel_passthrough(self):
        obs = Observable.from_pairs([("Z", 0.5), ("X", 0.25)])
        plan = plan_pauli(obs, bit_flip_channel(1, 0.0))
        noisy = {3: 0.8, 1: 0.4}
        assert deconvolve(plan, noisy) == pytest.approx(0.5 * 0.8 + 0.25 * 0.4, abs=1e-15)

    def test_three_qubit_depolarizing_formula(self):
        q, mu, v = 0.2, 0.25, 0.7
        plan = plan_pauli(Observable.from_pairs([("ZZZ", 1.0)]), depolarizing_channel(3, q, mu))
        got = deconvolve(plan, {63: v})
        ref = v / ((1 - q) * (1 + (mu - 1) ** 2 * (q - 2) * q))
        assert got == pytest.approx(ref, abs=1e-12)

    def test_exact_roundtrip_two_qubits(self):
        rng = np.random.default_rng(1)
        rho = random_density(2, rng)
        obs = Observable.from_operator(random_hermitian(2, rng))
        w = rng.dirichlet(np.ones(16) * 4)
        from noisedeconv.channels import KrausChannel
        ch = KrausChannel.from_pauli_weights(2, w)
        ideal = float(np.trace(rho @ obs.to_operator()).real)
        rhop = apply_channel(ch, rho)
        noisy = {k: exact_pauli_expectation(rhop, PauliIndex(2, k)) for k in obs.terms}
        assert abs(deconvolve(plan_pauli(obs, ch), noisy) - ideal) < 1e-10

    def test_missing_measurement(self):
        plan = plan_pauli(Observable.from_pairs([("Z", 1.0)]), bit_flip_channel(1, 0.1))
        with pytest.raises(MissingMeasurement):
            deconvolve(plan, {1: 0.5})

    def test_accepts_pauli_index_keys(self):
        plan = plan_pauli(Observable.from_pairs([("Z", 1.0)]), bit_flip_channel(1, 0.25))
        assert deconvolve(plan, {PauliIndex(1, 3): 0.5}) == pytest.approx(1.0)

    def test_linear_no_positivity_constraint(self):
        # arbitrary real coefficient vectors deconvolve linearly
        ch = depolarizing_channel(1, 0.2)
        noisy = {1: 0.3, 3: -0.4}
        a = deconvolve(plan_pauli(Observable.from_pairs([("X", 1.0)]), ch), noisy)
        b = deconvolve(plan_pauli(Observable.from_pairs([("Z", 1.0)]), ch), noisy)
        both = deconvolve(
            plan_pauli(Observable.from_pairs([("X", -2.5), ("Z", 7.0)]), ch), noisy
        )
        assert both == pytest.approx(-2.5 * a + 7.0 * b, abs=1e-12)


class TestPlanGeneral:
    def test_identity_ptm(self):
        plan = plan_general(Observable.from_pairs([("Z", 1.0)]), PTM(1, np.eye(4)))
        assert np.allclose(plan.inverse_adjoint_ptm, np.eye(4))
        assert plan.weights == {3: 1.0}
        assert plan.entries_consulted == 16

    def test_reduces_to_diagonal_path(self):
        rng = np.random.default_rng(2)
        obs = Observable.from_operator(random_hermitian(2, rng))
        ch = bit_flip_channel(2, 0.2, 0.6)
        fast = plan_pauli(obs, ch)
        general = plan_general(obs, ch.ptm())
        for k, coeff in obs.items():
            assert general.weights[k] == pytest.approx(fast.factors[k] * coeff, abs=1e-12)
        assert fast.entries_consulted == obs.r
        assert general.entries_consulted == 16 * 16

    def test_amplitude_damping_xx_row(self):
        eta, mu = 0.5, 0.3
        plan = plan_general(Observable.from_pairs([("XX", 1.0)]),
                            correlated_amplitude_damping(eta, mu).ptm())
        f = 1.0 / (2 * (mu * (eta - np.sqrt(eta)) - eta) * (mu * (eta - 1) - eta))
        assert set(plan.weights) == {k_of("XX"), k_of("YY")}
        assert plan.weights[k_of("XX")] == pytest.approx(
            f * (2 * eta * (1 - mu) + mu * (np.sqrt(eta) + 1)), abs=1e-12)
        assert plan.weights[k_of("YY")] == pytest.approx(
            f * mu * (np.sqrt(eta) - 1), abs=1e-12)

    def test_amplitude_damping_zz_row(self):
        eta, mu = 0.7, 0.4
        plan = plan_general(Observable.from_pairs([("ZZ", 1.0)]),
                            correlated_amplitude_damping(eta, mu).ptm())
        g = 1.0 / (eta + mu * (1 - eta)) ** 2
        expected = {
            k_of("II"): g * (mu - 1) ** 2 * (eta - 1) ** 2,
            k_of("ZZ"): g,
            k_of("IZ"): -g * (mu - 1) * (eta - 1),
            k_of("ZI"): -g * (mu - 1) * (eta - 1),
        }
        assert set(plan.weights) == set(expected)
        for j, ref in expected.items():
            assert plan.weights[j] == pytest.approx(ref, abs=1e-12)

    def test_singular_ptm(self):
        with pytest.raises(SingularPTM):
            plan_general(Observable.from_pairs([("Z", 1.0)]),
                         depolarizing_channel(1, 1.0).ptm())

    def test_ill_conditioned_warning(self):
        ptm = depolarizing_channel(1, 0.999).ptm()
        with pytest.warns(IllConditionedWarning):
            plan_general(Observable.from_pairs([("Z", 1.0)]), ptm, cond_warn=100.0)

    def test_general_roundtrip_amplitude_damping(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            eta, mu = rng.uniform(0.2, 1.0), rng.uniform(0.0, 1.0)
            ch = correlated_amplitude_damping(eta, mu)
            rho = random_density(2, rng)
            obs = Observable.from_operator(random_hermitian(2, rng))
            ideal = float(np.trace(rho @ obs.to_operator()).real)
            rhop = apply_channel(ch, rho)
            plan = plan_general(obs, ch.ptm())
            noisy = {j: exact_pauli_expectation(rhop, PauliIndex(2, j))
                     for j in plan.required_indices}
            assert abs(deconvolve(plan, noisy) - ideal) < 1e-9


class TestPlanComposed:
    @pytest.mark.parametrize("pauli_first", [True, False])
    def test_matches_full_inversion(self, pauli_first):
        rng = np.random.default_rng(4)
        pauli = dephasing_channel(2, 0.1, 0.5)
        other = correlated_amplitude_damping(0.6, 0.2).ptm()
        obs = Observable.from_operator(random_hermitian(2, rng))
        if pauli_first:
            total = compose(other, pauli.ptm())
        else:
            total = compose(pauli.ptm(), other)
        ref = plan_general(obs, total)
        got = plan_composed(obs, pauli, other, pauli_first=pauli_first)
        for j in set(ref.weights) | set(got.weights):
            assert got.weights.get(j, 0.0) == pytest.approx(ref.weights.get(j, 0.0), abs=1e-12)

    def test_noninvertible_diagonal_factor(self):
        with pytest.raises(NonInvertibleChannel):
            plan_composed(
                Observable.from_pairs([("ZZ", 1.0)]),
                depolarizing_channel(2, 1.0),
                correlated_amplitude_damping(0.5, 0.5).ptm(),
            )


class TestReconstructionFactor:
    def test_two_qubit_bit_flip_closed_form(self):
        p, mu = 0.13, 0.4
        got = reconstruction_factor(bit_flip_channel(2, p, mu), k_of("ZZ"))
        assert got == pytest.approx(1 / (1 + 4 * (mu - 1) * (1 - p) * p), abs=1e-12)

    def test_memoryless_squares_single_qubit(self):
        p = 0.21
        f2 = reconstruction_factor(bit_flip_channel(2, p, 0.0), k_of("ZZ"))
        f1 = reconstruction_factor(bit_flip_channel(1, p), k_of("Z"))
        assert f2 == pytest.approx(f1**2, rel=1e-12)

    def test_full_memory_even_qubits_no_effect(self):
        assert reconstruction_factor(depolarizing_channel(2, 0.3, 1.0), k_of("ZZ")) == pytest.approx(1.0, abs=1e-12)

    def test_m_fold(self):
        p = 0.1
        got = reconstruction_factor(bit_flip_channel(1, p), k_of("Z"), m=5)
        assert got == pytest.approx((1 - 2 * p) ** -5, rel=1e-12)
        assert reconstruction_factor(bit_flip_channel(1, p), k_of("Z"), m=0) == 1.0

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleChannel):
            reconstruction_factor(depolarizing_channel(1, 1.0), k_of("Z"))

    def test_overflow_raises(self):
        with pytest.raises(NonInvertibleChannel):
            reconstruction_factor(bit_flip_channel(1, 0.45), k_of("Z"), m=500)


class TestRoundTripAllFamilies:
    def test_exact_roundtrip(self):
        rng = np.random.default_rng(5)
        families = {
            "bit_flip": lambda n: bit_flip_channel(n, rng.uniform(0.01, 0.3), rng.uniform(0, 1)),
            "depolarizing": lambda n: depolarizing_channel(n, rng.uniform(0.01, 0.3), rng.uniform(0, 1)),
            "dephasing": lambda n: dephasing_channel(n, rng.uniform(0.01, 0.3), rng.uniform(0, 1)),
        }
        for build in families.values():
            for _ in range(8):
                n = int(rng.integers(1, 4))
                ch = build(n)
                rho = random_density(n, rng)
                obs = Observable.from_operator(random_hermitian(n, rng))
                ideal = float(np.trace(rho @ obs.to_operator()).real)
                rhop = apply_channel(ch, rho)
                plan = plan_pauli(obs, ch)
                noisy = {k: exact_pauli_expectation(rhop, PauliIndex(n, k)) for k in obs.terms}
                assert abs(deconvolve(plan, noisy) - ideal) < 1e-9


class TestCharacterizationSource:
    def test_diagonal_report_feeds_plan(self):
        ch = bit_flip_channel(2, 0.15, 0.3)
        obs = Observable.from_pairs([("ZZ", 1.0), ("IZ", 0.5)])
        report = estimate_diagonal_entries(ch, sorted(obs.terms))
        plan = plan_from_characterization(obs, report)
        ref = plan_pauli(obs, ch)
        for k in obs.terms:
            assert plan.factors[k] == pytest.approx(ref.factors[k], abs=1e-12)
        assert plan.entries_consulted == obs.r

    def test_full_report_feeds_plan(self):
        ch = correlated_amplitude_damping(1.0, 0.5)  # unital edge case
        obs = Observable.from_pairs([("XX", 1.0)])
        report = estimate_full_ptm(ch)
        plan = plan_from_characterization(obs, report)
        assert plan.weights[k_of("XX")] == pytest.approx(1.0, abs=1e-12)

    def test_missing_entry(self):
        ch = bit_flip_channel(1, 0.1)
        report = estimate_diagonal_entries(ch, [3])
        with pytest.raises(MissingMeasurement):
            plan_from_characterization(Observable.from_pairs([("X", 1.0)]), report)


class TestErrorPropagation:
    def test_factor_scales_std_error(self):
        plan = plan_pauli(Observable.from_pairs([("Z", 1.0)]), bit_flip_channel(1, 0.25))
        err = propagated_std_error(plan, {3: 0.01})
        assert err == pytest.approx(2.0 * 0.01, abs=1e-15)

    def test_quadrature_sum(self):
        plan = plan_pauli(Observable.from_pairs([("Z", 1.0), ("X", 1.0)]),
                          bit_flip_channel(1, 0.0))
        err = propagated_std_error(plan, {3: 0.03, 1: 0.04})
        assert err == pytest.approx(0.05, abs=1e-15)

    def test_overflowing_result_raises(self):
        plan = plan_pauli(Observable.from_pairs([("Z", 1e308)]), bit_flip_channel(1, 0.25))
        with pytest.raises(MathematicalError):
            deconvolve(plan, {3: 1.0})
        with pytest.raises(MathematicalError):
            propagated_std_error(plan, {3: 1.0})
