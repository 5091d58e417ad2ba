import numpy as np
import pytest
from conftest import random_density

from noisedeconv import channels, deconvolution, simulator
from noisedeconv.channels import (
    KrausChannel,
    bit_flip_channel,
    channel_from_config,
    correlated_amplitude_damping,
    depolarizing_channel,
)
from noisedeconv.deconvolution import deconvolve, plan, propagated_std_error
from noisedeconv.exceptions import (
    ConfigError,
    IllConditionedWarning,
    InvalidState,
    ProbabilityOutOfRange,
)
from noisedeconv.pauli import Observable, PauliIndex, vectorize
from noisedeconv.sampling import (
    coefficient_expectations,
    derive_rng,
    exact_pauli_expectation,
    sample_marginal,
    sample_pauli_expectation,
)
from noisedeconv.simulator import (
    CSV_HEADER,
    ExperimentConfig,
    evolve,
    expectation_sampled,
    preset_state,
    records_to_csv,
    run_experiment,
)


def fig2_lambda(q, mu):
    return (1 - q) * (1 + (mu - 1) ** 2 * (q - 2) * q)


def fig2_config(**overrides):
    raw = {
        "n": 3,
        "channel": {"family": "depolarizing", "n": 3, "q": 0.00052, "mu": 0.25},
        "observable": [["ZZZ", 1.0]],
        "initial_state": "zeros",
        "m_max": 40,
        "shots": 0,
        "seed": 0,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


class TestEvolve:
    def test_zero_applications(self):
        rng = np.random.default_rng(0)
        rho = random_density(2, rng)
        assert np.array_equal(evolve(rho, bit_flip_channel(2, 0.3), 0), rho)

    def test_identity_channel_many_times(self):
        rng = np.random.default_rng(1)
        rho = random_density(2, rng)
        out = evolve(rho, KrausChannel([np.eye(4)]), 100)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_single_step_fig2_point(self):
        q, mu = 0.00052, 0.25
        rho = preset_state("zeros", 3)
        out = evolve(rho, depolarizing_channel(3, q, mu), 1)
        got = exact_pauli_expectation(out, PauliIndex(3, 63))
        assert got == pytest.approx(fig2_lambda(q, mu), abs=1e-14)

    def test_trace_and_hermiticity_through_fifty_steps(self):
        rng = np.random.default_rng(2)
        for ch in (bit_flip_channel(2, 0.2, 0.5),
                   depolarizing_channel(2, 0.15, 0.25),
                   correlated_amplitude_damping(0.8, 0.4)):
            rho = evolve(random_density(2, rng), ch, 50)
            assert abs(np.trace(rho) - 1.0) < 1e-9
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-9


class TestExpectationExact:
    def test_ground_state_zzz(self):
        assert exact_pauli_expectation(preset_state("zeros", 3), PauliIndex(3, 63)) == 1.0

    def test_mixed_state_vanishes(self):
        rho = preset_state("mixed", 2)
        for k in (1, 5, 15):
            assert abs(exact_pauli_expectation(rho, PauliIndex(2, k))) < 1e-14

    def test_plus_state_x(self):
        assert exact_pauli_expectation(preset_state("plus", 1), PauliIndex(1, 1)) == pytest.approx(1.0)

    def test_imaginary_residue_rejected(self):
        rho = np.array([[0.5, 1j], [0.0, 0.5]])
        with pytest.raises(InvalidState):
            exact_pauli_expectation(rho, PauliIndex(1, 1))


class TestExpectationSampled:
    def test_certain_outcome(self):
        rec = expectation_sampled(preset_state("zeros", 1), 3, shots=100, seed=0)
        assert rec.value == 1.0 and rec.std_error == 0.0

    def test_unbiased_null_expectation(self):
        rec = expectation_sampled(preset_state("zeros", 1), 1, shots=8192, seed=5)
        assert abs(rec.value) <= 4.0 / np.sqrt(8192)

    def test_deterministic_given_seed(self):
        rho = preset_state("plus", 2)
        a = expectation_sampled(rho, 5, shots=2048, seed=11)
        b = expectation_sampled(rho, 5, shots=2048, seed=11)
        assert a == b

    def test_probability_out_of_range(self):
        rho = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(ProbabilityOutOfRange):
            sample_pauli_expectation(rho, PauliIndex(1, 3), 100, derive_rng(0))

    def test_projective_sampler_agrees_statistically(self):
        rho = np.asarray(evolve(preset_state("zeros", 2), bit_flip_channel(2, 0.2, 0.3), 2))
        exact = exact_pauli_expectation(rho, PauliIndex(2, 15))
        for method in ("marginal", "projective"):
            vals = [
                sample_pauli_expectation(rho, PauliIndex(2, 15), 4096, derive_rng(s), method)[0]
                for s in range(30)
            ]
            assert abs(np.mean(vals) - exact) < 5 * np.sqrt((1 - exact**2) / 4096 / 30)


class TestRunExperiment:
    def test_exact_mode_noisy_decay_and_unit_deconvolution(self):
        records = run_experiment(fig2_config())
        lam = fig2_lambda(0.00052, 0.25)
        for r in records:
            assert r.value == pytest.approx(lam**r.m, abs=1e-12)
            assert r.deconvolved == pytest.approx(1.0, abs=1e-10)
            assert r.std_error == 0.0

    def test_sampled_mode_within_five_sigma(self):
        records = run_experiment(fig2_config(shots=8192, seed=2024))
        assert len(records) == 41
        for r in records:
            if r.deconvolved_std_error == 0.0:
                assert r.deconvolved == pytest.approx(1.0, abs=1e-12)
            else:
                assert abs(r.deconvolved - 1.0) <= 5 * r.deconvolved_std_error

    def test_deconvolved_error_is_rescaled_noisy_error(self):
        records = run_experiment(fig2_config(shots=8192, seed=3, m_max=10))
        lam = fig2_lambda(0.00052, 0.25)
        for r in records:
            assert r.deconvolved == pytest.approx(r.value * lam**-r.m, rel=1e-12)
            assert r.deconvolved_std_error == pytest.approx(r.std_error * lam**-r.m, rel=1e-12)

    def test_mu_grid_ordering_and_attenuation_monotonicity(self):
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        records = run_experiment(fig2_config(mu_grid=grid, m_max=1, shots=0))
        by_mu = {}
        for r in records:
            if r.m == 1:
                by_mu[r.mu] = r.value
        assert list(by_mu) == grid
        lams = [by_mu[mu] for mu in grid]
        # per-step attenuation 1 - lambda shrinks as correlation grows
        assert all(lams[i] < lams[i + 1] for i in range(len(lams) - 1))
        assert lams[0] == pytest.approx((1 - 0.00052) ** 3, abs=1e-12)
        assert lams[-1] == pytest.approx(1 - 0.00052, abs=1e-12)

    def test_strength_grid_sweep(self):
        records = run_experiment(fig2_config(strength_grid=[0.0005, 0.001], m_max=1))
        strengths = sorted({r.strength for r in records})
        assert strengths == [0.0005, 0.001]
        for r in records:
            if r.m == 1:
                assert r.value == pytest.approx(fig2_lambda(r.strength, 0.25), abs=1e-12)

    def test_general_channel_experiment(self):
        cfg = ExperimentConfig.from_dict({
            "n": 2,
            "channel": {"family": "amp_damp_corr", "eta": 0.85, "mu": 0.3},
            "observable": [["XX", 1.0], ["ZZ", 0.5]],
            "initial_state": "plus",
            "m_max": 6,
            "shots": 0,
            "seed": 0,
        })
        rho = preset_state("plus", 2)
        ideal = {k: exact_pauli_expectation(rho, PauliIndex(2, k)) for k in (5, 15)}
        for r in run_experiment(cfg):
            assert r.deconvolved == pytest.approx(ideal[r.k], abs=1e-9)

    def test_identical_runs_identical_records(self):
        a = run_experiment(fig2_config(shots=1024, seed=5, m_max=5))
        b = run_experiment(fig2_config(shots=1024, seed=5, m_max=5))
        assert a == b

    def test_initial_state_validation(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        cfg = fig2_config()
        cfg = ExperimentConfig(
            n=1,
            channel={"family": "bit_flip", "n": 1, "p": 0.1},
            observable=Observable.from_pairs([("Z", 1.0)]),
            initial_state=bad,
            m_max=1,
        )
        with pytest.raises(InvalidState):
            run_experiment(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"n": 1, "channel": {}})
        with pytest.raises(ConfigError):
            fig2_config(m_max=-1)
        with pytest.raises(ConfigError):
            fig2_config(observable=[["ZZ", 1.0]])  # wrong qubit count


# Channel configs per qubit count; each family's strength is swept.
EVOLUTION_CHANNELS = [
    {"family": "bit_flip", "n": 1, "p": 0.2, "mu": 0.0},
    {"family": "dephasing", "n": 2, "p": 0.1, "mu": 0.6},
    {"family": "depolarizing", "n": 3, "q": 0.3, "mu": 0.25},
    {"family": "pauli_custom", "n": 4, "p_vec": [0.8, 0.05, 0.1, 0.05], "mu": 0.5},
    {"family": "amp_damp_corr", "eta": 0.85, "mu": 0.3},
]


def evolution_config(channel, state, **overrides):
    n = channel.get("n", 2)
    labels = ["Z" * n, "X" * n, "Y" + "I" * (n - 1), ("XZ" * n)[:n]]
    raw = {
        "n": n,
        "channel": channel,
        "observable": [[label, 0.5 + 0.1 * i] for i, label in enumerate(labels)],
        "initial_state": "zeros",
        "m_max": 10,
        "shots": 0,
        "seed": 0,
        "mu_grid": [0.0, 0.7],
    }
    raw.update(overrides)
    cfg = ExperimentConfig.from_dict(raw)
    if state == "random":
        cfg.initial_state = random_density(n, np.random.default_rng(n))
    elif state != "zeros":
        cfg.initial_state = preset_state(state, n)
    return cfg


def grid_channels(cfg):
    """(gi, si, channel) per grid point, in run_experiment's order."""
    strengths = cfg.strength_grid or [None]
    for gi, mu in enumerate(cfg.mu_grid or [None]):
        for si, strength in enumerate(strengths):
            yield gi, si, channel_from_config(simulator._grid_channel(cfg.channel, mu, strength))


class TestCoefficientEvolution:
    """run_experiment evolves Pauli coefficient vectors; these pin it to
    the dense path (evolve + a readout of the density matrix)."""

    @pytest.mark.parametrize("state", ["zeros", "plus", "random"])
    @pytest.mark.parametrize("channel", EVOLUTION_CHANNELS, ids=lambda c: f"{c['family']}")
    def test_exact_records_match_dense_evolution(self, channel, state):
        cfg = evolution_config(channel, state)
        records = iter(run_experiment(cfg))
        ideal = {k: exact_pauli_expectation(cfg.initial_state, k) for k in cfg.observable.terms}
        for _, _, ch in grid_channels(cfg):
            for m in range(cfg.m_max + 1):
                rho = evolve(cfg.initial_state, ch, m)
                for k in cfg.observable.terms:
                    r = next(records)
                    assert (r.m, r.k) == (m, k)
                    assert abs(r.value - exact_pauli_expectation(rho, k)) < 1e-12
                    assert abs(r.deconvolved - ideal[k]) < 1e-10
        assert next(records, None) is None

    @pytest.mark.parametrize("method", ["marginal", "projective"])
    @pytest.mark.parametrize("channel, strengths", [(EVOLUTION_CHANNELS[1], [0.05, 0.2]),
                                                    (EVOLUTION_CHANNELS[4], [0.8, 0.95])],
                             ids=["dephasing", "amp_damp_corr"])
    def test_sampled_records_match_dense_sampler(self, channel, strengths, method):
        cfg = evolution_config(channel, "plus", shots=900, seed=21, m_max=3,
                               strength_grid=strengths, sampling=method)
        records = iter(run_experiment(cfg))
        for gi, si, ch in grid_channels(cfg):
            for m in range(cfg.m_max + 1):
                rho = evolve(cfg.initial_state, ch, m)
                for k in cfg.observable.terms:
                    r = next(records)
                    expected = sample_pauli_expectation(
                        rho, k, cfg.shots, derive_rng(cfg.seed, gi, si, m, k), method
                    )
                    assert (r.value, r.std_error) == expected

    def test_no_channel_application(self, monkeypatch):
        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(original)
                return original(*args, **kwargs)
            return wrapper

        for owner, name in ((simulator, "apply_channel"), (channels, "apply_channel"),
                            (channels.KrausChannel, "apply"), (channels.PTM, "apply")):
            monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
        for channel in EVOLUTION_CHANNELS:
            for overrides in ({}, {"shots": 64}, {"shots": 64, "sampling": "projective"}):
                run_experiment(evolution_config(channel, "plus", m_max=3, **overrides))
        assert calls == []

    @pytest.mark.parametrize("shots", [0, 100])
    def test_non_hermitian_initial_state_rejected_at_readout(self, shots):
        # Unit trace, and positive by the PSD gate (which reads one
        # triangle), but <X> = 0.6i.
        rho = np.array([[0.5, 0.3j], [0.3j, 0.5]])
        cfg = ExperimentConfig(n=1, channel={"family": "bit_flip", "n": 1, "p": 0.1},
                               observable=Observable.from_pairs([("X", 1.0)]),
                               initial_state=rho, m_max=2, shots=shots)
        with pytest.raises(InvalidState, match="imaginary residue"):
            run_experiment(cfg)

    def test_coefficient_readout_and_marginal_draw(self):
        rho = random_density(2, np.random.default_rng(4))
        c = vectorize(rho) * 4
        values = coefficient_expectations(c, range(16))
        for k in range(16):
            assert abs(values[k] - exact_pauli_expectation(rho, k)) < 1e-15
        c[[5, 9]] += 1e-6j
        assert coefficient_expectations(c, [3, 4]) == [values[3], values[4]]
        with pytest.raises(InvalidState, match="XX"):
            coefficient_expectations(c, [3, 5, 9])
        e = exact_pauli_expectation(rho, 5)
        assert sample_marginal(e, 300, derive_rng(2)) == sample_pauli_expectation(rho, 5, 300, derive_rng(2))
        with pytest.raises(ProbabilityOutOfRange):
            sample_marginal(1.5, 100, derive_rng(0))
        with pytest.raises(ValueError):
            sample_marginal(0.5, 0, derive_rng(0))


# Terms closed under the amplitude-damping inverse: every weight of
# plan(P_k, channel, m) for a term k falls on a term, so its value is a record.
AMP_DAMP_TERMS = [["II", 1.0], ["IZ", 0.5], ["ZI", 0.4], ["ZZ", 0.3], ["XX", 0.2], ["YY", 0.1]]


class TestDeconvolvedThroughPlan:
    """Each record's deconvolved value and error are those of
    deconvolution.plan(P_k, channel, m), the plan the CLI uses."""

    @pytest.mark.parametrize("shots", [0, 64])
    @pytest.mark.parametrize("channel", EVOLUTION_CHANNELS, ids=lambda c: f"{c['family']}")
    def test_records_equal_the_plan_byte_for_byte(self, channel, shots):
        overrides = {"observable": AMP_DAMP_TERMS} if channel["family"] == "amp_damp_corr" else {}
        cfg = evolution_config(channel, "plus", shots=shots, seed=5, **overrides)
        terms = sorted(cfg.observable.terms)
        records = run_experiment(cfg)
        groups = iter([records[i:i + len(terms)] for i in range(0, len(records), len(terms))])
        for _, _, ch in grid_channels(cfg):
            for m in range(cfg.m_max + 1):
                group = next(groups)
                values = {r.k: r.value for r in group}
                errors = {r.k: r.std_error for r in group}
                for r in group:
                    p = plan(Observable(cfg.n, {r.k: 1.0}), ch, m)
                    assert set(p.weights) <= set(values)
                    assert repr(r.deconvolved) == repr(deconvolve(p, values))
                    assert repr(r.deconvolved_std_error) == repr(propagated_std_error(p, errors))
        assert next(groups, None) is None

    @pytest.mark.parametrize("channel", [EVOLUTION_CHANNELS[1], EVOLUTION_CHANNELS[4]],
                             ids=["dephasing", "amp_damp_corr"])
    def test_records_hand_over_only_their_plans_entries(self, channel, monkeypatch):
        # a record costs O(|weights|), not O(r): with all 16 terms measured,
        # each deconvolve/propagated_std_error call sees only its plan's entries
        seen = []

        def spy(real):
            def call(p, table):
                seen.append(set(table) == set(p.weights))
                return real(p, table)
            return call

        monkeypatch.setattr(simulator, "deconvolve", spy(deconvolve))
        monkeypatch.setattr(simulator, "propagated_std_error", spy(propagated_std_error))
        full = [[a + b, 1.0] for a in "IXYZ" for b in "IXYZ"]
        run_experiment(evolution_config(channel, "plus", observable=full, m_max=3, mu_grid=None))
        assert len(seen) == 2 * 16 * 4 and all(seen)

    def test_one_inversion_per_grid_point(self, monkeypatch):
        calls = []
        original = deconvolution._invert_adjoint

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(deconvolution, "_invert_adjoint", counting)
        run_experiment(evolution_config(EVOLUTION_CHANNELS[4], "plus", strength_grid=[0.8, 0.9]))
        assert len(calls) == 4
        run_experiment(evolution_config(EVOLUTION_CHANNELS[2], "plus"))
        assert len(calls) == 4

    def test_ill_conditioned_channel_warns(self):
        cfg = evolution_config({"family": "amp_damp_corr", "eta": 1e-5, "mu": 0.0}, "zeros",
                               m_max=1, mu_grid=None)
        with pytest.warns(IllConditionedWarning):
            run_experiment(cfg)


class TestCsvOutput:
    def test_header_and_shortest_roundtrip_floats(self):
        records = run_experiment(fig2_config(m_max=2))
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        row = lines[1].split(",")
        assert row[0] == "0.25" and row[1] == "0.00052"
        # every numeric field round-trips exactly through repr
        for field in row:
            float(field)

    def test_byte_identical_reruns(self):
        a = records_to_csv(run_experiment(fig2_config(shots=512, seed=9, m_max=4)))
        b = records_to_csv(run_experiment(fig2_config(shots=512, seed=9, m_max=4)))
        assert a == b


class TestShotNoiseCoverage:
    def test_thousand_seeded_trials_within_five_sigma(self):
        # n = 3 depolarizing-correlated at the figure parameters, m = 40
        q, mu, m, shots = 0.00052, 0.25, 40, 8192
        ch = depolarizing_channel(3, q, mu)
        rho = evolve(preset_state("zeros", 3), ch, m)
        factor = fig2_lambda(q, mu) ** -m
        hits = 0
        for seed in range(1000):
            value, err = sample_pauli_expectation(
                rho, PauliIndex(3, 63), shots, derive_rng(seed)
            )
            dec, dec_err = factor * value, factor * err
            if dec_err == 0.0:
                hits += abs(dec - 1.0) < 1e-9
            else:
                hits += abs(dec - 1.0) <= 5 * dec_err
        assert hits >= 990
