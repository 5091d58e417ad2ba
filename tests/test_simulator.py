import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    evolve,
    exact_pauli_expectation,
    general_rows_per_record,
    markov_lambda_exact,
    pauli_basis_bruteforce,
    pauli_string_bruteforce,
    preset_state,
    product_state,
    projective_sample_bruteforce,
    random_density,
    sample_pauli_expectation,
)

from noisedeconv import channels, deconvolution, simulator
from noisedeconv.channels import MAX_QUBITS_SPARSE, bit_flip_channel, channel_from_config, depolarizing_channel
from noisedeconv.characterization import positivity_certificates
from noisedeconv.deconvolution import deconvolve, plan, propagated_std_error
from noisedeconv.exceptions import (
    ConfigError,
    IllConditionedWarning,
    InvalidState,
    ProbabilityOutOfRange,
)
from noisedeconv.pauli import HERMITIAN_TOL, Observable, devectorize, is_hermitian, vectorize
from noisedeconv.sampling import derive_rng, reader, sample_marginal
from noisedeconv.simulator import (
    CSV_HEADER,
    PRESET_BLOCH,
    ExperimentConfig,
    ExpectationRecord,
    preset_coefficients,
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


def preset_expectations(name, n, ks):
    """The entries ks of the dense preset's coefficient vector, as a matrix state's are made."""
    return simulator._matrix_coefficients(preset_state(name, n), n)[ks].tolist()


class TestEvolve:
    """The conftest dense oracle that the coefficient tests lean on, pinned
    to closed forms."""

    def test_zero_applications(self):
        rho = random_density(2, np.random.default_rng(0))
        assert np.array_equal(evolve(rho, bit_flip_channel(2, 0.3), 0), rho)

    def test_identity_channel_many_times(self):
        rho = random_density(2, np.random.default_rng(1))
        out = evolve(rho, channels.KrausChannel([np.eye(4)]), 100)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_single_step_fig2_point(self):
        q, mu = 0.00052, 0.25
        rho = evolve(preset_state("zeros", 3), depolarizing_channel(3, q, mu), 1)
        assert exact_pauli_expectation(rho, 63) == pytest.approx(fig2_lambda(q, mu), abs=1e-14)


class TestExpectationExact:
    def test_ground_state_zzz(self):
        assert preset_expectations("zeros", 3, [63]) == [1.0]

    def test_mixed_state_vanishes(self):
        assert all(abs(e) < 1e-14 for e in preset_expectations("mixed", 2, [1, 5, 15]))

    def test_plus_state_x(self):
        assert preset_expectations("plus", 1, [1]) == [pytest.approx(1.0)]

    def test_imaginary_residue_rejected(self):
        rho = np.array([[0.5, 1j], [0.0, 0.5]])
        with pytest.raises(InvalidState, match="^expectation of X has imaginary residue 1.000e\\+00$"):
            simulator._matrix_coefficients(rho, 1)


class TestExpectationSampled:
    def test_certain_outcome(self):
        (e,) = preset_expectations("zeros", 1, [3])
        assert sample_marginal(e, 100, derive_rng(0, 3)) == (1.0, 0.0)

    def test_unbiased_null_expectation(self):
        (e,) = preset_expectations("zeros", 1, [1])
        value, _ = sample_marginal(e, 8192, derive_rng(5, 1))
        assert abs(value) <= 4.0 / np.sqrt(8192)

    def test_deterministic_given_seed(self):
        (e,) = preset_expectations("plus", 2, [5])
        assert sample_marginal(e, 2048, derive_rng(11, 5)) == sample_marginal(e, 2048, derive_rng(11, 5))

    def test_probability_out_of_range(self):
        rho = np.diag([1.2, -0.2]).astype(complex)
        e = simulator._matrix_coefficients(rho, 1)[3].item()
        with pytest.raises(ProbabilityOutOfRange):
            sample_marginal(e, 100, derive_rng(0))

    def test_projective_sampler_agrees_statistically(self):
        # the marginal draw and a projective one over the full eigenbasis of
        # ZZ (the conftest oracle) both centre on the exact value
        rho = evolve(preset_state("zeros", 2), bit_flip_channel(2, 0.2, 0.3), 2)
        exact = exact_pauli_expectation(rho, 15)
        zz = pauli_basis_bruteforce(2)[15]
        for draw in (lambda rng: sample_pauli_expectation(rho, 15, 4096, rng)[0],
                     lambda rng: projective_sample_bruteforce(rho, zz, 4096, rng)):
            vals = [draw(derive_rng(s)) for s in range(30)]
            assert abs(np.mean(vals) - exact) < 5 * np.sqrt((1 - exact**2) / 4096 / 30)

    def test_read_is_one_draw_per_entry(self):
        # the read's entries are the dense sampler's draws, in turn, from its
        # one stream (seed, *tags)
        c = simulator._matrix_coefficients(random_density(2, np.random.default_rng(6)), 2)
        ks, tags = [1, 5, 6, 15], (3, 0, 2)
        rng = derive_rng(9, *tags)
        assert reader(500, 9, *tags)(c[ks]) == [
            sample_pauli_expectation(devectorize(c / 4), j, 500, rng) for j in ks
        ]
        assert reader(0, 9, *tags)(c[ks]) == [(e, 0.0) for e in c[ks].tolist()]


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
        ideal = {k: exact_pauli_expectation(rho, k) for k in (5, 15)}
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
        with pytest.raises(ConfigError, match="^unknown state preset 'bogus'"):  # built without from_dict too
            ExperimentConfig(n=1, channel={"family": "bit_flip", "n": 1, "p": 0.1},
                             observable=Observable.from_pairs([("Z", 1.0)]), initial_state="bogus")

    def test_sampling_key_takes_only_marginal(self):
        said = fig2_config(sampling="marginal", m_max=2, shots=64)
        assert run_experiment(said) == run_experiment(fig2_config(m_max=2, shots=64))
        for value in ("projective", "bogus", None):
            with pytest.raises(ConfigError, match="^sampling must be 'marginal'"):
                fig2_config(sampling=value)

    @pytest.mark.parametrize("raw", [[1, 2], "n", 3, None], ids=["list", "str", "int", "null"])
    def test_non_object_config_is_named(self, raw):
        with pytest.raises(ConfigError, match="^an experiment config must be a JSON object$"):
            ExperimentConfig.from_dict(raw)


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


def dense_state(cfg):
    """The initial state as a matrix: a preset's name made dense."""
    if isinstance(cfg.initial_state, str):
        return preset_state(cfg.initial_state, cfg.n)
    return cfg.initial_state


def grid_channels(cfg):
    """(gi, si, channel) per grid point, in run_experiment's order."""
    strengths = cfg.strength_grid or [None]
    for gi, mu in enumerate(cfg.mu_grid or [None]):
        for si, strength in enumerate(strengths):
            yield gi, si, channel_from_config(simulator._grid_channel(cfg.channel, mu, strength))


class TestCoefficientEvolution:
    """run_experiment evolves Pauli coefficient vectors; these pin it to
    the dense oracle (the Kraus sum, read through explicit traces)."""

    @pytest.mark.parametrize("state", ["zeros", "plus", "random"])
    @pytest.mark.parametrize("channel", EVOLUTION_CHANNELS, ids=lambda c: f"{c['family']}")
    def test_exact_records_match_dense_evolution(self, channel, state):
        cfg = evolution_config(channel, state)
        records = iter(run_experiment(cfg))
        rho0 = dense_state(cfg)
        ideal = {k: exact_pauli_expectation(rho0, k) for k in cfg.observable.terms}
        for _, _, ch in grid_channels(cfg):
            for m in range(cfg.m_max + 1):
                rho = evolve(rho0, ch, m)
                for k in cfg.observable.terms:
                    r = next(records)
                    assert (r.m, r.k) == (m, k)
                    assert abs(r.value - exact_pauli_expectation(rho, k)) < 1e-12
                    assert abs(r.deconvolved - ideal[k]) < 1e-10
        assert next(records, None) is None

    @pytest.mark.parametrize("channel, strengths", [(EVOLUTION_CHANNELS[1], [0.05, 0.2]),
                                                    (EVOLUTION_CHANNELS[4], [0.8, 0.95])],
                             ids=["dephasing", "amp_damp_corr"])
    def test_sampled_records_match_dense_sampler(self, channel, strengths):
        cfg = evolution_config(channel, "plus", shots=900, seed=21, m_max=3,
                               strength_grid=strengths)
        # a grid point is one stream (seed, gi, si): after m uses, every entry
        # the plans read is drawn in turn, j ascending, before those of m + 1
        terms = sorted(cfg.observable.terms)
        records = iter(run_experiment(cfg))
        for gi, si, ch in grid_channels(cfg):
            rng = derive_rng(cfg.seed, gi, si)
            for m in range(cfg.m_max + 1):
                rho = evolve(cfg.initial_state, ch, m)
                plans = {k: plan(Observable(cfg.n, {k: 1.0}), ch, m) for k in terms}
                needed = sorted(set(terms).union(*(p.weights for p in plans.values())))
                drawn = {j: sample_pauli_expectation(rho, j, cfg.shots, rng) for j in needed}
                for k in terms:
                    r = next(records)
                    assert (r.m, r.k) == (m, k)
                    assert (r.value, r.std_error) == drawn[k]
                    assert r.deconvolved == deconvolve(plans[k], {j: drawn[j][0] for j in plans[k].weights})
        assert next(records, None) is None

    @pytest.mark.parametrize("channel", EVOLUTION_CHANNELS, ids=lambda c: f"{c['family']}")
    def test_trace_through_fifty_steps(self, channel):
        # <I> = Tr[rho] stays 1 on every path, Gamma's first row included
        n = channel.get("n", 2)
        cfg = evolution_config(channel, "random", m_max=50, observable=[["I" * n, 1.0]])
        records = run_experiment(cfg)
        assert len(records) == 2 * 51
        assert all(abs(r.value - 1.0) < 1e-12 for r in records)

    def test_no_channel_application(self, monkeypatch):
        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(original)
                return original(*args, **kwargs)
            return wrapper

        for owner, name in ((simulator, "apply_channel"), (channels, "apply_channel"),
                            (channels.KrausChannel, "apply")):
            monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
        for channel in EVOLUTION_CHANNELS:
            for overrides in ({}, {"shots": 64}):
                run_experiment(evolution_config(channel, "plus", m_max=3, **overrides))
        assert calls == []

    @pytest.mark.parametrize("shots", [0, 100])
    def test_non_hermitian_initial_state_rejected_at_the_gate(self, shots):
        # Unit trace, but <X> = 0.6i: not Hermitian, so the initial-state
        # gate refuses it before any readout, and says why.
        rho = np.array([[0.5, 0.3j], [0.3j, 0.5]])
        cfg = ExperimentConfig(n=1, channel={"family": "bit_flip", "n": 1, "p": 0.1},
                               observable=Observable.from_pairs([("X", 1.0)]),
                               initial_state=rho, m_max=2, shots=shots)
        with pytest.raises(InvalidState, match="not Hermitian"):
            run_experiment(cfg)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_state_is_hermitian_accepts_passes_the_residue_check(self, n):
        # rho = I/d + i (HERMITIAN_TOL / 2) P for a real Pauli string P: each entry
        # of rho - rho^dag is HERMITIAN_TOL at most, as is_hermitian allows, and
        # Im Tr[P rho] = d * HERMITIAN_TOL / 2 is the largest residue it admits
        d = 2**n
        for k in range(4**n):
            P = pauli_string_bruteforce(k, n)
            if np.any(P.imag):
                continue
            rho = np.eye(d) / d + 0.5j * HERMITIAN_TOL * P
            assert is_hermitian(rho)
            c = simulator._matrix_coefficients(rho, n)
            assert abs(c[k] - (1.0 if k == 0 else 0.0)) < 1e-15
            assert d * HERMITIAN_TOL / 2 <= simulator._residue_bound(n) < d * HERMITIAN_TOL

    def test_coefficient_readout_and_marginal_draw(self, monkeypatch):
        rho = random_density(2, np.random.default_rng(4))
        c = simulator._matrix_coefficients(rho, 2)
        assert c.dtype == float
        for k in range(16):
            assert abs(c[k] - exact_pauli_expectation(rho, k)) < 1e-15
        # the residue is checked once, over every term, where c is made: one
        # within the bound is dropped, and the first beyond it is named
        vectorize_state = simulator.vectorize
        bound = simulator._residue_bound(2) / 4  # vectorize's share: c is 4 * vectorize(rho)
        for residue, expected in ((2e-11, None), (0.99 * bound, None),
                                  (1.01 * bound, f"expectation of XX has imaginary residue {4.04 * bound:.3e}"),
                                  (1e-6, "expectation of XX has imaginary residue 4.000e-06")):
            monkeypatch.setattr(simulator, "vectorize",
                                lambda rho, r=residue: vectorize_state(rho) + 1j * r * np.isin(np.arange(16), [5, 9]))
            if expected is None:
                assert simulator._matrix_coefficients(rho, 2).tobytes() == c.tobytes()
            else:
                with pytest.raises(InvalidState, match=f"^{expected}$"):
                    simulator._matrix_coefficients(rho, 2)
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

    @pytest.mark.parametrize("channel", [EVOLUTION_CHANNELS[4]], ids=["amp_damp_corr"])
    def test_records_hand_over_only_their_plans_entries(self, channel, monkeypatch):
        # off the diagonal path a record costs O(|weights|), not O(r): with all
        # 16 terms measured, each deconvolve/propagated_std_error call sees
        # only its plan's entries
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

    def test_diagonal_path_takes_one_weight_table_and_deconvolves_no_record(self, monkeypatch):
        # a Pauli channel's grid point asks one (m_max + 1) x r table of weights
        # for all its terms and reads its records from tables, with no plan and
        # no per-record deconvolve
        tables, calls = [], []
        real = deconvolution.rescaling_weights
        monkeypatch.setattr(simulator, "rescaling_weights",
                            lambda terms, lam, ms: tables.append((len(terms), list(ms))) or real(terms, lam, ms))
        for name in ("deconvolve", "propagated_std_error"):
            monkeypatch.setattr(simulator, name, lambda *args: calls.append(args))
        full = [[a + b, 1.0] for a in "IXYZ" for b in "IXYZ"]
        cfg = evolution_config(EVOLUTION_CHANNELS[1], "plus", observable=full, m_max=3, shots=64,
                               strength_grid=[0.1, 0.2])
        assert len(run_experiment(cfg)) == 2 * 2 * 4 * 16
        assert tables == [(16, [0, 1, 2, 3])] * (2 * 2) and calls == []

    def test_imaginary_residue_on_the_diagonal_path_names_its_term(self, monkeypatch):
        vectorize_state = simulator.vectorize

        def with_residue(rho):
            return vectorize_state(rho) + 1e-6j * (np.arange(16) == 5)  # XX

        monkeypatch.setattr(simulator, "vectorize", with_residue)
        with pytest.raises(InvalidState, match="expectation of XX has imaginary residue 4.000e-06"):
            run_experiment(evolution_config(EVOLUTION_CHANNELS[1], "plus"))

    @pytest.mark.parametrize("channel, k, label", [
        (EVOLUTION_CHANNELS[4], 5, "XX"),  # off the diagonal path, on a term read
        (EVOLUTION_CHANNELS[1], 1, "IX"),  # on a term no record reads
        (EVOLUTION_CHANNELS[4], 1, "IX"),
    ], ids=["general_path", "unread_term_diagonal", "unread_term_general"])
    def test_imaginary_residue_is_refused_where_the_state_is_made(self, monkeypatch, channel, k, label):
        vectorize_state = simulator.vectorize
        monkeypatch.setattr(simulator, "vectorize", lambda rho: vectorize_state(rho) + 1e-6j * (np.arange(16) == k))
        cfg = evolution_config(channel, "plus", observable=AMP_DAMP_TERMS)
        assert 1 not in cfg.observable.terms
        with pytest.raises(InvalidState, match=f"^expectation of {label} has imaginary residue 4.000e-06$"):
            run_experiment(cfg)

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


    def test_records_ask_only_their_terms_diagonal(self, monkeypatch):
        # each grid point asks its channel once, for the r entries its records
        # read, and never for the full diagonal
        calls = []
        product = channels._markov_lambdas

        def counting(n, p, mu, ks=None):
            calls.append(None if ks is None else list(ks))
            return product(n, p, mu, ks)

        monkeypatch.setattr(channels, "_markov_lambdas", counting)
        cfg = ExperimentConfig.from_dict({
            "n": 3, "channel": {"family": "depolarizing", "n": 3, "q": 0.01},
            "observable": [["ZZZ", 1.0], ["XIX", 0.5], ["IYI", 0.25]], "m_max": 4, "mu_grid": [0.0, 0.5]})
        assert len(run_experiment(cfg)) == 2 * 5 * 3
        assert calls == [[8, 17, 63]] * 2  # IYI, XIX, ZZZ


ALL_TWO_QUBIT_TERMS = [[a + b, 1.0] for a in "IXYZ" for b in "IXYZ"]


def amp_damp_config(eta, mu, observable, state, **overrides):
    raw = {"n": 2, "channel": {"family": "amp_damp_corr", "eta": eta, "mu": mu},
           "observable": observable, "initial_state": "zeros" if state == "random" else state, **overrides}
    cfg = ExperimentConfig.from_dict(raw)
    if state == "random":
        cfg.initial_state = random_density(2, np.random.default_rng(11))
    return cfg


def csv_or_refusal(cfg):
    """The experiment's CSV, or the type and text of its refusal, with every warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return records_to_csv(run_experiment(cfg))
        except Exception as exc:  # the refusal itself is compared
            return f"{type(exc).__name__}: {exc}"


class TestGeneralWalk:
    """Off the diagonal path a grid point is one walk over m; its records are
    those of one plan(P_k, channel, m) per record, byte for byte."""

    @pytest.mark.parametrize("cfg, refusal", [
        (amp_damp_config(0.99, 0.3, ALL_TWO_QUBIT_TERMS[1:], "zeros", mu_grid=[0.1, 0.5], shots=1000, seed=7,
                         m_max=3), None),
        (amp_damp_config(0.3, 0.5, [["ZZ", 1.0], ["XI", 1.0]], "plus", m_max=80), None),
        (amp_damp_config(0.8, 0.4, ALL_TWO_QUBIT_TERMS[3:9], "random", strength_grid=[0.8, 0.9], shots=200, seed=2,
                         m_max=30), None),
        # weights that overflow are refused at the first such m, not pruned to nothing
        (amp_damp_config(0.3, 0.2, [["ZZ", 1.0]], "plus", m_max=1100),
         "deconvolution weights at m = 351 are not finite"),
        (amp_damp_config(0.3, 0.5, [["ZZ", 1.0]], "plus", m_max=1100),
         "deconvolution weights at m = 436 are not finite"),
    ], ids=["fifteen_terms_sampled", "amplified_exact", "random_state_sampled", "refused_at_351", "refused_at_436"])
    def test_walk_equals_the_per_record_plans(self, cfg, refusal, monkeypatch):
        # the fifteen-term case moves by one ulp in one error if a record squares
        # by x * x, not by propagated_std_error's ** 2
        walked = csv_or_refusal(cfg)
        monkeypatch.setattr(simulator, "_general_rows", general_rows_per_record)
        assert walked == csv_or_refusal(cfg)
        assert walked.startswith(CSV_HEADER if refusal is None else f"MathematicalError: {refusal}; ")

    def test_each_m_is_one_read_of_its_needed_entries(self, monkeypatch):
        # m_max + 1 reads of one stream, read m holding, j ascending, the entries
        # that m's per-record plans read, at the state after m uses
        cfg = amp_damp_config(0.8, 0.4, ALL_TWO_QUBIT_TERMS[3:9], "random", shots=200, seed=2, m_max=30)
        reads = []

        def recording(shots, seed, *tags):
            assert (shots, seed, tags) == (200, 2, (0, 0))
            read = reader(shots, seed, *tags)
            return lambda exact: reads.append(exact.copy()) or read(exact)

        monkeypatch.setattr(simulator, "reader", recording)
        ch, ks = channel_from_config(cfg.channel), sorted(cfg.observable.terms)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            run_experiment(cfg)
            needed = [sorted({j for k in ks for j in plan(Observable(2, {k: 1.0}), ch, m).weights} | set(ks))
                      for m in range(cfg.m_max + 1)]
        assert len(reads) == cfg.m_max + 1
        v = simulator._matrix_coefficients(cfg.initial_state, 2)
        for got, js in zip(reads, needed):
            assert got.tobytes() == v[js].tobytes()
            v = ch.ptm().matrix @ v

    def test_one_amplification_warning_per_grid_point(self):
        # per-record plans warned 270 times here, once per amplified record
        cfg = amp_damp_config(0.3, 0.5, [["ZZ", 1.0], ["XI", 1.0]], "plus", mu_grid=[0.5, 0.2], m_max=80)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg)
        assert [str(w.message) for w in caught] == [
            "deconvolution weights amplify the observable by 3.054e+08 (m = 12)",
            "deconvolution weights amplify the observable by 1.793e+08 (m = 9)",
        ]

    def test_an_observable_with_no_term_inverts_nothing(self):
        # all-zero coefficients leave no term: no record, and a singular channel
        # (eta 0) is not refused, as with no plan at all
        cfg = amp_damp_config(0.0, 0.0, [["ZZ", 0.0]], "zeros", m_max=2)
        assert cfg.observable.r == 0
        assert csv_or_refusal(cfg) == CSV_HEADER + "\n"

    def test_a_grid_point_costs_r_times_m_max_products(self, monkeypatch):
        class Counting(np.ndarray):
            products = 0

            def __matmul__(self, other):
                Counting.products += 1
                return np.asarray(self) @ other

        cfg = amp_damp_config(0.6, 0.3, [["ZZ", 1.0], ["XI", 1.0], ["YY", 1.0]], "plus", m_max=29)
        ch = channel_from_config(cfg.channel)
        ptm = ch.ptm()
        assert ptm.condition_number < 1e8  # fills the kept inverse
        ptm._inverse_adjoint = ptm._inverse_adjoint.view(Counting)
        monkeypatch.setattr(simulator, "channel_from_config", lambda _: ch)
        with pytest.warns(IllConditionedWarning, match="amplify"):
            records = run_experiment(cfg)
        assert len(records) == 3 * 30 and Counting.products == 3 * 29


class TestPresetsInClosedForm:
    """A preset is kept by name: its coefficients are products of Bloch
    components, each preset a valid state (its dense form is certified)."""

    @pytest.mark.parametrize("name", PRESET_BLOCH)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_is_the_dense_preset(self, name, n):
        rho = preset_state(name, n)
        dense = vectorize(rho) * 2**n
        closed = preset_coefficients(name, n, range(4**n))
        assert closed.dtype == float and not dense.imag.any()
        # bit for bit: -0.0 prints apart from 0.0
        assert closed.tobytes() == dense.real.tobytes()
        assert np.array_equal(np.signbit(closed), np.signbit(dense.real))
        assert positivity_certificates([rho])[0][1]

    def test_a_zero_under_a_negative_lambda_takes_the_real_products_sign(self):
        # |+> under a bit flip of p = 0.8: c_Z = 0 and lambda_Z = -0.6, so the
        # exact <Z> after m uses is 0.0 * (-0.6)**m, whose zero alternates sign
        raw = {"n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.8}, "observable": [["Z", 1.0]], "m_max": 3}
        for state in ("plus", [[[z.real, z.imag] for z in row] for row in preset_state("plus", 1)]):
            noisy = [line.split(",")[6] for line in records_to_csv(
                run_experiment(ExperimentConfig.from_dict({**raw, "initial_state": state}))).splitlines()[1:]]
            assert noisy == ["0.0", "-0.0", "0.0", "-0.0"]

    @pytest.mark.parametrize("shots", [0, 300])
    @pytest.mark.parametrize("channel", [
        {"family": "pauli_custom", "n": 2, "p_vec": [0.35, 0.05, 0.07, 0.53], "mu": 0.5},
        {"family": "bit_flip", "n": 2, "p": 0.8, "mu": 0.3},
        {"family": "amp_damp_corr", "eta": 0.9, "mu": 0.5},
    ], ids=["pauli_custom", "bit_flip", "amp_damp_corr"])
    def test_a_preset_prints_as_its_matrix(self, channel, shots):
        # lambda_k < 0 on terms with c_k = 0: the table's zeros keep the signs
        # the dense coefficient vector gives them, so -0.0 prints where it did
        full = [[a + b, 1.0] for a in "IXYZ" for b in "IXYZ"]
        for name in PRESET_BLOCH:
            raw = {"n": 2, "channel": channel, "observable": full, "m_max": 7, "shots": shots, "seed": 4}
            by_name = records_to_csv(run_experiment(ExperimentConfig.from_dict({**raw, "initial_state": name})))
            matrix = [[[z.real, z.imag] for z in row] for row in preset_state(name, 2)]
            assert by_name == records_to_csv(run_experiment(ExperimentConfig.from_dict({**raw, "initial_state": matrix})))

    @pytest.mark.parametrize("b, message", [
        ((1.0, 0.0, 0.5j, 0.0), "not Hermitian"),
        ((0.5, 0.0, 0.0, 0.5), r"trace is \(0\.125\+0j\), expected 1"),
        ((1.0, 0.8, 0.0, 0.8), "not positive semidefinite"),
    ], ids=["hermitian", "trace", "psd"])
    def test_certificate_refuses_as_the_dense_check(self, b, message):
        with pytest.raises(InvalidState, match=message):
            simulator._validate_initial_state(product_state(b, 3), 3)

    def test_n20_depolarizing_deconvolves_to_its_initial_value(self):
        n, q, mu = 20, 0.01, 0.3
        labels = ["Z" * n, "Z" + "I" * (n - 1), "IZ" * (n // 2)]
        cfg = ExperimentConfig.from_dict({
            "n": n, "channel": {"family": "depolarizing", "n": n, "q": q, "mu": mu},
            "observable": [[label, 1.0] for label in labels], "initial_state": "zeros", "m_max": 5})
        records = run_experiment(cfg)
        assert len(records) == 6 * 3
        p_vec = [1 - Fraction(3 * q) / 4] + [Fraction(q) / 4] * 3
        lam = {k: markov_lambda_exact(k, n, p_vec, Fraction(mu)) for k in cfg.observable.terms}
        for r in records:
            assert abs(r.deconvolved - 1.0) < 1e-12
            assert abs(Fraction(r.value) - lam[r.k] ** r.m) < Fraction(1e-12)

    @pytest.mark.parametrize("n", [3, 8, MAX_QUBITS_SPARSE])
    @pytest.mark.parametrize("shots", [0, 256])
    def test_preset_on_a_markov_channel_builds_nothing_dense(self, monkeypatch, n, shots):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense state or a full diagonal was built")

        for owner, name in ((simulator, "vectorize"), (channels.KrausChannel, "_full_lambdas"),
                            (channels, "correlated_pauli_weights")):
            monkeypatch.setattr(owner, name, refuse)
        closed_form = simulator.preset_coefficients
        monkeypatch.setattr(simulator, "preset_coefficients",
                            lambda name, n, ks: closed_form(name, n, ks) if len(ks) == 2 else refuse())
        cfg = ExperimentConfig.from_dict({
            "n": n, "channel": {"family": "bit_flip", "n": n, "p": 0.05, "mu": 0.4},
            "observable": [["X" * n, 0.5], ["Z" * n, 1.0]], "initial_state": "plus", "m_max": 3,
            "shots": shots, "seed": 7, "strength_grid": [0.05, 0.1]})
        records = run_experiment(cfg)
        assert len(records) == 2 * 4 * 2
        if not shots:  # <X...X> = 1 and <Z...Z> = 0 on |+...+>
            assert [r.deconvolved for r in records] == pytest.approx([1.0, 0.0] * 8, abs=1e-12)


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

    def test_each_row_as_its_own_fields_print(self):
        # a grid point's repeated fields are formatted once, yet every row
        # reads as its fields do: -0.0 and 0.0 apart, NaN strength, any objects
        def row(r):
            return ",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in r)

        records = run_experiment(fig2_config(m_max=0, mu_grid=[-0.0, 0.0, 0.0, 0.5], shots=8, seed=3))
        records += run_experiment(fig2_config(m_max=2, channel={"family": "pauli_custom", "n": 3,
                                                                 "p_vec": [0.9, 0.05, 0.03, 0.02]}))
        records += [ExpectationRecord(0.5, 0.1, 1, 3, 0, 0, 0.25, 0.0, 0.5, 0.0),
                    ExpectationRecord(0.5, 0.1, 1, 3, 0, 0, -0.0, 0.0, 0.0, 0.0)]
        assert records_to_csv(records) == "\n".join([CSV_HEADER] + [row(r) for r in records]) + "\n"
        assert records_to_csv(records).splitlines()[1:3] == [
            "-0.0,0.00052,0,63,8,3," + row(records[0]).split(",", 6)[6],
            "0.0,0.00052,0,63,8,3," + row(records[1]).split(",", 6)[6]]

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
            value, err = sample_pauli_expectation(rho, 63, shots, derive_rng(seed))
            dec, dec_err = factor * value, factor * err
            if dec_err == 0.0:
                hits += abs(dec - 1.0) < 1e-9
            else:
                hits += abs(dec - 1.0) <= 5 * dec_err
        assert hits >= 990
