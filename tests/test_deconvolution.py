import warnings

import numpy as np
import pytest
from conftest import evolve, exact_pauli_expectation, observable_expectation, random_density, random_observable

from noisedeconv import deconvolution
from noisedeconv.channels import (
    PTM,
    KrausChannel,
    bit_flip_channel,
    correlated_amplitude_damping,
    dephasing_channel,
    depolarizing_channel,
)
from noisedeconv.cli import main
from noisedeconv.deconvolution import (
    CONDITION_WARN,
    _condition_bound,
    deconvolve,
    plan,
    plan_general,
    plan_pauli,
    propagated_std_error,
    rescaling_weights,
)
from noisedeconv.exceptions import (
    DimensionMismatch,
    IllConditionedWarning,
    MathematicalError,
    MissingMeasurement,
    NonInvertibleChannel,
    SingularPTM,
)
from noisedeconv.pauli import Observable, label_index
from noisedeconv.characterization import estimate_diagonal_entries, estimate_full_ptm


def k_of(label):
    return label_index(label)[1]


def factor(ch, k, m=1):
    """The diagonal path's rescaling factor lambda_k**(-m) for term k."""
    return plan_pauli(Observable(ch.n, {k: 1.0}), ch, m).weights[k]


class TestPlanPauli:
    def test_bit_flip_factor(self):
        plan = plan_pauli(Observable.from_pairs([("Z", 1.0)]), bit_flip_channel(1, 0.1))
        assert plan.weights == {3: pytest.approx(1.25, abs=1e-14)}
        assert plan.entries_consulted == 1

    def test_identity_component_factor_one(self):
        plan = plan_pauli(Observable.from_pairs([("I", 2.0)]), bit_flip_channel(1, 0.3))
        assert plan.weights == {0: 2.0}

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleChannel):
            plan_pauli(Observable.from_pairs([("Z", 1.0)]), depolarizing_channel(1, 1.0))

    def test_plan_is_the_one_m_row_of_the_weight_table(self):
        ch = depolarizing_channel(3, 0.2, 0.4)
        obs = Observable.from_pairs([("ZZZ", 1.0), ("XIY", -0.5), ("IIZ", 2.0)])
        lam = ch.lambdas(obs.terms)
        table = rescaling_weights(obs.terms, lam, range(9))
        assert table == [[c / lam[k] ** m for k, c in obs.items()] for m in range(9)]
        for m in range(9):
            assert plan_pauli(obs, ch, m).weights == dict(zip(obs.terms, table[m]))

    @pytest.mark.parametrize("lam, ms, message", [
        # k=1 overflows at m=40, but every term's tolerance check comes first
        ({1: 1e-10, 2: 0.0}, [40], "diagonal entry 0.0 at k=2 is not invertible"),
        # m-major: k=2 overflows at m=29, before k=1 at m=31
        ({1: 1e-10, 2: 1e-11}, range(41), r"lambda_k\*\*\(-m\) overflows at k=2, m=29"),
    ], ids=["tolerance-first", "overflow-m-major"])
    def test_weight_table_refusal_order(self, lam, ms, message):
        with pytest.raises(NonInvertibleChannel, match=message):
            rescaling_weights({1: 1.0, 2: 1.0}, lam, ms)

    def test_weight_table_names_a_missing_entry(self):
        with pytest.raises(MissingMeasurement, match="lacks the diagonal entry k=2"):
            rescaling_weights({1: 1.0, 2: 1.0}, {1: 0.5}, range(3))

    def test_consults_r_entries(self):
        rng = np.random.default_rng(0)
        obs = random_observable(2, rng)
        plan = plan_pauli(obs, depolarizing_channel(2, 0.1, 0.5))
        assert plan.entries_consulted == obs.r == len(plan.weights)


def _kraus_z_flip(p):
    """Phase flip written as a plain Kraus set: its transfer matrix is
    diagonal although the channel carries no Pauli weights."""
    return KrausChannel([np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * np.diag([1.0, -1.0])])


# (channel, path plan() must take); the Kraus sets with a diagonal
# transfer matrix take the diagonal path.
PLAN_CHANNELS = [
    (bit_flip_channel(1, 0.1), "diagonal"),
    (depolarizing_channel(2, 0.15, 0.5), "diagonal"),
    (dephasing_channel(2, 0.1, 0.3).ptm(), "diagonal"),
    (_kraus_z_flip(0.2), "diagonal"),
    (correlated_amplitude_damping(1.0, 0.25), "diagonal"),
    (correlated_amplitude_damping(0.6, 0.3), "general"),
    (correlated_amplitude_damping(0.6, 0.3).ptm(), "general"),
]
PLAN_IDS = ["bit_flip", "depolarizing", "dephasing_ptm", "kraus_z_flip",
            "amp_damp_unital", "amp_damp", "amp_damp_ptm"]


def _plan_bytes(p):
    return repr(sorted(p.weights.items())), p.entries_consulted


class TestPlanEntryPoint:
    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("ch, path", PLAN_CHANNELS, ids=PLAN_IDS)
    def test_plan_is_the_path_function_byte_for_byte(self, ch, path, m):
        obs = random_observable(ch.n, np.random.default_rng(m))
        got = plan(obs, ch, m)
        if path == "diagonal":
            ref = plan_pauli(obs, ch, m=m)
            assert got.entries_consulted == obs.r
        else:
            ref = plan_general(obs, ch.ptm(), m=m)
        assert _plan_bytes(got) == _plan_bytes(ref)

    @pytest.mark.parametrize("m", [0, 2, 7])
    @pytest.mark.parametrize("ch, path", PLAN_CHANNELS, ids=PLAN_IDS)
    def test_m_fold_weights(self, ch, path, m):
        obs = random_observable(ch.n, np.random.default_rng(10 + m))
        got = plan(obs, ch, m)
        if path == "diagonal":
            lam = ch.lambdas()
            assert got.weights == {k: c / float(lam[k]) ** m for k, c in obs.items()}
        else:
            ref = np.linalg.matrix_power(np.linalg.inv(ch.ptm().matrix.T), m) @ obs.coefficient_vector()
            w = np.zeros_like(ref)
            for j, v in got.weights.items():
                w[j] = v
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.sum(np.abs(ref))
        if m == 0:
            assert got.weights == obs.terms
        if path == "diagonal":
            for k in obs.terms:
                unit = plan(Observable(ch.n, {k: 1.0}), ch, m)
                assert unit.weights[k] == 1.0 / float(lam[k]) ** m

    @pytest.mark.parametrize("ch, path", PLAN_CHANNELS, ids=PLAN_IDS)
    def test_plan_asks_once_for_the_observables_entries(self, ch, path):
        asked = []

        class Counting:
            n = ch.n

            def lambdas(self, ks=None):
                asked.append(ks)
                return ch.lambdas(ks)

            def ptm(self):
                return ch.ptm()

        obs = Observable.from_pairs([("Z" * ch.n, 1.0), ("X" + "I" * (ch.n - 1), -0.5)])
        assert plan(obs, Counting()) == plan(obs, ch)
        assert [list(ks) for ks in asked] == [sorted(obs.terms)]

    def test_general_weights_do_not_depend_on_planning_order(self):
        # plans on one PTM share its inverse; any order must give the bytes
        # of a fresh PTM's plan
        matrix = correlated_amplitude_damping(0.6, 0.3).ptm().matrix
        shared = PTM(2, matrix)
        rng = np.random.default_rng(3)
        observables = [random_observable(2, rng) for _ in range(2)]
        for m in (0, 1, 2, 5, 3, 3, 0, 4):
            for obs in observables:
                got = plan_general(obs, shared, m=m)
                assert _plan_bytes(got) == _plan_bytes(plan_general(obs, PTM(2, matrix), m=m))

    def test_negative_repetitions_raise(self):
        obs = Observable.from_pairs([("ZZ", 1.0)])
        pauli, general = bit_flip_channel(2, 0.1), correlated_amplitude_damping(0.6, 0.3)
        for call in (lambda: plan(obs, pauli, -1), lambda: plan(obs, general, -1),
                     lambda: plan_pauli(obs, pauli, m=-1), lambda: plan_general(obs, general.ptm(), m=-1)):
            with pytest.raises(ValueError, match="repetition count"):
                call()

    def test_empty_observable_plans_nothing_on_either_path(self):
        # a near-singular transfer matrix (condition bound about 1e15) would
        # warn if inverted; an observable with no terms needs no inverse
        pauli, general = bit_flip_channel(2, 0.1), correlated_amplitude_damping(2.0**-24, 0.0)
        empty = Observable.from_pairs([("II", 0.0)])
        assert empty.terms == {}
        for ch in (pauli, general):
            got = plan(empty, ch, 3)
            assert (got.entries_consulted, got.weights) == (0, {})
            assert deconvolve(got, {}) == 0.0 and propagated_std_error(got, {}) == 0.0
            with pytest.raises(ValueError, match="repetition count"):
                plan(empty, ch, -1)
            with pytest.raises(DimensionMismatch):
                plan(Observable.from_pairs([("I", 0.0)]), ch, 1)
        assert general.ptm()._inverse_adjoint is None and general.ptm()._condition_number is None

    def test_non_invertible_and_overflow_refused_at_every_m(self):
        obs = Observable.from_pairs([("Z", 1.0)])
        for m in (0, 1, 4):
            with pytest.raises(NonInvertibleChannel):
                plan(obs, depolarizing_channel(1, 1.0), m)
        plan(obs, bit_flip_channel(1, 0.45), 300)
        with pytest.raises(NonInvertibleChannel, match="overflows"):
            plan(obs, bit_flip_channel(1, 0.45), 500)


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
        obs = random_observable(2, rng)
        w = rng.dirichlet(np.ones(16) * 4)
        ch = KrausChannel.from_pauli_weights(2, w)
        ideal = observable_expectation(rho, obs)
        rhop = evolve(rho, ch, 1)
        noisy = {k: exact_pauli_expectation(rhop, k) for k in obs.terms}
        assert abs(deconvolve(plan_pauli(obs, ch), noisy) - ideal) < 1e-10

    def test_missing_measurement(self):
        plan = plan_pauli(Observable.from_pairs([("Z", 1.0)]), bit_flip_channel(1, 0.1))
        with pytest.raises(MissingMeasurement):
            deconvolve(plan, {1: 0.5})

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
        ptm = PTM(1, np.eye(4))
        plan = plan_general(Observable.from_pairs([("Z", 1.0)]), ptm)
        assert np.allclose(ptm._inverse_adjoint, np.eye(4))
        assert plan.weights == {3: 1.0}
        assert plan.entries_consulted == 16

    def test_reduces_to_diagonal_path(self):
        rng = np.random.default_rng(2)
        obs = random_observable(2, rng)
        ch = bit_flip_channel(2, 0.2, 0.6)
        fast = plan_pauli(obs, ch)
        general = plan_general(obs, ch.ptm())
        for k, coeff in obs.items():
            assert general.weights[k] == pytest.approx(fast.weights[k], abs=1e-12)
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
        ptm = depolarizing_channel(1, 1 - 1e-9).ptm()  # condition bound about 1e9
        with pytest.warns(IllConditionedWarning) as record:
            plan_general(Observable.from_pairs([("Z", 1.0)]), ptm)
        assert "condition number" in str(record[0].message)

    def test_amplified_weights_warn(self):
        # eta 0.3: the one-step condition number is 7.7, but the m-fold
        # weights' 1-norm passes CONDITION_WARN at m = 12 (3.1e8)
        ch = correlated_amplitude_damping(0.3, 0.5)
        obs = Observable.from_pairs([("ZZ", 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan(obs, ch, 11)
        for m in (12, 24):
            with pytest.warns(IllConditionedWarning, match=f"amplify .* \\(m = {m}\\)"):
                p = plan(obs, ch, m)
            assert sum(abs(w) for w in p.weights.values()) > 1e8

    def test_general_roundtrip_amplitude_damping(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            eta, mu = rng.uniform(0.2, 1.0), rng.uniform(0.0, 1.0)
            ch = correlated_amplitude_damping(eta, mu)
            rho = random_density(2, rng)
            obs = random_observable(2, rng)
            ideal = observable_expectation(rho, obs)
            rhop = evolve(rho, ch, 1)
            plan = plan_general(obs, ch.ptm())
            noisy = {j: exact_pauli_expectation(rhop, j)
                     for j in plan.weights}
            assert abs(deconvolve(plan, noisy) - ideal) < 1e-9


class TestInverseShared:
    """plan_general inverts a PTM's transpose once and shares the result;
    the gates still run on every call."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        calls = []
        original = deconvolution._invert_adjoint

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(deconvolution, "_invert_adjoint", counting)
        return calls

    def test_two_plans_invert_once_and_match_a_fresh_ptm(self, inversions):
        rng = np.random.default_rng(5)
        ptm = correlated_amplitude_damping(0.6, 0.3).ptm()
        obs_a = random_observable(2, rng)
        obs_b = random_observable(2, rng)
        a = plan_general(obs_a, ptm)
        b = plan_general(obs_b, ptm)
        assert len(inversions) == 1
        assert not ptm._inverse_adjoint.flags.writeable
        for obs, plan in ((obs_a, a), (obs_b, b)):
            fresh_ptm = PTM(2, ptm.matrix)
            fresh = plan_general(obs, fresh_ptm)
            assert repr(sorted(plan.weights.items())) == repr(sorted(fresh.weights.items()))
            assert ptm._inverse_adjoint.tobytes() == fresh_ptm._inverse_adjoint.tobytes()
        assert len(inversions) == 3

    def test_warning_on_every_call(self, inversions, monkeypatch):
        ptm = depolarizing_channel(1, 0.999).ptm()
        obs = Observable.from_pairs([("Z", 1.0)])
        monkeypatch.setattr(deconvolution, "CONDITION_WARN", 100.0)
        for _ in range(2):
            with pytest.warns(IllConditionedWarning) as record:
                plan_general(obs, ptm)
            assert "condition number" in str(record[0].message)
        assert len(inversions) == 1

    def test_singular_on_every_call(self, inversions):
        ptm = depolarizing_channel(1, 1.0).ptm()
        obs = Observable.from_pairs([("Z", 1.0)])
        for _ in range(3):
            with pytest.raises(SingularPTM):
                plan_general(obs, ptm)
        assert len(inversions) == 1


class TestConditionBound:
    """PTM.condition_number is sqrt(kappa_1 * kappa_inf) from the kept inverse:
    an upper bound on the 2-norm condition number (the SVD oracle here), equal
    to it for a diagonal matrix, and no SVD runs on the general path."""

    @staticmethod
    def _random_kraus_ptm(n, rng):
        d, r = 2**n, 3
        A = rng.normal(size=(r * d, d)) + 1j * rng.normal(size=(r * d, d))
        V = np.linalg.qr(A)[0]
        return KrausChannel([V[i * d:(i + 1) * d] for i in range(r)]).ptm()

    def test_bounds_the_two_norm_condition_number(self):
        rng = np.random.default_rng(11)
        ptms = [correlated_amplitude_damping(rng.uniform(0.2, 1.0), rng.uniform(0.0, 1.0)).ptm()
                for _ in range(5)]
        ptms += [self._random_kraus_ptm(n, rng) for n in (1, 2, 3) for _ in range(3)]
        for ptm in ptms:
            assert ptm.condition_number >= np.linalg.cond(ptm.matrix.T) * (1 - 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_two_norm_condition_number_on_diagonal_matrices(self, n):
        rng = np.random.default_rng(n)
        for build in (bit_flip_channel, depolarizing_channel, dephasing_channel):
            ptm = build(n, rng.uniform(0.01, 0.4), rng.uniform(0.0, 1.0)).ptm()
            assert ptm.condition_number == pytest.approx(np.linalg.cond(ptm.matrix.T), rel=1e-12)

    @pytest.mark.parametrize("matrix", [
        np.diag([1.0, 1.0, 1.0, 1e-17]),
        np.block([[np.eye(1), np.zeros((1, 3))],
                  [np.zeros((3, 1)), np.arange(1.0, 10.0).reshape(3, 3).T / 10]]),
    ], ids=["tiny_diagonal_entry", "rank_deficient_block"])
    def test_finite_inverse_of_a_nearly_singular_matrix_is_refused(self, matrix):
        assert np.all(np.isfinite(np.linalg.inv(matrix.T)))  # inv does not raise here
        ptm = PTM(1, matrix)
        with pytest.raises(SingularPTM):
            plan_general(Observable.from_pairs([("Z", 1.0)]), ptm)
        assert ptm.condition_number == np.inf

    def test_warning_points_at_the_caller_of_plan_general(self):
        ptm = depolarizing_channel(1, 1 - 1e-9).ptm()
        for _ in range(2):  # the inverting call and one that reads the kept bound
            with pytest.warns(IllConditionedWarning) as record:
                plan_general(Observable.from_pairs([("Z", 1.0)]), ptm)
            assert record[0].filename == __file__

    def test_bound_past_sqrt_float_max_neither_overflows_nor_warns(self, tmp_path, capsys):
        # kappa_1 * kappa_inf = 1e320 overflows a float; the bound is 1e160
        matrix = np.diag([1.0, 1e-160, 1.0, 1.0])
        matrix[2, 3] = 0.5  # not Pauli-diagonal, so plan() takes the general path
        rows = "".join(f"{j} {k} {float(matrix[j, k])!r} 0.0 0 0\n" for j in range(4) for k in range(4))
        report, obs, meas = (tmp_path / name for name in ("report.txt", "obs.txt", "meas.txt"))
        report.write_text("n 1\nmode full\n" + rows)
        obs.write_text("Z 1.0\n")
        meas.write_text("Z 0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inv = np.linalg.inv(matrix.T)
            assert _condition_bound(matrix.T, inv) == pytest.approx(1.5e160, rel=1e-12)
            ptm = PTM(1, matrix)
            with pytest.raises(SingularPTM):
                plan_general(Observable.from_pairs([("Z", 1.0)]), ptm)
            assert ptm.condition_number == np.inf  # a refused matrix keeps no bound
            assert main(["deconvolve", "--observable", str(obs), "--characterization", str(report),
                         "--measurements", str(meas)]) == 3
        err = capsys.readouterr().err
        assert "numerically singular" in err and "RuntimeWarning" not in err

    @staticmethod
    def _scaled_hadamard(s):
        """A 3-qubit transfer matrix: the identity with rows and columns 1..16
        replaced by the orthogonal 16x16 Hadamard matrix / 4, its last column
        scaled by ``s``.  kappa_2 = 1/s, the bound sqrt(15)/s, exact in floats."""
        H = np.ones((1, 1))
        for _ in range(4):
            H = np.kron(H, [[1.0, 1.0], [1.0, -1.0]])
        matrix = np.eye(64)
        matrix[1:17, 1:17] = H / 4 @ np.diag([1.0] * 15 + [s])
        return PTM(3, matrix)

    def test_bound_above_the_threshold_warns_where_kappa_2_is_below(self):
        ptm = self._scaled_hadamard(2.0**-26)
        assert np.linalg.cond(ptm.matrix.T) < CONDITION_WARN < ptm.condition_number
        with pytest.warns(IllConditionedWarning, match="condition number"):
            plan_general(Observable(3, {1: 1.0}), ptm)

    def test_bound_above_the_singularity_gate_refuses_where_kappa_2_is_below(self):
        ptm = self._scaled_hadamard(2.0**-51)
        assert np.linalg.cond(ptm.matrix.T) < 1 / np.finfo(float).eps
        with pytest.raises(SingularPTM):
            plan_general(Observable(3, {1: 1.0}), ptm)
        assert ptm.condition_number == np.inf

    @pytest.mark.parametrize("build, refused", [
        (lambda: correlated_amplitude_damping(0.6, 0.3).ptm(), False),
        (lambda: depolarizing_channel(1, 1 - 1e-9).ptm(), False),  # warns on every plan
        (lambda: PTM(1, np.diag([1.0, 1.0, 1.0, 1e-17])), True),
    ], ids=["well_conditioned", "ill_conditioned", "singular"])
    def test_bound_is_computed_once_per_ptm(self, monkeypatch, build, refused):
        calls = []
        original = deconvolution._condition_bound

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(deconvolution, "_condition_bound", counting)
        ptm = build()
        fresh = build()
        obs = Observable(ptm.n, {1: 1.0, 3: 0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            for i, m in enumerate((1, 2, 1, 3)):
                if refused:
                    with pytest.raises(SingularPTM):
                        plan_general(obs, ptm, m)
                else:
                    plan_general(obs, ptm, m)
                assert len(calls) == 1, f"plan {i}"
        cond = ptm.condition_number
        assert len(calls) == 1
        monkeypatch.setattr(deconvolution, "_condition_bound", original)
        assert cond == fresh.condition_number  # the kept bound is the one computed afresh
        if refused:
            assert cond == np.inf
        else:
            assert cond == original(fresh.matrix.T, np.linalg.inv(fresh.matrix.T))

    def test_general_path_runs_no_svd(self, monkeypatch):
        rng = np.random.default_rng(4)
        matrix = np.eye(4**5) + 1e-3 * rng.normal(size=(4**5, 4**5))
        matrix[0] = np.eye(4**5)[0]
        ptm = PTM(5, matrix)

        def refuse(*args, **kwargs):
            raise AssertionError("no SVD on the general path")

        monkeypatch.setattr(np.linalg, "cond", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        plan = plan_general(Observable(5, {1: 1.0, 700: -0.5}), ptm)
        assert plan.entries_consulted == 4**10
        assert 1.0 < ptm.condition_number < 10.0


class TestReconstructionFactor:
    def test_two_qubit_bit_flip_closed_form(self):
        p, mu = 0.13, 0.4
        got = factor(bit_flip_channel(2, p, mu), k_of("ZZ"))
        assert got == pytest.approx(1 / (1 + 4 * (mu - 1) * (1 - p) * p), abs=1e-12)

    def test_memoryless_squares_single_qubit(self):
        p = 0.21
        f2 = factor(bit_flip_channel(2, p, 0.0), k_of("ZZ"))
        f1 = factor(bit_flip_channel(1, p), k_of("Z"))
        assert f2 == pytest.approx(f1**2, rel=1e-12)

    def test_full_memory_even_qubits_no_effect(self):
        assert factor(depolarizing_channel(2, 0.3, 1.0), k_of("ZZ")) == pytest.approx(1.0, abs=1e-12)

    def test_m_fold(self):
        p = 0.1
        got = factor(bit_flip_channel(1, p), k_of("Z"), m=5)
        assert got == pytest.approx((1 - 2 * p) ** -5, rel=1e-12)
        assert factor(bit_flip_channel(1, p), k_of("Z"), m=0) == 1.0

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleChannel):
            factor(depolarizing_channel(1, 1.0), k_of("Z"))

    def test_overflow_raises(self):
        with pytest.raises(NonInvertibleChannel):
            factor(bit_flip_channel(1, 0.45), k_of("Z"), m=500)


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
                obs = random_observable(n, rng)
                ideal = observable_expectation(rho, obs)
                rhop = evolve(rho, ch, 1)
                plan = plan_pauli(obs, ch)
                noisy = {k: exact_pauli_expectation(rhop, k) for k in obs.terms}
                assert abs(deconvolve(plan, noisy) - ideal) < 1e-9


class TestCharacterizationSource:
    def test_diagonal_report_feeds_plan(self):
        ch = bit_flip_channel(2, 0.15, 0.3)
        obs = Observable.from_pairs([("ZZ", 1.0), ("IZ", 0.5)])
        report = estimate_diagonal_entries(ch, sorted(obs.terms))
        got = plan(obs, report)
        ref = plan_pauli(obs, ch)
        for k in obs.terms:
            assert got.weights[k] == pytest.approx(ref.weights[k], abs=1e-12)
        assert got.entries_consulted == obs.r

    def test_full_report_feeds_plan(self):
        ch = correlated_amplitude_damping(1.0, 0.5)  # unital edge case
        obs = Observable.from_pairs([("XX", 1.0)])
        report = estimate_full_ptm(ch)
        assert plan(obs, report).weights[k_of("XX")] == pytest.approx(1.0, abs=1e-12)

    def test_full_report_plans_by_its_matrix_diagonal(self):
        ch = bit_flip_channel(2, 0.15, 0.3)
        obs = Observable.from_pairs([("ZZ", 1.0), ("XI", 0.5)])
        exact = estimate_full_ptm(ch)
        assert exact.ptm() is exact.ptm()  # one matrix per report, shared by lambdas() and plan()
        assert plan(obs, exact) == plan_pauli(obs, ch)
        # a sampled report's off-diagonal estimates are not exactly zero
        assert plan(obs, estimate_full_ptm(ch, shots=1000, seed=1)).entries_consulted == 16 * 16

    def test_missing_entry(self):
        ch = bit_flip_channel(1, 0.1)
        report = estimate_diagonal_entries(ch, [3])
        with pytest.raises(MissingMeasurement):
            plan(Observable.from_pairs([("X", 1.0)]), report)


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
