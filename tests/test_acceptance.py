"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also enforces its runtime budget.

Criterion 1 note: the sigma_z factor identities are verified in exact
rational arithmetic (difference exactly zero) and the library's diagonal
entries match their exact values to 1e-12 absolute.  The factors
themselves are compared at 1e-11 relative: factors reach 1.25e5 at the
grid corner (bit flip, p=0.49, mu=0), where a 1e-12 absolute float64
comparison is below representation precision (2 ulps = 3e-11).  Past
n = 6 the closed form is the three-term recurrence of a 2x2 transfer
matrix (``z_string_lambdas``), checked exactly against the closed forms
at n = 1..3 and against the 4x4 product of
``conftest.markov_lambda_exact``; where the exact entry is within
INVERTIBILITY_TOL of 0 the plan must refuse it.
"""

import time
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest
from conftest import (
    SIGNS,
    evolve,
    exact_pauli_expectation,
    markov_lambda_exact,
    observable_expectation,
    random_density,
    random_observable,
)

import noisedeconv as nd
from noisedeconv.deconvolution import (
    INVERTIBILITY_TOL,
    deconvolve,
    plan_general,
    plan_pauli,
)
from noisedeconv.characterization import (
    estimate_full_ptm,
    positivity_certificates,
    probe_state,
)
from noisedeconv.exceptions import NonInvertibleChannel
from noisedeconv.pauli import Observable, label_index, pauli_label
from noisedeconv.simulator import ExperimentConfig, run_experiment

P_GRID = [i / 100.0 for i in range(1, 50)]  # 49 values
MU_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
ETA_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def closed_form_bit_flip(n, p, mu):
    if n == 1:
        return 1 / (1 - 2 * p)
    if n == 2:
        return 1 / (1 + 4 * (mu - 1) * (1 - p) * p)
    return 1 / ((1 - 2 * p) * (1 + 4 * (mu - 1) ** 2 * (p - 1) * p))


def closed_form_depolarizing(n, q, mu):
    if n == 1:
        return 1 / (1 - q)
    if n == 2:
        return 1 / (1 + (mu - 1) * (2 - q) * q)
    return 1 / ((1 - q) * (1 + (mu - 1) ** 2 * (q - 2) * q))


def z_string_lambdas(f, mu):
    """lambda of the all-sigma_z string on n = 1, 2, ... qubits for bit flip
    (f = 1 - 2p) or depolarizing (f = 1 - q) noise.  The Z signs split the
    letters into {I, Z} and {X, Y}, a two-state chain whose 2x2 tilted transfer
    matrix has trace (1 - mu) f and determinant -mu, so lambda_1 = f,
    lambda_2 = mu + (1 - mu) f**2 and lambda_{j+1} = (1 - mu) f lambda_j + mu lambda_{j-1}."""
    prev, cur = f, mu + (1 - mu) * f * f
    yield prev
    while True:
        yield cur
        prev, cur = cur, (1 - mu) * f * cur + mu * prev


def lambda_exact_rational(n, p_vec, mu, target):
    """sigma_z-string diagonal entry of the correlated family, exactly."""
    cond = [[(1 - mu) * p_vec[j] + (mu if i == j else 0) for j in range(4)] for i in range(4)]
    total = Fraction(0)
    stack = [((a,), p_vec[a]) for a in range(4)]
    while stack:
        seq, weight = stack.pop()
        if len(seq) == n:
            s = 1
            for a, b in zip(seq, target):
                s *= SIGNS[a][b]
            total += s * weight
        else:
            for a in range(4):
                stack.append((seq + (a,), weight * cond[seq[-1]][a]))
    return total


def k_of(label):
    return label_index(label)[1]


def test_acceptance_1_closed_form_factor_suite():
    start = time.monotonic()
    worst_lambda = 0.0
    worst_factor_rel = 0.0
    for p, mu, n in product(P_GRID, MU_GRID, (1, 2, 3)):
        k = 4**n - 1
        pF, muF = Fraction(p), Fraction(mu)
        for build, closed, p_vec in (
            (nd.bit_flip_channel, closed_form_bit_flip,
             [1 - pF, pF, Fraction(0), Fraction(0)]),
            (nd.depolarizing_channel, closed_form_depolarizing,
             [1 - 3 * pF / 4, pF / 4, pF / 4, pF / 4]),
        ):
            lam_exact = lambda_exact_rational(n, p_vec, muF, (3,) * n)
            # the formula identity holds exactly in rational arithmetic
            assert lam_exact * Fraction(closed(n, pF, muF)) == 1
            ch = build(n, p, mu)
            lam_lib = ch.lambdas()[k]
            worst_lambda = max(worst_lambda, abs(float(Fraction(float(lam_lib)) - lam_exact)))
            f_lib = plan_pauli(Observable(n, {k: 1.0}), ch).weights[k]
            f_closed = closed(n, p, mu)
            worst_factor_rel = max(
                worst_factor_rel, abs(f_lib - f_closed) / max(1.0, abs(f_closed))
            )
    assert worst_lambda <= 1e-12
    assert worst_factor_rel <= 1e-11
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS closed-form factors: exact rational identity on 49x5 grid, "
          f"n=1..3; |lambda - exact| <= {worst_lambda:.2e}; factor rel dev "
          f"{worst_factor_rel:.2e} ({elapsed:.2f} s)")


def test_acceptance_1_closed_form_factors_past_the_dense_cap():
    start = time.monotonic()
    worst_lambda = 0.0
    worst_factor_rel = 0.0
    refused = 0  # entries within INVERTIBILITY_TOL of 0, which the plan refuses
    for p, mu in product(P_GRID, MU_GRID):
        pF, muF = Fraction(p), Fraction(mu)
        for build, closed, f, p_vec in (
            (nd.bit_flip_channel, closed_form_bit_flip, 1 - 2 * pF,
             [1 - pF, pF, Fraction(0), Fraction(0)]),
            (nd.depolarizing_channel, closed_form_depolarizing, 1 - pF,
             [1 - 3 * pF / 4, pF / 4, pF / 4, pF / 4]),
        ):
            lams = list(islice(z_string_lambdas(f, muF), 31))
            assert [lams[n - 1] * Fraction(closed(n, pF, muF)) for n in (1, 2, 3)] == [1, 1, 1]
            for n in (10, 20, 31):
                k = 4**n - 1
                lam_exact = lams[n - 1]
                if p in P_GRID[::12]:
                    assert markov_lambda_exact(k, n, p_vec, muF) == lam_exact
                ch = build(n, p, mu)
                worst_lambda = max(worst_lambda, abs(ch.lambdas([k])[k] - float(lam_exact)))
                obs = Observable(n, {k: 1.0})
                if abs(lam_exact) <= INVERTIBILITY_TOL:
                    with pytest.raises(NonInvertibleChannel):
                        plan_pauli(obs, ch)
                    refused += 1
                    continue
                f_closed = float(1 / lam_exact)
                f_lib = plan_pauli(obs, ch).weights[k]
                worst_factor_rel = max(worst_factor_rel, abs(f_lib - f_closed) / abs(f_closed))
    assert worst_lambda <= 1e-12
    assert worst_factor_rel <= 1e-11
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS closed-form factors past the dense cap: exact rational identity "
          f"on 49x5 grid, n=10, 20, 31 ({refused} refused as not invertible); |lambda - exact| "
          f"<= {worst_lambda:.2e}; factor rel dev {worst_factor_rel:.2e} ({elapsed:.2f} s)")


def test_the_product_oracle_agrees_with_the_enumeration():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        for _ in range(3):
            p_vec = [Fraction(int(x), 1000) for x in rng.multinomial(1000, rng.dirichlet(np.ones(4)))]
            mu = Fraction(int(rng.integers(0, 9)), 8)
            for k in range(4**n):
                digits = tuple(map("IXYZ".index, pauli_label(k, n)))
                assert markov_lambda_exact(k, n, p_vec, mu) == lambda_exact_rational(n, p_vec, mu, digits)


def test_acceptance_2_amplitude_damping_suite():
    start = time.monotonic()
    worst = 0.0
    for eta, mu in product(ETA_GRID, MU_GRID):
        ch = nd.correlated_amplitude_damping(eta, mu)
        ptm = ch.ptm()
        f = 1.0 / (2 * (mu * (eta - np.sqrt(eta)) - eta) * (mu * (eta - 1) - eta))
        g = 1.0 / (eta + mu * (1 - eta)) ** 2
        plan = plan_general(Observable.from_pairs([("XX", 1.0)]), ptm)
        refs = {k_of("XX"): f * (2 * eta * (1 - mu) + mu * (np.sqrt(eta) + 1)),
                k_of("YY"): f * mu * (np.sqrt(eta) - 1)}
        for j in set(plan.weights) | {j for j, v in refs.items() if abs(v) > 1e-12}:
            worst = max(worst, abs(plan.weights.get(j, 0.0) - refs.get(j, 0.0)))
        # x <-> y exchanged variant
        plan = plan_general(Observable.from_pairs([("YY", 1.0)]), ptm)
        refs = {k_of("YY"): f * (2 * eta * (1 - mu) + mu * (np.sqrt(eta) + 1)),
                k_of("XX"): f * mu * (np.sqrt(eta) - 1)}
        for j in set(plan.weights) | {j for j, v in refs.items() if abs(v) > 1e-12}:
            worst = max(worst, abs(plan.weights.get(j, 0.0) - refs.get(j, 0.0)))
        plan = plan_general(Observable.from_pairs([("ZZ", 1.0)]), ptm)
        refs = {k_of("II"): g * (mu - 1) ** 2 * (eta - 1) ** 2,
                k_of("ZZ"): g,
                k_of("IZ"): -g * (mu - 1) * (eta - 1),
                k_of("ZI"): -g * (mu - 1) * (eta - 1)}
        for j in set(plan.weights) | {j for j, v in refs.items() if abs(v) > 1e-12}:
            worst = max(worst, abs(plan.weights.get(j, 0.0) - refs.get(j, 0.0)))
    assert worst <= 1e-12
    # boundary: mu = 0 factorizes into single-qubit transfer matrices
    for eta in ETA_GRID:
        E0 = np.array([[1, 0], [0, np.sqrt(eta)]], dtype=complex)
        E1 = np.array([[0, np.sqrt(1 - eta)], [0, 0]], dtype=complex)
        single = nd.KrausChannel([E0, E1]).ptm().matrix
        full = nd.correlated_amplitude_damping(eta, 0.0).ptm().matrix
        assert np.max(np.abs(full - np.kron(single, single))) <= 1e-12
    # boundary: mu = 1 leaves <sigma_z x sigma_z> untouched
    for eta in ETA_GRID:
        M = nd.correlated_amplitude_damping(eta, 1.0).ptm().matrix
        assert abs(M[15, 15] - 1.0) <= 1e-12
        plan = plan_general(Observable.from_pairs([("ZZ", 1.0)]), nd.correlated_amplitude_damping(eta, 1.0).ptm())
        assert set(plan.weights) == {15}
        assert abs(plan.weights[15] - 1.0) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 PASS amplitude-damping coefficients on 9x5 grid, dev <= {worst:.2e}, "
          f"boundary claims hold ({elapsed:.2f} s)")


def test_acceptance_3_exact_roundtrip_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(20240612)
    trials_per_family = 200
    worst = 0.0

    def pauli_families():
        yield "bit_flip", lambda n: nd.bit_flip_channel(n, rng.uniform(0.01, 0.35), rng.uniform(0, 1))
        yield "depolarizing", lambda n: nd.depolarizing_channel(n, rng.uniform(0.01, 0.35), rng.uniform(0, 1))
        yield "dephasing", lambda n: nd.dephasing_channel(n, rng.uniform(0.01, 0.35), rng.uniform(0, 1))
        yield "pauli_custom", lambda n: nd.KrausChannel.from_pauli_weights(
            n, np.concatenate([[0.7], 0.3 * rng.dirichlet(np.ones(4**n - 1))]))

    for name, build in pauli_families():
        for _ in range(trials_per_family):
            n = int(rng.integers(1, 4))
            ch = build(n)
            rho = random_density(n, rng)
            obs = random_observable(n, rng)
            ideal = observable_expectation(rho, obs)
            rhop = evolve(rho, ch, 1)
            plan = plan_pauli(obs, ch)
            noisy = {k: exact_pauli_expectation(rhop, k) for k in obs.terms}
            worst = max(worst, abs(deconvolve(plan, noisy) - ideal))
    for _ in range(trials_per_family):
        ch = nd.correlated_amplitude_damping(rng.uniform(0.2, 1.0), rng.uniform(0, 1))
        rho = random_density(2, rng)
        obs = random_observable(2, rng)
        ideal = observable_expectation(rho, obs)
        rhop = evolve(rho, ch, 1)
        plan = plan_general(obs, ch.ptm())
        noisy = {j: exact_pauli_expectation(rhop, j)
                 for j in plan.weights}
        worst = max(worst, abs(deconvolve(plan, noisy) - ideal))
    assert worst < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS exact round trip: 200 triples x 5 families, worst "
          f"|deconvolved - ideal| = {worst:.2e} ({elapsed:.2f} s)")


def test_acceptance_4_figure_reproduction_desk_scale():
    start = time.monotonic()
    q, mu = 0.00052, 0.25
    lam = (1 - q) * (1 + (mu - 1) ** 2 * (q - 2) * q)
    base = {
        "n": 3,
        "channel": {"family": "depolarizing", "n": 3, "q": q, "mu": mu},
        "observable": [["ZZZ", 1.0]],
        "initial_state": "zeros",
        "m_max": 40,
    }
    exact = run_experiment(ExperimentConfig.from_dict({**base, "shots": 0, "seed": 0}))
    assert len(exact) == 41
    for r in exact:
        assert abs(r.value - lam**r.m) < 1e-12
        assert abs(r.deconvolved - 1.0) < 1e-9
    sampled = run_experiment(ExperimentConfig.from_dict({**base, "shots": 8192, "seed": 2024}))
    for r in sampled:
        if r.std_error == 0.0:
            assert abs(r.value - lam**r.m) < 2.0 / 8192
        else:
            assert abs(r.value - lam**r.m) <= 5 * r.std_error
        if r.deconvolved_std_error == 0.0:
            assert abs(r.deconvolved - 1.0) < 1e-12
        else:
            assert abs(r.deconvolved - 1.0) <= 5 * r.deconvolved_std_error
    assert sampled[-1].value < sampled[0].value  # the noisy curve does decay
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 4 PASS figure reproduction: noisy ~ lambda^m, all 41 deconvolved "
          f"points within 5 sigma of 1, exact curve = 1 to 1e-9 ({elapsed:.2f} s)")


def test_acceptance_5_characterization_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    presets = [nd.correlated_amplitude_damping(1.0, 0.25)]
    for n in (1, 2, 3):
        presets.append(nd.bit_flip_channel(n, 0.1, 0.5))
        presets.append(nd.depolarizing_channel(n, 0.2, 0.25))
        presets.append(nd.dephasing_channel(n, 0.15, 0.75))
    for n in (1, 2):
        presets.append(nd.KrausChannel.from_pauli_weights(n, rng.dirichlet(np.ones(4**n))))
    worst = 0.0
    for ch in presets:
        est = estimate_full_ptm(ch).ptm().matrix
        worst = max(worst, float(np.max(np.abs(est - ch.ptm().matrix))))
    assert worst <= 1e-12
    # sampled mode: 65536 shots, 20 seeds, >= 99% of measured entries within 4 sigma
    ch = nd.bit_flip_channel(2, 0.1, 0.3)
    exact = ch.ptm().matrix
    total = hits = 0
    for seed in range(20):
        result = estimate_full_ptm(ch, shots=65536, seed=seed)
        for (j, k), (est, err) in result.entries.items():
            if j == 0 or k == 0:
                continue
            total += 1
            if abs(est - exact[j, k]) <= max(4 * err, 1e-12):
                hits += 1
    coverage = hits / total
    assert coverage >= 0.99
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 5 PASS characterization: exact mode matches transfer matrices to "
          f"{worst:.2e} on {len(presets)} presets; sampled coverage {coverage:.4f} "
          f"({total} entries, 20 seeds) ({elapsed:.2f} s)")


def test_acceptance_6_probe_positivity():
    start = time.monotonic()
    for n in (1, 2, 3, 4):
        d = 2**n
        delta = 1 + d // 2
        for k in range(1, 4**n):
            S, _ = positivity_certificates([probe_state(k, n)])[0]
            assert len(S) == d + 1
            assert all(s > 0 for s in S[:delta]), (n, k)
            assert all(abs(s) < 1e-10 for s in S[delta:]), (n, k)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 6 PASS probe positivity: S_m > 0 below delta = 1 + d/2 and "
          f"|S_m| < 1e-10 beyond, for all k != 0, n <= 4 ({elapsed:.2f} s)")


def test_acceptance_7_speedup_accounting():
    rng = np.random.default_rng(99)
    for n in (1, 2, 3):
        d = 2**n
        r = int(rng.integers(1, 4**n + 1))
        ks = rng.choice(4**n, size=r, replace=False)
        obs = Observable(n, {int(k): float(rng.normal()) or 1.0 for k in ks})
        ch = nd.depolarizing_channel(n, 0.1, 0.3)
        fast = plan_pauli(obs, ch)
        assert fast.entries_consulted == obs.r
        assert obs.r <= d**2
        general = plan_general(obs, ch.ptm())
        assert general.entries_consulted == d**4
    for n in (10, 31):  # past the dense cap only the diagonal path runs
        ks = {int(k) for k in rng.integers(0, 4**n, size=64)}
        obs = Observable(n, {k: float(rng.normal()) or 1.0 for k in ks})
        assert nd.plan(obs, nd.depolarizing_channel(n, 0.01, 0.3)).entries_consulted == obs.r
    print("ACCEPTANCE 7 PASS speedup accounting: diagonal plan consults r <= d^2 entries "
          "(also at n = 10, 31), general plan materializes d^4")
