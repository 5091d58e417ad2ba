"""The readout's streams and its vector draw, pinned to numpy.

``sampling.read_batch`` derives one stream per read with the public
definition of a stream, ``derive_rng(seed, *tags)``, and draws all the
read's entries with one vector binomial call on it.  ``TestStreamStates``
pins each read's draws to those of ``derive_rng`` of its tags; ``TestVectorDraw``
pins that call to the same draws made one at a time, so a numpy release
that changed its binomial sampler fails there first; the counters below
pin one derivation per read, and none for an exact readout.
"""

import numpy as np
import pytest

from noisedeconv import characterization, sampling
from noisedeconv.channels import depolarizing_channel
from noisedeconv.characterization import estimate_diagonal_entries, estimate_full_ptm
from noisedeconv.exceptions import ProbabilityOutOfRange
from noisedeconv.sampling import derive_rng, read_batch, sample_marginal
from noisedeconv.simulator import ExperimentConfig, run_experiment


# 2**64 + 3 is a three-word seed; tags of one to five words mix 0 and
# 2**32 - 1 with random words.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3]


class TestStreamStates:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_equals_derive_rng(self, seed, width):
        # every read of a batch draws from the stream derive_rng(seed, *row)
        # of its own tags, whether the tags come as an array or as lists
        rows = np.random.default_rng(width).integers(0, 2**32, size=(20, width))
        rows[0], rows[1] = 0, 2**32 - 1
        rows[2, :] = [0, 2**32 - 1, 1, 2**31, 7][:width]
        values = [[0.1, -0.6, 0.35]] * len(rows)
        expected = []
        for row in rows:
            rng = derive_rng(seed, *row)
            expected.append([sample_marginal(e, 2**40, rng) for e in values[0]])
        got = read_batch(values, rows, 2**40, seed)
        assert got == expected
        assert got == read_batch(values, rows.tolist(), 2**40, seed)

    def test_empty_batch(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sampling, "derive_rng", lambda *a: calls.append(a))
        assert read_batch([], [], 100, 3) == []
        assert read_batch(iter([]), (), 100, 3) == []
        assert calls == []

    def test_refuses_what_derive_rng_refuses(self):
        for seed, tags in [(0, (-1,)), (-1, (2,))]:
            with pytest.raises(ValueError):
                derive_rng(seed, *tags)
            with pytest.raises(ValueError):
                read_batch([[0.5]], [tags], 100, seed)

    def test_a_tag_past_one_word_is_a_stream_of_derive_rng(self):
        rng = derive_rng(7, 2**32 + 1)
        expected = [sample_marginal(e, 1000, rng) for e in (0.1, -0.4, 0.8)]
        assert read_batch([[0.1, -0.4, 0.8]], [(2**32 + 1,)], 1000, 7) == [expected]

    @pytest.mark.parametrize("shots", [1, 1000, 2**40])
    def test_draws_equal_derive_rng_draws(self, shots):
        # each read's entries are drawn in turn from its one stream
        # derive_rng(seed, *tags); reads of one entry, of none and of many mix
        seed = 2**64 + 3
        es = np.linspace(-0.999, 0.999, 41).tolist()
        tags = [(4, 1), (4, 2), (5, 0), (0, 2**32 - 1)]
        values = [es, [0.3], [], [-0.2, 0.9]]
        expected = []
        for vals, read_tags in zip(values, tags):
            rng = derive_rng(seed, *read_tags)
            expected.append([sample_marginal(e, shots, rng) for e in vals])
        assert read_batch(values, tags, shots, seed) == expected


class TestVectorDraw:
    """numpy's vector binomial equals the same draws made one at a time from
    one generator: what makes a read's one call equal to a per-entry
    ``sample_marginal`` loop over its stream."""

    @pytest.mark.parametrize("shots", [1, 1000, 2**40])
    def test_equals_sequential_scalar_draws(self, shots):
        # shots * min(p, 1 - p) below 30 takes numpy's inversion sampler,
        # above it BTPE: every shots value meets inversion at the ends of p,
        # and all but shots = 1 meet BTPE in the middle
        p = np.concatenate([np.linspace(0.0, 1.0, 41), [1e-12, 0.01, 0.02, 0.97, 1 - 1e-12]])
        regime = shots * np.minimum(p, 1 - p) > 30
        assert not regime.all() and (regime.any() or shots == 1)
        one = np.random.default_rng([9, 4])
        assert np.random.default_rng([9, 4]).binomial(shots, p).tolist() == [
            int(one.binomial(shots, q)) for q in p]


class TestOneDerivationPerBatch:
    """One ``read_batch`` call per report or experiment grid point, and
    within it one ``derive_rng`` per read."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = []

        def counting(seed, *tags):
            calls.append(tags)
            return derive_rng(seed, *tags)

        monkeypatch.setattr(sampling, "derive_rng", counting)
        return calls

    def test_full_report_derives_once(self, monkeypatch):
        # a report, full or diagonal, is one batch of reads
        batches = []

        def counting(values, tags, shots, seed):
            batches.append(len(tags))
            return read_batch(values, tags, shots, seed)

        monkeypatch.setattr(characterization, "read_batch", counting)
        ch = depolarizing_channel(2, 0.2, 0.4)
        estimate_full_ptm(ch, shots=500, seed=4)
        assert batches == [15]
        estimate_diagonal_entries(ch, range(1, 16), shots=500, seed=4)
        assert batches == [15, 15]

    def test_report_derives_once_per_probe(self, derivations):
        ch = depolarizing_channel(2, 0.2, 0.4)
        estimate_full_ptm(ch, shots=500, seed=4)
        assert derivations == [(k,) for k in range(1, 16)]
        estimate_diagonal_entries(ch, range(1, 16), shots=500, seed=4)
        assert len(derivations) == 30

    def test_experiment_derives_once_per_grid_point(self, derivations):
        cfg = ExperimentConfig.from_dict({
            "n": 2, "channel": {"family": "dephasing", "n": 2, "p": 0.1, "mu": 0.3},
            "observable": [["ZZ", 1.0], ["XI", 0.5]], "initial_state": "plus",
            "m_max": 5, "shots": 800, "seed": 3,
            "mu_grid": [0.0, 0.6], "strength_grid": [0.05, 0.2],
        })
        run_experiment(cfg)
        assert derivations == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_exact_readouts_derive_nothing(self, derivations):
        ch = depolarizing_channel(2, 0.2, 0.4)
        estimate_full_ptm(ch)
        estimate_diagonal_entries(ch, [3, 5])
        run_experiment(ExperimentConfig.from_dict({
            "n": 1, "channel": {"family": "bit_flip", "n": 1, "p": 0.1},
            "observable": [["Z", 1.0]], "m_max": 3,
            "mu_grid": [0.0, 0.5], "strength_grid": [0.1, 0.2],
        }))
        assert derivations == []


@pytest.mark.parametrize("bad", [1.5, -1.0 - 1e-6, float("nan")])
def test_read_batch_refuses_an_expectation_outside_the_unit_interval(bad):
    with pytest.raises(ProbabilityOutOfRange):
        read_batch([[0.2], [0.1, bad]], [(1,), (2,)], 100, 0)
    with pytest.raises(ProbabilityOutOfRange):
        sample_marginal(bad, 100, derive_rng(0))


def test_sampled_full_report_is_one_marginal_draw_per_entry():
    # probe k's entries come from its one stream (seed, k), (k, k) first,
    # then j ascending
    ch = depolarizing_channel(2, 0.15, 0.5)
    shots, seed = 900, 2**32 + 5
    exact = estimate_full_ptm(ch).entries
    sampled = estimate_full_ptm(ch, shots=shots, seed=seed).entries
    for k in range(1, 16):
        rng = derive_rng(seed, k)
        for j in [k, *(j for j in range(1, 16) if j != k)]:
            assert sampled[(j, k)] == sample_marginal(exact[(j, k)][0], shots, rng)
    for (j, k), (e, _) in exact.items():
        if not (j and k):
            assert sampled[(j, k)] == (e, 0.0)
