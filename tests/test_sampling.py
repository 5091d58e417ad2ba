"""The batched stream derivation and the vector draw, pinned to numpy.

``sampling._stream_states`` copies numpy's SeedSequence -> PCG64 seeding
so that a readout derives the streams of a whole batch in one pass; every
test here compares it with the public definition of a stream,
``derive_rng(seed, *tags)``.  A numpy release that changed its seeding
fails ``TestStreamStates`` first.  A read draws all its entries with one
vector binomial call on its stream; ``TestVectorDraw`` pins that call to
the same draws made one at a time.
"""

import numpy as np
import pytest

from noisedeconv import sampling
from noisedeconv.channels import depolarizing_channel
from noisedeconv.characterization import estimate_diagonal_entries, estimate_full_ptm
from noisedeconv.exceptions import ProbabilityOutOfRange
from noisedeconv.sampling import _stream_states, derive_rng, read_batch, sample_marginal
from noisedeconv.simulator import ExperimentConfig, run_experiment

# 2**64 + 3 is a three-word seed: with four tags its entropy runs past the
# four-word pool, as does any seed with a five-tag row.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3]


def pcg_state(rng):
    state = rng.bit_generator.state
    assert state["bit_generator"] == "PCG64" and state["has_uint32"] == 0
    return state["state"]["state"], state["state"]["inc"]


class TestStreamStates:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_equals_derive_rng(self, seed, width):
        rows = np.random.default_rng(width).integers(0, 2**32, size=(20, width))
        rows[0], rows[1] = 0, 2**32 - 1
        rows[2, :] = [0, 2**32 - 1, 1, 2**31, 7][:width]
        got = _stream_states(seed, rows)
        assert got == [pcg_state(derive_rng(seed, *row)) for row in rows]
        assert got == _stream_states(seed, rows.tolist())

    def test_empty_batch(self):
        assert _stream_states(3, []) == []
        assert _stream_states(3, np.zeros((0, 2), dtype=np.int64)) == []

    @pytest.mark.parametrize("tag", [-1, 2**32, 2**64])
    def test_refuses_a_tag_outside_one_word(self, tag):
        with pytest.raises(ValueError):
            _stream_states(0, [(1, 2), (3, tag)])

    def test_refuses_what_derive_rng_refuses(self):
        for seed, tags in [(0, (-1,)), (-1, (2,))]:
            with pytest.raises(ValueError):
                derive_rng(seed, *tags)
            with pytest.raises(ValueError):
                _stream_states(seed, [tags])

    @pytest.mark.parametrize("shots", [1, 1000, 2**40])
    def test_draws_equal_derive_rng_draws(self, shots):
        # each read's entries are drawn in turn from its one stream
        # derive_rng(seed, *tags); reads of one entry, of none and of many mix
        seed = 2**64 + 3
        es = np.linspace(-0.999, 0.999, 41).tolist()
        reads = [(range(1, 42), (4, 1)), ([7], (4, 2)), ([], (5, 0)), ([2, 3], (0, 2**32 - 1))]
        values = [es, [0.3], [], [-0.2, 0.9]]
        expected = []
        for vals, (_, tags) in zip(values, reads):
            rng = derive_rng(seed, *tags)
            expected.append([sample_marginal(e, shots, rng) for e in vals])
        assert read_batch(values, reads, shots, seed) == expected


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
    @pytest.fixture
    def derivations(self, monkeypatch):
        calls = []

        def counting(seed, rows):
            calls.append(len(rows))
            return _stream_states(seed, rows)

        monkeypatch.setattr(sampling, "_stream_states", counting)
        return calls

    def test_full_report_derives_once(self, derivations):
        # one stream per probe
        ch = depolarizing_channel(2, 0.2, 0.4)
        estimate_full_ptm(ch, shots=500, seed=4)
        assert derivations == [15]
        estimate_diagonal_entries(ch, range(1, 16), shots=500, seed=4)
        assert derivations == [15, 15]

    def test_report_is_derived_in_chunks_of_batch_rows(self, derivations, monkeypatch):
        # 15 reads of 15 entries: runs of six reads under 100 entries, and a
        # read larger than BATCH_ROWS is never split
        ch = depolarizing_channel(2, 0.2, 0.4)
        whole = estimate_full_ptm(ch, shots=500, seed=4)
        monkeypatch.setattr(sampling, "BATCH_ROWS", 100)
        assert estimate_full_ptm(ch, shots=500, seed=4) == whole
        monkeypatch.setattr(sampling, "BATCH_ROWS", 10)
        assert estimate_full_ptm(ch, shots=500, seed=4) == whole
        assert derivations == [15, 6, 6, 3] + [1] * 15

    def test_experiment_derives_once_per_grid_point(self, derivations):
        cfg = ExperimentConfig.from_dict({
            "n": 2, "channel": {"family": "dephasing", "n": 2, "p": 0.1, "mu": 0.3},
            "observable": [["ZZ", 1.0], ["XI", 0.5]], "initial_state": "plus",
            "m_max": 5, "shots": 800, "seed": 3,
            "mu_grid": [0.0, 0.6], "strength_grid": [0.05, 0.2],
        })
        run_experiment(cfg)
        assert derivations == [1, 1, 1, 1]

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
        read_batch([[0.2], [0.1, bad]], [([1], (1,)), ([1, 2], (2,))], 100, 0)
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
