"""Shot-sampled Pauli expectation values, read from exact ones.

The exact values are real numbers the caller makes (an experiment's Pauli
coefficients Tr[P_k rho], a probe's expectations); nothing here sees a
state or checks one.

A Pauli string has a +/-1 spectrum, so a finite-shot measurement is a
Bernoulli experiment with success probability (1 + e)/2 where e is the
exact expectation value.  A measurement in the string's full eigenbasis
resolves more outcomes, but each has eigenvalue +1 or -1 and the +1
outcomes' probabilities sum to (1 + e)/2, so its +1 count is
Binomial(shots, (1 + e)/2) too: the marginal draw has that measurement's
distribution and needs only e.
``sample_marginal`` is that draw for one e, the scalar reference that
``read_batch``'s vector draw is pinned to.

Every sampler consumes a numpy Generator; ``derive_rng`` builds
independent deterministic streams from a base seed plus integer tags so
results do not depend on evaluation order.  ``read_batch`` is the one
readout the experiments and the probe estimators share: it takes the
exact expectations it reads and holds the exact/sampled switch and the
stream layout.  Each read is named by its stream tags alone: it derives
its one stream with ``derive_rng(seed, *tags)`` and draws its entries
from it in turn, with one ``Generator.binomial`` call over the read's
(1 + e)/2.  numpy's vector draw equals the same draws made one at a
time, so entry i of a read is the i-th ``sample_marginal`` draw from that
stream; ``tests/test_sampling.py::TestVectorDraw`` pins that.  This layout
replaced one stream (seed, *tags, j) per entry j, which cost a generator
per entry, so sampled outputs differ from earlier versions' while exact
outputs, and the report and CSV formats, are unchanged.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain

import numpy as np

from .exceptions import ConfigError, ProbabilityOutOfRange

__all__ = [
    "MAX_SHOTS",
    "check_shots_and_seed",
    "derive_rng",
    "sample_marginal",
    "read_batch",
]

# numpy's binomial takes counts up to the int64 maximum.
MAX_SHOTS = 2**63 - 1

_RANGE_TOL = 1e-9


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for the stream (seed, tag1, tag2, ...)."""
    entropy = [int(seed), *map(int, tags)]
    if any(t < 0 for t in entropy):
        raise ValueError(f"seed and stream tags must be nonnegative, got {entropy}")
    return np.random.default_rng(entropy)


def check_shots_and_seed(shots: int, seed: int) -> None:
    """The shot budget and base seed every command accepts: 0 <= shots <=
    MAX_SHOTS (0 = exact readout) and seed >= 0, else ConfigError."""
    if not 0 <= shots <= MAX_SHOTS:
        raise ConfigError(f"shots must be in 0..{MAX_SHOTS} (2**63 - 1), got {shots}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def sample_marginal(e: float, shots: int, rng: np.random.Generator) -> tuple[float, float]:
    """Finite-shot estimate of a +/-1-valued observable whose exact
    expectation is ``e``: one binomial draw of the +1 count.

    Returns ``(value, std_error)`` with std_error = sqrt((1 - value^2)/shots).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not abs(e) <= 1.0 + _RANGE_TOL:  # NaN too
        raise ProbabilityOutOfRange(
            f"expectation value {e!r} lies outside [-1, 1]; upstream state is corrupted"
        )
    p_plus = min(1.0, max(0.0, 0.5 * (1.0 + e)))
    value = 2.0 * int(rng.binomial(shots, p_plus)) / shots - 1.0
    return value, math.sqrt(max(0.0, 1.0 - value * value) / shots)


def _plus_probabilities(es: np.ndarray) -> np.ndarray:
    """(1 + e)/2 clipped to [0, 1] for each exact expectation e, after the
    range check of :func:`sample_marginal`, over a whole batch."""
    bad = ~(np.abs(es) <= 1.0 + _RANGE_TOL)
    if bad.any():
        raise ProbabilityOutOfRange(
            f"expectation value {float(es[np.argmax(bad)])!r} lies outside [-1, 1]; upstream state is corrupted"
        )
    return np.clip(0.5 * (1.0 + es), 0.0, 1.0)


def read_batch(values, tags, shots: int, seed: int) -> list[list[tuple[float, float]]]:
    """``(value, std_error)`` of each entry of each read, for each read's
    stream tags in the sequence ``tags``, from the exact expectations at the
    same place in the iterable ``values``: the item of a read is its list of
    exact expectations, one per entry, in order.

    ``shots = 0`` returns the exact values (std_error 0) and derives no
    stream.  Otherwise each read, with tags t, draws its entries, in order,
    from its one stream ``derive_rng(seed, *t)``: one binomial call over the
    read's (1 + e)/2, whose counts equal one :func:`sample_marginal` draw per
    entry made in turn from that stream.  The range check and the count ->
    (value, std_error) arithmetic run once over the whole call.
    """
    if not shots:
        return [[(e, 0.0) for e in exact] for _, exact in zip(tags, values)]
    exact = [e for _, e in zip(tags, values)]
    bounds = [0, *accumulate(map(len, exact))]
    p = _plus_probabilities(np.fromiter(chain.from_iterable(exact), dtype=float, count=bounds[-1]))
    counts = np.empty(len(p), dtype=np.int64)
    spans = list(zip(bounds, bounds[1:]))
    for read_tags, (a, b) in zip(tags, spans):
        counts[a:b] = derive_rng(seed, *read_tags).binomial(shots, p[a:b])
    value = 2.0 * counts / shots - 1.0
    pairs = list(zip(value.tolist(), np.sqrt(np.maximum(0.0, 1.0 - value * value) / shots).tolist()))
    return [pairs[a:b] for a, b in spans]
