"""Exact and shot-sampled Pauli expectation values.

A Pauli string has a +/-1 spectrum, so a finite-shot measurement is a
Bernoulli experiment with success probability (1 + e)/2 where e is the
exact expectation value.  A measurement in the string's full eigenbasis
resolves more outcomes, but each has eigenvalue +1 or -1 and the +1
outcomes' probabilities sum to (1 + e)/2, so its +1 count is
Binomial(shots, (1 + e)/2) too: the marginal draw has that measurement's
distribution and needs only e.
``sample_marginal`` is the one copy of that draw, and
``sample_pauli_expectation`` its dense reference, which reads e from a
density matrix.

Every sampler consumes a numpy Generator; ``derive_rng`` builds
independent deterministic streams from a base seed plus integer tags so
results do not depend on evaluation order.  ``read_batch`` is the one
readout the experiments and the probe estimators share: it takes the
exact expectations it reads and holds the exact/sampled switch and the
stream layout.  Each read ``(ks, tags)`` has one stream (seed, *tags)
and draws its entries from it in turn, with one ``Generator.binomial``
call over the read's (1 + e)/2 (a scalar call for a one-entry read).
numpy's vector draw equals the same draws made one at a time, so entry
i of a read is the i-th ``sample_marginal`` draw from ``derive_rng(seed,
*tags)``; ``tests/test_sampling.py::TestVectorDraw`` pins that.  This
layout replaced one stream (seed, *tags, j) per entry j, which cost a
generator reset per entry, so sampled outputs differ from earlier
versions' while exact outputs, and the report and CSV formats, are
unchanged.

A sampled batch derives the streams of all its reads at once.  Building
a generator per stream (``SeedSequence`` hashing plus ``PCG64`` seeding)
costs many times a binomial draw, so ``_stream_states`` copies that
seeding in numpy over every row of the batch and each read resets one
reused ``PCG64`` to its row's state.  The streams are those of
``derive_rng``; ``tests/test_sampling.py::TestStreamStates`` pins the
copy to it, so a numpy release that changed its seeding fails there
first.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain, islice
from typing import Iterator

import numpy as np

from .exceptions import ConfigError, InvalidState, ProbabilityOutOfRange
from .pauli import as_index, num_qubits, pauli_element

__all__ = [
    "MAX_SHOTS",
    "check_shots_and_seed",
    "derive_rng",
    "exact_pauli_expectation",
    "coefficient_expectations",
    "sample_marginal",
    "sample_pauli_expectation",
    "read_batch",
]

# numpy's binomial takes counts up to the int64 maximum.
MAX_SHOTS = 2**63 - 1

# Most stream states one ``_stream_states`` call derives and holds.
BATCH_ROWS = 4096

_IMAG_TOL = 1e-10
_RANGE_TOL = 1e-9

# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding
# constants, from numpy/random/bit_generator.pyx and pcg64.h.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_U1, _U32, _U63 = np.uint64(1), np.uint64(32), np.uint64(63)


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic generator for the stream (seed, tag1, tag2, ...)."""
    entropy = [int(seed), *map(int, tags)]
    if any(t < 0 for t in entropy):
        raise ValueError(f"seed and stream tags must be nonnegative, got {entropy}")
    return np.random.default_rng(entropy)


def _words(x: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from one entropy int."""
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """(xor, multiplier) of each of ``calls`` successive SeedSequence hash
    steps from the hash constant ``init``: the sequence is data-independent."""
    out, hc = np.empty((calls, 2, 1), dtype=np.uint32), init
    for i in range(calls):
        out[i, 0], hc = hc, hc * mult & _MASK32
        out[i, 1] = hc
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _mix_constants(length: int) -> np.ndarray:
    """The hash steps SeedSequence's pool mixing takes on an entropy of
    ``length`` words: four to fill the pool, twelve to cross-mix it, four
    per word past the fourth."""
    return _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(0, length - _POOL))


# generate_state(4, uint64) emits eight words, cycling the pool twice.
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)
_STATE_CYCLE = [i % _POOL for i in range(8)]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    value = (value ^ consts[:, 0]) * consts[:, 1]
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _SHIFT)


def _stream_states(seed: int, rows) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that ``derive_rng(seed, *row)`` builds, for
    every row of tags in ``rows`` (N rows of t tags), in one numpy pass.

    A copy of numpy's seeding: SeedSequence hashes the entropy words (the
    seed's words, then one word per tag) into a pool of four and draws
    eight words from it, read as uint64 (s_hi, s_lo, seq_hi, seq_lo); PCG64
    then sets inc = 2 * seq + 1 and state = ((inc + s) * M + inc) mod 2**128.
    Every tag must lie in 0..2**32 - 1 (ValueError otherwise), so that it
    is one entropy word, as in ``derive_rng``."""
    if len(rows) == 0:
        return []
    try:
        tags = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        raise ValueError("stream tags must lie in 0..2**32 - 1") from None
    if tags.ndim != 2 or tags.min() < 0 or tags.max() > _MASK32:
        raise ValueError(f"stream tags must be N rows of t tags in 0..2**32 - 1, got shape "
                         f"{tags.shape} in {tags.min()}..{tags.max()}")
    if seed < 0:
        raise ValueError(f"seed and stream tags must be nonnegative, got seed {seed}")
    seed_words = _words(int(seed))
    entropy = np.empty((len(seed_words) + tags.shape[1], len(tags)), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words):] = tags.T
    consts = _mix_constants(len(entropy))
    # SeedSequence.mix_entropy: hash the first four words (zeros past the
    # end), cross-mix the pool, then fold in each word past the fourth.
    pool = np.zeros((_POOL, len(tags)), dtype=np.uint32)
    pool[:min(_POOL, len(entropy))] = entropy[:_POOL]
    pool = _hashmix(pool, consts[:_POOL])
    c = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[c:c + _POOL - 1]))
        c += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, consts[c:c + _POOL]))
        c += _POOL
    w = _hashmix(pool[_STATE_CYCLE], _STATE_CONSTANTS).astype(np.uint64)
    s_hi, s_lo, seq_hi, seq_lo = (w[1::2] << _U32) | w[0::2]
    inc_hi, inc_lo = (seq_hi << _U1) | (seq_lo >> _U63), (seq_lo << _U1) | _U1
    lo = s_lo + inc_lo
    hi = s_hi + inc_hi + (lo < inc_lo)  # carry of the low half
    incs = [(ih << 64) | il for ih, il in zip(inc_hi.tolist(), inc_lo.tolist())]
    return [(((h << 64 | l) * _PCG_MULT + inc) & _MASK128, inc)
            for h, l, inc in zip(hi.tolist(), lo.tolist(), incs)]


def check_shots_and_seed(shots: int, seed: int) -> None:
    """The shot budget and base seed every command accepts: 0 <= shots <=
    MAX_SHOTS (0 = exact readout) and seed >= 0, else ConfigError."""
    if not 0 <= shots <= MAX_SHOTS:
        raise ConfigError(f"shots must be in 0..{MAX_SHOTS} (2**63 - 1), got {shots}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def _check_real(val: complex, n: int, k: int) -> None:
    if abs(val.imag) >= _IMAG_TOL:
        raise InvalidState(
            f"expectation of {as_index(k, n).label} has imaginary residue {val.imag:.3e}"
        )


def exact_pauli_expectation(rho: np.ndarray, k) -> float:
    """Tr[P_k rho] for a Hermitian unit-trace rho."""
    rho = np.asarray(rho, dtype=complex)
    idx = as_index(k, num_qubits(rho))
    val = complex(np.einsum("ij,ji->", pauli_element(idx), rho))
    _check_real(val, idx.n, idx.k)
    return float(val.real)


def coefficient_expectations(coeffs: np.ndarray, ks) -> list[float]:
    """Tr[P_k rho] for each k in ``ks``, read from rho's scaled Pauli
    coefficient vector ``coeffs = d * vectorize(rho)`` (entry j is
    Tr[P_j rho]); every entry read gets the imaginary-residue check."""
    ks = np.asarray(ks, dtype=int)
    vals = coeffs[ks]
    bad = np.abs(vals.imag) >= _IMAG_TOL
    if bad.any():
        i = int(np.argmax(bad))
        _check_real(complex(vals[i]), (coeffs.size.bit_length() - 1) // 2, int(ks[i]))
    return vals.real.tolist()


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


def sample_pauli_expectation(rho: np.ndarray, k, shots: int, rng: np.random.Generator) -> tuple[float, float]:
    """Finite-shot estimate of Tr[P_k rho] for a dense rho, the reference for
    the readout: :func:`sample_marginal` of :func:`exact_pauli_expectation`."""
    return sample_marginal(exact_pauli_expectation(rho, k), shots, rng)


def _plus_probabilities(es: np.ndarray) -> np.ndarray:
    """(1 + e)/2 clipped to [0, 1] for each exact expectation e, after the
    range check of :func:`sample_marginal`, over a whole batch."""
    bad = ~(np.abs(es) <= 1.0 + _RANGE_TOL)
    if bad.any():
        raise ProbabilityOutOfRange(
            f"expectation value {float(es[np.argmax(bad)])!r} lies outside [-1, 1]; upstream state is corrupted"
        )
    return np.clip(0.5 * (1.0 + es), 0.0, 1.0)


def _chunks(reads) -> Iterator[list]:
    """The ``(ks, tags)`` of ``reads`` in order, in runs of at most
    BATCH_ROWS entries; a read is never split, so a larger one is a run of
    its own."""
    chunk, size = [], 0
    for read in reads:
        if chunk and size + len(read[0]) > BATCH_ROWS:
            yield chunk
            chunk, size = [], 0
        chunk.append(read)
        size += len(read[0])
    if chunk:
        yield chunk


def read_batch(values, reads, shots: int, seed: int) -> list[list[tuple[float, float]]]:
    """``(value, std_error)`` of each entry j in ks, for each ``(ks, tags)``
    in the sequence ``reads``, from the exact expectations at the same place
    in the iterable ``values`` (consumed one item at a time): the item of a
    read is a list of floats, the exact expectation of each j in its ks in
    order.  Every ``tags`` has the same length.

    ``shots = 0`` returns the exact values (std_error 0) and derives no
    stream.  Otherwise each read draws its entries, in order, from its one
    stream ``derive_rng(seed, *tags)``: one binomial call over the read's
    (1 + e)/2, whose counts equal one :func:`sample_marginal` draw per entry
    made in turn from that stream.  Reads go in runs of at most BATCH_ROWS
    entries: a run derives its streams in one ``_stream_states`` call,
    resets one reused ``PCG64`` once per read, and does the range check and
    the count -> (value, std_error) arithmetic over the whole run.
    """
    if not shots:
        return [[(e, 0.0) for e in exact] for _, exact in zip(reads, values)]
    values = iter(values)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    out: list[list[tuple[float, float]]] = []
    for chunk in _chunks(reads):
        exact = list(islice(values, len(chunk)))
        ends = list(accumulate(map(len, exact)))
        p = _plus_probabilities(np.fromiter(chain.from_iterable(exact), dtype=float, count=ends[-1]))
        counts = np.empty(len(p), dtype=np.int64)
        starts = [0, *ends[:-1]]
        for (state, inc), a, b in zip(_stream_states(seed, [tags for _, tags in chunk]), starts, ends):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            if b - a == 1:  # a scalar draw costs a fraction of an array call's set-up
                counts[a] = rng.binomial(shots, p[a])
            elif b > a:
                counts[a:b] = rng.binomial(shots, p[a:b])
        value = 2.0 * counts / shots - 1.0
        pairs = list(zip(value.tolist(), np.sqrt(np.maximum(0.0, 1.0 - value * value) / shots).tolist()))
        out.extend(pairs[a:b] for a, b in zip(starts, ends))
    return out
