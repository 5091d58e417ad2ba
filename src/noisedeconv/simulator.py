"""Repeated-noise evolution and end-to-end experiments.

``run_experiment`` drives the full pipeline: prepare a state, apply the
channel m times for m = 0..m_max, measure the observable's Pauli
components (exactly, or with a finite shot budget), and attach the
deconvolved values, weighted as ``deconvolution.plan`` weights them in the
CLI.  Repetitions apply the identical channel independently at each step.

The state is its real Pauli coefficients c_j = Tr[P_j rho]: for a matrix,
the real part of d * vectorize(rho), checked once for an imaginary residue;
for a preset (a product state kept by name), c_k = prod_q b[a_q] over the
digits of k.  Under a Pauli channel, whose ``lambdas(ks)`` answers for the
r terms, a grid point is a few array operations on them alone:
c_k -> lambda_k * c_k in an (m_max + 1) x r table, one table of weights
lambda_k**(-m) (``deconvolution.rescaling_weights``), and every record and
its error from the two, rounded and refused as ``deconvolve`` and
``propagated_std_error`` do; no array has 4**n entries for a preset on a
Markov-correlated channel.  Otherwise the dense c, a preset's in closed
form too, is multiplied by the transfer matrix Gamma, and one walk over m
takes each term's weights inv(Gamma^T)**m e_k, which may read any entry.
Either way a grid point is one read from the stream (seed, mu index,
strength index) when sampled, its entries drawn m-major, then j
ascending: ``sampling.reader`` reads the table at once, and each m of the
walk in turn, read and deconvolved before the next, so the walk holds no
weights past their m.

Records carry the raw and deconvolved estimates together with their
standard errors; ``records_to_csv`` renders them with shortest
round-trip decimals so outputs are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .channels import (
    MAX_QUBITS_SPARSE,
    STRENGTH_KEYS,
    _config_float,
    _config_int,
    _config_keys,
    _config_object,
    channel_from_config,
)
from .channels import apply_channel  # noqa: F401  (unused; the benchmark self-test counts this binding)
from .characterization import positivity_certificates
from .deconvolution import DeconvolutionPlan, _finite, _pruned_weights, _shared_inverse_adjoint, _warn_amplified
from .deconvolution import deconvolve, propagated_std_error, rescaling_weights
# Unused here; bound only for the benchmark self-test that counts inversions at every binding.
from .deconvolution import _invert_adjoint  # noqa: F401
from .exceptions import ConfigError, InvalidState, NotPauliDiagonal, ResourceCapExceeded
from .pauli import HERMITIAN_TOL, MAX_QUBITS, Observable, check_qubits, is_hermitian, num_qubits, pauli_label, vectorize
from .sampling import check_shots_and_seed, reader

__all__ = [
    "ExperimentConfig",
    "ExpectationRecord",
    "run_experiment",
    "records_to_csv",
    "CSV_HEADER",
]

CSV_HEADER = "mu,q,m,k,shots,seed,noisy,noisy_stderr,deconvolved,deconvolved_stderr"

# Records an experiment may hold: grid points x (m_max + 1) x r.
MAX_RECORDS = 2**20

# Bloch components (b_I, b_X, b_Y, b_Z) of each preset's one-qubit factor.
PRESET_BLOCH = {"zeros": (1.0, 0.0, 0.0, 1.0), "plus": (1.0, 1.0, 0.0, 0.0), "mixed": (1.0, 0.0, 0.0, 0.0)}


def preset_coefficients(name: str, n: int, ks) -> np.ndarray:
    """Tr[P_k rho] of a preset at each flat index k in ``ks``, in O(len(ks) * n)."""
    ks = np.asarray(ks, dtype=np.int64)
    digits = (ks >> 2 * np.arange(n - 1, -1, -1)[:, None]) & 3
    return np.array(PRESET_BLOCH[name])[digits].prod(axis=0)


class ExpectationRecord(NamedTuple):
    """One estimated Pauli expectation inside an experiment: one CSV row,
    its fields in ``CSV_HEADER`` order.

    ``value`` is the noisy estimate of <P_k> after m channel applications,
    ``deconvolved`` the reconstruction of the noiseless <P_k>.  Exact-mode
    records have zero standard errors; ``strength`` is NaN for a family
    without a scalar strength.
    """

    mu: float
    strength: float
    m: int
    k: int
    shots: int
    seed: int
    value: float
    std_error: float
    deconvolved: float
    deconvolved_std_error: float


@dataclass
class ExperimentConfig:
    """Declarative description of a deconvolution experiment.

    ``channel`` is a channel-config mapping (see channel_from_config);
    ``mu_grid`` and ``strength_grid`` sweep the channel's correlation and
    strength parameters, defaulting to the single configured value.
    ``initial_state`` is a preset's name or a matrix; ``shots = 0`` reads exactly.
    """

    n: int
    channel: dict
    observable: Observable
    initial_state: np.ndarray | str
    m_max: int = 40
    shots: int = 0
    seed: int = 0
    mu_grid: list[float] | None = None
    strength_grid: list[float] | None = None

    def __post_init__(self):
        if isinstance(self.initial_state, str) and self.initial_state not in PRESET_BLOCH:
            raise ConfigError(f"unknown state preset {self.initial_state!r}; expected one of {tuple(PRESET_BLOCH)}")
        if self.m_max < 0:
            raise ConfigError(f"m_max must be >= 0, got {self.m_max}")
        check_shots_and_seed(self.shots, self.seed)
        if self.observable.n != self.n:
            raise ConfigError(
                f"observable acts on {self.observable.n} qubits, config says n={self.n}"
            )
        records = len(self.mu_grid or [None]) * len(self.strength_grid or [None]) * (self.m_max + 1) * self.observable.r
        if records > MAX_RECORDS:
            raise ResourceCapExceeded(f"experiment holds {records} records, above the cap of {MAX_RECORDS}")

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentConfig":
        if not isinstance(raw, Mapping):
            raise ConfigError("an experiment config must be a JSON object")
        _config_keys(raw, [f.name for f in fields(cls)] + ["sampling"], "experiment config")
        if raw.get("sampling", "marginal") != "marginal":  # older configs name the one readout
            raise ConfigError(f"sampling must be 'marginal', got {raw['sampling']!r}")
        try:
            n = _config_int(raw["n"], "n")
            initial_state = raw.get("initial_state", "zeros")
            check_qubits(n, MAX_QUBITS_SPARSE if isinstance(initial_state, str) else MAX_QUBITS)
            channel = dict(_config_object(raw["channel"], "channel config"))
            observable = _observable_from_json(raw["observable"])
            if not isinstance(initial_state, str):
                initial_state = _matrix_from_json(initial_state)
            grids = {}
            for key in ("mu_grid", "strength_grid"):
                if raw.get(key) is not None:
                    grids[key] = [_config_float(v, f"{key} entry") for v in raw[key]]
            return cls(
                n=n,
                channel=channel,
                observable=observable,
                initial_state=initial_state,
                m_max=_config_int(raw.get("m_max", 40), "m_max"),
                shots=_config_int(raw.get("shots", 0), "shots"),
                seed=_config_int(raw.get("seed", 0), "seed"),
                **grids,
            )
        except KeyError as exc:
            raise ConfigError(f"experiment config lacks key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config value: {exc}") from None


def _observable_from_json(spec) -> Observable:
    """An observable from its text block or its list of [pauli-string,
    coefficient] pairs; anything else raises ConfigError naming it."""
    if isinstance(spec, str):
        return Observable.from_text(spec)
    form = "a list of [pauli-string, coefficient] pairs or an observable-format text block"
    if not isinstance(spec, (list, tuple)):
        raise ConfigError(f"observable must be {form}, got {spec!r}")
    for entry in spec:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigError(f"observable entry {entry!r} is not a [pauli-string, coefficient] pair")
    return Observable.from_pairs([(str(l), _config_float(c, "observable coefficient")) for l, c in spec])


def _matrix_from_json(entries) -> np.ndarray:
    """Dense matrix from nested lists; entries are finite numbers or [re, im]
    pairs (JSON's NaN and Infinity raise ConfigError naming the entry)."""
    def scalar(x):
        if isinstance(x, (list, tuple)):
            if len(x) != 2:
                raise ConfigError(f"matrix entry {x!r} is not a number or [re, im] pair")
            return complex(_config_float(x[0], "matrix entry"), _config_float(x[1], "matrix entry"))
        return complex(_config_float(x, "matrix entry"), 0.0)

    try:
        rho = np.array([[scalar(x) for x in row] for row in entries], dtype=complex)
        num_qubits(rho)  # square, 2**n x 2**n
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad matrix: {exc}") from None
    if not np.isfinite(rho).all():
        i, j = np.argwhere(~np.isfinite(rho))[0]
        raise ConfigError(f"matrix entry ({i}, {j}) is {entries[i][j]!r}; entries must be finite")
    return rho


def _validate_initial_state(rho: np.ndarray, n: int) -> None:
    if rho.shape != (2**n, 2**n):
        raise ConfigError(f"initial state shape {rho.shape} does not match n={n}")
    if not is_hermitian(rho):
        raise InvalidState("initial state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-9:
        raise InvalidState(f"initial state trace is {complex(np.trace(rho))!r}, expected 1")
    if not positivity_certificates([rho])[0][1]:
        raise InvalidState("initial state is not positive semidefinite")


def _matrix_coefficients(rho: np.ndarray, n: int) -> np.ndarray:
    """Tr[P_j rho] for every j: the real part of d * vectorize(rho), once no
    term has an imaginary residue beyond ``_residue_bound(n)`` (the first is
    named)."""
    c = vectorize(rho) * 2**n
    bad = np.flatnonzero(np.abs(c.imag) > _residue_bound(n))
    if bad.size:
        raise InvalidState(f"expectation of {pauli_label(int(bad[0]), n)} has imaginary residue {c.imag[bad[0]]:.3e}")
    return c.real


def _residue_bound(n: int) -> float:
    """The largest |Im Tr[P_j rho]| a validated state on n qubits can give.
    ``is_hermitian`` bounds each entry of rho - rho^dag by HERMITIAN_TOL, and
    Im Tr[P_j rho] = Tr[P_j (rho - rho^dag)] / 2i sums d of them, so it is at
    most d * HERMITIAN_TOL / 2.  The n per-qubit steps of ``vectorize`` each
    round a sum of two exact products, which adds at most n * eps * d, as a
    positive semidefinite state of unit trace has no entry above 1."""
    return 2**n * (HERMITIAN_TOL / 2 + n * np.finfo(float).eps)


def _grid_channel(base: dict, mu: float | None, strength: float | None) -> dict:
    cfg = dict(base)
    if mu is not None:
        cfg["mu"] = mu
    if strength is not None:
        key = STRENGTH_KEYS.get(cfg.get("family"))
        if key is None:
            raise ConfigError(
                f"family {cfg.get('family')!r} has no scalar strength to sweep"
            )
        cfg[key] = strength
    return cfg


def _diagonal_rows(cfg: ExperimentConfig, lam, c0: np.ndarray, ks: list[int], tags) -> list[tuple]:
    """(value, std_error, deconvolved, deconvolved_std_error) of a Pauli channel's records, m-major,
    then k ascending: c_k(m) * lambda_k**(-m) from (m_max + 1) x r tables of the weights and c_k(m)."""
    weights = np.array(rescaling_weights(dict.fromkeys(ks, 1.0), lam, range(cfg.m_max + 1))).ravel()
    lam_ks = np.array([lam[k] for k in ks], dtype=float)
    table = np.multiply.accumulate(np.vstack([c0, np.broadcast_to(lam_ks, (cfg.m_max, len(ks)))]))
    got = reader(cfg.shots, cfg.seed, *tags)(table.ravel())
    value, std_error = np.array(got).reshape(-1, 2).T
    with np.errstate(over="ignore"):
        deconvolved, error = 0.0 + weights * value, np.sqrt(np.square(weights * std_error))
    bad = np.flatnonzero(~(np.isfinite(deconvolved) & np.isfinite(error)))
    if bad.size:  # the first bad record, refused as deconvolve and propagated_std_error refuse it
        _finite(deconvolved[bad[0]], "deconvolved value")
        _finite(error[bad[0]], "propagated standard error")
    return [(*ve, d, e) for ve, d, e in zip(got, deconvolved.tolist(), error.tolist())]


def _general_rows(cfg: ExperimentConfig, ch, c: np.ndarray, ks: list[int], tags) -> list[tuple]:
    """The same rows off the diagonal path, from one walk over m: the state and each term's weights
    inv(Gamma^T)**m e_k, as ``plan_general`` makes them, take one product per step, and each m reads
    and deconvolves the entries it needs before the next; the first amplified m alone warns."""
    if not ks:  # no term plans nothing, so a singular channel is not refused
        return []
    gamma, inv = ch.ptm().matrix, _shared_inverse_adjoint(ch.ptm())
    units = [Observable(cfg.n, {k: 1.0}) for k in ks]
    read = reader(cfg.shots, cfg.seed, *tags)  # m-major, then j ascending
    v, vectors, warned, rows = c, [u.coefficient_vector() for u in units], False, []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by the prune
        for m in range(cfg.m_max + 1):
            if m:
                v, vectors = gamma @ v, [inv @ w for w in vectors]
            ws = [_pruned_weights(w, m) for w in vectors]
            warned = warned or any(_warn_amplified(w, 1.0, m) for w in vectors)
            js = sorted(set(ks).union(*ws))
            step = dict(zip(js, read(v[js])))  # j -> (value, std_error) after m uses
            plans = [DeconvolutionPlan(u, inv.size, w) for u, w in zip(units, ws)]
            rows += [(*step[k], deconvolve(p, {j: step[j][0] for j in p.weights}),
                      propagated_std_error(p, {j: step[j][1] for j in p.weights})) for k, p in zip(ks, plans)]
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[ExpectationRecord]:
    """Execute the configured sweep and return records in canonical order.

    Ordering: mu grid point, then strength grid point, then m ascending,
    then observable term index ascending.  Sampled estimates of a grid
    point draw from the stream derived from (seed, grid indices), so the
    output is reproducible regardless of evaluation order.
    """
    mu_values: list[float | None] = list(cfg.mu_grid) if cfg.mu_grid else [None]
    s_values: list[float | None] = list(cfg.strength_grid) if cfg.strength_grid else [None]
    term_ks = sorted(cfg.observable.terms)
    if isinstance(cfg.initial_state, str):
        c, c0 = None, preset_coefficients(cfg.initial_state, cfg.n, term_ks)
    else:
        _validate_initial_state(cfg.initial_state, cfg.n)
        c = _matrix_coefficients(cfg.initial_state, cfg.n)
        c0 = c[term_ks]
    records: list[ExpectationRecord] = []
    for gi, mu in enumerate(mu_values):
        for si, strength in enumerate(s_values):
            ch_cfg = _grid_channel(cfg.channel, mu, strength)
            ch = channel_from_config(ch_cfg)
            if ch.n != cfg.n:
                raise ConfigError(f"channel acts on {ch.n} qubits, config says n={cfg.n}")
            mu_out = float(ch_cfg.get("mu", 0.0))
            strength_key = STRENGTH_KEYS.get(ch_cfg.get("family"))
            strength_out = float(ch_cfg[strength_key]) if strength_key and strength_key in ch_cfg else float("nan")
            try:
                lam = ch.lambdas(term_ks)
            except NotPauliDiagonal:
                if c is None:  # a preset's every coefficient, for the transfer matrix
                    c = preset_coefficients(cfg.initial_state, cfg.n, range(4**cfg.n))
                rows = _general_rows(cfg, ch, c, term_ks, (gi, si))
            else:
                rows = _diagonal_rows(cfg, lam, c0, term_ks, (gi, si))
            records += [ExpectationRecord(mu_out, strength_out, m, k, cfg.shots, cfg.seed, *row)
                        for (m, k), row in zip(product(range(cfg.m_max + 1), term_ks), rows)]
    return records


def _fmt(x: float) -> str:
    return repr(float(x))


def records_to_csv(records: Iterable[ExpectationRecord]) -> str:
    """Render records under the fixed experiment CSV schema, one row each.  The fields
    around k are formatted again when one is not the very object of the row before."""
    lines = [CSV_HEADER]
    last = (None,) * 5
    for mu, strength, m, k, shots, seed, value, std_error, deconvolved, deconvolved_std_error in records:
        if not (mu is last[0] and strength is last[1] and m is last[2] and shots is last[3] and seed is last[4]):
            last = (mu, strength, m, shots, seed)
            head, tail = f"{_fmt(mu)},{_fmt(strength)},{m!s},", f",{shots!s},{seed!s},"
        lines.append(f"{head}{k!s}{tail}{_fmt(value)},{_fmt(std_error)},{_fmt(deconvolved)},{_fmt(deconvolved_std_error)}")
    return "\n".join(lines) + "\n"
