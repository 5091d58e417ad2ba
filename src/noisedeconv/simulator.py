"""Repeated-noise evolution and end-to-end experiments.

``run_experiment`` drives the full pipeline: prepare a state, apply the
channel m times for m = 0..m_max, measure the observable's Pauli
components (exactly, or with a finite shot budget), and attach the
deconvolved values.  The deconvolved <P_k> after m steps comes from
``deconvolution.plan(P_k, channel, m)``, the same plan the CLI uses, with
its ``deconvolve`` and ``propagated_std_error``.  Repetitions apply the
identical channel independently at each step.

The experiment evolves the state as its Pauli coefficient vector
c = d * vectorize(rho), whose entry j is Tr[P_j rho]: one step rescales
it by the channel's diagonal (c -> lambda * c) for a Pauli channel, or
multiplies it by the transfer matrix Gamma otherwise.  The plans for
every m come first; then one ``sampling.read_batch`` per grid point reads
the expectations each m needs from c as it evolves.  When sampled, the
grid point is one read from the one stream (seed, mu index, strength
index), its entries drawn in turn m-major, then j ascending.  This layout
replaced one stream (seed, mu index, strength index, m, j) per entry, so
sampled records differ from those of earlier versions; the CSV schema is
unchanged.

Records carry the raw and deconvolved estimates together with their
standard errors; ``records_to_csv`` renders them with shortest
round-trip decimals so outputs are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .channels import (
    STRENGTH_KEYS,
    _config_float,
    _config_int,
    _config_keys,
    channel_from_config,
)
from .channels import apply_channel  # noqa: F401  (unused; the benchmark self-test counts this binding)
from .characterization import is_positive_semidefinite
from .deconvolution import deconvolve, plan, propagated_std_error
# Unused here; bound only for the benchmark self-test that counts inversions at every binding.
from .deconvolution import _invert_adjoint  # noqa: F401
from .exceptions import ConfigError, InvalidState, NotPauliDiagonal
from .pauli import Observable, check_qubits, is_hermitian, num_qubits, vectorize
from .sampling import check_shots_and_seed, coefficient_expectations, read_batch

__all__ = [
    "ExperimentConfig",
    "ExpectationRecord",
    "run_experiment",
    "records_to_csv",
    "CSV_HEADER",
]

CSV_HEADER = "mu,q,m,k,shots,seed,noisy,noisy_stderr,deconvolved,deconvolved_stderr"

STATE_PRESETS = ("zeros", "plus", "mixed")


def preset_state(name: str, n: int) -> np.ndarray:
    """Named initial states: |0...0>, |+...+>, or the maximally mixed state."""
    d = 2**n
    if name == "zeros":
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
    elif name == "plus":
        rho = np.full((d, d), 1.0 / d, dtype=complex)
    elif name == "mixed":
        rho = np.eye(d, dtype=complex) / d
    else:
        raise ConfigError(f"unknown state preset {name!r}; expected one of {STATE_PRESETS}")
    return rho


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
    ``shots = 0`` selects exact expectation values.
    """

    n: int
    channel: dict
    observable: Observable
    initial_state: np.ndarray
    m_max: int = 40
    shots: int = 0
    seed: int = 0
    mu_grid: list[float] | None = None
    strength_grid: list[float] | None = None

    def __post_init__(self):
        if self.m_max < 0:
            raise ConfigError(f"m_max must be >= 0, got {self.m_max}")
        check_shots_and_seed(self.shots, self.seed)
        if self.observable.n != self.n:
            raise ConfigError(
                f"observable acts on {self.observable.n} qubits, config says n={self.n}"
            )

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentConfig":
        if not isinstance(raw, Mapping):
            raise ConfigError("an experiment config must be a JSON object")
        _config_keys(raw, [f.name for f in fields(cls)] + ["sampling"], "experiment config")
        if raw.get("sampling", "marginal") != "marginal":  # older configs name the one readout
            raise ConfigError(f"sampling must be 'marginal', got {raw['sampling']!r}")
        try:
            n = _config_int(raw["n"], "n")
            check_qubits(n)  # before the 4**n-entry initial state is built
            channel = dict(raw["channel"])
            observable = _observable_from_json(raw["observable"])
            state_spec = raw.get("initial_state", "zeros")
            if isinstance(state_spec, str):
                initial_state = preset_state(state_spec, n)
            else:
                initial_state = _matrix_from_json(state_spec)
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
    if not is_positive_semidefinite(rho):
        raise InvalidState("initial state is not positive semidefinite")


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


def _evolved(c: np.ndarray, lam, gamma, m_max: int) -> Iterator[np.ndarray]:
    """The coefficient vector ``c`` after m = 0..m_max channel uses, one at
    a time: c -> lam * c for a Pauli channel, else c -> gamma @ c."""
    yield c
    for _ in range(m_max):
        c = lam * c if gamma is None else gamma @ c
        yield c


def run_experiment(cfg: ExperimentConfig) -> list[ExpectationRecord]:
    """Execute the configured sweep and return records in canonical order.

    Ordering: mu grid point, then strength grid point, then m ascending,
    then observable term index ascending.  Sampled estimates of a grid
    point draw from the stream derived from (seed, grid indices), so the
    output is reproducible regardless of evaluation order.
    """
    _validate_initial_state(cfg.initial_state, cfg.n)
    mu_values: list[float | None] = list(cfg.mu_grid) if cfg.mu_grid else [None]
    s_values: list[float | None] = list(cfg.strength_grid) if cfg.strength_grid else [None]
    term_ks = sorted(cfg.observable.terms)
    units = {k: Observable(cfg.n, {k: 1.0}) for k in term_ks}
    c = vectorize(cfg.initial_state) * 2**cfg.n  # entry j is Tr[P_j rho]
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
                lam, gamma = ch.lambdas(), None
            except NotPauliDiagonal:
                lam, gamma = None, ch.ptm().matrix
            plans = [[plan(units[k], ch, m) for k in term_ks] for m in range(cfg.m_max + 1)]
            needed = [sorted({j for p in ps for j in p.weights} | set(term_ks)) for ps in plans]
            exact = [e for v, js in zip(_evolved(c, lam, gamma, cfg.m_max), needed)
                     for e in coefficient_expectations(v, js)]
            # one read, its entries m-major, then j ascending
            got = iter(read_batch([exact], [(gi, si)], cfg.shots, cfg.seed)[0])
            for m, (ps, js) in enumerate(zip(plans, needed)):
                step = dict(zip(js, got))  # j -> (value, std_error) after m uses
                for k, p in zip(term_ks, ps):
                    records.append(ExpectationRecord(
                        mu_out, strength_out, m, k, cfg.shots, cfg.seed, *step[k],
                        deconvolve(p, {j: step[j][0] for j in p.weights}),
                        propagated_std_error(p, {j: step[j][1] for j in p.weights})))
    return records


def _fmt(x: float) -> str:
    return repr(float(x))


def records_to_csv(records: Iterable[ExpectationRecord]) -> str:
    """Render records under the fixed experiment CSV schema, one row each."""
    lines = [CSV_HEADER]
    for mu, strength, m, k, shots, seed, value, std_error, deconvolved, deconvolved_std_error in records:
        lines.append(",".join([_fmt(mu), _fmt(strength), str(m), str(k), str(shots), str(seed),
                               _fmt(value), _fmt(std_error), _fmt(deconvolved), _fmt(deconvolved_std_error)]))
    return "\n".join(lines) + "\n"
