"""Density-matrix evolution under repeated noise and end-to-end experiments.

``run_experiment`` drives the full pipeline: prepare a state, apply the
channel m times for m = 0..m_max, measure the observable's Pauli
components (exactly, or with a finite shot budget), and attach the
deconvolved values obtained by rescaling with the m-fold inverse map.
Repetitions apply the identical channel independently at each step.

Records carry the raw and deconvolved estimates together with their
standard errors; ``records_to_csv`` renders them with shortest
round-trip decimals so outputs are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .channels import STRENGTH_KEYS, Channel, apply_channel, channel_from_config
from .characterization import is_positive_semidefinite
from .deconvolution import CONDITION_WARN, _invert_adjoint, _pruned_weights, reconstruction_factor
from .exceptions import ConfigError, InvalidState, NotPauliDiagonal
from .pauli import Observable, as_index
from .sampling import SAMPLING_METHODS, derive_rng, exact_pauli_expectation, sample_pauli_expectation

__all__ = [
    "ExperimentConfig",
    "ExpectationRecord",
    "evolve",
    "expectation_sampled",
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


def evolve(rho: np.ndarray, ch: Channel, m: int) -> np.ndarray:
    """Apply the channel m times; m = 0 returns the state unchanged."""
    if m < 0:
        raise ValueError(f"repetition count must be >= 0, got {m}")
    out = np.asarray(rho, dtype=complex)
    for _ in range(m):
        out = apply_channel(ch, out)
    return out


@dataclass(frozen=True)
class ExpectationRecord:
    """One estimated Pauli expectation inside an experiment.

    ``value`` is the noisy estimate of <P_k> after m channel applications,
    ``deconvolved`` the reconstruction of the noiseless <P_k>.  Exact-mode
    records have zero standard errors.
    """

    m: int
    k: int
    value: float
    std_error: float
    shots: int
    seed: int
    deconvolved: float | None = None
    deconvolved_std_error: float | None = None
    mu: float | None = None
    strength: float | None = None


def expectation_sampled(rho: np.ndarray, k, shots: int, seed: int,
                        method: str = "marginal") -> ExpectationRecord:
    """Finite-shot estimate of <P_k> packaged as a record."""
    idx = as_index(k, int(np.log2(rho.shape[0])))
    value, err = sample_pauli_expectation(rho, idx, shots, derive_rng(seed, idx.k), method)
    return ExpectationRecord(m=0, k=idx.k, value=value, std_error=err, shots=shots, seed=seed)


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
    sampling: str = "marginal"

    def __post_init__(self):
        if self.m_max < 0:
            raise ConfigError(f"m_max must be >= 0, got {self.m_max}")
        if self.shots < 0:
            raise ConfigError(f"shots must be >= 0, got {self.shots}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.sampling not in SAMPLING_METHODS:
            raise ConfigError(
                f"unknown sampling method {self.sampling!r}; expected one of {SAMPLING_METHODS}"
            )
        if self.observable.n != self.n:
            raise ConfigError(
                f"observable acts on {self.observable.n} qubits, config says n={self.n}"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            n = int(raw["n"])
            channel = dict(raw["channel"])
            obs_spec = raw["observable"]
            if isinstance(obs_spec, str):
                observable = Observable.from_text(obs_spec)
            else:
                observable = Observable.from_pairs([(str(l), float(c)) for l, c in obs_spec])
            state_spec = raw.get("initial_state", "zeros")
            if isinstance(state_spec, str):
                initial_state = preset_state(state_spec, n)
            else:
                initial_state = _matrix_from_json(state_spec)
            grids = {}
            for key in ("mu_grid", "strength_grid"):
                if raw.get(key) is not None:
                    grids[key] = [float(v) for v in raw[key]]
            return cls(
                n=n,
                channel=channel,
                observable=observable,
                initial_state=initial_state,
                m_max=int(raw.get("m_max", 40)),
                shots=int(raw.get("shots", 0)),
                seed=int(raw.get("seed", 0)),
                sampling=str(raw.get("sampling", "marginal")),
                **grids,
            )
        except KeyError as exc:
            raise ConfigError(f"experiment config lacks key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config value: {exc}") from None


def _matrix_from_json(entries) -> np.ndarray:
    """Dense matrix from nested lists; entries are numbers or [re, im] pairs."""
    def scalar(x):
        if isinstance(x, (list, tuple)):
            if len(x) != 2:
                raise ConfigError(f"matrix entry {x!r} is not a number or [re, im] pair")
            return complex(float(x[0]), float(x[1]))
        return complex(float(x), 0.0)

    try:
        return np.array([[scalar(x) for x in row] for row in entries], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad matrix entries: {exc}") from None


def _validate_initial_state(rho: np.ndarray, n: int) -> None:
    if rho.shape != (2**n, 2**n):
        raise ConfigError(f"initial state shape {rho.shape} does not match n={n}")
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


def _deconvolution_weights(ch: Channel, term_ks: Sequence[int], m_max: int) -> list[dict[int, dict[int, float]]]:
    """Per-m weight tables: weights[m][k] maps measurement index j to the
    coefficient reconstructing the noiseless <P_k>."""
    terms = sorted(term_ks)
    try:
        ch.lambdas()
    except NotPauliDiagonal:
        pass
    else:
        return [{k: {k: reconstruction_factor(ch, k, m)} for k in terms} for m in range(m_max + 1)]
    inv = _invert_adjoint(ch.ptm().matrix, cond_warn=CONDITION_WARN)
    tables: list[dict[int, dict[int, float]]] = []
    power = np.eye(inv.shape[0])
    for m in range(m_max + 1):
        tables.append({k: _pruned_weights(power[:, k]) for k in terms})
        power = power @ inv
    return tables


def run_experiment(cfg: ExperimentConfig) -> list[ExpectationRecord]:
    """Execute the configured sweep and return records in canonical order.

    Ordering: mu grid point, then strength grid point, then m ascending,
    then observable term index ascending.  Sampled estimates draw from
    streams derived from (seed, grid indices, m, j), so the output is
    reproducible regardless of evaluation order.
    """
    _validate_initial_state(cfg.initial_state, cfg.n)
    mu_values: list[float | None] = list(cfg.mu_grid) if cfg.mu_grid else [None]
    s_values: list[float | None] = list(cfg.strength_grid) if cfg.strength_grid else [None]
    term_ks = sorted(cfg.observable.terms)
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
            weight_tables = _deconvolution_weights(ch, term_ks, cfg.m_max)
            rho = np.asarray(cfg.initial_state, dtype=complex)
            for m in range(cfg.m_max + 1):
                if m > 0:
                    rho = apply_channel(ch, rho)
                table = weight_tables[m]
                needed = sorted({j for k in term_ks for j in table[k]} | set(term_ks))
                measured: dict[int, tuple[float, float]] = {}
                for j in needed:
                    if cfg.shots == 0:
                        measured[j] = (exact_pauli_expectation(rho, j), 0.0)
                    else:
                        rng = derive_rng(cfg.seed, gi, si, m, j)
                        measured[j] = sample_pauli_expectation(
                            rho, j, cfg.shots, rng, cfg.sampling
                        )
                for k in term_ks:
                    noisy, err = measured[k]
                    dec = sum(w * measured[j][0] for j, w in sorted(table[k].items()))
                    dec_err = float(
                        np.sqrt(sum((w * measured[j][1]) ** 2 for j, w in table[k].items()))
                    )
                    records.append(
                        ExpectationRecord(
                            m=m,
                            k=k,
                            value=noisy,
                            std_error=err,
                            shots=cfg.shots,
                            seed=cfg.seed,
                            deconvolved=float(dec),
                            deconvolved_std_error=dec_err,
                            mu=mu_out,
                            strength=strength_out,
                        )
                    )
    return records


def _fmt(x: float) -> str:
    return repr(float(x))


def records_to_csv(records: Iterable[ExpectationRecord]) -> str:
    """Render records under the fixed experiment CSV schema."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    _fmt(r.mu if r.mu is not None else float("nan")),
                    _fmt(r.strength if r.strength is not None else float("nan")),
                    str(r.m),
                    str(r.k),
                    str(r.shots),
                    str(r.seed),
                    _fmt(r.value),
                    _fmt(r.std_error),
                    _fmt(r.deconvolved if r.deconvolved is not None else float("nan")),
                    _fmt(r.deconvolved_std_error if r.deconvolved_std_error is not None else float("nan")),
                ]
            )
        )
    return "\n".join(lines) + "\n"
