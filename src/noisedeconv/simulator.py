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
multiplies it by the transfer matrix Gamma otherwise, and every
expectation is read from c.  A dense matrix is rebuilt only for the
projective sampler.  ``evolve`` is the dense counterpart, one
``apply_channel`` per step.

Records carry the raw and deconvolved estimates together with their
standard errors; ``records_to_csv`` renders them with shortest
round-trip decimals so outputs are byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .channels import STRENGTH_KEYS, Channel, apply_channel, channel_from_config
from .characterization import is_positive_semidefinite
from .deconvolution import deconvolve, plan, propagated_std_error
# Unused here; bound only for the benchmark self-test that counts inversions at every binding.
from .deconvolution import _invert_adjoint  # noqa: F401
from .exceptions import ConfigError, InvalidState, NotPauliDiagonal
from .pauli import Observable, as_index, devectorize, vectorize
from .sampling import (
    SAMPLING_METHODS,
    coefficient_expectations,
    derive_rng,
    sample_marginal,
    sample_pauli_expectation,
)

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
    units = {k: Observable(cfg.n, {k: 1.0}) for k in term_ks}
    d = 2**cfg.n
    projective = cfg.shots > 0 and cfg.sampling == "projective"
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
            c = vectorize(cfg.initial_state) * d  # entry j is Tr[P_j rho]
            for m in range(cfg.m_max + 1):
                if m > 0:
                    c = lam * c if gamma is None else gamma @ c
                plans = [plan(units[k], ch, m) for k in term_ks]
                needed = sorted({j for p in plans for j in p.weights} | set(term_ks))
                values, errors = {}, {}
                if projective:
                    rho = devectorize(c / d)
                    for j in needed:
                        rng = derive_rng(cfg.seed, gi, si, m, j)
                        values[j], errors[j] = sample_pauli_expectation(rho, j, cfg.shots, rng, "projective")
                else:
                    for j, e in zip(needed, coefficient_expectations(c, needed)):
                        values[j], errors[j] = (
                            sample_marginal(e, cfg.shots, derive_rng(cfg.seed, gi, si, m, j))
                            if cfg.shots else (e, 0.0)
                        )
                for k, p in zip(term_ks, plans):
                    records.append(
                        ExpectationRecord(
                            m=m,
                            k=k,
                            value=values[k],
                            std_error=errors[k],
                            shots=cfg.shots,
                            seed=cfg.seed,
                            deconvolved=deconvolve(p, {j: values[j] for j in p.weights}),
                            deconvolved_std_error=propagated_std_error(p, {j: errors[j] for j in p.weights}),
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
