"""The benchmark's four workloads: inputs, fixed work per pass, and gates.

Each workload builds all of its inputs from the workload seed and writes
them into its work directory; the program receives only those files (and
the shipped experiment configs).  Package functions are looked up on
the package at call time, so the traced run sees the calls.  One pass is a fixed list of operations
run one after another (closed loop).  An operation returns a result and
the bytes that must repeat exactly on every pass; ``check`` compares the
results of one pass with reference values computed in ``reference``.

Gates hold for every seed: sampled values are tested against a Bernstein
bound on the true binomial readout whose false-alarm probability,
summed over every draw tested in a pass, is at most ``FALSE_ALARM``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import noisedeconv as nd
import noisedeconv.cli  # noqa: F401  (binds nd.cli)
import reference as ref

# Allowed probability, per pass, that a correct program fails a sampled gate.
FALSE_ALARM = 1e-6
EXACT_TOL = 1e-9


@dataclass
class Op:
    """One operation of a pass.

    ``call(ctx)`` does the work and returns its result; ``ctx`` carries
    results between operations of one pass.  ``output(result)`` gives the
    bytes that must be identical on every pass.  ``timed`` operations feed
    the per-operation latency figures.
    """

    name: str
    call: Callable[[dict], object]
    output: Callable[[object], bytes]
    ok: Callable[[object], bool] = lambda result: True
    timed: bool = True


def cli_op(name: str, argv: list[str], out: Path, timed: bool = True) -> Op:
    """An in-process ``noisedeconv`` command writing its result to ``out``."""
    argv = [*argv, "--out", str(out)]

    def call(ctx):
        try:
            return nd.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code

    def output(rc):
        body = out.read_bytes() if rc == 0 and out.exists() else b""
        return f"rc {rc}\n".encode() + body

    return Op(name, call, output, ok=lambda rc: rc == 0, timed=timed)


def write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def random_terms(rng: np.random.Generator, n: int, r: int) -> dict[int, float]:
    """r distinct non-identity Pauli strings with coefficients in [-1, 1]."""
    ks = rng.choice(np.arange(1, 4**n), size=r, replace=False)
    return {int(k): float(np.round(rng.choice((-1, 1)) * rng.uniform(0.1, 1.0), 6)) for k in ks}


def near_identity_marginal(rng: np.random.Generator, lo: float, hi: float) -> list[float]:
    """Single-qubit Pauli error distribution with P(I) drawn from [lo, hi]."""
    errors = rng.dirichlet([1.0, 1.0, 1.0]) * (1.0 - rng.uniform(lo, hi))
    return [1.0 - float(errors.sum()), *(float(e) for e in errors)]


def observable_text(terms: dict[int, float], n: int) -> str:
    return "".join(f"{ref.label(k, n)} {c!r}\n" for k, c in sorted(terms.items()))


def random_mixed_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """A full-rank state: 0.8 |psi><psi| + 0.2 I/d with psi random."""
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return 0.8 * np.outer(psi, psi.conj()) + 0.2 * np.eye(d) / d


def parse_fields(text: str) -> dict[str, str]:
    """``key value`` lines, as the CLI prints a deconvolution."""
    return dict(line.split(" ", 1) for line in text.splitlines() if line)


def body(output: bytes) -> str:
    """Program output without the leading exit-code line."""
    return output.decode().split("\n", 1)[1]


class Workload:
    name = ""
    why = ""
    # Transfer-matrix entries with a nonzero true value among those a pass
    # estimates (characterization.useful_entry_ratio).
    useful_entries = 0

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.ops: list[Op] = []

    def check(self, results: list, outputs: list) -> list[str | None]:
        """Per operation: None when its result passes every gate, else why."""
        raise NotImplementedError


def _gate(fails: list[str], cond: bool, msg: str) -> None:
    if not cond:
        fails.append(msg)


# ---------------------------------------------------------------- experiments


@dataclass
class _Experiment:
    cfg: dict
    seed: int
    grid: list[tuple[float, float]]


class Experiments(Workload):
    name = "experiments"
    why = ("the Fig. 2 user path: shipped experiment configs plus a seeded n=5 sweep, "
           "time in channel evolution, sampling and the simulator")
    SHIPPED = ("fig2a_mu_sweep", "fig2b_deconvolution", "fig2b_exact", "amp_damp_zz")
    # Sampled shipped configs run once per derived seed.
    REPEATS = {"fig2a_mu_sweep": 1, "fig2b_deconvolution": 3}

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.runs: list[_Experiment] = []
        paths = []
        for name in self.SHIPPED:
            path = root / "configs" / "experiments" / f"{name}.json"
            cfg = json.loads(path.read_text())
            for _ in range(self.REPEATS.get(name, 1)):
                run_seed = int(self.rng.integers(0, 2**31)) if cfg.get("shots", 0) else cfg.get("seed", 0)
                self.runs.append(_Experiment(cfg, run_seed, self._grid(cfg)))
                paths.append((name, path))
        sweep = self._sweep_config()
        self.runs.append(_Experiment(sweep, sweep["seed"], self._grid(sweep)))
        paths.append(("sweep_n5", write(workdir / "sweep_n5.json", json.dumps(sweep))))
        for i, (run, (name, path)) in enumerate(zip(self.runs, paths)):
            argv = ["experiment", "--config", str(path)]
            if run.cfg.get("shots", 0):
                argv += ["--seed", str(run.seed)]
            self.ops.append(cli_op(f"{name}#{i}", argv, workdir / "out" / f"{i}.csv"))
        draws = sum(len(r.grid) * (r.cfg["m_max"] + 1) * len(r.cfg["observable"])
                    for r in self.runs if r.cfg.get("shots", 0))
        self.delta = FALSE_ALARM / draws

    def _sweep_config(self) -> dict:
        rng = self.rng
        n = 5
        zs = [k for k in range(1, 4**n) if all(a in (0, 3) for a in ref.digits(k, n))]
        terms = sorted(int(k) for k in rng.choice(zs, size=3, replace=False))
        return {
            "n": n,
            "channel": {"family": "depolarizing", "n": n, "q": 0.01, "mu": 0.0},
            "observable": [[ref.label(k, n), float(np.round(rng.uniform(0.2, 1.0), 6))] for k in terms],
            "initial_state": "zeros",
            "m_max": 10,
            "shots": 8192,
            "seed": int(rng.integers(0, 2**31)),
            "mu_grid": sorted(float(np.round(v, 6)) for v in rng.uniform(0.0, 1.0, size=3)),
            "strength_grid": sorted(float(np.round(v, 6)) for v in rng.uniform(0.002, 0.02, size=2)),
        }

    @staticmethod
    def _grid(cfg) -> list[tuple[float, float]]:
        ch = cfg["channel"]
        strength_key = "eta" if ch["family"] == "amp_damp_corr" else "q"
        mus = cfg.get("mu_grid") or [ch.get("mu", 0.0)]
        strengths = cfg.get("strength_grid") or [ch[strength_key]]
        return [(float(mu), float(s)) for mu in mus for s in strengths]

    def check(self, results, outputs):
        return [self._check_run(run, rc, out) for run, rc, out in zip(self.runs, results, outputs)]

    def _check_run(self, run: _Experiment, rc, output) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        cfg = run.cfg
        if cfg.get("initial_state", "zeros") != "zeros":
            return "the reference values assume the |0...0> initial state"
        n, shots, m_max = cfg["n"], cfg.get("shots", 0), cfg["m_max"]
        family = cfg["channel"]["family"]
        terms = sorted(ref.index(label) for label, _ in cfg["observable"])
        lines = body(output).splitlines()
        fails: list[str] = []
        _gate(fails, lines[0].startswith("mu,q,m,k,"), "bad CSV header")
        rows = [line.split(",") for line in lines[1:]]
        expected = [(mu, s, m, k) for mu, s in run.grid for m in range(m_max + 1) for k in terms]
        if len(rows) != len(expected):
            return f"{len(rows)} CSV rows, expected {len(expected)}"
        amp = {}
        for row, (mu, s, m, k) in zip(rows, expected):
            r_mu, r_q, r_m, r_k, r_shots, r_seed = float(row[0]), float(row[1]), *map(int, row[2:6])
            value, dec = float(row[6]), float(row[8])
            if (r_mu, r_q, r_m, r_k, r_shots, r_seed) != (mu, s, m, k, shots, run.seed):
                return f"row labels {row[:6]} differ from ({mu}, {s}, {m}, {k}, {shots}, {run.seed})"
            ideal = 1.0 if all(a in (0, 3) for a in ref.digits(k, n)) else 0.0
            if family == "amp_damp_corr":
                if (mu, s, k) not in amp:
                    amp[(mu, s, k)] = _amp_damp_trajectory(s, mu, k, m_max)
                noisy = amp[(mu, s, k)][m]
                scale = 1.0
            else:
                lam = ref.markov_lambda(k, n, ref.depolarizing_marginal(s), mu) ** m
                noisy, scale = lam * ideal, 1.0 / abs(lam)
            if shots == 0:
                _gate(fails, abs(value - noisy) <= EXACT_TOL, f"noisy m={m} k={k}: {value!r} != {noisy!r}")
                _gate(fails, abs(dec - ideal) <= EXACT_TOL, f"deconvolved m={m} k={k}: {dec!r} != {ideal!r}")
            else:
                t = ref.binomial_bound(noisy, shots, self.delta)
                _gate(fails, abs(value - noisy) <= t, f"noisy m={m} k={k}: |{value!r} - {noisy!r}| > {t:.3g}")
                _gate(fails, abs(dec - ideal) <= t * scale + EXACT_TOL,
                      f"deconvolved m={m} k={k}: |{dec!r} - {ideal!r}| > {t * scale:.3g}")
        return "; ".join(fails[:3]) or None


def _amp_damp_trajectory(eta: float, mu: float, k: int, m_max: int) -> list[float]:
    """<P_k> after m = 0..m_max uses of the amplitude-damping channel on |00>."""
    kraus = ref.amp_damp_kraus(eta, mu)
    P = ref.all_paulis(2)[k]
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    out = []
    for _ in range(m_max + 1):
        out.append(float(np.trace(P @ rho).real))
        rho = sum(K @ rho @ K.conj().T for K in kraus)
    return out


# ------------------------------------------------------------ characterize_n3


class CharacterizeN3(Workload):
    name = "characterize_n3"
    why = ("unknown-noise pipeline at n=3: probe certificates, full characterization "
           "with 1000 shots, deconvolution from the report; time in sampling and readout")
    # n = 3, not 4: at n = 4 one characterize call takes 2.4 s or more, and
    # its time moved by half between runs as the shared host changed speed.
    N = 3
    SHOTS = 1000
    OBSERVABLES = 4

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        n, rng = self.N, self.rng
        self.p_vec = near_identity_marginal(rng, 0.9, 0.96)
        self.mu = float(np.round(rng.uniform(0.1, 0.6), 6))
        self.char_seed = int(rng.integers(0, 2**31))
        self.lam = np.array([ref.markov_lambda(k, n, self.p_vec, self.mu) for k in range(4**n)])
        self.useful_entries = int(np.count_nonzero(self.lam[1:]))
        config = write(workdir / "channel.json", json.dumps(
            {"family": "pauli_custom", "n": n, "p_vec": self.p_vec, "mu": self.mu}))
        report = workdir / "out" / "report.txt"
        self.ops = [
            cli_op("check-positivity", ["check-positivity", "--n", str(n), "--k", "all"],
                   workdir / "out" / "positivity.txt", timed=False),
            cli_op("characterize", ["characterize", "--config", str(config), "--entries", "full",
                                    "--shots", str(self.SHOTS), "--seed", str(self.char_seed)],
                   report, timed=False),
        ]
        paulis = ref.all_paulis(n)
        self.cases = []
        for i in range(self.OBSERVABLES):
            terms = random_terms(rng, n, int(rng.integers(1, 5)))
            x = ref.pauli_coefficients(random_mixed_state(rng, 2**n), paulis)
            noisy = self.lam * x
            obs = write(workdir / f"obs{i}.txt", observable_text(terms, n))
            meas = write(workdir / f"meas{i}.txt",
                         "".join(f"{ref.label(j, n)} {float(v)!r}\n" for j, v in enumerate(noisy)))
            self.cases.append((terms, noisy))
            self.ops.append(cli_op(f"deconvolve#{i}", ["deconvolve", "--characterization", str(report),
                                                       "--observable", str(obs), "--measurements", str(meas)],
                                   workdir / "out" / f"dec{i}.txt"))
        self.delta = FALSE_ALARM / (4**n - 1) ** 2

    def check(self, results, outputs):
        verdicts: list[str | None] = []
        for rc in results:
            verdicts.append(None if rc == 0 else f"exit code {rc}")
        if verdicts[0] is None:
            verdicts[0] = self._check_positivity(body(outputs[0]))
        gamma = None
        if verdicts[1] is None:
            verdicts[1], gamma = self._check_report(body(outputs[1]))
        for i, (terms, noisy) in enumerate(self.cases):
            if verdicts[2 + i] is None:
                verdicts[2 + i] = ("no valid report to deconvolve from" if gamma is None
                                   else self._check_deconvolution(body(outputs[2 + i]), gamma, terms, noisy))
        return verdicts

    def _check_positivity(self, text: str) -> str | None:
        n = self.N
        expected = ref.probe_positivity(n)
        lines = text.splitlines()
        if lines[0] != f"n {n} d {2**n} delta {float(1 + 2**n / 2)!r}" or lines[-1] != "ALL PASS":
            return "bad positivity header or footer"
        rows = lines[1:-1]
        if len(rows) != 4**n - 1:
            return f"{len(rows)} probe rows, expected {4**n - 1}"
        for k, row in enumerate(rows, start=1):
            f = row.split()
            if f[:4] != ["k", str(k), ref.label(k, n), "S"] or f[-1] != "PASS":
                return f"bad probe row {row!r}"
            S = [float(v) for v in f[4:-1]]
            if len(S) != len(expected) or max(abs(a - b) for a, b in zip(S, expected)) > EXACT_TOL:
                return f"probe k={k}: S differs from the closed form"
        return None

    def _check_report(self, text: str):
        n, dim = self.N, 4**self.N
        lines = [line for line in text.splitlines() if line and not line.startswith("#")]
        if lines[:2] != [f"n {n}", "mode full"] or len(lines) != 2 + dim * dim:
            return "bad report header or row count", None
        gamma = np.zeros((dim, dim))
        for line in lines[2:]:
            j, k, est, _err, shots, seed = line.split()
            j, k, est = int(j), int(k), float(est)
            if (int(shots), int(seed)) != (self.SHOTS, self.char_seed):
                return f"row {j} {k}: shots/seed {shots}/{seed}", None
            gamma[j, k] = est
            if j == 0 or k == 0:
                true = 1.0 if j == k else 0.0
                if est != true:
                    return f"entry ({j}, {k}) = {est!r}, expected exactly {true!r}", None
            else:
                true = self.lam[k] if j == k else 0.0
                t = ref.binomial_bound(true, self.SHOTS, self.delta)
                if abs(est - true) > t:
                    return f"entry ({j}, {k}): |{est!r} - {true!r}| > {t:.3g}", None
        return None, gamma

    def _check_deconvolution(self, text: str, gamma, terms, noisy) -> str | None:
        fields = parse_fields(text)
        dim = 4**self.N
        if int(fields.get("entries_consulted", -1)) != dim * dim:
            return f"entries_consulted {fields.get('entries_consulted')} != {dim * dim}"
        if float(fields["std_error"]) != 0.0:
            return f"std_error {fields['std_error']} with no input errors"
        c = np.zeros(dim)
        for k, v in terms.items():
            c[k] = v
        w = np.linalg.solve(gamma.T, c)
        expected = float(w @ noisy)
        tol = EXACT_TOL * max(1.0, float(np.abs(w).sum()))
        value = float(fields["value"])
        if abs(value - expected) > tol:
            return f"value {value!r} != {expected!r} (tol {tol:.3g})"
        return None


# ------------------------------------------------------------------ general_n5


class GeneralN5(Workload):
    name = "general_n5"
    why = ("general path at n=5 through the API: Kraus to transfer matrix, then "
           "condition number and inverse of a 1024x1024 matrix per observable")
    N = 5
    OBSERVABLES = 2

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        n, rng = self.N, self.rng
        d = 2**n
        kraus = self._kraus(rng, d)
        paulis = ref.all_paulis(n)
        self.cases = []
        for i in range(self.OBSERVABLES):
            terms = random_terms(rng, n, int(rng.integers(1, 9)))
            rho = random_mixed_state(rng, d)
            ideal = sum(c * v for c, v in zip(terms.values(),
                                               ref.pauli_coefficients(rho, paulis)[list(terms)]))
            out = sum(K @ rho @ K.conj().T for K in kraus)
            noisy = dict(enumerate(ref.pauli_coefficients(out, paulis).tolist()))
            self.cases.append((nd.Observable(n, terms), noisy, float(ideal)))

        def build(ctx):
            ctx["ptm"] = nd.KrausChannel(kraus).ptm()
            return ctx["ptm"]

        self.ops = [Op("kraus_to_ptm", build, lambda ptm: ptm.matrix.tobytes(), timed=False)]
        for i, (obs, noisy, _) in enumerate(self.cases):
            self.ops.append(Op(f"plan_deconvolve#{i}", self._plan_op(obs, noisy),
                               lambda res: f"{res[1]!r} {res[0].entries_consulted} "
                                           f"{sorted(res[0].weights.items())!r}".encode()))

    @staticmethod
    def _plan_op(obs, noisy):
        def call(ctx):
            plan = nd.plan_general(obs, ctx["ptm"])
            return plan, nd.deconvolve(plan, noisy)
        return call

    @staticmethod
    def _kraus(rng, d):
        """Near-identity random unitaries mixed with amplitude damping of
        qubit 0 (non-unital), so the transfer matrix is dense and
        well-conditioned."""
        probs = rng.dirichlet([2.0, 2.0, 2.0]) * 0.8
        ops = []
        for p in probs:
            H = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            vals, vecs = np.linalg.eigh((H + H.conj().T) / (2.0 * math.sqrt(d)))
            U = (vecs * np.exp(-0.05j * vals)) @ vecs.conj().T
            ops.append(math.sqrt(p) * U)
        g = float(rng.uniform(0.05, 0.2))
        rest = np.eye(d // 2)
        for E in ([[1.0, 0.0], [0.0, math.sqrt(1.0 - g)]], [[0.0, math.sqrt(g)], [0.0, 0.0]]):
            ops.append(math.sqrt(0.2) * np.kron(np.array(E), rest).astype(complex))
        return ops

    def check(self, results, outputs):
        verdicts: list[str | None] = [None]
        for (obs, _, ideal), res in zip(self.cases, results[1:]):
            plan, value = res
            fails: list[str] = []
            _gate(fails, plan.entries_consulted == 4 ** (2 * self.N),
                  f"entries_consulted {plan.entries_consulted}")
            tol = EXACT_TOL * max(1.0, sum(abs(w) for w in plan.weights.values()))
            _gate(fails, abs(value - ideal) <= tol, f"value {value!r} != {ideal!r} (tol {tol:.3g})")
            verdicts.append("; ".join(fails) or None)
        return verdicts


# ------------------------------------------------------- deconvolve_diagonal_n6


class DeconvolveDiagonalN6(Workload):
    name = "deconvolve_diagonal_n6"
    why = ("diagonal path at the largest n: many CLI deconvolutions consulting r of "
           "4096 entries, r in {1, 4, 16, 64}; bypasses the general path and evolution")
    N = 6
    CHANNELS = 8
    TERMS = (1, 4, 16, 64)

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        n, rng = self.N, self.rng
        self.cases = []
        for i in range(self.CHANNELS):
            p_vec = near_identity_marginal(rng, 0.85, 0.97)
            mu = float(np.round(rng.uniform(0.0, 1.0), 6))
            config = write(workdir / f"channel{i}.json", json.dumps(
                {"family": "pauli_custom", "n": n, "p_vec": p_vec, "mu": mu}))
            for r in self.TERMS:
                terms = random_terms(rng, n, r)
                bloch = rng.normal(size=(n, 3))
                bloch *= (rng.uniform(0.0, 1.0, size=(n, 1)) / np.linalg.norm(bloch, axis=1, keepdims=True))
                blochs = np.hstack([np.ones((n, 1)), bloch])
                x = {k: ref.product_state_coefficient(k, n, blochs) for k in terms}
                lam = {k: ref.markov_lambda(k, n, p_vec, mu) for k in terms}
                ideal = sum(c * x[k] for k, c in terms.items())
                obs = write(workdir / f"obs{i}_{r}.txt", observable_text(terms, n))
                meas = write(workdir / f"meas{i}_{r}.txt", "".join(
                    f"{ref.label(k, n)} {lam[k] * x[k]!r}\n" for k in sorted(terms)))
                scale = sum(abs(c / lam[k]) for k, c in terms.items())
                self.cases.append((r, ideal, scale))
                self.ops.append(cli_op(f"deconvolve#{i}.{r}", [
                    "deconvolve", "--config", str(config), "--observable", str(obs),
                    "--measurements", str(meas)], workdir / "out" / f"dec{i}_{r}.txt"))

    def check(self, results, outputs):
        verdicts = []
        for (r, ideal, scale), rc, out in zip(self.cases, results, outputs):
            if rc != 0:
                verdicts.append(f"exit code {rc}")
                continue
            fields = parse_fields(body(out))
            fails: list[str] = []
            _gate(fails, int(fields["entries_consulted"]) == r,
                  f"entries_consulted {fields['entries_consulted']} != r = {r}")
            _gate(fails, float(fields["std_error"]) == 0.0, f"std_error {fields['std_error']}")
            value = float(fields["value"])
            tol = EXACT_TOL * max(1.0, scale)
            _gate(fails, abs(value - ideal) <= tol, f"value {value!r} != {ideal!r}")
            verdicts.append("; ".join(fails) or None)
        return verdicts


WORKLOADS = {w.name: w for w in (Experiments, CharacterizeN3, GeneralN5, DeconvolveDiagonalN6)}
