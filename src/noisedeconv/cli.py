"""Command-line front end.

Commands: ptm, deconvolve, characterize, experiment, check-positivity.
Outputs are deterministic for fixed (arguments, config, seed).  Exit
codes: 0 success, 2 config/parse error, 3 mathematical error (including
a failed positivity check), 4 resource cap exceeded.

Relative --out paths are resolved against $NOISEDECONV_OUT_DIR when set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import characterization, deconvolution, simulator
from .channels import _check_qubit_range, channel_from_config
from .exceptions import (
    ConfigError,
    MathematicalError,
    ParseError,
    ResourceCapExceeded,
)
from .pauli import Observable, PauliIndex
from .simulator import ExperimentConfig

OUT_DIR_ENV = "NOISEDECONV_OUT_DIR"

# `check-positivity --k all` enumerates 4**n - 1 probes; past this the
# table stops being a table.
MAX_QUBITS_POSITIVITY_ALL = 4


def _fmt(x) -> str:
    return repr(float(x))


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _load_json(path: str) -> dict:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _parse_measurements(text: str) -> tuple[dict[int, float], dict[int, float], int | None]:
    """Lines of ``<pauli-string> <value> [std_error]``."""
    values: dict[int, float] = {}
    errors: dict[int, float] = {}
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) not in (2, 3):
            raise ParseError(
                f"line {lineno}: expected '<pauli-string> <value> [std_error]', got {raw!r}"
            )
        try:
            idx = PauliIndex.from_label(fields[0])
            value = float(fields[1])
            err = float(fields[2]) if len(fields) == 3 else 0.0
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if not (math.isfinite(value) and math.isfinite(err)):
            raise ParseError(f"line {lineno}: value and std_error must be finite, got {raw!r}")
        if n is None:
            n = idx.n
        elif idx.n != n:
            raise ParseError(f"line {lineno}: {fields[0]!r} has {idx.n} qubits, expected {n}")
        values[idx.k] = value
        errors[idx.k] = err
    if n is None:
        raise ParseError("measurements file contains no rows")
    return values, errors, n


def cmd_ptm(args) -> int:
    cfg = _load_json(args.config)
    ch = channel_from_config(cfg)
    if args.diagonal_only:
        lam = ch.lambdas()
        if args.format == "json":
            text = json.dumps({"n": ch.n, "diagonal": [float(v) for v in lam]}, indent=2) + "\n"
        else:
            lines = ["k,lambda"] + [f"{k},{_fmt(v)}" for k, v in enumerate(lam)]
            text = "\n".join(lines) + "\n"
    else:
        M = ch.ptm().matrix
        if args.format == "json":
            text = json.dumps({"n": ch.n, "matrix": [[float(v) for v in row] for row in M]}, indent=2) + "\n"
        else:
            text = "\n".join(",".join(_fmt(v) for v in row) for row in M) + "\n"
    _write_output(text, args.out)
    return 0


def cmd_deconvolve(args) -> int:
    obs = Observable.from_text(_read_text(args.observable))
    values, errors, n = _parse_measurements(_read_text(args.measurements))
    if n != obs.n:
        raise ConfigError(f"measurements are on {n} qubits, observable on {obs.n}")
    if args.characterization:
        report = characterization.CharacterizedPTM.from_report_text(
            _read_text(args.characterization)
        )
        if report.n != obs.n:
            raise ConfigError(f"report is on {report.n} qubits, observable on {obs.n}")
        plan = deconvolution.plan_from_characterization(obs, report)
    else:
        ch = channel_from_config(_load_json(args.config))
        if ch.n != obs.n:
            raise ConfigError(f"channel is on {ch.n} qubits, observable on {obs.n}")
        plan = deconvolution.plan(obs, ch)
    value = deconvolution.deconvolve(plan, values)
    err = deconvolution.propagated_std_error(plan, errors)
    if args.format == "json":
        text = json.dumps(
            {"value": value, "std_error": err, "entries_consulted": plan.entries_consulted},
            indent=2,
        ) + "\n"
    else:
        text = (
            f"value {_fmt(value)}\n"
            f"std_error {_fmt(err)}\n"
            f"entries_consulted {plan.entries_consulted}\n"
        )
    _write_output(text, args.out)
    return 0


def _parse_entries(spec: str, n: int) -> list[int]:
    ks = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            ks.append(int(token))
        except ValueError:
            try:
                ks.append(PauliIndex.from_label(token).k)
            except ValueError:
                raise ConfigError(f"bad entry {token!r}; use an index or a Pauli string") from None
    if not ks:
        raise ConfigError("no entries requested")
    for k in ks:
        if not 0 < k < 4**n:
            raise ConfigError(f"entry {k} out of range 1..{4**n - 1}")
    return ks


def cmd_characterize(args) -> int:
    if args.shots < 0 or args.seed < 0:
        raise ConfigError(f"--shots and --seed must be >= 0, got {args.shots} and {args.seed}")
    ch = channel_from_config(_load_json(args.config))
    if args.entries == "full":
        result = characterization.estimate_full_ptm(ch, shots=args.shots, seed=args.seed)
    else:
        ks = _parse_entries(args.entries, ch.n)
        result = characterization.estimate_diagonal_entries(
            ch, ks, shots=args.shots, seed=args.seed
        )
    if args.format == "json":
        rows = [
            {"j": j, "k": k, "estimate": est, "std_error": err}
            for (j, k), (est, err) in sorted(result.entries.items())
        ]
        text = json.dumps(
            {"n": result.n, "mode": result.mode, "shots": result.shots,
             "seed": result.seed, "entries": rows},
            indent=2,
        ) + "\n"
    else:
        text = result.to_report_text()
    _write_output(text, args.out)
    return 0


def cmd_experiment(args) -> int:
    raw = _load_json(args.config)
    if args.shots is not None:
        raw["shots"] = args.shots
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = ExperimentConfig.from_dict(raw)
    records = simulator.run_experiment(cfg)
    if args.format == "json":
        rows = [
            {
                "mu": r.mu, "q": r.strength, "m": r.m, "k": r.k,
                "shots": r.shots, "seed": r.seed,
                "noisy": r.value, "noisy_stderr": r.std_error,
                "deconvolved": r.deconvolved, "deconvolved_stderr": r.deconvolved_std_error,
            }
            for r in records
        ]
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = simulator.records_to_csv(records)
    _write_output(text, args.out)
    return 0


def cmd_check_positivity(args) -> int:
    if args.state_file:
        lines = [f"state-file {args.state_file}"]
        states = [("", simulator._matrix_from_json(_load_json(args.state_file)))]
    else:
        if args.n is None:
            raise ConfigError("check-positivity needs --n or --state-file")
        n = args.n
        _check_qubit_range(n)
        if args.k == "all":
            if n > MAX_QUBITS_POSITIVITY_ALL:
                raise ResourceCapExceeded(
                    f"--k all is capped at n={MAX_QUBITS_POSITIVITY_ALL}"
                )
            ks = range(1, 4**n)
        else:
            try:
                k_int = int(args.k)
            except ValueError:
                try:
                    idx = PauliIndex.from_label(args.k)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from None
                if idx.n != n:
                    raise ConfigError(f"label {args.k!r} is for {idx.n} qubits, expected n={n}")
                k_int = idx.k
            if not 0 <= k_int < 4**n:
                raise ConfigError(f"k {k_int} out of range 0..{4**n - 1}")
            ks = [k_int]
        d = 2**n
        lines = [f"n {n} d {d} delta {_fmt(1 + d / 2)}"]
        states = [(f"k {k} {PauliIndex(n, k).label} ", characterization.probe_state(k, n).operator)
                  for k in ks]
    ok = True
    for prefix, rho in states:
        S, passed = characterization.positivity_certificate(rho)
        ok = ok and passed
        lines.append(prefix + "S " + " ".join(_fmt(s) for s in S) + (" PASS" if passed else " FAIL"))
    lines.append("ALL PASS" if ok else "FAILED")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0 if ok else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs
    about twenty times as much as one ``parse_args``."""
    parser = argparse.ArgumentParser(
        prog="noisedeconv",
        description="Simulate multiqubit noisy channels, compute transfer matrices, "
        "and recover noiseless expectation values from noisy data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ptm", help="compute a channel's transfer matrix")
    p.add_argument("--config", required=True, help="channel config JSON")
    p.add_argument("--diagonal-only", action="store_true", help="emit only the diagonal")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_ptm)

    p = sub.add_parser("deconvolve", help="recover a noiseless expectation value")
    p.add_argument("--observable", required=True, help="observable text file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="channel config JSON")
    group.add_argument("--characterization", help="characterization report file")
    p.add_argument("--measurements", required=True, help="noisy measurement file")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_deconvolve)

    p = sub.add_parser("characterize", help="estimate transfer-matrix entries")
    p.add_argument("--config", required=True, help="channel config JSON")
    p.add_argument("--entries", default="full", help="'full' or comma list of k / Pauli strings")
    p.add_argument("--shots", type=int, default=0, help="0 = exact readout")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("experiment", help="run a repeated-noise deconvolution experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--shots", type=int, default=None, help="override config shots")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("check-positivity", help="probe positivity certificates")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", default="all", help="basis index, Pauli string, or 'all'")
    p.add_argument("--state-file", default=None, help="JSON matrix to check instead")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_positivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MathematicalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
