"""Command-line front end.

Commands: ptm, deconvolve, characterize, experiment, check-positivity.
Outputs are deterministic for fixed (arguments, config, seed).  Every
command hands its result to one writer, ``_write``, which builds only
the format asked for (``--format json`` or the command's text), sends it
to stdout or ``--out`` and returns the exit code.  Relative ``--out``
paths are resolved against $NOISEDECONV_OUT_DIR when set.  An existing
``--out`` file is rewritten in place, then cut to the written length; a
device or FIFO is written without a cut.  A failed write exits 2 and may
leave the file partly rewritten, as truncating on open left it partly
written.

Exit codes: 0 success, 3 on a failed positivity check, and otherwise one
map from the package's error families (``EXIT_CODES``): 2 config/parse
error, 3 mathematical error, 4 resource cap exceeded.  An
IllConditionedWarning turned into an error (``python -W error``) exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from collections import Counter
from pathlib import Path
from typing import Callable

from . import characterization, deconvolution, simulator
from .channels import _config_object, channel_from_config
from .exceptions import (
    ConfigError,
    IllConditionedWarning,
    MathematicalError,
    ParseError,
    ResourceCapExceeded,
)
from .pauli import Observable, check_qubits, label_index, labelled_rows, pauli_label
from .sampling import check_shots_and_seed
from .simulator import ExperimentConfig, _fmt

OUT_DIR_ENV = "NOISEDECONV_OUT_DIR"

# Error family -> exit code; a failed positivity check also exits 3.
EXIT_CODES = {ConfigError: 2, ResourceCapExceeded: 4, MathematicalError: 3, IllConditionedWarning: 3}

# `check-positivity --k all` enumerates 4**n - 1 probes; past this the
# table stops being a table.
MAX_QUBITS_POSITIVITY_ALL = 4


def _read_text(path: str) -> str:
    """A file's text untranslated: a lone carriage return ends no line."""
    try:
        with open(path, newline="") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _load_json(path: str) -> dict:
    """A JSON config; a key repeated in any one object raises ParseError."""
    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
            raise ParseError(f"{path}: key {key!r} repeats in one object")
        return obj

    text = _read_text(path)
    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def _write_file(path: Path, body: str) -> None:
    """Write ``body`` to ``path`` as ``open(path, "w")`` would, but over an
    existing file in place, then cut a regular file to the written length:
    truncating to zero and refilling costs several times as much.  A device
    or FIFO is written without a cut.  A missing parent directory is made
    when the first open says so."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as f:  # the default encoding and newlines of a text-mode open
        f.write(body)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()


def _write(args, text: Callable[[], str], data: Callable[[], object] | None = None,
           code: int = 0) -> int:
    """Write a command's result and return its exit code: ``data()`` as
    indented JSON under ``--format json``, else ``text()``, to stdout or to
    ``--out``.  Only the requested format is built; a path that cannot be
    written raises ConfigError."""
    body = json.dumps(data(), indent=2) + "\n" if getattr(args, "format", None) == "json" else text()
    if args.out is None:
        sys.stdout.write(body)
    else:
        path = Path(os.environ.get(OUT_DIR_ENV, "")) / args.out  # an absolute --out ignores the base
        try:
            _write_file(path, body)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from None
    return code


def _parse_measurements(text: str) -> tuple[dict[int, float], dict[int, float], int]:
    """Lines of ``<pauli-string> <value> [std_error]``; a repeated string or a
    negative std_error raises ParseError naming the line."""
    n, rows = labelled_rows(text, "<pauli-string> <value> [std_error]", (2, 3))
    values: dict[int, float] = {}
    errors: dict[int, float] = {}
    for lineno, k, (value, *err) in rows:
        err = err[0] if err else 0.0
        if err < 0:
            raise ParseError(f"line {lineno}: std_error must be >= 0, got {err!r}")
        if k in values:
            raise ParseError(f"line {lineno}: {pauli_label(k, n)!r} repeats an earlier row")
        values[k] = value
        errors[k] = err
    return values, errors, n


def cmd_ptm(args) -> int:
    ch = channel_from_config(_load_json(args.config))
    if args.diagonal_only:
        lam = ch.lambdas()
        return _write(args, lambda: "k,lambda\n" + "".join(f"{k},{_fmt(v)}\n" for k, v in enumerate(lam)),
                      lambda: {"n": ch.n, "diagonal": lam.tolist()})
    M = ch.ptm().matrix
    return _write(args, lambda: "".join(",".join(map(_fmt, row)) + "\n" for row in M),
                  lambda: {"n": ch.n, "matrix": M.tolist()})


def cmd_deconvolve(args) -> int:
    obs = Observable.from_text(_read_text(args.observable))
    values, errors, n = _parse_measurements(_read_text(args.measurements))
    if n != obs.n:
        raise ConfigError(f"measurements are on {n} qubits, observable on {obs.n}")
    if args.characterization:
        source = characterization.CharacterizedPTM.from_report_text(_read_text(args.characterization))
    else:
        source = channel_from_config(_load_json(args.config))
    if source.n != obs.n:
        what = "report" if args.characterization else "channel"
        raise ConfigError(f"{what} is on {source.n} qubits, observable on {obs.n}")
    plan = deconvolution.plan(obs, source)
    value = deconvolution.deconvolve(plan, values)
    err = deconvolution.propagated_std_error(plan, errors)
    return _write(
        args,
        lambda: f"value {_fmt(value)}\nstd_error {_fmt(err)}\nentries_consulted {plan.entries_consulted}\n",
        lambda: {"value": value, "std_error": err, "entries_consulted": plan.entries_consulted},
    )


def _parse_index(token: str, n: int) -> int:
    """A flat basis index, or a Pauli label on exactly n qubits."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        qubits, k = label_index(token)
    except ValueError:
        raise ConfigError(f"bad index {token!r}; use an index or a Pauli string") from None
    if qubits != n:
        raise ConfigError(f"label {token!r} is for {qubits} qubits, expected n={n}")
    return k


def _parse_entries(spec: str, n: int) -> list[int]:
    """The entries of ``spec`` in its order (the estimator probes a repeated one once)."""
    ks = [_parse_index(token, n) for token in map(str.strip, spec.split(",")) if token]
    if not ks:
        raise ConfigError("no entries requested")
    for k in ks:
        if not 0 < k < 4**n:
            raise ConfigError(f"entry {k} out of range 1..{4**n - 1}")
    return ks


def cmd_characterize(args) -> int:
    check_shots_and_seed(args.shots, args.seed)
    ch = channel_from_config(_load_json(args.config))
    if args.entries == "full":
        result = characterization.estimate_full_ptm(ch, shots=args.shots, seed=args.seed)
    else:
        ks = _parse_entries(args.entries, ch.n)
        result = characterization.estimate_diagonal_entries(ch, ks, shots=args.shots, seed=args.seed)
    return _write(args, result.to_report_text, lambda: {
        "n": result.n, "mode": result.mode, "shots": result.shots, "seed": result.seed,
        "entries": [{"j": j, "k": k, "estimate": est, "std_error": err}
                    for j, k, est, err in zip(*result.sorted_columns)],
    })


def cmd_experiment(args) -> int:
    raw = _config_object(_load_json(args.config), f"{args.config}: an experiment config")
    if args.shots is not None:
        raw["shots"] = args.shots
    if args.seed is not None:
        raw["seed"] = args.seed
    records = simulator.run_experiment(ExperimentConfig.from_dict(raw))
    columns = simulator.CSV_HEADER.split(",")
    return _write(args, lambda: simulator.records_to_csv(records),  # JSON has no NaN: q is null there
                  lambda: [dict(zip(columns, r), q=None if math.isnan(r.strength) else r.strength) for r in records])


def cmd_check_positivity(args) -> int:
    if args.state_file:
        lines = [f"state-file {args.state_file}"]
        prefixes = [""]
        states = [simulator._matrix_from_json(_load_json(args.state_file))]
    else:
        if args.n is None:
            raise ConfigError("check-positivity needs --n or --state-file")
        n = args.n
        check_qubits(n)
        if args.k == "all":
            check_qubits(n, MAX_QUBITS_POSITIVITY_ALL)
            ks = range(1, 4**n)
        else:
            k_int = _parse_index(args.k, n)
            if not 0 <= k_int < 4**n:
                raise ConfigError(f"k {k_int} out of range 0..{4**n - 1}")
            ks = [k_int]
        d = 2**n
        lines = [f"n {n} d {d} delta {_fmt(1 + d / 2)}"]
        prefixes = [f"k {k} {pauli_label(k, n)} " for k in ks]
        states = [characterization.probe_state(k, n) for k in ks]
    ok = True
    for prefix, (S, passed) in zip(prefixes, characterization.positivity_certificates(states)):
        ok = ok and passed
        lines.append(prefix + "S " + " ".join(_fmt(s) for s in S) + (" PASS" if passed else " FAIL"))
    lines.append("ALL PASS" if ok else "FAILED")
    return _write(args, lambda: "\n".join(lines) + "\n", code=0 if ok else 3)


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
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None,
                     help=f"write to this file instead of stdout (relative to ${OUT_DIR_ENV} when set)")
    formatted = argparse.ArgumentParser(add_help=False, parents=[out])
    formatted.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("ptm", parents=[formatted], help="compute a channel's transfer matrix")
    p.add_argument("--config", required=True, help="channel config JSON")
    p.add_argument("--diagonal-only", action="store_true", help="emit only the diagonal")
    p.set_defaults(func=cmd_ptm)

    p = sub.add_parser("deconvolve", parents=[formatted], help="recover a noiseless expectation value")
    p.add_argument("--observable", required=True, help="observable text file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="channel config JSON")
    group.add_argument("--characterization", help="characterization report file")
    p.add_argument("--measurements", required=True, help="noisy measurement file")
    p.set_defaults(func=cmd_deconvolve)

    p = sub.add_parser("characterize", parents=[formatted], help="estimate transfer-matrix entries")
    p.add_argument("--config", required=True, help="channel config JSON")
    p.add_argument("--entries", default="full", help="'full' or comma list of k / Pauli strings")
    p.add_argument("--shots", type=int, default=0, help="0 = exact readout")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("experiment", parents=[formatted],
                       help="run a repeated-noise deconvolution experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--shots", type=int, default=None, help="override config shots")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("check-positivity", parents=[out], help="probe positivity certificates")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", default="all", help="basis index, Pauli string, or 'all'")
    p.add_argument("--state-file", default=None, help="JSON matrix to check instead")
    p.set_defaults(func=cmd_check_positivity)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for family, code in EXIT_CODES.items() if isinstance(exc, family))


if __name__ == "__main__":
    sys.exit(main())
