"""Benchmark driver for noisedeconv.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: one process, closed loop -- each operation starts only after
the previous one returned.  Command-line operations are in-process calls
to ``noisedeconv.cli.main``; interpreter start-up is counted in
``setup_s``.  BLAS and OpenMP are capped at one thread, so no thread or
process is started apart from the set-up children below.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s`` -- the sum, over the operations of one pass, of each
  operation's fastest time over the run's warm passes: the time of one
  warm pass with every operation at its best, as ``timeit`` takes the
  fastest of its repeats.  Interference only ever adds time, and on a
  shared host the machine's speed switches between phases lasting
  seconds to minutes (a fixed Python loop ran at 24 ms or 38 ms per
  call), with fast moments of well under a second inside slow phases.
  Over ten runs the median pass moved by up to three tenths when whole
  runs fell in fast or slow phases; the fastest time of each short
  operation is caught in the fast moments and moves far less.  The
  median pass is in the record line;
* ``setup_s`` -- median over ``SETUP_RUNS`` fresh processes of the time to
  start the interpreter, import noisedeconv, generate the inputs and
  finish one cold, untimed pass.  The processes run one at a time,
  spread over the timed window between passes;
* ``peak_rss_mb`` -- median peak resident memory of those processes.

The record line also gives the median and the highest percentile with at
least ten samples beyond it of one timed operation's latency, with the
sample count; they move with the host's phases as the median pass does.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the fastest traced pass (see ``tracing``), the
tracing overhead, and the operation latencies of the untraced passes as
``bench.op_p50_ms`` / ``bench.op_tail_ms``.

Before timing, one pass runs cold and its results go through the
workload's correctness gates; every later pass, and every set-up child,
must reproduce its outputs byte for byte.  ``failed`` counts operations
that raised, exited nonzero, failed a gate or changed their output.
A line with the environment, the sha256 of the outputs and the sample
counts precedes the final JSON line, and is also written under
``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

SETUP_RUNS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = ".bench_work"
HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def checkout_problem(root: Path) -> str | None:
    for need in ("src/noisedeconv/__init__.py", "configs/experiments"):
        if not (root / need).exists():
            return f"{root} is not a noisedeconv checkout: {need} is missing"
    return None


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    cap = min(BLAS_THREADS, nproc)
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def make_workload(name: str, seed: int, root: Path, tag: str):
    from workloads import WORKLOADS

    workdir = root / WORK_DIR / f"{name}-seed{seed}-{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return WORKLOADS[name](seed, workdir, root)


def run_pass(ops, tracer=None):
    """Run every operation once; return (wall, durations, results, errors)."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    ctx: dict = {}
    n = len(ops)
    durations, results, errors = [0.0] * n, [None] * n, [None] * n
    t0 = perf_counter()
    with span("bench.pass"):
        for i, op in enumerate(ops):
            if tracer:
                tracer.current_op = i
            with span("bench.op"):
                s = perf_counter()
                try:
                    results[i] = op.call(ctx)
                except Exception:
                    errors[i] = traceback.format_exc(limit=3)
                durations[i] = perf_counter() - s
    return perf_counter() - t0, durations, results, errors


def pass_outputs(ops, results, errors) -> list[bytes | None]:
    out = []
    for op, res, err in zip(ops, results, errors):
        if err is not None or not op.ok(res):
            out.append(None)
        else:
            out.append(op.output(res))
    return out


def digest(ops, outputs) -> str:
    h = hashlib.sha256()
    for op, out in zip(ops, outputs):
        h.update(op.name.encode() + b"\0" + (out or b"<failed>") + b"\0")
    return h.hexdigest()


def op_hashes(outputs) -> list[str | None]:
    return [hashlib.sha256(o).hexdigest() if o is not None else None for o in outputs]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct).

    Below 21 samples that percentile would not lie above the median, so
    the maximum is given instead (pct 100).
    """
    s = sorted(values)
    if len(s) < 21:
        return s[-1], 100.0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s)


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def environment(root: Path, seed: int, cap: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": cap,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        "git_commit": git_commit(root),
        "workload_seed": seed,
    }


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, name: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{name}: {problem}")


def compare(tally: Tally, ops, baseline, outputs, errors, where: str) -> None:
    for op, base, out, err in zip(ops, baseline, outputs, errors):
        if err is not None:
            tally.record(op.name, f"{where}: raised\n{err}")
        elif out is None:
            tally.record(op.name, f"{where}: failed")
        else:
            tally.record(op.name, None if out == base else f"{where}: output differs from the first pass")


def peak_rss_kb() -> int:
    """This process's peak resident memory, in KiB.

    ``VmHWM`` belongs to the process image started by exec.  ``ru_maxrss``
    is the fallback where ``/proc`` is missing: on Linux it carries over
    the high-water mark of the parent that forked the process.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def setup_child(args, root: Path) -> int:
    """Fresh-process cold pass; prints per-operation output hashes."""
    wl = make_workload(args.workload, args.seed, root, "setup")
    wall, _, results, errors = run_pass(wl.ops)
    outputs = pass_outputs(wl.ops, results, errors)
    shutil.rmtree(wl.workdir, ignore_errors=True)
    print(json.dumps({"maxrss_kb": peak_rss_kb(), "hashes": op_hashes(outputs), "pass_s": wall}))
    return 0


class SetUp:
    """Fresh set-up processes, run one at a time between timed passes."""

    def __init__(self, args, root: Path, tally: Tally, ops, baseline_hashes):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.root, self.tally, self.ops, self.baseline = root, tally, ops, baseline_hashes
        self.times: list[float] = []
        self.rss: list[float] = []

    def run_one(self) -> None:
        i = len(self.times)
        t0 = perf_counter()
        proc = subprocess.run(self.cmd, cwd=self.root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        self.times.append(perf_counter() - t0)
        try:
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            for op in self.ops:
                self.tally.record(op.name, f"set-up child {i} exited {proc.returncode}: {proc.stderr[-500:]}")
            return
        self.rss.append(rec["maxrss_kb"] / 1024.0)
        for op, h, base in zip(self.ops, rec["hashes"], self.baseline):
            self.tally.record(op.name, None if h == base else f"set-up child {i}: output differs")


def timed_passes(ops, seconds: float, tally: Tally, baseline, make_tracer=None, setup=None):
    """Run passes for ``seconds``, at least MIN_PASSES of each kind; with
    ``make_tracer``, every second pass is traced.  With ``setup``, its
    SETUP_RUNS processes run between passes, spread evenly over the
    window, so that they meet the host in several of its phases; their
    time is not counted in the window.  Returns the untraced pass walls,
    the timed operations' latencies, the traced passes and the sum of
    each operation's fastest untraced time."""
    walls, lat, traced = [], [], []
    best = [float("inf")] * len(ops)
    paused = 0.0
    t_start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - t_start - paused
        if setup is not None and len(setup.times) < SETUP_RUNS \
                and elapsed >= len(setup.times) * seconds / SETUP_RUNS:
            t0 = perf_counter()
            setup.run_one()
            paused += perf_counter() - t0
            continue
        enough = len(walls) >= MIN_PASSES and (not make_tracer or len(traced) >= MIN_PASSES)
        if enough and elapsed >= seconds:
            break
        tracing = make_tracer is not None and i % 2 == 1
        if tracing:
            tracer, inst = make_tracer()
            inst.install()
            try:
                wall, durs, results, errors = run_pass(ops, tracer)
            finally:
                inst.uninstall()
            traced.append((wall, tracer))
        else:
            wall, durs, results, errors = run_pass(ops)
            walls.append(wall)
            lat.extend(d for op, d in zip(ops, durs) if op.timed)
            best = [min(b, d) for b, d in zip(best, durs)]
        compare(tally, ops, baseline, pass_outputs(ops, results, errors), errors,
                "traced pass" if tracing else "timed pass")
        i += 1
    return walls, lat, traced, sum(best)


def op_latency(lat: list[float]) -> dict[str, float]:
    tail_s, pct = tail(lat)
    return {"op_p50_ms": statistics.median(lat) * 1e3, "op_tail_ms": tail_s * 1e3,
            "op_tail_percentile": pct, "op_samples": len(lat)}


def per_layer(wl, traced, untraced_walls, lat) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the fastest traced pass, so that the layers'
    self times and the unattributed rest add up to that pass's wall time."""
    import tracing as tr

    wall, tracer = min(traced, key=lambda t: t[0])
    counts = tracer.counts
    out = {key: (v, "s") for key, v in tr.layer_metrics(tracer).items()}
    attributed = sum(out[f"{layer}.self_s"][0] for layer in tr.LAYERS + ("bench",))
    out["bench.unattributed_s"] = (wall - attributed, "s")
    for group in tr.GROUPS:
        if group not in tr.SELF_ONLY:
            out[f"{group}.calls"] = (counts.get(f"{group}.calls", 0.0), "count")
    for key in ("channels.apply.flops_computed", "deconvolution.inversion.flops_computed"):
        out[key] = (counts.get(key, 0.0), "flop")
    out["deconvolution.inversion.bytes_computed"] = (
        counts.get("deconvolution.inversion.bytes_computed", 0.0), "B")
    for key in ("deconvolution.entries_consulted", "deconvolution.required_measurements",
                "characterization.probes", "characterization.entries_estimated", "sampling.shots",
                "simulator.evolution_steps", "simulator.records", "cli.exit_nonzero"):
        out[key] = (counts.get(key, 0.0), "count")
    out["cli.output_bytes"] = (counts.get("cli.output_bytes", 0.0), "B")
    terms = counts.get("deconvolution.terms", 0.0)
    out["deconvolution.entries_per_term"] = (
        counts.get("deconvolution.entries_consulted", 0.0) / terms if terms else 0.0, "ratio")
    estimated = counts.get("characterization.entries_estimated", 0.0)
    out["characterization.useful_entry_ratio"] = (
        wl.useful_entries / estimated if estimated else 0.0, "ratio")
    out["bench.trace_overhead_frac"] = (wall / min(untraced_walls) - 1.0, "ratio")
    latency = op_latency(lat)
    out["bench.op_p50_ms"] = (latency["op_p50_ms"], "ms")
    out["bench.op_tail_ms"] = (latency["op_tail_ms"], "ms")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    problem = checkout_problem(root)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    cap = cap_threads()
    os.environ.pop("NOISEDECONV_OUT_DIR", None)
    sys.path[:0] = [str(HERE), str(root / "src")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args, root)

    tally = Tally()
    wl = make_workload(args.workload, args.seed, root, "main")
    ops = wl.ops
    try:
        _, _, results, errors = run_pass(ops)
        baseline = pass_outputs(ops, results, errors)
        try:
            verdicts = wl.check(results, baseline)
        except Exception:  # a malformed output can break a gate's parser
            verdicts = [f"gate raised\n{traceback.format_exc(limit=3)}"] * len(ops)
        for op, err, verdict in zip(ops, errors, verdicts):
            tally.record(op.name, f"raised\n{err}" if err else verdict)
        record = {"workload": args.workload, "why": wl.why, "trace": args.trace,
                  "environment": environment(root, args.seed, cap),
                  "outputs_sha256": digest(ops, baseline)}
        if args.trace:
            import tracing as tr
            import noisedeconv

            def make_tracer():
                tracer = tr.Tracer()
                return tracer, tr.Instrumentation(noisedeconv, tracer)

            walls, lat, traced, _ = timed_passes(ops, args.seconds, tally, baseline, make_tracer)
            metrics = per_layer(wl, traced, walls, lat)
            record["samples"] = {"untraced_passes": len(walls), "traced_passes": len(traced),
                                 **op_latency(lat)}
            _, fastest = min(traced, key=lambda t: t[0])
            fastest.save(str(root / WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.npz"))
        else:
            setup = SetUp(args, root, tally, ops, op_hashes(baseline))
            walls, lat, _, best_pass = timed_passes(ops, args.seconds, tally, baseline, setup=setup)
            metrics = {
                "wall_s": (best_pass, "s"),
                "setup_s": (statistics.median(setup.times), "s"),
                "peak_rss_mb": (statistics.median(setup.rss) if setup.rss else 0.0, "MB"),
            }
            record["samples"] = {"passes": len(walls), "median_pass_s": statistics.median(walls),
                                 "pass_walls_s": walls, "setup_times_s": setup.times,
                                 "peak_rss_mb": setup.rss,
                                 **op_latency(lat)}
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    record["error_rate"] = tally.failed / tally.attempted
    record["failures"] = tally.reasons
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results_dir = root / WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for reason in tally.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
