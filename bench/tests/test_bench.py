"""Self-tests of the benchmark driver.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import noisedeconv  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from noisedeconv import channels, characterization, deconvolution, simulator  # noqa: E402


def test_self_time_of_a_synthetic_span_tree():
    #  0 root      [0, 10]
    #  1  child    [1, 4]
    #  2  child    [5, 9]
    #  3   grand   [6, 7]
    #  4  child    [3.5, 4.5]  overlaps span 1; the union is counted once
    start = [0.0, 1.0, 5.0, 6.0, 3.5]
    end = [10.0, 4.0, 9.0, 7.0, 4.5]
    parent = [-1, 0, 0, 2, 0]
    self_t = tracing.self_times(start, end, parent)
    np.testing.assert_allclose(self_t, [10 - 3.5 - 4, 3.0, 3.0, 1.0, 1.0])


def test_layer_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()
    with tracer.span("bench.pass"):
        with tracer.span("channels.apply_channel"):
            with tracer.span("pauli.vectorize"):
                pass
        with tracer.span("cli.main"):
            pass
    m = tracing.layer_metrics(tracer)
    start, end, *_ = tracer.arrays()
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS + ("bench",))
    assert total == pytest.approx(end[0] - start[0], abs=1e-12)
    assert m["pauli.vectorize.self_s"] == pytest.approx(end[2] - start[2])


def test_a_call_is_counted_once_whichever_binding_it_comes_through():
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(noisedeconv, tracer)
    original = channels.apply_channel
    ch = channels.bit_flip_channel(1, 0.1)
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    inst.install()
    try:
        bindings = [channels.apply_channel, simulator.apply_channel,
                    characterization.apply_channel, noisedeconv.apply_channel]
        assert all(b is bindings[0] for b in bindings) and bindings[0] is not original
        for apply in bindings:
            apply(ch, rho)
    finally:
        inst.uninstall()
    assert channels.apply_channel is original and simulator.apply_channel is original
    names = [tracer.names[i] for i in tracer.arrays()[4]]
    assert names.count("channels.apply_channel") == 4
    # KrausChannel.apply runs inside each call: same group, so not counted again.
    assert names.count("channels.KrausChannel.apply") == 4
    assert tracer.counts["channels.apply.calls"] == 4
    assert tracer.counts["channels.apply.flops_computed"] == 4 * tracing.apply_flops(ch, "kraus")


@pytest.mark.parametrize("path", ["kraus", "diagonal", "ptm"])
def test_apply_flops_follow_the_path_the_call_took(path):
    ch = channels.depolarizing_channel(4, 0.05)
    rho = np.eye(16, dtype=complex) / 16
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(noisedeconv, tracer)
    inst.install()
    try:
        channels.apply_channel(ch, rho, method=path)
    finally:
        inst.uninstall()
    assert tracer.counts["channels.apply.flops_computed"] == tracing.apply_flops(ch, path)


def test_inversions_are_counted_once_at_every_binding():
    tracer = tracing.Tracer()
    inst = tracing.Instrumentation(noisedeconv, tracer)
    original = deconvolution._invert_adjoint
    ptm = channels.KrausChannel([np.diag([1.0, 0.9**0.5]).astype(complex),
                                 np.array([[0, 0.1**0.5], [0, 0]], dtype=complex)]).ptm()
    obs = noisedeconv.Observable(1, {3: 1.0})
    inst.install()
    try:
        assert simulator._invert_adjoint is deconvolution._invert_adjoint is not original
        noisedeconv.plan_general(obs, ptm)
        simulator._invert_adjoint(ptm.matrix, 1e8)
    finally:
        inst.uninstall()
    assert simulator._invert_adjoint is original
    assert tracer.counts["deconvolution.inversion.flops_computed"] == 2 * tracing.inversion_flops(4)
    assert tracer.counts["deconvolution.inversion.bytes_computed"] == 2 * tracing.inversion_bytes(4)
    # Counted without a span: the inversion's time stays with plan_general.
    assert "deconvolution._invert_adjoint" not in tracer.names


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(v) for v in range(1, 101)])
    assert value == 90.0 and pct == 90.0


def _reduced(cls, **sizes):
    return type(cls.__name__, (cls,), sizes)


REDUCED = {
    "experiments": workloads.Experiments,
    "characterize_n3": _reduced(workloads.CharacterizeN3, N=2, OBSERVABLES=2),
    "general_n5": _reduced(workloads.GeneralN5, N=3, OBSERVABLES=2),
    "deconvolve_diagonal_n6": _reduced(workloads.DeconvolveDiagonalN6, N=3, CHANNELS=2, TERMS=(1, 4)),
}


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_smoke_pass_has_no_errors(name, tmp_path):
    assert set(REDUCED) == set(workloads.WORKLOADS)
    wl = REDUCED[name](7, tmp_path, ROOT)
    tally = run.Tally()
    _, _, results, errors = run.run_pass(wl.ops)
    baseline = run.pass_outputs(wl.ops, results, errors)
    for op, err, verdict in zip(wl.ops, errors, wl.check(results, baseline)):
        tally.record(op.name, err or verdict)
    _, _, results, errors = run.run_pass(wl.ops)
    run.compare(tally, wl.ops, baseline, run.pass_outputs(wl.ops, results, errors), errors, "rerun")
    assert tally.attempted == 2 * len(wl.ops)
    assert tally.failed == 0, tally.reasons
