"""Span tracing of the ``noisedeconv`` modules from outside the package.

Every public function of a module (the names in its ``__all__``, or its
non-underscore names when it has none), every public method of a public
class and the channel constructors are replaced, for the length of a traced pass, by one
wrapper that records a span.  Modules import each other by name, so a
function is bound in several places (``channels.apply_channel`` is also
``simulator.apply_channel``, ``characterization.apply_channel`` and
``noisedeconv.apply_channel``); one wrapper is installed at every
binding, so a call is recorded once whichever binding it comes through.

A span holds its name, start, end, parent span and the id of the
benchmark operation it belongs to.  Spans are kept in flat arrays in
memory and written out when the run ends.

Metrics (see ``layer_metrics``):

* ``<layer>.self_s`` -- sum over the layer's spans of span duration minus
  the time covered by its child spans.  The layers are the package's
  modules plus ``bench`` for the driver's own spans, so the layer
  ``self_s`` values add up to the root span's duration.
* ``<group>.calls`` -- calls into the group that are not nested inside
  another call of the same group; ``<group>.self_s`` -- the summed self
  time of all the group's spans.

Computed counts (labelled "computed": derived from the arguments by a
formula, not measured):

* ``channels.apply.flops_computed`` per channel application on d = 2**n,
  D = 4**n, by the path the call took -- seen from the spans that ran
  inside it, not from the program's dispatch rule:
  - Kraus path (no ``pauli.vectorize`` inside the call): K Kraus
    operators x 2 complex d x d products, each 8 d**3 real flops, so
    16 K d**3;
  - diagonal path (``pauli.vectorize`` inside the call, no transfer
    matrix): a forward and an inverse per-qubit transform, each n
    applications of a 4x4 complex kernel over D entries (32 n D flops),
    plus the elementwise scaling and normalisation (4 D), so
    64 n D + 4 D;
  - transfer-matrix path (``pauli.vectorize`` and a ``channels.ptm`` span
    inside the call, or a transfer-matrix channel): the two transforms
    plus a real D x D by complex vector product (4 D**2), so
    64 n D + 4 D**2.
* ``deconvolution.inversion.flops_computed`` per inversion of a D x D
  transfer matrix, counted at ``deconvolution._invert_adjoint``, the one
  function every general-path inversion goes through (wrapped without a
  span, so the time stays with its caller): the SVD behind the condition
  number (singular values only, 8/3 D**3) plus the LU-based inverse
  (8/3 D**3), so 16/3 D**3.
* ``deconvolution.inversion.bytes_computed`` per inversion: the D x D
  float64 arrays the two factorisations allocate -- the SVD work copy,
  the LU copy, the identity right-hand side and the inverse -- so
  4 * 8 * D**2 bytes.
"""

from __future__ import annotations

import importlib
import inspect
import os
import types
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("pauli", "channels", "deconvolution", "characterization", "sampling", "simulator", "cli")

# Channel constructors are traced too: building a channel from Kraus
# operators (with its trace-preservation check) is a public entry point.
CONSTRUCTORS = ("channels.KrausChannel.__init__", "channels.PauliDiagonalChannel.__init__")

# Span names grouped into the per-layer metrics the benchmark reports.
GROUPS = {
    "pauli.vectorize": ("pauli.vectorize",),
    "pauli.devectorize": ("pauli.devectorize",),
    "pauli.pauli_element": ("pauli.pauli_element",),
    "pauli.observable_parse": ("pauli.Observable.from_text", "pauli.Observable.from_pairs"),
    "channels.build": (
        "channels.channel_from_config",
        "channels.correlated_pauli_channel",
        "channels.correlated_pauli_weights",
        "channels.bit_flip_channel",
        "channels.depolarizing_channel",
        "channels.dephasing_channel",
        "channels.correlated_amplitude_damping",
        "channels.KrausChannel.from_pauli_weights",
        *CONSTRUCTORS,
    ),
    "channels.apply": (
        "channels.apply_channel",
        "channels.KrausChannel.apply",
        "channels.PauliDiagonalChannel.apply",
    ),
    "channels.lambdas": ("channels.KrausChannel.lambdas", "channels.PauliDiagonalChannel.lambdas"),
    "channels.ptm": (
        "channels.KrausChannel.ptm",
        "channels.PauliDiagonalChannel.ptm",
        "channels.as_ptm",
        "channels.ptm_from_kraus",
    ),
    "deconvolution.plan_pauli": ("deconvolution.plan_pauli",),
    "deconvolution.plan_general": ("deconvolution.plan_general",),
    "deconvolution.plan_from_characterization": ("deconvolution.plan_from_characterization",),
    "deconvolution.deconvolve": ("deconvolution.deconvolve",),
    "characterization.estimate": (
        "characterization.estimate_full_ptm",
        "characterization.estimate_diagonal_entries",
        "characterization.estimate_diagonal_entry",
    ),
    "characterization.positivity": (
        "characterization.positivity_coefficients",
        "characterization.is_positive_semidefinite",
    ),
    "characterization.report_io": (
        "characterization.CharacterizedPTM.to_report_text",
        "characterization.CharacterizedPTM.from_report_text",
    ),
    "sampling.exact": ("sampling.exact_pauli_expectation",),
    "sampling.sampled": ("sampling.sample_pauli_expectation",),
    "sampling.derive_rng": ("sampling.derive_rng",),
    "simulator.run_experiment": ("simulator.run_experiment",),
    "simulator.csv": ("simulator.records_to_csv",),
    "cli.main": ("cli.main",),
}

# Groups whose only reported figure is self time.
SELF_ONLY = ("pauli.observable_parse", "characterization.report_io", "simulator.csv")

PLAN_NAMES = (
    "deconvolution.plan_pauli",
    "deconvolution.plan_general",
    "deconvolution.plan_composed",
    "deconvolution.plan_from_characterization",
)

# Private functions whose calls are counted (at every binding) but given
# no span of their own.
COUNTED_ONLY = ("deconvolution._invert_adjoint",)


def apply_flops(ch, path: str) -> float:
    """channels.apply.flops_computed for one application along ``path``
    ("kraus", "diagonal" or "ptm"; see module doc)."""
    n = ch.n
    d, D = 2**n, 4**n
    if path == "ptm":
        return 64.0 * n * D + 4.0 * D * D
    if path == "diagonal":
        return 64.0 * n * D + 4.0 * D
    return 16.0 * len(ch.kraus_ops) * d**3


def inversion_flops(D: int) -> float:
    return 16.0 / 3.0 * float(D) ** 3


def inversion_bytes(D: int) -> float:
    return 32.0 * float(D) ** 2


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.nid = array("q")
        self._stack: list[int] = []
        self._open_groups: dict[str, int] = {}
        self.current_op = -1
        self.counts: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.nid.append(nid)
        self._stack.append(sid)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def names_since(self, sid: int) -> set[str]:
        """Names of the spans opened after span ``sid``."""
        return {self.names[i] for i in self.nid[sid + 1:]}

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def enter_group(self, group: str | None) -> bool:
        """Mark a group open; True when no call of it is already open."""
        if group is None:
            return False
        depth = self._open_groups.get(group, 0)
        self._open_groups[group] = depth + 1
        return depth == 0

    def leave_group(self, group: str | None) -> None:
        if group is not None:
            self._open_groups[group] -= 1

    def arrays(self):
        """(start, end, parent, op, name id) of every span, as numpy views."""
        return (
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.op, dtype=np.int64),
            np.frombuffer(self.nid, dtype=np.int64),
        )

    def save(self, path: str) -> None:
        start, end, parent, op, nid = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), name=nid, start=start, end=end,
                 parent=parent, op=op)


class _Span:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.sid = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.sid)
        return False


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part of its interval its children cover."""
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = int(parent[i])
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for i in sorted(kids, key=lambda i: start[i]):
            s, e = max(start[i], lo), min(end[i], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Summed self time of all spans, per layer and per metric group."""
    start, end, parent, _, nid = tracer.arrays()
    sums = np.bincount(nid, weights=self_times(start, end, parent), minlength=len(tracer.names))
    by_name = {name: float(sums[i]) for i, name in enumerate(tracer.names)}
    out: dict[str, float] = {}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = sum(v for k, v in by_name.items() if layer_of(k) == layer)
    for group, names in GROUPS.items():
        out[f"{group}.self_s"] = sum(by_name.get(k, 0.0) for k in names)
    return out


class Instrumentation:
    """Installs and removes the span wrappers on the package's modules."""

    def __init__(self, package, tracer: Tracer):
        self.tracer = tracer
        self._originals: list[tuple[object, str, object]] = []
        self.modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        }
        self.namespaces = [package, *self.modules.values()]
        self.targets = self._discover()
        self.group_of = {n: g for g, names in GROUPS.items() for n in names}

    def _discover(self):
        """(owner, attribute, qualified span name) of every public callable."""
        fns: dict[int, tuple[object, str]] = {}
        methods = []
        for layer, mod in self.modules.items():
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for name in public:
                obj = getattr(mod, name, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    fns[id(obj)] = (obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    for attr, raw in vars(obj).items():
                        qual = f"{layer}.{name}.{attr}"
                        if attr.startswith("_") and qual not in CONSTRUCTORS:
                            continue
                        if isinstance(raw, (types.FunctionType, classmethod, staticmethod)):
                            methods.append((obj, attr, qual))
        for qual in COUNTED_ONLY:
            layer, name = qual.split(".")
            fn = getattr(self.modules[layer], name)
            fns[id(fn)] = (fn, qual)
        return fns, methods

    def install(self) -> None:
        fns, methods = self.targets
        wrapped = {fid: self._count_only(fn, name) if name in COUNTED_ONLY else self._wrap(fn, name)
                   for fid, (fn, name) in fns.items()}
        for ns in self.namespaces:
            for attr, val in list(vars(ns).items()):
                w = wrapped.get(id(val))
                if w is not None:
                    self._originals.append((ns, attr, val))
                    setattr(ns, attr, w)
        for cls, attr, name in methods:
            raw = vars(cls)[attr]
            self._originals.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(cls, attr, self._wrap(raw, name))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._originals):
            setattr(owner, attr, val)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        tracer = self.tracer
        nid = tracer.name_id(name)
        group = self.group_of.get(name)
        counter = _COUNTERS.get(name)
        plan_scope = "deconvolution.plans" if name in PLAN_NAMES else None

        def wrapper(*args, **kwargs):
            outer = tracer.enter_group(group)
            outer_plan = tracer.enter_group(plan_scope)
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
                tracer.leave_group(plan_scope)
                tracer.leave_group(group)
            if outer:
                tracer.add(f"{group}.calls", 1)
            if counter is not None:
                counter(tracer, result, args, kwargs, outer=outer, outer_plan=outer_plan, sid=sid)
            return result

        return _named(wrapper, fn, name)

    def _count_only(self, fn, name: str):
        tracer = self.tracer
        counter = _COUNTERS[name]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(tracer, result, args, kwargs)
            return result

        return _named(wrapper, fn, name)


def _named(wrapper, fn, name: str):
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    return wrapper


def _count_apply(tracer, result, args, kwargs, outer, sid, **_):
    if outer:
        ch = args[0]
        inside = tracer.names_since(sid)
        if "pauli.vectorize" not in inside:
            path = "kraus"
        elif type(ch).__name__ == "PTM" or inside & set(GROUPS["channels.ptm"]):
            path = "ptm"
        else:
            path = "diagonal"
        tracer.add("channels.apply.flops_computed", apply_flops(ch, path))


def _count_plan(tracer, plan, args, kwargs, outer_plan, **_):
    if outer_plan:
        tracer.add("deconvolution.entries_consulted", plan.entries_consulted)
        tracer.add("deconvolution.terms", plan.observable.r)
        tracer.add("deconvolution.required_measurements", len(plan.weights))


def _count_inversion(tracer, inv, args, kwargs):
    D = inv.shape[0]
    tracer.add("deconvolution.inversion.flops_computed", inversion_flops(D))
    tracer.add("deconvolution.inversion.bytes_computed", inversion_bytes(D))


def _count_probe(tracer, result, args, kwargs, **_):
    tracer.add("characterization.probes", 1)


def _count_estimate(tracer, report, args, kwargs, outer, **_):
    if outer:
        measured = sum(1 for (j, k) in report.entries if j and k)
        tracer.add("characterization.entries_estimated", measured)


def _count_sampled(tracer, result, args, kwargs, **_):
    shots = kwargs.get("shots", args[2] if len(args) > 2 else None)
    tracer.add("sampling.shots", shots)


def _count_run_experiment(tracer, records, args, kwargs, **_):
    cfg = args[0]
    tracer.add("simulator.records", len(records))
    grid = len(cfg.mu_grid or [None]) * len(cfg.strength_grid or [None])
    tracer.add("simulator.evolution_steps", grid * cfg.m_max)


def _count_cli(tracer, rc, args, kwargs, **_):
    argv = list(args[0]) if args else list(kwargs.get("argv") or [])
    if rc != 0:
        tracer.add("cli.exit_nonzero", 1)
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            tracer.add("cli.output_bytes", os.path.getsize(path))


_COUNTERS = {
    "channels.apply_channel": _count_apply,
    "channels.KrausChannel.apply": _count_apply,
    "channels.PauliDiagonalChannel.apply": _count_apply,
    "deconvolution.plan_pauli": _count_plan,
    "deconvolution.plan_from_characterization": _count_plan,
    "deconvolution.plan_general": _count_plan,
    "deconvolution.plan_composed": _count_plan,
    "deconvolution._invert_adjoint": _count_inversion,
    "characterization.probe_state": _count_probe,
    "characterization.estimate_full_ptm": _count_estimate,
    "characterization.estimate_diagonal_entries": _count_estimate,
    "sampling.sample_pauli_expectation": _count_sampled,
    "simulator.run_experiment": _count_run_experiment,
    "cli.main": _count_cli,
}
