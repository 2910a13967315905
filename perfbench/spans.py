"""In-memory span tracing around the public entry points of each layer.

The benchmark never edits the program.  :func:`instrument` replaces each
layer's entry point with a wrapper that records a span — name, start, end,
parent span, iteration id and one observed value — and restores the
originals when the returned :class:`Instrumentation` is removed.

Functions are replaced at every *binding*, not only in the defining module:
``repro.workloads.jpeg`` does ``from ..apps.images import synthetic_image``,
so patching ``repro.apps.images`` alone would miss the sweep's calls.  Every
loaded ``repro`` module whose namespace holds the original function object
gets the wrapper.  Methods are replaced on the class that defines them.

Spans are kept in flat arrays while the benchmark runs and analysed (or
written out) only at the end.  A layer's *self* time is its span's duration
minus the part of that interval its child spans cover
(:func:`self_durations`).
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer of the spans the benchmark loop itself opens (one per iteration).
ROOT_LAYER = "bench"


class Tracer:
    """Append-only span log shared by every thread of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.iteration = array("q")
        self.value = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_iteration = 0

    def __len__(self) -> int:
        return len(self.start)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def intern(self, name: str) -> int:
        with self._lock:
            index = self._name_ids.get(name)
            if index is None:
                index = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return index

    def new_iteration(self) -> int:
        """A fresh iteration id, made current on the calling thread."""
        with self._lock:
            self._next_iteration += 1
            ident = self._next_iteration
        self._local.iteration = ident
        return ident

    def open(self, name_id: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        ident = getattr(self._local, "iteration", 0)
        now = time.perf_counter()
        with self._lock:
            index = len(self.start)
            self.name_id.append(name_id)
            self.start.append(now)
            self.end.append(now)
            self.parent.append(parent)
            self.iteration.append(ident)
            self.value.append(0.0)
        stack.append(index)
        return index

    def close(self, index: int, value: float = 0.0,
              now: Optional[float] = None) -> None:
        self.end[index] = time.perf_counter() if now is None else now
        if value:
            self.value[index] = value
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager for a span the benchmark opens itself."""
        return _Span(self, self.intern(name))

    def columns(self) -> Dict[str, list]:
        """The span log as plain lists (for analysis and for writing out)."""
        with self._lock:
            return {"name": [self.names[i] for i in self.name_id],
                    "start": list(self.start), "end": list(self.end),
                    "parent": list(self.parent),
                    "iteration": list(self.iteration),
                    "value": list(self.value)}

    def save(self, path: str) -> None:
        """Write the span log as one compressed ``.npz`` file."""
        import numpy as np

        with self._lock:
            np.savez_compressed(
                path, names=np.array(self.names, dtype=str),
                name_id=np.frombuffer(self.name_id, dtype=np.int64),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                iteration=np.frombuffer(self.iteration, dtype=np.int64),
                value=np.frombuffer(self.value, dtype=np.float64))


def load_columns(path: str) -> Dict[str, list]:
    """Read a span log written by :meth:`Tracer.save`."""
    import numpy as np

    with np.load(path) as data:
        names = [str(name) for name in data["names"]]
        return {"name": [names[i] for i in data["name_id"].tolist()],
                "start": data["start"].tolist(), "end": data["end"].tolist(),
                "parent": data["parent"].tolist(),
                "iteration": data["iteration"].tolist(),
                "value": data["value"].tolist()}


class _Span:
    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id
        self.index = -1

    def __enter__(self) -> "_Span":
        self.index = self._tracer.open(self._name_id)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer.close(self.index)


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def self_durations(start: Sequence[float], end: Sequence[float],
                   parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval and overlapping
    children (spans of several threads under one parent) are merged, so
    covered time is never counted twice.
    """
    children: Dict[int, List[int]] = {}
    for index, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append(index)
    result = [end[i] - start[i] for i in range(len(start))]
    for up, kids in children.items():
        lo, hi = start[up], end[up]
        intervals = sorted((max(lo, start[k]), min(hi, end[k])) for k in kids)
        covered = 0.0
        cur_lo, cur_hi = None, None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result[up] -= covered
    return result


@dataclass
class LayerTotals:
    """One group's spans in one iteration.

    ``durations`` and ``values`` hold one entry per entry into the group
    from outside it; ``self_s`` sums the self time of all its spans.
    """

    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def busy_s(self) -> float:
        return sum(self.durations)

    @property
    def value(self) -> float:
        return sum(self.values)


def group_totals(columns: Dict[str, list], group_of: Callable[[str], str]
                 ) -> Dict[int, Dict[str, LayerTotals]]:
    """``{iteration: {group: totals}}`` from a span log.

    ``group_of`` maps a span name to its group: :func:`layer_of` for
    layers, or the identity for single entry points.  A span nested inside
    a span of the *same* group (a layer calling its own entry point) adds
    self time but not a call, busy time or value: ``calls`` counts entries
    into the group from outside it.
    """
    names, start, end = columns["name"], columns["start"], columns["end"]
    parent, iteration, value = (columns["parent"], columns["iteration"],
                                columns["value"])
    own = self_durations(start, end, parent)
    layers = [group_of(name) for name in names]
    outermost = []
    for index in range(len(names)):
        up = parent[index]
        while up >= 0 and layers[up] != layers[index]:
            up = parent[up]
        outermost.append(up < 0)
    totals: Dict[int, Dict[str, LayerTotals]] = {}
    for index, layer in enumerate(layers):
        entry = totals.setdefault(iteration[index], {}).setdefault(
            layer, LayerTotals())
        entry.self_s += own[index]
        if outermost[index]:
            entry.durations.append(end[index] - start[index])
            entry.values.append(value[index])
    return totals


# --------------------------------------------------------------------------- #
# Instrumentation
# --------------------------------------------------------------------------- #
#: Modules whose call-site bindings must exist before patching.
_MODULES = (
    "repro", "repro.cli", "repro.core.study", "repro.core.datapath",
    "repro.core.backends", "repro.core.table_arena", "repro.core.store",
    "repro.core.context", "repro.workloads", "repro.workloads.jpeg",
    "repro.workloads.fft", "repro.apps.images", "repro.apps.jpeg",
    "repro.apps.fft", "repro.fxp.quantize", "repro.metrics.image",
    "repro.metrics.signal", "repro.hardware.synthesis", "repro.search",
    "repro.search.evaluator", "repro.search.halving", "repro.server",
    "repro.server.app", "repro.server.dispatch", "repro.experiments",
)


def _elements(args: tuple, kwargs: dict, result: object) -> float:
    return float(getattr(result, "size", 0) or 0)


def _image_key(args: tuple, kwargs: dict, result: object) -> float:
    size = kwargs.get("size", args[0] if args else 256)
    seed = kwargs.get("seed", args[1] if len(args) > 1 else 2017)
    return float(int(size) * 1_000_003 + int(seed))


def _loaded(args: tuple, kwargs: dict, result: object) -> float:
    return 0.0 if result is None else 1.0


def _bytes_saved(args: tuple, kwargs: dict, result: object) -> float:
    try:
        return float(result.stat().st_size) if result is not None else 0.0
    except OSError:
        return 0.0


def _targets() -> List[Tuple[str, str, str, Optional[Callable]]]:
    """``(span name, owner, attribute, observe)`` for every wrapped entry.

    ``owner`` is a module path (a function, patched at every binding) or
    ``module:Class`` (a method, patched on the class).  ``observe`` turns
    a call's arguments and result into the span's value.
    """
    targets = [
        ("core.study.run", "repro.core.study:Study", "run", None),
        ("apps.images.synthetic_image", "repro.apps.images",
         "synthetic_image", _image_key),
        ("apps.jpeg.encode_decode", "repro.apps.jpeg:JpegEncoder",
         "encode_decode", None),
        ("apps.fft.forward", "repro.apps.fft:FixedPointFFT", "forward", None),
        ("apps.fft.reference_spectrum", "repro.apps.fft:FixedPointFFT",
         "reference_spectrum", None),
        ("apps.fft.random_q15_signal", "repro.apps.fft",
         "random_q15_signal", None),
        ("fxp.wrap_to_width", "repro.fxp.quantize", "wrap_to_width", None),
        ("fxp.saturate_to_width", "repro.fxp.quantize",
         "saturate_to_width", None),
        ("fxp.drop_lsbs", "repro.fxp.quantize", "drop_lsbs", None),
        ("core.backends.direct", "repro.core.backends:DirectBackend",
         "execute", _elements),
        ("core.backends.lut", "repro.core.backends:LutBackend",
         "execute", _elements),
        ("core.backends.compiled", "repro.core.backends:CompiledBackend",
         "execute", _elements),
        ("core.backends.build", "repro.core.table_arena", "get_or_build",
         None),
        ("metrics.mssim", "repro.metrics.image", "mssim", None),
        ("metrics.psnr_db", "repro.metrics.signal", "psnr_db", None),
        ("hardware.characterize", "repro.hardware.synthesis",
         "characterize_hardware", None),
        ("hardware.report_for", "repro.core.datapath:DatapathEnergyModel",
         "report_for", None),
        ("core.store.load", "repro.core.store:ResultStore", "load", _loaded),
        ("core.store.save", "repro.core.store:ResultStore", "save",
         _bytes_saved),
        ("search.strategy", "repro.search.halving:SuccessiveHalving",
         "search", None),
        ("search.evaluate", "repro.search.evaluator:SearchEvaluator",
         "evaluate", None),
        ("server.dispatch", "repro.server.dispatch", "dispatch", None),
    ]
    # Every workload class's own ``run`` (the plugin entry point).
    from repro.workloads.base import Workload

    pending = list(Workload.__subclasses__())
    while pending:
        klass = pending.pop()
        pending.extend(klass.__subclasses__())
        if "run" in vars(klass):
            targets.append((f"workloads.{klass.__name__}.run",
                            f"{klass.__module__}:{klass.__qualname__}",
                            "run", None))
    return targets


#: Entry points that start a new iteration id on their thread (one per
#: server request).
ITERATION_ROOTS = frozenset({"server.dispatch"})

#: Span-name prefix -> layer.  Longest prefix wins.
LAYER_PREFIXES = {
    "core.study": "core.study",
    "apps.images": "apps.images",
    "apps.jpeg": "apps.jpeg",
    "apps.fft": "apps.fft",
    "fxp": "fxp",
    "core.backends": "core.backends",
    "core.backends.build": "core.backends.build",
    "metrics": "metrics",
    "hardware.characterize": "hardware",
    "hardware.report_for": "core.datapath",
    "core.store": "core.store",
    "search": "search",
    "server": "server",
    "workloads": "workloads",
}


def layer_of(name: str) -> str:
    best = ""
    for prefix in LAYER_PREFIXES:
        if (name == prefix or name.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return LAYER_PREFIXES[best] if best else ROOT_LAYER


def _wrapper(tracer: Tracer, name: str, original: Callable,
             observe: Optional[Callable]) -> Callable:
    name_id = tracer.intern(name)
    starts_iteration = name in ITERATION_ROOTS

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if starts_iteration:
            tracer.new_iteration()
        index = tracer.open(name_id)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            tracer.close(index)
            raise
        now = time.perf_counter()
        tracer.close(index, observe(args, kwargs, result)
                     if observe is not None else 0.0, now)
        return result

    return traced


@dataclass
class Instrumentation:
    """The patched bindings of one :func:`instrument` call."""

    #: ``(namespace owner, attribute, original, wrapper)``.
    bindings: List[Tuple[object, str, object, object]]

    def install(self) -> "Instrumentation":
        for owner, attribute, _original, wrapper in self.bindings:
            setattr(owner, attribute, wrapper)
        return self

    def remove(self) -> None:
        for owner, attribute, original, _wrapper in reversed(self.bindings):
            setattr(owner, attribute, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.remove()


def instrument(tracer: Tracer) -> Instrumentation:
    """Collect every binding of every layer entry point (not yet installed).

    Call :meth:`Instrumentation.install` (or use it as a context manager)
    to swap the wrappers in; :meth:`Instrumentation.remove` restores the
    program exactly.
    """
    for module in _MODULES:
        importlib.import_module(module)
    bindings: List[Tuple[object, str, object, object]] = []
    for name, owner, attribute, observe in _targets():
        module_name, _, class_name = owner.partition(":")
        module = sys.modules[module_name]
        if class_name:
            klass = getattr(module, class_name)
            original = vars(klass)[attribute]
            bindings.append((klass, attribute, original,
                             _wrapper(tracer, name, original, observe)))
            continue
        original = getattr(module, attribute)
        wrapper = _wrapper(tracer, name, original, observe)
        for loaded_name, loaded in list(sys.modules.items()):
            if not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            namespace = getattr(loaded, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    bindings.append((loaded, key, original, wrapper))
    return Instrumentation(bindings)
