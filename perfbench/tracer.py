"""In-memory span tracing of qmcecon's layers, driven from outside the package.

``Tracer.install`` rebinds every public, non-generator function defined at
module level in the layer modules to a timing wrapper, in every namespace
that holds the function by name (``engine.inverse_qft``, ``bench.count_stream``,
``econ.run_qmc``, ...), so calls between layers are timed too.  Each call
records a span (name, start, end, parent).  ``uninstall`` restores the
originals.  Nothing inside ``src/qmcecon`` changes.

A span's self time is its duration minus the durations of its direct child
spans.  Calls are single-threaded here (sweeps run with ``jobs=1``), so child
spans never overlap and that difference is exactly the uncovered time.

Work done by a generator lands in the span of the function that consumes it:
``circuits.lower_gates`` is lazy, so its lowering is timed inside
``circuits.count_stream``.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Hot scalar helpers, called per sample or per gate: a wrapper would cost more
# than the work it times and distort the profile.
UNWRAPPED = frozenset({
    "econ.neoclassical_single_draw",
    "engine.theta_to_mu",
    "sim.rotation_matrix",
})


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _run_qmc_attrs(args, kwargs, result):
    config = kwargs.get("config", args[0] if args else None)
    system = config.dims * config.m + 1
    return {"n": config.n, "qubits": system + config.n,
            "method": config.method, "oracle_calls": result.oracle_calls}


# Work counters recorded at the span of the call that does the work, keyed by
# the traced name: (args, kwargs, result) -> span attributes.
ATTRIBUTE_HOOKS = {
    "engine.run_qmc": _run_qmc_attrs,
    "sim.init_state": lambda a, k, r: {"qubits": r.num_qubits},
    "circuits.count_stream": lambda a, k, r: {"gates": r.total_gates},
    "distributions.train_ansatz": lambda a, k, r: {"epochs": int(r[1].size)},
    "econ.classical_mc": lambda a, k, r: {"samples": r.num_samples},
    "bench.time_per_sample": lambda a, k, r: {"seconds": r},
}


class Tracer:
    """Records spans for wrapped functions; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = ATTRIBUTE_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                span.attrs = hook(args, kwargs, result)
            return result

        return traced

    def install(self, layers: dict, namespaces) -> list[str]:
        """Wrap the public functions of ``layers`` ({layer name: module}).

        Every module in ``namespaces`` (the layers included) that binds an
        original function by name gets the wrapper instead.  Returns the
        traced names.
        """
        wrappers, names = {}, []
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__
                        or inspect.isgeneratorfunction(obj) or name in UNWRAPPED):
                    continue
                wrappers[obj] = self.wrap(name, obj)
                names.append(name)
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return sorted(names)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Self time of each span, in span order."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def summary(self, start: int = 0, end: int | None = None) -> dict:
        """Per traced name: calls, total self time, and summed attributes,
        over the spans ``start:end``."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for span, self_s in zip(self.spans[start:end], self.self_times()[start:end]):
            entry = out[span.name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            for key, value in span.attrs.items():
                if isinstance(value, (int, float)):
                    entry[key] = entry.get(key, 0) + value
        return dict(out)

    def top_level_seconds(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)

    def children(self, index: int):
        """Descendants of span ``index`` (spans are stored in start order)."""
        parents = {index}
        for i in range(index + 1, len(self.spans)):
            if self.spans[i].parent in parents:
                parents.add(i)
                yield self.spans[i]

    def records(self):
        """Spans as plain dicts, for writing out at the end of a run."""
        for i, s in enumerate(self.spans):
            yield {"id": i, "name": s.name, "parent": s.parent,
                   "start": s.start, "end": s.end, **s.attrs}
