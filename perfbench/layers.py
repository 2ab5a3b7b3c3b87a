"""Per-layer accounting for the traced run.

The benchmark adds no span inside the program.  A traced operation is
the same sequence of public calls as the untraced one, split so that
each call into one layer is timed from outside (:meth:`OpTrace.call`);
where a public API already takes ``tracer=`` the benchmark passes a
:class:`repro.obs.Tracer` and turns the spans the program already
records into layer self time (:func:`span_layers`).

An operation's wall time is the sum of its calls, so the benchmark's
own bookkeeping between calls never counts.  Whatever part of that
wall no layer claims is the *residue*: the unspanned remainder of
``run_study`` and the cost of tracing itself.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

#: Span name -> layer, for spans whose whole duration is self time.
_SPAN_LAYER = {
    "study.compile": "planner",
    "shard.compile": "planner",
    "study.merge": "merge",
    "study.select": "runner",
    "checkpoint.write": "checkpoint.write",
}

#: Display order (and the full set) of layers an operation splits into.
LAYERS = (
    "load.late",
    "serve",
    "spec",
    "planner",
    "cache",
    "kernels",
    "executor",
    "checkpoint.write",
    "checkpoint.read",
    "merge",
    "runner",
    "result.save",
    "result.load",
)

#: One span as ``(name, duration_s, tid, attributes)``.
Span = Tuple[str, float, int, Mapping[str, Any]]


def tracer_spans(tracer: Any) -> List[Span]:
    """The finished spans of a :class:`repro.obs.Tracer`."""
    return [
        (s.name, s.duration_s, s.tid, s.attributes) for s in tracer.spans
    ]


def telemetry_spans(telemetry: Mapping[str, Any]) -> List[Span]:
    """The spans inside a result's ``telemetry`` document."""
    return [
        (e["name"], e["dur_us"] * 1e-6, e["tid"], e.get("args", {}))
        for e in telemetry.get("events", ())
    ]


def span_layers(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time per layer from one study's spans.

    ``engine.evaluate`` is the kernels when it missed the cache and
    the cache lookup when it hit.  The executor's self time is its
    ``shard.task`` spans minus the shard work nested in them (shard
    compile and kernels, on the shard tracks).
    """
    layers: Dict[str, float] = defaultdict(float)
    tasks = nested = 0.0
    for name, duration, tid, attributes in spans:
        if name == "engine.evaluate":
            layer = "cache" if attributes.get("cache_hit") else "kernels"
            layers[layer] += duration
            if tid > 0:
                nested += duration
        elif name == "shard.task":
            tasks += duration
        elif name in _SPAN_LAYER:
            layers[_SPAN_LAYER[name]] += duration
            if name == "shard.compile":
                nested += duration
    if tasks:
        layers["executor"] += max(0.0, tasks - nested)
    return dict(layers)


@dataclass
class OpTrace:
    """Wall time and per-layer self time of one traced operation."""

    rows: int
    wall_s: float = 0.0
    layers: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    shards: int = 0

    @contextmanager
    def call(self, layer: Optional[str] = None) -> Iterator[None]:
        """Time one program call; ``layer`` claims all of it as self time."""
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.wall_s += elapsed
            if layer is not None:
                self.layers[layer] += elapsed

    def add(self, layers: Mapping[str, float]) -> None:
        """Claim self time measured inside calls already timed."""
        for layer, seconds in layers.items():
            self.layers[layer] += seconds

    def normalize(self, scale: float) -> None:
        """Scale every time by the host-speed factor (see ``SpeedProbe``)."""
        self.wall_s *= scale
        for layer in self.layers:
            self.layers[layer] *= scale

    def absorb(self, spans: List[Span]) -> None:
        """Claim the self time of a study's spans; count its shards."""
        self.add(span_layers(spans))
        self.shards += sum(1 for span in spans if span[0] == "shard.task")

    @property
    def residue_s(self) -> float:
        return self.wall_s - sum(self.layers.values())


def share_table(ops: List[OpTrace]) -> Dict[str, Dict[str, float]]:
    """Per layer: median self time per op and share of total op wall."""
    wall = sum(op.wall_s for op in ops)
    table: Dict[str, Dict[str, float]] = {}
    for layer in LAYERS:
        per_op = [op.layers.get(layer, 0.0) for op in ops]
        if any(per_op):
            table[layer] = {
                "self_s": median(per_op),
                "share": sum(per_op) / wall if wall else 0.0,
            }
    residue = [op.residue_s for op in ops]
    table["residue"] = {
        "self_s": median(residue),
        "share": sum(residue) / wall if wall else 0.0,
    }
    return table


def format_share_table(title: str, ops: List[OpTrace]) -> str:
    """The printed per-layer table for one kind of operation."""
    lines = [
        f"{title}: {len(ops)} traced ops, median wall "
        f"{median([op.wall_s for op in ops]) * 1e3:.2f} ms",
        f"  {'layer':<18} {'self ms/op':>11} {'share':>8}",
    ]
    for layer, row in share_table(ops).items():
        lines.append(
            f"  {layer:<18} {row['self_s'] * 1e3:>11.3f} "
            f"{row['share'] * 100:>7.1f}%"
        )
    return "\n".join(lines)
