"""Spans around the calls into each layer, recorded from outside the program.

Only a traced run imports this module. It replaces the public layer
functions under the names their calling modules bind them to, so
``kemeny.cli.reduce_to_co`` is timed where the CLI calls it. Each span keeps
its name, layer, start, end, parent span and query id in memory; counts are
read from return values (a tail-state count is the ``len()`` of each table
``forward_tables`` returns). Per-state internals such as
``tuple_successors`` and ``_canonical`` are never wrapped: their call
counts would swamp the run.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import kemeny.width

# Decompositions of up to this many candidates come from the exact search.
EXACT_CAP = getattr(kemeny.width, "EXACT_PATHWIDTH_CAP", 12)
LAYERS = ("cli", "orders", "width", "solver_single", "solver_diverse", "pco")


def _decomposition_info(result: Any) -> dict:
    return {"width": result.width, "bags": len(result.decomposition.bags), "n": result.order.n}


def _tables_info(tables: Any) -> dict:
    sizes = [len(table) for table in tables]
    return {"states_peak": max(sizes), "states_total": sum(sizes)}


# (module, attribute path, span name, layer, reads counts from the return value)
TARGETS: list[tuple[str, str, str, str, Callable[[Any], dict] | None]] = [
    ("kemeny.cli", "run", "cli.run", "cli", None),
    ("kemeny.cli", "parse_votes", "cli.parse", "cli", None),
    ("kemeny.cli", "ResultDocument.render", "cli.render", "cli", None),
    ("kemeny.cli", "reduce_to_co", "orders.reduce", "orders", None),
    ("kemeny.solver_diverse", "reduce_to_co", "orders.reduce", "orders", None),
    ("kemeny.cli", "kemeny_score", "orders.score_check", "orders", None),
    ("kemeny.solver_diverse", "kemeny_score", "orders.score_check", "orders", None),
    ("kemeny.cli", "kt_distance", "orders.kt_distance", "orders", None),
    ("kemeny.solver_diverse", "kt_distance", "orders.kt_distance", "orders", None),
    ("kemeny.orders", "CostInstance.extension_cost", "orders.extension_cost", "orders", None),
    ("kemeny.solver_single", "consistent_path_decomposition", "width.decompose", "width", _decomposition_info),
    ("kemeny.solver_diverse", "consistent_path_decomposition", "width.decompose", "width", _decomposition_info),
    ("kemeny.pco", "consistent_path_decomposition", "width.decompose", "width", _decomposition_info),
    ("kemeny.pco", "cocomparability_graph", "width.cocomparability", "width", None),
    ("kemeny.width", "ConsistentPathDecomposition.validate", "width.validate", "width", None),
    ("kemeny.cli", "solve_single", "solver_single.solve", "solver_single", None),
    ("kemeny.pco", "solve_single", "solver_single.solve", "solver_single", None),
    ("kemeny.solver_single", "forward_tables", "solver_single.forward_tables", "solver_single", _tables_info),
    ("kemeny.cli", "solve_diverse_kra", "solver_diverse.entry", "solver_diverse",
     lambda result: {"yes": int(result.outcome.feasible)}),
    ("kemeny.cli", "solve_max_diversity", "solver_diverse.entry", "solver_diverse", None),
    ("kemeny.solver_diverse", "solve_diverse", "solver_diverse.solve", "solver_diverse", None),
    ("kemeny.solver_diverse", "forward_tables", "solver_diverse.register", "solver_diverse", None),
    ("kemeny.cli", "solve_pco", "pco.solve", "pco", lambda result: {"rejected": int(result.optimum is None)}),
]


@dataclass
class Span:
    name: str
    layer: str
    query: object
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.query: object = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        self.absent = []
        for module_name, path, name, layer, read in TARGETS:
            *parents, attr = path.split(".")
            try:
                owner: Any = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, name, layer, read))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, original: Callable, name: str, layer: str, read) -> Callable:
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, self.query, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if read is not None:
                span.info = read(result)
            return result

        return wrapper

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name, "layer": s.layer, "query": s.query, "parent": s.parent,
                "start": s.start, "end": s.end, "error": s.error, "info": s.info,
            }
            for s in self.spans
        ]


def layer_metrics(all_spans: list[Span], wall_s: float, queries: set) -> dict[str, float]:
    """Per-layer totals, self-time shares and counts over the spans of the
    given queries; ``all_spans`` is the tracer's full list, whose parent
    indices point into it."""
    own_s = [s.end - s.start for s in all_spans]
    for s in all_spans:
        if s.parent is not None:
            own_s[s.parent] -= s.end - s.start
    kept = [(s, own) for s, own in zip(all_spans, own_s) if s.query in queries]
    spans = [s for s, _ in kept]
    layer_self = {layer: 0.0 for layer in LAYERS}
    total = {}
    for s, own in kept:
        layer_self[s.layer] += own
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)

    def ms(name: str) -> float:
        return total.get(name, 0.0) * 1000.0

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    decompose = [s for s in named("width.decompose") if s.info]
    tables = [s for s in named("solver_single.forward_tables") if s.info]
    decisions = [s for s in named("solver_diverse.entry") if "yes" in s.info]
    pco = [s for s in named("pco.solve") if s.info]
    lockstep = sum(own for s, own in kept if s.name == "solver_diverse.solve")
    out = {
        "cli.parse_ms": ms("cli.parse"),
        "cli.render_ms": ms("cli.render"),
        "cli.self_ms": layer_self["cli"] * 1000.0,
        "orders.reduce_ms": ms("orders.reduce"),
        "orders.score_check_ms": ms("orders.score_check"),
        "width.decompose_ms": ms("width.decompose"),
        "width.width_max": max((s.info["width"] for s in decompose), default=0),
        "width.bags_total": sum(s.info["bags"] for s in decompose),
        "width.exact_share": _share(
            sum(1 for s in decompose if s.info["n"] <= EXACT_CAP), len(decompose)
        ),
        "solver_single.solve_ms": ms("solver_single.solve"),
        "solver_single.tail_states_peak": max((s.info["states_peak"] for s in tables), default=0),
        "solver_single.tail_states_total": sum(s.info["states_total"] for s in tables),
        "solver_diverse.solve_ms": ms("solver_diverse.entry"),
        "solver_diverse.register_ms": ms("solver_diverse.register"),
        "solver_diverse.lockstep_ms": lockstep * 1000.0,
        "solver_diverse.yes_share": _share(sum(s.info["yes"] for s in decisions), len(decisions)),
        "pco.solve_ms": ms("pco.solve"),
        "pco.rejected_share": _share(sum(s.info["rejected"] for s in pco), len(pco)),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / wall_s
    return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
