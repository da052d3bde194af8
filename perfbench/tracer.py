"""Spans and counters around the calls into each dlbisim layer.

The tracer wraps each layer's public functions at the names the other
dlbisim modules imported them under (for example both
dlbisim.cli.compute_partition and dlbisim.bisim.compute_partition), so
nested calls nest.  The defining module keeps the original, so internal
and recursive calls (to_text printing a subterm) are not spans.  Spans
are kept in memory as [layer, function, start, end, parent, command],
with start and end in process CPU seconds, and written out when the run
ends.

Counters are read at the same boundaries.  The two that cost real work
(split events, witness DAG nodes) are computed after the pass, outside
every span: split events by repeating a want_trace=False refinement with
want_trace=True.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from time import process_time as clock

# (layer, defining module, function)
LAYERS = (
    ("refine.partition", "dlbisim.refine", "compute_partition"),
    ("core.graph", "dlbisim.core", "to_labeled_graph"),
    ("core.graph", "dlbisim.core", "disjoint_union_graph"),
    ("core.build", "dlbisim.core", "build_interpretation"),
    ("core.build", "dlbisim.core", "build_qs_interpretation"),
    ("document.load", "dlbisim.document", "load_workspace"),
    ("document.load", "dlbisim.document", "loads_workspace"),
    ("document.dump", "dlbisim.document", "interpretation_to_json"),
    ("document.dump", "dlbisim.document", "dumps_document"),
    ("bisim.verdict", "dlbisim.bisim", "largest_bisimulation"),
    ("quotient.quotient", "dlbisim.quotient", "quotient_interpretation"),
    ("quotient.quotient", "dlbisim.quotient", "qs_quotient"),
    ("quotient.witness", "dlbisim.quotient", "separating_concept"),
    ("semantics.eval", "dlbisim.semantics", "eval_concept"),
    ("semantics.eval", "dlbisim.semantics", "eval_role"),
    ("semantics.eval", "dlbisim.semantics", "check_kb"),
    ("syntax.parse", "dlbisim.syntax", "parse_concept"),
    ("syntax.parse", "dlbisim.syntax", "parse_role"),
    ("syntax.parse", "dlbisim.syntax", "parse_gci"),
    ("syntax.parse", "dlbisim.syntax", "parse_role_axiom"),
    ("syntax.parse", "dlbisim.syntax", "parse_assertion"),
    ("syntax.print", "dlbisim.syntax", "to_text"),
)
COMMAND_LAYER = "cli"
COUNTERS = ("refine.blocks", "refine.split_events", "core.edges", "document.bytes_in",
            "document.bytes_out", "bisim.pairs", "quotient.witness_nodes", "syntax.print_bytes")


def dag_nodes(root) -> int:
    """Distinct AST nodes reachable from root, counted by identity."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(child for child in (getattr(node, f.name) for f in dataclasses.fields(node))
                     if dataclasses.is_dataclass(child))
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command: int | None = None
        self.counts: Counter = Counter()
        self.deferred: list = []
        self.missing: list[str] = []
        self._patches: list = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for layer, modname, fname in LAYERS:
            home = importlib.import_module(modname)
            original = getattr(home, fname, None)
            if original is None:
                self.missing.append("%s.%s" % (modname, fname))
                continue
            wrapped = self._wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if not name.startswith("dlbisim.") or module is home:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        observe = getattr(self, "_observe_" + name, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.command is None:
                return fn(*args, **kwargs)
            span = [layer, name, 0.0, 0.0, self.stack[-1], self.command]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                self.stack.pop()
            if observe is not None:
                observe(fn, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ commands

    def begin(self, command: int, kind: str) -> None:
        self.command = command
        self.stack.append(len(self.spans))
        self.spans.append([COMMAND_LAYER, kind, clock(), 0.0, None, command])

    def end(self) -> None:
        self.spans[self.stack.pop()][3] = clock()
        self.command = None

    def settle(self) -> None:
        """Compute the deferred counters; call between commands or passes."""
        for kind, payload in self.deferred:
            if kind == "split":
                fn, bound = payload
                bound.arguments["want_trace"] = True
                _, trace = fn(*bound.args, **bound.kwargs)
                self.counts["refine.split_events"] += len(trace.events)
            else:
                self.counts["quotient.witness_nodes"] += dag_nodes(payload.concept)
        self.deferred.clear()

    # ------------------------------------------------------------ counters

    def _observe_compute_partition(self, fn, args, kwargs, result):
        partition, trace = result
        self.counts["refine.blocks"] += int(partition.n_blocks)
        if trace is not None:
            self.counts["refine.split_events"] += len(trace.events)
        else:
            self.deferred.append(("split", (fn, inspect.signature(fn).bind(*args, **kwargs))))

    def _observe_to_labeled_graph(self, fn, args, kwargs, result):
        self.counts["core.edges"] += int(result.n_edges)

    _observe_disjoint_union_graph = _observe_to_labeled_graph

    def _observe_load_workspace(self, fn, args, kwargs, result):
        self.counts["document.bytes_in"] += os.path.getsize(args[0] if args else kwargs["path"])

    def _observe_loads_workspace(self, fn, args, kwargs, result):
        self.counts["document.bytes_in"] += len((args[0] if args else kwargs["text"]).encode())

    def _observe_dumps_document(self, fn, args, kwargs, result):
        self.counts["document.bytes_out"] += len(result.encode())

    def _observe_largest_bisimulation(self, fn, args, kwargs, result):
        self.counts["bisim.pairs"] += len(result.pairs) if result is not None else 0

    def _observe_separating_concept(self, fn, args, kwargs, result):
        self.deferred.append(("witness", result))

    def _observe_to_text(self, fn, args, kwargs, result):
        self.counts["syntax.print_bytes"] += len(result.encode())


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            out[s[4]] -= s[3] - s[2]
    return out
