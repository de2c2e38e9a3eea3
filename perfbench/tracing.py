"""Per-layer spans for the traced run.

The tracer wraps the layer functions that ``lapexcess.cli`` and
``lapexcess.theorem`` call, by replacing the names those modules look up at
call time; the program itself is not changed.  Every call records a span
(verdict id, span id, parent span id, name, start, end) and, for some
layers, a count read from the call's arguments or result.  Spans stay in
memory until the run writes them out.

A layer whose function a later version of lapexcess no longer calls by that
name is simply not wrapped, and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

# Span name -> the per-layer metric that sums its duration.
LAYER_TIMES = {
    "graphs.parse": "graphs.parse_ms",
    "graphs.laplacian": "graphs.laplacian_ms",
    "eigen.solve": "eigen.solve_ms",
    "eigen.cluster": "eigen.cluster_ms",
    "orthopoly.system": "orthopoly.system_ms",
    "orthopoly.residual": "orthopoly.residual_ms",
    "graphs.bfs": "graphs.bfs_ms",
    "theorem.oracle": "theorem.oracle_ms",
    "report.build": "report.build_ms",
    "report.dumps": "report.dumps_ms",
}
# Spans whose self time (duration minus that of their children) is a metric.
SELF_TIMES = {
    "cli.main": "cli.main_self_ms",
    "theorem.analyze": "theorem.analyze_self_ms",
}

# Per-verdict means of the counts the counters below record, with units.
COUNT_METRICS = {
    "orthopoly.residual_matmuls": "count",
    "graphs.distance_mib": "MiB",
    "theorem.oracle_pairs": "count",
    "report.json_kib": "KiB",
}

MIB = 1024.0 * 1024.0


def _matmuls(args, result):
    # eval_matrix(p, m) does one n x n product per coefficient of p.
    return "orthopoly.residual_matmuls", len(args[0])


def _distance_mib(args, result):
    # Bytes held by the arrays of the returned DistanceData.
    total = 0
    for name in getattr(result, "__dataclass_fields__", None) or vars(result):
        value = getattr(result, name)
        items = value if isinstance(value, (list, tuple)) else [value]
        total += sum(getattr(x, "nbytes", 0) for x in items)
    return "graphs.distance_mib", total / MIB


def _oracle_pairs(args, result):
    # Pairs (u, v) scanned in row-major order: all n^2 when an array is
    # found, up to and including the witness on refusal, none when the
    # refusal is for irregular degrees (no distance attached).
    n = args[0].n
    if getattr(result, "reason", None) is None:
        return "theorem.oracle_pairs", n * n
    if result.distance is None:
        return "theorem.oracle_pairs", 0
    return "theorem.oracle_pairs", result.u * n + result.v + 1


def _json_kib(args, result):
    return "report.json_kib", len(result) / 1024.0


# (module attribute, span name, counter): the calls cli and theorem make
# into each layer.
CLI_TARGETS = (
    ("parse_edge_list", "graphs.parse", None),
    ("analyze", "theorem.analyze", None),
    ("build_document", "report.build", None),
    ("dumps", "report.dumps", _json_kib),
)
THEOREM_TARGETS = (
    ("laplacian_matrix", "graphs.laplacian", None),
    ("eigenvalues_sym", "eigen.solve", None),
    ("cluster_spectrum", "eigen.cluster", None),
    ("phi_products", "eigen.cluster", None),
    ("predistance_system", "orthopoly.system", None),
    ("hoffman_polynomial", "orthopoly.system", None),
    ("spectral_excess_closed_form", "orthopoly.system", None),
    ("eval_scalar", "orthopoly.system", None),
    ("eval_matrix", "orthopoly.residual", _matmuls),
    ("distance_data", "graphs.bfs", _distance_mib),
    ("drg_oracle", "theorem.oracle", _oracle_pairs),
)


class Tracer:
    """Spans and counts of the verdicts run while it is installed."""

    def __init__(self):
        self.spans = []  # (verdict, span, parent, name, start, end)
        self.counts = defaultdict(float)
        self.verdict = 0
        self._stack = []
        self._next_id = 0

    def wrap(self, name, fn, counter=None):
        """fn, recording a span named name around each call."""

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((self.verdict, span, parent, name, start, end))
            if counter is not None:
                key, value = counter(args, result)
                self.counts[key] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, cli, theorem, orthopoly):
        """Wrap the layer calls of cli and theorem; restore them on exit."""
        saved = []
        try:
            for module, targets in ((cli, CLI_TARGETS), (theorem, THEOREM_TARGETS)):
                for attr, name, counter in targets:
                    if hasattr(module, attr):
                        fn = getattr(module, attr)
                        saved.append((module, attr, fn))
                        setattr(module, attr, self.wrap(name, fn, counter))
            measure = getattr(orthopoly, "SpectralMeasure", None)
            if measure is not None and "from_spectrum" in vars(measure):
                saved.append((measure, "from_spectrum", vars(measure)["from_spectrum"]))
                measure.from_spectrum = staticmethod(
                    self.wrap("orthopoly.system", measure.from_spectrum)
                )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def durations(self):
        """Total and self seconds per span name."""
        total = defaultdict(float)
        child = defaultdict(float)
        for verdict, span, parent, name, start, end in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_time = defaultdict(float)
        for verdict, span, parent, name, start, end in self.spans:
            self_time[name] += (end - start) - child[span]
        return total, self_time

    def layer_metrics(self, verdicts: int) -> dict:
        """Per-verdict means of the layer metrics: {name: (value, unit)}."""
        total, self_time = self.durations()
        out = {}
        for name, metric in LAYER_TIMES.items():
            out[metric] = (1000.0 * total[name] / verdicts, "ms")
        for name, metric in SELF_TIMES.items():
            out[metric] = (1000.0 * self_time[name] / verdicts, "ms")
        for metric, unit in COUNT_METRICS.items():
            out[metric] = (self.counts[metric] / verdicts, unit)
        return out

    def shares(self) -> dict:
        """Share of the cli.main time spent in each layer, the self times of
        cli.main and theorem.analyze included."""
        total, self_time = self.durations()
        whole = total["cli.main"]
        if whole <= 0:
            return {}
        out = {name: total[name] / whole for name in LAYER_TIMES}
        for name in SELF_TIMES:
            out[name + " (self)"] = self_time[name] / whole
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: verdict, span, parent, name, start and
        end in seconds from the first span."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for verdict, span, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps([verdict, span, parent, name, start - origin, end - origin])
                    + "\n"
                )

