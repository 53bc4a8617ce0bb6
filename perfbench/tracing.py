"""Per-layer tracing of hierbn from outside the package.

``install()`` replaces the public functions of each hierbn module with
wrappers that record spans (name, start, end, parent span). Each function is
patched under every name a module looks it up by, because several are bound
with ``from ... import`` (``cli.load_csv``, ``scores.family_counts``,
``search.local_log_score``, ``bench.run_hill_climb`` and others).

Three graph functions are called hundreds of thousands of times per climb
(``Dag.parents``, ``Dag.has_path`` and ``is_acyclic``, which every ``Dag``
construction runs). They are leaves, so they keep only a call count and a
total time, which is still subtracted from the enclosing span's self time.

Spans stay in memory until ``Tracer.save``; ``Tracer.layer_metrics`` turns
them into the per-layer metrics the benchmark reports.
"""

import time
from array import array
from collections import defaultdict

import numpy as np

from hierbn import bench, cli, data, graph, hier, metrics, scores, search, simgen

MODULES = (cli, bench, simgen, metrics, search, graph, scores, hier, data)
LAYERS = ("cli", "bench", "simgen", "metrics", "search", "graph", "scores", "hier", "data")

# (module, function name) wrapped with a span; the span is named after the
# module that defines the function
SPANS = (
    (cli, "main"),
    (bench, "run"), (bench, "run_job"), (bench, "expand"),
    (simgen, "generate"),
    (metrics, "evaluate"), (metrics, "write_records"), (metrics, "read_records"),
    (search, "run_hill_climb"), (search, "neighbourhood"), (search, "apply_move"),
    (graph, "shd"), (graph, "arc_confusion"),
    (scores, "local_log_score"), (scores, "total_log_score"),
    (scores, "bd_local_log_score"), (scores, "bdeu_local_log_score"),
    (hier, "fit_variational"), (hier, "bhd_local_log_score"),
    (data, "load_csv"), (data, "family_counts"),
)

# hot leaves: call count and total time only
COUNTED = (
    ("graph.is_acyclic", graph, "is_acyclic"),
    ("graph.parents", graph.Dag, "parents"),
    ("graph.has_path", graph.Dag, "has_path"),
)

# per-layer metrics, in report order
METRICS = (
    "hier.fit_s", "hier.fits", "hier.fit_s.p50", "hier.fit_s.p90", "hier.sweeps",
    "hier.nonconverged", "hier.cells_fitted", "hier.score_s", "hier.self_s",
    "search.climb_s", "search.self_s", "search.iterations", "search.neighbourhood_s",
    "search.moves_evaluated", "search.apply_move_s", "search.moves_applied_ratio",
    "graph.is_acyclic_calls", "graph.is_acyclic_s", "graph.parents_calls",
    "graph.parents_s", "graph.has_path_calls", "graph.has_path_s", "graph.self_s",
    "data.load_csv_s", "data.rows_loaded", "data.family_counts_s",
    "data.family_counts_calls", "data.count_cells_max", "data.self_s",
    "scores.requests", "scores.cache_hits", "scores.cache_hit_ratio",
    "scores.kernel_s", "scores.kernel_calls", "scores.self_s",
    "simgen.generate_s", "simgen.self_s", "metrics.evaluate_s", "metrics.write_s",
    "metrics.self_s", "bench.run_job_s.p50", "bench.self_s", "cli.self_s",
)


def unit(name):
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or "_s.p" in name:
        return "s"
    return "count"


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.self_s = defaultdict(float)   # span or counted name -> self time
        self.counts = defaultdict(int)
        self._stack = []                   # indices of open spans
        self._child_s = []                 # time covered by children, per open span

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` so each call records a span; ``observe(args, result)``
        may add counters derived from the call."""
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack, child_s = self._stack, self._child_s
        span_name, span_start, span_end, span_parent = (
            self.span_name, self.span_start, self.span_end, self.span_parent)
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            child_s.append(0.0)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[index] = end
                stack.pop()
                covered = child_s.pop()
                self_s[name] += end - start - covered
                if child_s:
                    child_s[-1] += end - start
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        """Wrap a leaf ``fn`` keeping only its call count and total time."""
        clock = time.perf_counter
        child_s, self_s, counts = self._child_s, self.self_s, self.counts

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                counts[name] += 1
                self_s[name] += elapsed
                if child_s:
                    child_s[-1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def durations(self, name):
        """Durations of every span called ``name``, in call order."""
        if name not in self.names:
            return np.zeros(0)
        ids = np.frombuffer(self.span_name, dtype=np.int32)
        mask = ids == self.names.index(name)
        return (np.frombuffer(self.span_end)[mask] - np.frombuffer(self.span_start)[mask])

    def save(self, path):
        """Write every span to ``path`` (numpy .npz)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32))

    def layer_metrics(self):
        """Every metric in ``METRICS`` from the spans and counters so far."""
        c = self.counts

        def total(name):
            return float(self.durations(name).sum())

        def quantile(name, q):
            values = self.durations(name)
            return float(np.percentile(values, q)) if values.size else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        layer_self = defaultdict(float)
        for name, value in self.self_s.items():
            layer_self[name.split(".")[0]] += value

        out = {
            "hier.fit_s": total("hier.fit_variational"),
            "hier.fits": c["hier.fits"],
            "hier.fit_s.p50": quantile("hier.fit_variational", 50),
            "hier.fit_s.p90": quantile("hier.fit_variational", 90),
            "hier.sweeps": c["hier.sweeps"],
            "hier.nonconverged": c["hier.nonconverged"],
            "hier.cells_fitted": c["hier.cells_fitted"],
            "hier.score_s": total("hier.bhd_local_log_score"),
            "search.climb_s": total("search.run_hill_climb"),
            "search.iterations": len(self.durations("search.neighbourhood")),
            "search.neighbourhood_s": total("search.neighbourhood"),
            "search.moves_evaluated": len(self.durations("search.apply_move")),
            "search.apply_move_s": total("search.apply_move"),
            "search.moves_applied_ratio": ratio(
                c["search.moves_applied"], len(self.durations("search.apply_move"))),
            "graph.is_acyclic_calls": c["graph.is_acyclic"],
            "graph.is_acyclic_s": self.self_s["graph.is_acyclic"],
            "graph.parents_calls": c["graph.parents"],
            "graph.parents_s": self.self_s["graph.parents"],
            "graph.has_path_calls": c["graph.has_path"],
            "graph.has_path_s": self.self_s["graph.has_path"],
            "data.load_csv_s": total("data.load_csv"),
            "data.rows_loaded": c["data.rows_loaded"],
            "data.family_counts_s": total("data.family_counts"),
            "data.family_counts_calls": len(self.durations("data.family_counts")),
            "data.count_cells_max": c["data.count_cells_max"],
            "scores.requests": len(self.durations("scores.local_log_score")),
            "scores.cache_hits": c["scores.cache_hits"],
            "scores.cache_hit_ratio": ratio(
                c["scores.cache_hits"], len(self.durations("scores.get_or_compute"))),
            "scores.kernel_s": total("scores.bd_local_log_score"),
            "scores.kernel_calls": len(self.durations("scores.bd_local_log_score")),
            "simgen.generate_s": total("simgen.generate"),
            "metrics.evaluate_s": total("metrics.evaluate"),
            "metrics.write_s": total("metrics.write_records"),
            "bench.run_job_s.p50": quantile("bench.run_job", 50),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return {name: out[name] for name in METRICS}


def _replace_everywhere(original, wrapper):
    # a function bound by ``from ... import`` lives under several modules
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install():
    """Wrap hierbn's public functions and return the recording Tracer."""
    tracer = Tracer()
    counts = tracer.counts

    def observe_fit(args, fit):
        counts["hier.fits"] += 1
        counts["hier.sweeps"] += len(fit.elbo_trace) - 1
        counts["hier.nonconverged"] += not fit.converged
        counts["hier.cells_fitted"] += fit.kappa.size

    def observe_climb(args, result):
        counts["search.moves_applied"] += len(result.trace) - 1

    def observe_load(args, dataset):
        counts["data.rows_loaded"] += dataset.n_rows

    def observe_counts(args, family):
        counts["data.count_cells_max"] = max(counts["data.count_cells_max"],
                                             family.per_group.size)

    observers = {
        "hier.fit_variational": observe_fit,
        "search.run_hill_climb": observe_climb,
        "data.load_csv": observe_load,
        "data.family_counts": observe_counts,
    }
    for module, attr in SPANS:
        original = getattr(module, attr)
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        _replace_everywhere(original, tracer.span(name, original, observers.get(name)))

    for name, owner, attr in COUNTED:
        original = getattr(owner, attr)
        wrapper = tracer.counted(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _replace_everywhere(original, wrapper)

    lookup = tracer.span("scores.get_or_compute", scores.LocalScoreCache.get_or_compute)

    def get_or_compute(cache, key, compute):
        hits = cache.hits
        value = lookup(cache, key, compute)
        counts["scores.cache_hits"] += cache.hits - hits
        return value

    scores.LocalScoreCache.get_or_compute = get_or_compute
    return tracer
