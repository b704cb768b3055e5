"""Outside-in tracing: timing wrappers around the public functions and
methods of the program, installed from the benchmark's own files.

A span is (name, start, end, parent). Spans live in memory while the
pipeline runs and are written out once at the end. Self time is a span's
duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field

# (module, attribute) for functions, (module, class, method) for methods.
FUNCTIONS = [
    ("kgbench.kg", "load_dataset"),
    ("kgbench.kg", "save_kg"),
    ("kgbench.kg", "load_kg"),
    ("kgbench.kg", "project_graph"),
    ("kgbench.embed", "sample_negatives"),
    ("kgbench.embed", "batch_gradients"),
    ("kgbench.embed", "train"),
    ("kgbench.ranking", "corruption_set"),
    ("kgbench.ranking", "rank_query"),
    ("kgbench.ranking", "evaluate"),
    ("kgbench.rules", "mine_rules"),
    ("kgbench.rules", "mine_all"),
    ("kgbench.rules", "filter_degenerate"),
    ("kgbench.rules", "save_theories"),
    ("kgbench.rules", "load_theories"),
    ("kgbench.rules", "connected_relations"),
    ("kgbench.rules", "theory_analytics"),
    ("kgbench.graphs", "connected_components"),
    ("kgbench.graphs", "bfs_distances"),
    ("kgbench.graphs", "avg_neighbor_degree"),
    ("kgbench.graphs", "degree_assortativity"),
    ("kgbench.graphs", "average_clustering"),
    ("kgbench.graphs", "degree_centrality_mean"),
    ("kgbench.graphs", "closeness_centrality_mean"),
    ("kgbench.graphs", "eccentricity_radius_diameter"),
    ("kgbench.graphs", "connectivity"),
    ("kgbench.graphs", "cliques"),
    ("kgbench.graphs", "meta_properties"),
    ("kgbench.graphs", "profile_kg"),
    ("kgbench.classify", "embedding_feature_cells"),
    ("kgbench.classify", "nested_cv_features"),
    ("kgbench.classify", "knn_classify"),
    ("kgbench.classify", "symbolic_cv"),
    ("kgbench.cli", "write_manifest"),
]
METHODS = [
    ("kgbench.embed", "EmbeddingModel", "save"),
    ("kgbench.embed", "EmbeddingModel", "load"),
    ("kgbench.embed", "EmbeddingModel", "score_tails"),
    ("kgbench.embed", "EmbeddingModel", "score_heads"),
    ("kgbench.rules", "RuleScorer", "score_tails"),
    ("kgbench.rules", "RuleScorer", "score_heads"),
    ("kgbench.classify", "RuleBasedClassifier", "fit"),
    ("kgbench.classify", "RuleBasedClassifier", "predict"),
]
# spans that also record a size taken from the call's arguments
SIZES = {"classify.knn_classify": lambda args, kwargs: len(args[2] if len(args) > 2 else kwargs["test_X"])}


@dataclass
class Tracer:
    """In-memory span recorder. Span i is names[i], starts[i], ends[i],
    parents[i] (-1 for a root) and sizes[i] (0 unless the name is in SIZES).
    Nothing is recorded while ``enabled`` is false."""

    enabled: bool = False
    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str, size: int = 0) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.sizes.append(size)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self.open(name, size_of(args, kwargs) if size_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    def to_dict(self) -> dict:
        return {"names": self.names, "starts": self.starts, "ends": self.ends,
                "parents": self.parents, "sizes": self.sizes}


def _layer_name(module: str, *attrs: str) -> str:
    return ".".join([module.split(".")[-1], *attrs])


def install(tracer: Tracer) -> list[str]:
    """Replace every binding of each traced function in every loaded
    ``kgbench`` module (a module that did ``from .x import f`` holds its own
    binding), and patch methods on their classes. Returns the span names."""
    import importlib

    for mod in ("kgbench", "kgbench.cli", "kgbench.classify", "kgbench.graphs", "kgbench.ranking",
                "kgbench.report"):
        importlib.import_module(mod)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "kgbench" or n.startswith("kgbench.")]
    names = []
    for module, attr in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        name = _layer_name(module, attr)
        wrapper = tracer.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
        names.append(name)
    for module, cls_name, attr in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        raw = cls.__dict__[attr]
        name = _layer_name(module, cls_name, attr)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw))
        names.append(name)
    return names


def span_overhead_s(tracer: Tracer, calls: int = 20_000, rounds: int = 5) -> float:
    """Median extra cost of one traced call over a plain call, measured in
    this process on a no-op function. The tracer's spans are left as found."""

    def noop():
        return None

    wrapped = tracer.wrap("overhead.noop", noop)
    was_enabled, tracer.enabled = tracer.enabled, True
    mark = len(tracer.names)
    samples = []
    try:
        for _ in range(rounds):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            samples.append(max(0.0, ((t2 - t1) - (t1 - t0)) / calls))
            for lst in (tracer.names, tracer.starts, tracer.ends, tracer.parents, tracer.sizes):
                del lst[mark:]
    finally:
        tracer.enabled = was_enabled
    samples.sort()
    return samples[len(samples) // 2]


def self_times(spans: dict) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [e - s for s, e in zip(spans["starts"], spans["ends"])]
    for i, p in enumerate(spans["parents"]):
        if p >= 0:
            own[p] -= spans["ends"][i] - spans["starts"][i]
    return own


SCORERS = {"eval-complex": "complex", "eval-transe": "transe", "apply-rules": "rules"}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(result: dict, reports: dict, forced_accepts: int, rules_kept: int) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` of one traced run.

    ``result`` holds the spans and the (span, stage name) pairs of the
    stage roots; ``reports`` maps the eval stage names to their per-query
    reports, from which the exact tie counts are read.
    """
    sp = result["spans"]
    names, parents = sp["names"], sp["parents"]
    dur = [e - s for s, e in zip(sp["starts"], sp["ends"])]
    own = self_times(sp)
    stage_of_root = {i: name for i, name in result["stage_spans"]}
    stage = []
    for i, p in enumerate(parents):  # parents precede children
        stage.append(stage_of_root.get(i, "") if p < 0 else stage[p])

    def total(*which, in_stage=None):
        return sum(d for n, d, s in zip(names, dur, stage) if n in which and in_stage in (None, s))

    def self_total(name):
        return sum(o for n, o in zip(names, own) if n == name)

    def count(*which, in_stage=None):
        return sum(1 for n, s in zip(names, stage) if n in which and in_stage in (None, s))

    mine_targets = [d for n, d, s in zip(names, dur, stage) if n == "rules.mine_rules" and s == "mine-rules"]
    candidates = count("rules.filter_degenerate", in_stage="mine-rules")
    m = {
        "kg.ingest_s": (total("kg.load_dataset"), "s"),
        "kg.save_s": (total("kg.save_kg"), "s"),
        "kg.load_s": (total("kg.load_kg"), "s"),
        "kg.load_calls": (count("kg.load_kg"), "count"),
        "kg.project_s": (total("kg.project_graph"), "s"),
        "embed.sample_s": (total("embed.sample_negatives"), "s"),
        "embed.sample_calls": (count("embed.sample_negatives"), "count"),
        "embed.grad_s": (total("embed.batch_gradients"), "s"),
        "embed.grad_calls": (count("embed.batch_gradients"), "count"),
        "embed.update_s": (self_total("embed.train"), "s"),
        "embed.forced_accepts": (forced_accepts, "count"),
        "embed.ckpt_io_s": (total("embed.EmbeddingModel.save", "embed.EmbeddingModel.load"), "s"),
        "embed.score_s": (total("embed.EmbeddingModel.score_tails", "embed.EmbeddingModel.score_heads"), "s"),
        "embed.score_calls": (count("embed.EmbeddingModel.score_tails", "embed.EmbeddingModel.score_heads"), "count"),
        "ranking.filter_s": (total("ranking.corruption_set"), "s"),
        "ranking.tie_s": (self_total("ranking.rank_query"), "s"),
        "ranking.aggregate_s": (self_total("ranking.evaluate"), "s"),
    }
    for stage_name, scorer in SCORERS.items():
        ms = [d * 1000.0 for n, d, s in zip(names, dur, stage) if n == "ranking.rank_query" and s == stage_name]
        queries = reports[stage_name]["queries"]
        gaps = [q["pessimistic"] - q["optimistic"] for q in queries]
        tied = [g for g in gaps if g > 0]
        m[f"ranking.query_ms_p50.{scorer}"] = (_percentile(ms, 0.50), "ms")
        m[f"ranking.query_ms_p99.{scorer}"] = (_percentile(ms, 0.99), "ms")
        m[f"ranking.candidates_per_query.{scorer}"] = (sum(q["n_candidates"] for q in queries) / len(queries), "count")
        m[f"ranking.tied_query_share.{scorer}"] = (len(tied) / len(queries), "ratio")
        m[f"ranking.mean_tie_group.{scorer}"] = ((sum(tied) / len(tied) + 1.0) if tied else 0.0, "count")
    m.update({
        "rules.mine_target_s_p50": (_percentile(mine_targets, 0.50), "s"),
        "rules.mine_target_s_max": (max(mine_targets, default=0.0), "s"),
        "rules.candidates": (candidates, "count"),
        "rules.kept": (rules_kept, "count"),
        "rules.kept_ratio": (rules_kept / candidates if candidates else 0.0, "ratio"),
        "rules.io_s": (total("rules.save_theories", "rules.load_theories"), "s"),
        "rules.analytics_s": (total("rules.connected_relations", "rules.theory_analytics"), "s"),
        "rules.score_s": (total("rules.RuleScorer.score_tails", "rules.RuleScorer.score_heads"), "s"),
        "rules.score_calls": (count("rules.RuleScorer.score_tails", "rules.RuleScorer.score_heads"), "count"),
        "graphs.components_s": (total("graphs.connected_components"), "s"),
        "graphs.local_s": (total("graphs.avg_neighbor_degree", "graphs.degree_assortativity",
                                 "graphs.average_clustering", "graphs.degree_centrality_mean"), "s"),
        "graphs.distance_s": (total("graphs.closeness_centrality_mean", "graphs.eccentricity_radius_diameter"), "s"),
        "graphs.bfs_sources": (count("graphs.bfs_distances"), "count"),
        "graphs.connectivity_s": (total("graphs.connectivity"), "s"),
        "graphs.cliques_s": (total("graphs.cliques"), "s"),
        "graphs.meta_s": (total("graphs.meta_properties"), "s"),
        "classify.cells_s": (total("classify.embedding_feature_cells"), "s"),
        "classify.knn_s": (total("classify.knn_classify"), "s"),
        "classify.knn_calls": (count("classify.knn_classify"), "count"),
        "classify.knn_points": (sum(z for n, z in zip(names, sp["sizes"]) if n == "classify.knn_classify"), "count"),
        "classify.symbolic_fit_s": (total("classify.RuleBasedClassifier.fit"), "s"),
        "classify.symbolic_predict_s": (total("classify.RuleBasedClassifier.predict"), "s"),
        "cli.manifest_s": (total("cli.write_manifest"), "s"),
        "cli.other_s": (self_total("cli.run"), "s"),
        "tracing_overhead_s": (len(names) * result["span_overhead_s"], "s"),
    })
    return m
