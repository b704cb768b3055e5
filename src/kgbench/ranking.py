"""Filtered corruption sets and tie-aware ranks (optimistic, pessimistic,
expected) with hits@K / MRR aggregation.

The optimistic rank counts only candidates scoring strictly above the
truth and therefore places the truth first among equals; the pessimistic
rank places it last among equals; the expected rank is their exact mean.
Score comparisons are exact floating-point comparisons: no epsilon window,
since an epsilon would silently change the metrics the ranks define.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np

from .errors import DataError, NumericError
from .kg import KnowledgeGraph, Triple

RANK_MODES = ("optimistic", "expected", "pessimistic")
DEFAULT_HITS = (1, 3, 10)


class Scorer(Protocol):
    """Plausibility scoring: higher means more plausible. Implementations
    must be deterministic given fixed parameters."""

    def score(self, relation: int, head: int, tail: int) -> float: ...

    def score_tails(self, relation: int, head: int) -> np.ndarray: ...

    def score_heads(self, relation: int, tail: int) -> np.ndarray: ...


class FunctionScorer:
    """Adapts a plain psi(relation, head, tail) callable to the Scorer
    interface; the vectorized paths loop over all entities."""

    def __init__(self, fn, n_entities: int) -> None:
        self.fn = fn
        self.n_entities = n_entities

    def score(self, relation: int, head: int, tail: int) -> float:
        return float(self.fn(relation, head, tail))

    def score_tails(self, relation: int, head: int) -> np.ndarray:
        return np.array([self.fn(relation, head, e) for e in range(self.n_entities)], dtype=np.float64)

    def score_heads(self, relation: int, tail: int) -> np.ndarray:
        return np.array([self.fn(relation, e, tail) for e in range(self.n_entities)], dtype=np.float64)


class ConstantScorer:
    """Constant psi: every candidate ties. The regression scorer for the tie
    pathology the expected rank corrects."""

    def __init__(self, n_entities: int, value: float = 0.0) -> None:
        self.n_entities = n_entities
        self.value = value

    def score(self, relation: int, head: int, tail: int) -> float:
        return self.value

    def score_tails(self, relation: int, head: int) -> np.ndarray:
        return np.full(self.n_entities, self.value, dtype=np.float64)

    def score_heads(self, relation: int, tail: int) -> np.ndarray:
        return np.full(self.n_entities, self.value, dtype=np.float64)


class MembershipScorer:
    """psi = 1 for triples in the given set, else 0 (a perfect oracle when
    handed the union of all splits)."""

    def __init__(self, true_triples: Iterable[Triple], n_entities: int) -> None:
        self.true = set(true_triples)
        self.n_entities = n_entities

    def score(self, relation: int, head: int, tail: int) -> float:
        return 1.0 if Triple(head, relation, tail) in self.true else 0.0

    def score_tails(self, relation: int, head: int) -> np.ndarray:
        out = np.zeros(self.n_entities)
        for t in self.true:
            if t.relation == relation and t.head == head:
                out[t.tail] = 1.0
        return out

    def score_heads(self, relation: int, tail: int) -> np.ndarray:
        out = np.zeros(self.n_entities)
        for t in self.true:
            if t.relation == relation and t.tail == tail:
                out[t.head] = 1.0
        return out


# -- corruption sets ----------------------------------------------------------


@dataclass
class CorruptionSet:
    """A ranking query: the true triple, the corrupted side, and the
    filtered candidate entities (ground-truth candidate always retained)."""

    query: Triple
    side: str  # "head" or "tail"
    candidates: np.ndarray  # entity ids, includes the true entity

    @property
    def true_entity(self) -> int:
        return self.query.head if self.side == "head" else self.query.tail


def corruption_set(kg: KnowledgeGraph, query: Triple, side: str) -> CorruptionSet:
    """All entities substituted on `side`, minus candidates whose triple is
    known true, except the true triple itself, which is never filtered."""
    if side not in ("head", "tail"):
        raise DataError(f"unknown corruption side: {side!r}")
    if side == "tail":
        known = kg.tails_of(query.relation, query.head)
        true_e = query.tail
    else:
        known = kg.heads_of(query.relation, query.tail)
        true_e = query.head
    mask = np.ones(kg.n_entities, dtype=bool)
    for e in known:
        mask[e] = False
    mask[true_e] = True
    return CorruptionSet(query=query, side=side, candidates=np.flatnonzero(mask))


# -- ranks ---------------------------------------------------------------------


def _tie_counts(scorer: Scorer, q: CorruptionSet) -> tuple[int, int]:
    """(#corrupted strictly above truth, #corrupted tied with truth)."""
    if len(q.candidates) == 0:
        raise DataError("corruption set has no candidates")
    if q.side == "tail":
        all_scores = scorer.score_tails(q.query.relation, q.query.head)
    else:
        all_scores = scorer.score_heads(q.query.relation, q.query.tail)
    scores = np.asarray(all_scores, dtype=np.float64)[q.candidates]
    bad = ~np.isfinite(scores)
    if bad.any():
        ent = int(q.candidates[int(np.flatnonzero(bad)[0])])
        raise NumericError(f"non-finite score for candidate entity {ent} in query {q.query}")
    true_pos = int(np.flatnonzero(q.candidates == q.true_entity)[0])
    s_true = scores[true_pos]
    greater = int((scores > s_true).sum())
    ties = int((scores == s_true).sum()) - 1  # exclude the truth itself
    return greater, ties


def optimistic_rank(scorer: Scorer, q: CorruptionSet) -> float:
    """1 + #{corrupted candidates scoring strictly above the truth}."""
    greater, _ = _tie_counts(scorer, q)
    return 1.0 + greater


def pessimistic_rank(scorer: Scorer, q: CorruptionSet) -> float:
    """1 + #{corrupted candidates scoring >= the truth}."""
    greater, ties = _tie_counts(scorer, q)
    return 1.0 + greater + ties


def expected_rank(scorer: Scorer, q: CorruptionSet) -> float:
    """1 + 0.5*#{corrupted > truth} + 0.5*#{corrupted >= truth}: the mean
    of ranking the truth first and last among equals."""
    greater, ties = _tie_counts(scorer, q)
    return 1.0 + 0.5 * greater + 0.5 * (greater + ties)


# -- evaluation -------------------------------------------------------------------


@dataclass
class QueryRank:
    query: Triple
    side: str
    optimistic: float
    pessimistic: float
    expected: float
    n_candidates: int

    def rank(self, mode: str) -> float:
        if mode not in RANK_MODES:
            raise DataError(f"unknown rank mode: {mode!r}")
        return getattr(self, mode)


@dataclass
class RelationBreakdown:
    n_queries: int
    hits: dict[int, float]
    mrr: float


@dataclass
class RankResult:
    rank_mode: str
    hits: dict[int, float]
    mrr: float
    n_queries: int
    per_relation: dict[int, RelationBreakdown]
    queries: list[QueryRank] = field(default_factory=list)

    def to_dict(self, per_query: bool = False) -> dict:
        out = {
            "rank_mode": self.rank_mode,
            "n_queries": self.n_queries,
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
            "per_relation": {
                str(r): {
                    "n_queries": b.n_queries,
                    "mrr": b.mrr,
                    "hits": {str(k): v for k, v in sorted(b.hits.items())},
                }
                for r, b in sorted(self.per_relation.items())
            },
        }
        if per_query:
            out["queries"] = [
                {
                    "head": q.query.head,
                    "relation": q.query.relation,
                    "tail": q.query.tail,
                    "side": q.side,
                    "optimistic": q.optimistic,
                    "pessimistic": q.pessimistic,
                    "expected": q.expected,
                    "n_candidates": q.n_candidates,
                }
                for q in self.queries
            ]
        return out


def rank_query(scorer: Scorer, kg: KnowledgeGraph, query: Triple, side: str) -> QueryRank:
    q = corruption_set(kg, query, side)
    greater, ties = _tie_counts(scorer, q)
    opt = 1.0 + greater
    pess = 1.0 + greater + ties
    return QueryRank(
        query=query,
        side=side,
        optimistic=opt,
        pessimistic=pess,
        expected=(opt + pess) / 2.0,
        n_candidates=len(q.candidates),
    )


def _aggregate(ranks: Sequence[float], hits_at: Sequence[int]) -> tuple[dict[int, float], float]:
    arr = np.asarray(ranks, dtype=np.float64)
    hits = {k: float((arr <= k).mean()) for k in hits_at}
    mrr = float((1.0 / arr).mean())
    return hits, mrr


def evaluate(
    scorer: Scorer,
    kg: KnowledgeGraph,
    split: str = "test",
    rank_mode: str = "expected",
    hits_at: Sequence[int] = DEFAULT_HITS,
) -> RankResult:
    """Rank head-side and tail-side queries for every triple of `split`.

    hits@K is the fraction of queries whose chosen rank is <= K; MRR is the
    mean reciprocal rank. Queries are ranked in split order, tail side then
    head side per triple.
    """
    if rank_mode not in RANK_MODES:
        raise DataError(f"unknown rank mode: {rank_mode!r}")
    triples = kg.triples(split)
    if not triples:
        raise DataError(f"split {split!r} is empty")
    queries = [rank_query(scorer, kg, t, side) for t in triples for side in ("tail", "head")]
    chosen = [q.rank(rank_mode) for q in queries]
    hits, mrr = _aggregate(chosen, hits_at)
    per_rel: dict[int, RelationBreakdown] = {}
    by_rel: dict[int, list[float]] = {}
    for q, r in zip(queries, chosen):
        by_rel.setdefault(q.query.relation, []).append(r)
    for rel, ranks in sorted(by_rel.items()):
        h, m = _aggregate(ranks, hits_at)
        per_rel[rel] = RelationBreakdown(n_queries=len(ranks), hits=h, mrr=m)
    return RankResult(
        rank_mode=rank_mode,
        hits=hits,
        mrr=mrr,
        n_queries=len(queries),
        per_relation=per_rel,
        queries=queries,
    )
