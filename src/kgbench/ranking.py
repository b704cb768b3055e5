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
from .kg import Adjacency, KnowledgeGraph, Triple

RANK_MODES = ("optimistic", "expected", "pessimistic")
DEFAULT_HITS = (1, 3, 10)
SIDES = ("tail", "head")  # the order in which each triple's queries are ranked
# evaluate() ranks B = min(_BLOCK_ROWS, _BLOCK_BYTES / 8N) triples per block:
# a float64 (B, N) score block stays within 4 MiB, and on small graphs a few
# dozen rows already give the matrix product its full speed, so more rows
# would only add memory
_BLOCK_BYTES = 4 << 20
_BLOCK_ROWS = 64


def _block_rows(n_entities: int) -> int:
    """B, the rows of one (B, N) score block."""
    return max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (8 * n_entities)))


class Scorer(Protocol):
    """Plausibility scoring: higher means more plausible. Implementations
    must be deterministic given fixed parameters. A scorer may also define
    score_block(relations, anchors, side) -> (B, N), the score_tails
    (side "tail") or score_heads (side "head") rows of B queries at once;
    evaluate uses it when present."""

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
        rows = np.array(list(self.true), dtype=np.int64).reshape(-1, 3)
        self._index = Adjacency(rows, np.zeros(len(rows), dtype=np.int8))

    def score(self, relation: int, head: int, tail: int) -> float:
        return 1.0 if Triple(head, relation, tail) in self.true else 0.0

    def score_tails(self, relation: int, head: int) -> np.ndarray:
        out = np.zeros(self.n_entities)
        out[self._index(relation, head, "tail")[0]] = 1.0
        return out

    def score_heads(self, relation: int, tail: int) -> np.ndarray:
        out = np.zeros(self.n_entities)
        out[self._index(relation, tail, "head")[0]] = 1.0
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


def _filter_row(mask: np.ndarray, kg: KnowledgeGraph, query: Triple, side: str) -> int:
    """Set `mask` (length N) to the filtered candidates of `query` corrupted
    on `side`; returns the true entity."""
    anchor, true_e = (query.head, query.tail) if side == "tail" else (query.tail, query.head)
    mask[:] = True
    mask[kg.adjacent(query.relation, anchor, side)[0]] = False
    mask[true_e] = True
    return true_e


def corruption_set(kg: KnowledgeGraph, query: Triple, side: str) -> CorruptionSet:
    """All entities substituted on `side`, minus candidates whose triple is
    known true, except the true triple itself, which is never filtered."""
    if side not in SIDES:
        raise DataError(f"unknown corruption side: {side!r}")
    mask = np.empty(kg.n_entities, dtype=bool)
    _filter_row(mask, kg, query, side)
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


def _score_rows(scorer: Scorer, relations: np.ndarray, anchors: np.ndarray, side: str) -> np.ndarray:
    """(B, N) scores of one block: `scorer.score_block` when the scorer has
    one, else its per-query score_tails/score_heads rows."""
    score_block = getattr(scorer, "score_block", None)
    if score_block is not None:
        return np.asarray(score_block(relations, anchors, side), dtype=np.float64)
    one = scorer.score_tails if side == "tail" else scorer.score_heads
    return np.stack([np.asarray(one(int(r), int(a)), dtype=np.float64) for r, a in zip(relations, anchors)])


def _rank_block(scorer: Scorer, kg: KnowledgeGraph, arr: np.ndarray) -> list[QueryRank]:
    """Ranks of both queries of every (head, relation, tail) row of `arr`,
    in the order of rank_query per triple and side, with the same exact
    comparisons."""
    block = list(map(Triple._make, arr.tolist()))
    rows = np.arange(len(block))
    mask = np.empty((len(block), kg.n_entities), dtype=bool)
    counts: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    bad: list[tuple[int, int, int]] = []  # (row, side index, entity) of the first non-finite score
    for side_index, side in enumerate(SIDES):
        anchors, truths = (arr[:, 0], arr[:, 2]) if side == "tail" else (arr[:, 2], arr[:, 0])
        # the filter of _filter_row for every row at once: known triples out, the truth back in
        src, _, known, _ = kg.adjacent_many(anchors, 2 * arr[:, 1] + (side == "head"))
        mask[:] = True
        mask[src, known] = False
        mask[rows, truths] = True
        scores = _score_rows(scorer, arr[:, 1], anchors, side)
        if scores.shape != mask.shape:
            raise DataError(f"scorer returned {scores.shape[-1]} scores per query for {kg.n_entities} entities")
        non_finite = mask & ~np.isfinite(scores)
        if non_finite.any():
            i = int(np.flatnonzero(non_finite.any(axis=1))[0])
            bad.append((i, side_index, int(np.flatnonzero(non_finite[i])[0])))
            continue
        s_true = scores[rows, truths][:, None]
        greater = np.count_nonzero((scores > s_true) & mask, axis=1)
        ties = np.count_nonzero((scores == s_true) & mask, axis=1) - 1  # exclude the truth itself
        counts[side] = (greater, ties, np.count_nonzero(mask, axis=1))
    if bad:  # the first offending query in split order, tail side first
        i, _, ent = min(bad)
        raise NumericError(f"non-finite score for candidate entity {ent} in query {block[i]}")
    out = []
    for i, t in enumerate(block):
        for side in SIDES:
            greater, ties, n_cands = counts[side]
            opt = 1.0 + int(greater[i])
            pess = opt + int(ties[i])
            out.append(QueryRank(query=t, side=side, optimistic=opt, pessimistic=pess,
                                 expected=(opt + pess) / 2.0, n_candidates=int(n_cands[i])))
    return out


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
    head side per triple, with the ranks rank_query gives. The triples are
    scored in blocks of at most 64 rows, fewer when one float64 (B, N) score
    matrix would exceed 4 MiB.
    """
    if rank_mode not in RANK_MODES:
        raise DataError(f"unknown rank mode: {rank_mode!r}")
    triples = kg.rows(split)
    if not len(triples):
        raise DataError(f"split {split!r} is empty")
    size = _block_rows(kg.n_entities)
    queries: list[QueryRank] = []
    for start in range(0, len(triples), size):
        queries.extend(_rank_block(scorer, kg, triples[start : start + size]))
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
