"""Tie-aware ranks against the direct indicator-sum formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbench.errors import DataError, NumericError
from kgbench.kg import Triple, ingest_triples
from kgbench.ranking import (
    ConstantScorer,
    CorruptionSet,
    FunctionScorer,
    MembershipScorer,
    corruption_set,
    evaluate,
    expected_rank,
    optimistic_rank,
    pessimistic_rank,
    rank_query,
)
from conftest import random_kg
from oracles import oracle_ranks


class ArrayScorer:
    """Fixed per-entity scores for one (relation, anchor) query."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)

    def score(self, relation, head, tail):
        return float(self.scores[tail])

    def score_tails(self, relation, head):
        return self.scores

    def score_heads(self, relation, tail):
        return self.scores


def _query(scores_by_entity, true_entity=0, candidates=None):
    n = len(scores_by_entity)
    cands = np.arange(n) if candidates is None else np.asarray(candidates)
    cs = CorruptionSet(query=Triple(0, 0, true_entity), side="tail", candidates=cands)
    return ArrayScorer(scores_by_entity), cs


class TestRankFormulas:
    def test_unique_top_truth(self):
        scorer, cs = _query([1.0, 0.5, 0.2], true_entity=0)
        assert optimistic_rank(scorer, cs) == 1.0
        assert pessimistic_rank(scorer, cs) == 1.0
        assert expected_rank(scorer, cs) == 1.0

    def test_all_ties_optimistic_first_among_equals(self):
        scorer, cs = _query([0.7] * 5, true_entity=2)
        assert optimistic_rank(scorer, cs) == 1.0

    def test_all_ties_expected_n4(self):
        # four corrupted candidates all tied with the truth -> 1 + 4/2
        scorer, cs = _query([0.7] * 5, true_entity=0)
        assert expected_rank(scorer, cs) == 3.0

    def test_all_ties_pessimistic_last_among_equals(self):
        scorer, cs = _query([0.7] * 5, true_entity=0)
        assert pessimistic_rank(scorer, cs) == 5.0

    def test_optimistic_counts_strictly_greater(self):
        scorer, cs = _query([0.5, 0.9, 0.7, 0.2], true_entity=0)
        assert optimistic_rank(scorer, cs) == 3.0

    def test_expected_mixed_tie(self):
        # truth 0.5, corrupted {0.5, 0.9} -> 1 + 0.5*1 + 0.5*2
        scorer, cs = _query([0.5, 0.5, 0.9], true_entity=0)
        assert expected_rank(scorer, cs) == 2.5

    def test_pessimistic_tie(self):
        scorer, cs = _query([0.5, 0.5, 0.2], true_entity=0)
        assert pessimistic_rank(scorer, cs) == 2.0

    def test_no_ties_all_modes_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            scores = rng.permutation(n).astype(np.float64)  # injective
            scorer, cs = _query(scores, true_entity=int(rng.integers(0, n)))
            o = optimistic_rank(scorer, cs)
            e = expected_rank(scorer, cs)
            p = pessimistic_rank(scorer, cs)
            assert o == e == p

    def test_matches_direct_formula_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            # coarse grid scores force plenty of ties
            scores = rng.integers(0, 5, n).astype(np.float64)
            true_e = int(rng.integers(0, n))
            scorer, cs = _query(scores, true_entity=true_e)
            corrupted = [scores[i] for i in range(n) if i != true_e]
            o, p, e = oracle_ranks(scores[true_e], corrupted)
            assert optimistic_rank(scorer, cs) == o
            assert pessimistic_rank(scorer, cs) == p
            assert expected_rank(scorer, cs) == e
            assert o <= e <= p
            assert e == (o + p) / 2.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=40),
        st.data(),
    )
    def test_rank_ordering_invariant(self, raw_scores, data):
        true_e = data.draw(st.integers(min_value=0, max_value=len(raw_scores) - 1))
        scorer, cs = _query([float(s) for s in raw_scores], true_entity=true_e)
        o = optimistic_rank(scorer, cs)
        e = expected_rank(scorer, cs)
        p = pessimistic_rank(scorer, cs)
        assert 1.0 <= o <= e <= p
        assert e == (o + p) / 2.0

    def test_ranks_invariant_under_candidate_permutation(self):
        rng = np.random.default_rng(8)
        scores = rng.integers(0, 3, 20).astype(np.float64)
        scorer = ArrayScorer(scores)
        base = CorruptionSet(Triple(0, 0, 5), "tail", np.arange(20))
        shuffled = CorruptionSet(Triple(0, 0, 5), "tail", rng.permutation(20))
        for fn in (optimistic_rank, pessimistic_rank, expected_rank):
            assert fn(scorer, base) == fn(scorer, shuffled)

    def test_non_finite_score_names_candidate(self):
        scores = [0.5, float("nan"), 0.2]
        scorer, cs = _query(scores, true_entity=0)
        with pytest.raises(NumericError, match="entity 1"):
            expected_rank(scorer, cs)

    def test_empty_candidates(self):
        scorer = ArrayScorer([1.0])
        cs = CorruptionSet(Triple(0, 0, 0), "tail", np.array([], dtype=int))
        with pytest.raises(DataError, match="no candidates"):
            expected_rank(scorer, cs)


class TestCorruptionSets:
    def test_truth_never_filtered(self):
        kg = ingest_triples(["a\tr\tb", "a\tr\tc"], "train")
        cs = corruption_set(kg, kg.triples("train")[0], "tail")
        assert kg.entities.id("b") in cs.candidates

    def test_known_true_candidates_filtered(self):
        kg = ingest_triples(["a\tr\tb", "a\tr\tc", "d\tr\te"], "train")
        cs = corruption_set(kg, kg.triples("train")[0], "tail")
        assert kg.entities.id("c") not in cs.candidates  # (a, r, c) is known true
        assert kg.entities.id("d") in cs.candidates

    def test_filtering_never_worsens_rank(self):
        rng = np.random.default_rng(9)
        kg = random_kg(rng, 15, 2, 30, "train")
        kg = random_kg(rng, 15, 2, 10, "test", kg)
        scorer = ConstantScorer(kg.n_entities)
        query = kg.triples("test")[0]
        before = expected_rank(scorer, corruption_set(kg, query, "tail"))
        # adding a known-true triple on the corrupted side shrinks the pool
        extra = None
        for e in range(kg.n_entities):
            cand = Triple(query.head, query.relation, e)
            if cand not in kg.known_true:
                extra = cand
                break
        assert extra is not None
        kg2 = kg.extended(
            [(kg.entities.label(extra.head), kg.relations.label(extra.relation), kg.entities.label(extra.tail))],
            "valid",
        )
        q2 = Triple(query.head, query.relation, query.tail)
        after = expected_rank(scorer, corruption_set(kg2, q2, "tail"))
        assert after <= before

    def test_bad_side(self):
        kg = ingest_triples(["a\tr\tb"], "train")
        with pytest.raises(DataError):
            corruption_set(kg, kg.triples("train")[0], "middle")


class TestEvaluate:
    def test_perfect_scorer_hits1(self):
        rng = np.random.default_rng(10)
        kg = random_kg(rng, 12, 2, 25, "train")
        kg = random_kg(rng, 12, 2, 8, "test", kg)
        scorer = MembershipScorer(kg.known_true, kg.n_entities)
        result = evaluate(scorer, kg, split="test", rank_mode="expected")
        assert result.hits[1] == 1.0
        assert result.mrr == 1.0

    def test_constant_scorer_tie_pathology(self):
        rng = np.random.default_rng(11)
        kg = random_kg(rng, 30, 3, 100, "train")
        kg = random_kg(rng, 30, 3, 20, "test", kg)
        scorer = ConstantScorer(kg.n_entities)
        expected = evaluate(scorer, kg, split="test", rank_mode="expected")
        optimistic = evaluate(scorer, kg, split="test", rank_mode="optimistic")
        assert expected.hits[1] == 0.0
        assert optimistic.hits[1] == 1.0  # the bug the expected rank corrects
        for q in expected.queries:
            assert q.expected == 1.0 + (q.n_candidates - 1) / 2.0

    def test_hits_monotone_and_saturating(self):
        rng = np.random.default_rng(12)
        kg = random_kg(rng, 10, 2, 20, "train")
        kg = random_kg(rng, 10, 2, 5, "test", kg)
        scorer = ConstantScorer(kg.n_entities)
        result = evaluate(scorer, kg, split="test", rank_mode="expected", hits_at=(1, 3, 10, 1000))
        hits = [result.hits[k] for k in (1, 3, 10, 1000)]
        assert hits == sorted(hits)
        assert result.hits[1000] == 1.0  # K >= candidate count

    def test_empty_split(self):
        kg = ingest_triples(["a\tr\tb"], "train")
        with pytest.raises(DataError, match="empty"):
            evaluate(ConstantScorer(2), kg, split="test")

    def test_per_relation_breakdown_micro_average(self):
        rng = np.random.default_rng(13)
        kg = random_kg(rng, 12, 3, 30, "train")
        kg = random_kg(rng, 12, 3, 12, "test", kg)
        scorer = ConstantScorer(kg.n_entities)
        result = evaluate(scorer, kg, split="test", rank_mode="expected")
        total = sum(b.n_queries for b in result.per_relation.values())
        assert total == result.n_queries
        weighted = sum(b.hits[10] * b.n_queries for b in result.per_relation.values()) / total
        assert weighted == pytest.approx(result.hits[10])

    def test_evaluate_matches_rank_query(self):
        rng = np.random.default_rng(14)
        kg = random_kg(rng, 15, 2, 30, "train")
        kg = random_kg(rng, 15, 2, 10, "test", kg)
        scorer = MembershipScorer(kg.known_true, kg.n_entities)
        result = evaluate(scorer, kg, split="test", rank_mode="expected")
        reference = [rank_query(scorer, kg, t, side) for t in kg.triples("test") for side in ("tail", "head")]
        assert result.queries == reference
        ranks = np.array([q.expected for q in reference])
        assert result.hits == {k: float((ranks <= k).mean()) for k in (1, 3, 10)}
        assert result.mrr == float((1.0 / ranks).mean())

    def test_function_scorer_adapter(self):
        kg = ingest_triples(["a\tr\tb", "c\tr\td"], "train")
        kg = ingest_triples(["a\tr\td"], "test", kg)
        truth = set(kg.known_true)
        fs = FunctionScorer(lambda r, h, t: 1.0 if Triple(h, r, t) in truth else 0.0, kg.n_entities)
        result = evaluate(fs, kg, split="test", rank_mode="expected")
        assert result.hits[1] == 1.0
