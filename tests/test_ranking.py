"""Tie-aware ranks against the direct indicator-sum formulas."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbench import ranking
from kgbench.embed import MODEL_KINDS, EmbeddingModel
from kgbench.errors import DataError, NumericError
from kgbench.kg import Triple, ingest_triples
from kgbench.ranking import (
    SIDES,
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
from kgbench.rules import RuleScorer, mine_all
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


@st.composite
def graphs(draw):
    """A random graph with train and test triples, and the rng that built it."""
    n = draw(st.integers(min_value=2, max_value=20))
    n_rel = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    capacity = n * n * n_rel
    n_train = draw(st.integers(min_value=1, max_value=min(40, capacity - 1)))
    n_test = draw(st.integers(min_value=1, max_value=min(12, capacity - n_train)))
    kg = random_kg(rng, n, n_rel, n_train, "train")
    return random_kg(rng, n, n_rel, n_test, "test", kg), rng


# rows per block: None keeps evaluate's own block size, larger than any
# split drawn here; 1 to 4 split the test queries over several blocks
block_rows = st.one_of(st.none(), st.integers(min_value=1, max_value=4))


def _assert_blocks_match_reference(scorer, kg, rows):
    reference = [rank_query(scorer, kg, t, side) for t in kg.triples("test") for side in SIDES]
    block_bytes = ranking._BLOCK_BYTES if rows is None else 8 * kg.n_entities * rows
    with mock.patch.object(ranking, "_BLOCK_BYTES", block_bytes):
        assert evaluate(scorer, kg, split="test").queries == reference


class TestBlockRanking:
    """evaluate ranks in (B, N) blocks; rank_query is its per-query reference."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(graphs(), block_rows, st.sampled_from(["real", "integer"]), st.booleans(), st.data())
    def test_embedding_models(self, kind, graph, rows, weights, duplicate_rows, data):
        # integer-valued weights make every product and sum exact, so both
        # groupings of the terms give the same scores and ties are common
        kg, rng = graph
        dim = data.draw(st.integers(min_value=1, max_value=6))

        def table(n_rows):
            shape = (2 if kind == "complex" else 1, n_rows, dim)
            if weights == "integer":
                return rng.integers(-2, 3, size=shape).astype(np.float64)
            return rng.uniform(-1.0, 1.0, size=shape)

        model = EmbeddingModel(kind, table(kg.n_entities), table(kg.n_relations))
        if duplicate_rows:
            src, dst = rng.integers(0, kg.n_entities, size=(2, max(1, kg.n_entities // 3)))
            model.entity[:, dst] = model.entity[:, src]
        _assert_blocks_match_reference(model, kg, rows)

    @settings(max_examples=40, deadline=None)
    @given(graphs(), block_rows, st.sampled_from(["constant", "membership", "rules"]), st.booleans())
    def test_scorers_without_score_block(self, graph, rows, kind, flag):
        kg, rng = graph
        if kind == "constant":
            scorer = ConstantScorer(kg.n_entities, value=1.5 if flag else 0.0)
        elif kind == "membership":
            known = sorted(kg.known_true)
            keep = rng.random(len(known)) < 0.5
            scorer = MembershipScorer([t for t, k in zip(known, keep) if k or flag], kg.n_entities)
        else:
            scorer = RuleScorer(mine_all(kg, max_body_len=2), kg, score_known_train=flag)
        _assert_blocks_match_reference(scorer, kg, rows)

    @settings(max_examples=40, deadline=None)
    @given(graphs(), block_rows, st.integers(min_value=1, max_value=3))
    def test_tie_heavy_function_scorer(self, graph, rows, levels):
        """A scorer with at most three score values: the truth ties with many
        candidates, so each rank counts exactly the candidates of the gathered
        filter mask, which corruption_set's per-query filter checks."""
        kg, rng = graph
        table = rng.integers(0, levels, size=(kg.n_relations, kg.n_entities, kg.n_entities)).astype(np.float64)
        scorer = FunctionScorer(lambda r, h, t: table[r, h, t], kg.n_entities)
        _assert_blocks_match_reference(scorer, kg, rows)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_membership_scorer_rows_are_the_set_indicator(self, graph):
        kg, rng = graph
        scorer = MembershipScorer(kg.triples("train"), kg.n_entities)
        for r in range(kg.n_relations):
            for a in range(kg.n_entities):
                tails = [scorer.score(r, a, e) for e in range(kg.n_entities)]
                heads = [scorer.score(r, e, a) for e in range(kg.n_entities)]
                assert scorer.score_tails(r, a).tolist() == tails
                assert scorer.score_heads(r, a).tolist() == heads

    def test_scores_of_another_width_are_data_error(self):
        kg = ingest_triples(["a\tr\tb"], "train")
        kg = ingest_triples(["b\tr\ta"], "test", kg)
        with pytest.raises(DataError, match="3 scores per query for 2 entities"):
            evaluate(ConstantScorer(3), kg, split="test")
