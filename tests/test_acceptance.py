"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Full-scale dataset checks run only when KGBENCH_DATA points at a directory
containing FB15k-237 and KGBENCH_FULL_SCALE=1 is set; they take hours and
are excluded from the default run.
"""

import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from kgbench.classify import (
    KNN_K_GRID,
    KNN_WEIGHTS,
    CVResult,
    accuracy_difference,
    knn_classify,
    make_folds,
    nested_cv_features,
)
from kgbench.embed import (
    EmbeddingModel,
    TrainConfig,
    batch_gradients,
    batch_loss,
    score_distmult,
    score_transe,
    train,
)
from kgbench.graphs import (
    average_clustering,
    avg_neighbor_degree,
    cliques,
    closeness_centrality_mean,
    connectivity,
    degree_assortativity,
    degree_centrality_mean,
    eccentricity_radius_diameter,
    meta_properties,
)
from kgbench.kg import KnowledgeGraph, Triple, ingest_triples, project_graph
from kgbench.ranking import (
    ConstantScorer,
    CorruptionSet,
    evaluate,
    expected_rank,
    optimistic_rank,
    pessimistic_rank,
)
from kgbench.report import render_report
from kgbench.rules import Atom, HornRule, RuleScorer, filter_degenerate, mine_rules
from conftest import build_equivalence_kg, random_kg
from oracles import (
    oracle_assortativity,
    oracle_avg_neighbor_degree,
    oracle_cliques,
    oracle_closeness_mean,
    oracle_clustering,
    oracle_degree_centrality_mean,
    oracle_ecc_radius_diameter,
    oracle_edge_connectivity,
    oracle_knn,
    oracle_node_connectivity,
    oracle_ranks,
    random_connected_graph,
)
from test_graphs import graph_from_adj


@contextmanager
def criterion(name: str, budget_seconds: float):
    from conftest import ACCEPTANCE_LINES

    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        line = f"[FAIL] {name} ({elapsed:.1f}s)"
        ACCEPTANCE_LINES.append(line)
        print(line, file=sys.__stdout__, flush=True)
        raise
    elapsed = time.perf_counter() - start
    line = f"[PASS] {name} ({elapsed:.1f}s)"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert elapsed < budget_seconds, f"{name}: {elapsed:.1f}s exceeds {budget_seconds}s budget"


class _FixedScores:
    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)

    def score(self, relation, head, tail):
        return float(self.scores[tail])

    def score_tails(self, relation, head):
        return self.scores

    def score_heads(self, relation, tail):
        return self.scores


def test_expected_rank_formula():
    with criterion("expected-rank formula vs direct implementation", 5.0):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            n = int(rng.integers(2, 51))
            if trial % 2:
                scores = rng.integers(0, 6, n).astype(np.float64)  # tie-rich
            else:
                scores = rng.normal(size=n)
            true_e = int(rng.integers(0, n))
            scorer = _FixedScores(scores)
            cs = CorruptionSet(Triple(0, 0, true_e), "tail", np.arange(n))
            corrupted = [scores[i] for i in range(n) if i != true_e]
            o_opt, o_pess, o_exp = oracle_ranks(scores[true_e], corrupted)
            opt = optimistic_rank(scorer, cs)
            pess = pessimistic_rank(scorer, cs)
            exp = expected_rank(scorer, cs)
            assert exp == o_exp
            assert opt == o_opt
            assert pess == o_pess
            assert opt <= exp <= pess
        # all-ties case, four corrupted candidates
        scorer = _FixedScores([0.7] * 5)
        cs = CorruptionSet(Triple(0, 0, 0), "tail", np.arange(5))
        assert expected_rank(scorer, cs) == 3.0


def test_tie_pathology_regression():
    with criterion("tie pathology: constant scorer hits@1", 1.0):
        rng = np.random.default_rng(77)
        kg = random_kg(rng, 25, 3, 80, "train")
        kg = random_kg(rng, 25, 3, 20, "test", kg)
        assert len(kg.known_true) == 100
        scorer = ConstantScorer(kg.n_entities)
        expected = evaluate(scorer, kg, split="test", rank_mode="expected")
        optimistic = evaluate(scorer, kg, split="test", rank_mode="optimistic")
        assert all(q.n_candidates >= 2 for q in expected.queries)
        assert expected.hits[1] == 0.0
        assert optimistic.hits[1] == 1.0


def _random_batch(rng, n_ent, n_rel, bsize, k):
    pos = np.stack(
        [rng.integers(0, n_ent, bsize), rng.integers(0, n_rel, bsize), rng.integers(0, n_ent, bsize)],
        axis=1,
    )
    neg = np.stack(
        [rng.integers(0, n_ent, (bsize, k)), rng.integers(0, n_rel, (bsize, k)), rng.integers(0, n_ent, (bsize, k))],
        axis=2,
    )
    neg[:, :, 1] = pos[:, None, 1]
    return pos, neg


def test_gradient_checks():
    with criterion("gradient checks vs central finite differences", 30.0):
        h = 1e-5
        n_ent, n_rel = 10, 2
        n_checked = 0
        worst = 0.0
        for kind in ("transe", "distmult", "complex"):
            for dim in (10, 50):
                rng = np.random.default_rng(hash((kind, dim)) % 2**32)
                model = EmbeddingModel.initialize(kind, n_ent, n_rel, dim, seed=dim)
                for mat in ("entity_re", "relation_re", "entity_im", "relation_im"):
                    arr = getattr(model, mat)
                    if arr is not None:
                        arr *= 0.3  # keep scores O(1), away from hinge corners
                cfg = TrainConfig(model=kind, dim=dim, epochs=0, checkpoint_every=0)
                for _ in range(17):
                    pos, neg = _random_batch(rng, n_ent, n_rel, 4, 2)
                    _, grads = batch_gradients(model, pos, neg, cfg)
                    mats = {"entity_re": model.entity_re, "relation_re": model.relation_re}
                    if kind == "complex":
                        mats["entity_im"] = model.entity_im
                        mats["relation_im"] = model.relation_im
                    for name, M in mats.items():
                        G = grads[name]
                        for i in range(M.shape[0]):
                            for j in range(M.shape[1]):
                                orig = M[i, j]
                                M[i, j] = orig + h
                                lp = batch_loss(model, pos, neg, cfg)
                                M[i, j] = orig - h
                                lm = batch_loss(model, pos, neg, cfg)
                                M[i, j] = orig
                                num = (lp - lm) / (2 * h)
                                err = abs(num - G[i, j]) / max(abs(num) + abs(G[i, j]), 1e-6)
                                worst = max(worst, err)
                    n_checked += 1
        assert n_checked >= 100
        assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"


def test_model_identities():
    with criterion("model identities (symmetry, specialization, sign)", 5.0):
        rng = np.random.default_rng(5)
        e = rng.normal(size=(30, 12))
        r = rng.normal(size=(5, 12))
        md = EmbeddingModel("distmult", e, r)
        mc = EmbeddingModel("complex", e, r, np.zeros_like(e), np.zeros_like(r))
        from kgbench.embed import score_complex

        for _ in range(1000):
            h, t = (int(x) for x in rng.integers(0, 30, 2))
            rel = int(rng.integers(0, 5))
            s = score_distmult(md, Triple(h, rel, t))
            assert s == score_distmult(md, Triple(t, rel, h))
            assert score_complex(mc, Triple(h, rel, t)) == s
        # TransE: score <= 0, equality exactly at exact translations
        ent = rng.normal(size=(10, 6))
        rel_vecs = rng.normal(size=(2, 6))
        ent[3] = ent[1] + rel_vecs[0]  # exact translation 1 -r0-> 3
        mt = EmbeddingModel("transe", ent, rel_vecs)
        assert score_transe(mt, Triple(1, 0, 3)) == 0.0
        for _ in range(500):
            h, t = (int(x) for x in rng.integers(0, 10, 2))
            rl = int(rng.integers(0, 2))
            s = score_transe(mt, Triple(h, rl, t))
            assert s <= 0.0
            exact = np.array_equal(ent[h] + rel_vecs[rl] - ent[t], np.zeros(6))
            assert (s == 0.0) == exact


def test_end_to_end_synthetic_equivalence():
    with criterion("end-to-end synthetic equivalence (rules + TransE)", 60.0):
        kg = build_equivalence_kg(n_entities=200, n_blocks=10, seed=7)
        assert kg.n_entities == 200
        assert sum(1 for t in kg.triples("train") if kg.relations.label(t.relation) == "r1") == 1000
        assert len(kg.triples("test")) == 200

        r2 = kg.relations.id("r2")
        theory = mine_rules(kg, r2, max_body_len=2, min_coverage=5)
        top = theory.rules[0]
        assert str(top) == "r2(X,Y) :- r1(X,Y)."
        assert top.confidence == 1.0
        scorer = RuleScorer({r2: theory}, kg)
        rule_result = evaluate(scorer, kg, split="test", rank_mode="expected")
        assert rule_result.hits[1] == 1.0

        cfg = TrainConfig(
            model="transe", dim=10, epochs=100, checkpoint_every=20, seed=1,
            learning_rate=0.5, batch_size=64, negatives_per_positive=5,
        )
        result = train(kg, cfg)
        transe_result = evaluate(result.model, kg, split="test", rank_mode="expected")
        assert transe_result.hits[1] >= 0.8


def test_degenerate_rule_filter():
    with criterion("degenerate-rule filter", 30.0):
        unused = HornRule(
            Atom("relationA", ("X", "Y")),
            (Atom("relationB", ("X", "Z")), Atom("relationC", ("Z", "W"))),
            correct=1,
            total=1,
        )
        keep, reason = filter_degenerate(unused)
        assert not keep and reason == "Y unused"
        disconnected = HornRule(
            Atom("relationA", ("X", "Y")),
            (Atom("relationB", ("X", "W")), Atom("relationC", ("Y", "Z"))),
            correct=1,
            total=1,
        )
        keep, reason = filter_degenerate(disconnected)
        assert not keep and reason == "head arguments disconnected"

        rng = np.random.default_rng(404)
        for _ in range(50):
            kg = random_kg(rng, 12, 4, 35, "train")
            for target in range(kg.n_relations):
                for rule in mine_rules(kg, target, max_body_len=3, min_coverage=1).rules:
                    keep, why = filter_degenerate(rule)
                    assert keep, f"mined rule violates head-connectedness: {rule} ({why})"


def test_graph_property_oracle_suite():
    with criterion("graph properties vs brute-force oracles (200 graphs)", 60.0):
        rng = np.random.default_rng(909)
        for trial in range(200):
            n = int(rng.integers(3, 13))
            adj = random_connected_graph(rng, n)
            g = graph_from_adj(adj)
            assert avg_neighbor_degree(g) == pytest.approx(
                oracle_avg_neighbor_degree(adj), abs=1e-9
            )
            mine, ref = degree_assortativity(g), oracle_assortativity(adj)
            if ref is None:
                assert mine is None
            else:
                assert mine == pytest.approx(ref, abs=1e-9)
            assert average_clustering(g) == pytest.approx(oracle_clustering(adj), abs=1e-9)
            ecc, radius, diam = eccentricity_radius_diameter(g)
            o_ecc, o_radius, o_diam = oracle_ecc_radius_diameter(adj)
            assert ecc == pytest.approx(o_ecc, abs=1e-9)
            assert (radius, diam) == (o_radius, o_diam)
            assert closeness_centrality_mean(g) == pytest.approx(
                oracle_closeness_mean(adj), abs=1e-9
            )
            assert degree_centrality_mean(g) == pytest.approx(
                oracle_degree_centrality_mean(adj), abs=1e-9
            )
            assert connectivity(g) == (
                oracle_edge_connectivity(adj),
                oracle_node_connectivity(adj),
            )
            stats = cliques(g)
            assert (stats.max_size, stats.count) == oracle_cliques(adj)

        # fixed-value checks
        tri = graph_from_adj([{1, 2}, {0, 2}, {0, 1}])
        assert average_clustering(tri) == 1.0
        assert eccentricity_radius_diameter(tri)[2] == 1
        p4 = graph_from_adj([{1}, {0, 2}, {1, 3}, {2}])
        assert eccentricity_radius_diameter(p4)[1:] == (2, 3)
        s3 = graph_from_adj([{1, 2, 3}, {0}, {0}, {0}])
        assert avg_neighbor_degree(s3) == pytest.approx(2.5)
        assert degree_assortativity(s3) == pytest.approx(-1.0, abs=1e-9)


def test_meta_properties():
    with criterion("meta-properties (edge reduction, degree proportion)", 1.0):
        kg = KnowledgeGraph()
        for i in range(87):
            kg.add_triple(f"x{i}", "has_value", f"v{i}", "train")
        for i in range(13):
            kg.add_triple(f"a{i}", "linked", f"b{i}", "train")
        kg.mark_attribute("has_value")
        meta = meta_properties(kg, project_graph(kg, "uninformed"), project_graph(kg, "informed"))
        assert meta.edge_reduction == pytest.approx(0.87)

        plain = ingest_triples(["a\tr\tb", "b\tr\tc"], "train")
        meta2 = meta_properties(plain, project_graph(plain, "uninformed"), project_graph(plain, "informed"))
        assert meta2.edge_reduction == 0.0
        assert meta2.degree_proportion == 1.0


def test_classification_track():
    with criterion("classification: kNN oracle, null, accuracy difference", 30.0):
        rng = np.random.default_rng(314)
        half = 100
        X = np.concatenate(
            [rng.normal(0.0, 1.0, size=(half, 5)), rng.normal(2.0, 1.0, size=(half, 5))]
        )
        y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
        test_X = rng.normal(1.0, 1.5, size=(50, 5))
        for k in KNN_K_GRID:
            for w in KNN_WEIGHTS:
                mine = knn_classify(X, y, test_X, k, w)
                ref = oracle_knn(X.tolist(), y.tolist(), test_X.tolist(), k, w)
                assert mine.tolist() == ref, f"kNN mismatch at k={k}, weighting={w}"

        null_rng = np.random.default_rng(77)
        Xn = null_rng.normal(size=(200, 10))
        yn = np.array([0, 1] * 100)
        null_rng.shuffle(yn)
        folds = make_folds(yn, 5, seed=3)
        null = nested_cv_features(
            {"f": Xn}, yn, folds, inner_folds=3, k_grid=(3, 7, 15), weight_grid=("uniform",)
        )
        assert abs(null.mean - 0.5) <= 0.1

        dist = CVResult(fold_accuracies=[0.90] * 5, fold_sizes=[20] * 5)
        symb = CVResult(fold_accuracies=[0.81] * 5, fold_sizes=[20] * 5)
        diff = accuracy_difference(dist, symb)
        assert diff.mean == pytest.approx(0.09)
        rev = accuracy_difference(symb, dist)
        assert rev.mean == pytest.approx(-diff.mean)
        assert rev.per_fold == pytest.approx([-d for d in diff.per_fold])


def test_report_fidelity(tmp_path):
    with criterion("report fidelity and byte stability", 1.0):
        results = {
            "kbc": {
                "FB15-237": {
                    "ConvE": {"hits@1": 0.327, "hits@3": 0.356, "hits@10": 0.501},
                    "DistMult": {"hits@1": 0.155, "hits@3": 0.263, "hits@10": 0.419},
                }
            }
        }
        render_report(results, tmp_path / "one")
        render_report(results, tmp_path / "two")
        text = (tmp_path / "one" / "report.txt").read_text()
        distmult_row = next(l for l in text.splitlines() if l.startswith("DistMult"))
        conve_row = next(l for l in text.splitlines() if l.startswith("ConvE"))
        assert ".155 .263 .419" in distmult_row
        assert ".327 .356 .501" in conve_row
        for name in ("report.txt", "report.json", "classification.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


FULL_SCALE = os.environ.get("KGBENCH_FULL_SCALE") == "1"
DATA_ROOT = os.environ.get("KGBENCH_DATA", "")


@pytest.mark.skipif(
    not (FULL_SCALE and DATA_ROOT and (Path(DATA_ROOT) / "FB15k-237" / "train.txt").is_file()),
    reason="full-scale check needs KGBENCH_FULL_SCALE=1 and FB15k-237 under KGBENCH_DATA",
)
def test_full_scale_fb15k237():
    """Optional extended check; takes hours."""
    from kgbench.kg import load_dataset
    from kgbench.rules import mine_all

    root = Path(DATA_ROOT) / "FB15k-237"
    kg = load_dataset(train=root / "train.txt", valid=root / "valid.txt", test=root / "test.txt")
    cfg = TrainConfig(model="distmult", dim=100, epochs=100, checkpoint_every=20, seed=0)
    result = train(kg, cfg)
    dist = evaluate(result.model, kg, split="test", rank_mode="expected")
    assert 0.35 <= dist.hits[10] <= 0.47

    theories = mine_all(kg, max_body_len=3, min_coverage=10, min_confidence=0.05)
    rules_result = evaluate(RuleScorer(theories, kg), kg, split="test", rank_mode="expected")
    assert rules_result.hits[10] >= 0.20
