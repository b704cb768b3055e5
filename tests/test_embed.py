"""Embedding models: scoring identities, sampling, training, checkpoints."""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbench.embed import (
    EmbeddingModel,
    SamplerStats,
    TrainConfig,
    _add_rows,
    _decode_attempts,
    _sample_batch,
    batch_gradients,
    batch_loss,
    checkpoint_path,
    sample_negatives,
    score_complex,
    score_distmult,
    score_transe,
    train,
    write_features_csv,
)
from kgbench.errors import DataError, NumericError
from kgbench.kg import KnowledgeGraph, Triple, ingest_triples
from kgbench.ranking import evaluate, rank_query
from conftest import build_equivalence_kg, random_kg
from oracles import reference_train


def _model(kind, e_re, r_re, e_im=None, r_im=None):
    return EmbeddingModel(
        kind,
        np.asarray(e_re, dtype=np.float64),
        np.asarray(r_re, dtype=np.float64),
        None if e_im is None else np.asarray(e_im, dtype=np.float64),
        None if r_im is None else np.asarray(r_im, dtype=np.float64),
    )


class TestScoring:
    def test_transe_exact_translation(self):
        m = _model("transe", [[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]])
        assert score_transe(m, Triple(0, 0, 1)) == 0.0

    def test_transe_hand_value(self):
        m = _model("transe", [[0.0, 0.0], [3.0, 4.0]], [[0.0, 0.0]])
        assert score_transe(m, Triple(0, 0, 1)) == -5.0

    def test_transe_identity_translation(self):
        rng = np.random.default_rng(0)
        e = rng.normal(size=(4, 3))
        m = _model("transe", e, np.zeros((1, 3)))
        for h in range(4):
            assert score_transe(m, Triple(h, 0, h)) == 0.0

    def test_distmult_hand_value(self):
        m = _model("distmult", [[1.0, 2.0], [5.0, 6.0]], [[3.0, 4.0]])
        assert score_distmult(m, Triple(0, 0, 1)) == 63.0

    def test_distmult_zero_relation_annihilates(self):
        rng = np.random.default_rng(1)
        m = _model("distmult", rng.normal(size=(5, 4)), np.zeros((1, 4)))
        for h in range(5):
            for t in range(5):
                assert score_distmult(m, Triple(h, 0, t)) == 0.0

    def test_distmult_symmetry_exact(self):
        rng = np.random.default_rng(2)
        m = _model("distmult", rng.normal(size=(20, 16)), rng.normal(size=(4, 16)))
        for _ in range(1000):
            h, t = rng.integers(0, 20, 2)
            r = int(rng.integers(0, 4))
            assert score_distmult(m, Triple(int(h), r, int(t))) == score_distmult(
                m, Triple(int(t), r, int(h))
            )

    def test_complex_hand_value(self):
        # h = i, r = 1, t = i  ->  Re(1 * i * conj(i)) = 1
        m = _model("complex", [[0.0]], [[1.0]], e_im=[[1.0]], r_im=[[0.0]])
        assert score_complex(m, Triple(0, 0, 0)) == 1.0

    def test_complex_imaginary_relation_on_real_vectors(self):
        # r purely imaginary, h = t real -> Re(i*u . u) = 0
        m = _model("complex", [[2.0, 3.0]], [[0.0, 0.0]], e_im=[[0.0, 0.0]], r_im=[[1.0, 1.0]])
        assert score_complex(m, Triple(0, 0, 0)) == 0.0

    def test_complex_zero_imaginary_equals_distmult_exactly(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(12, 8))
        r = rng.normal(size=(3, 8))
        mc = _model("complex", e, r, e_im=np.zeros((12, 8)), r_im=np.zeros((3, 8)))
        md = _model("distmult", e, r)
        for _ in range(300):
            h, t = (int(x) for x in rng.integers(0, 12, 2))
            rel = int(rng.integers(0, 3))
            assert score_complex(mc, Triple(h, rel, t)) == score_distmult(md, Triple(h, rel, t))

    def test_transe_never_positive(self):
        rng = np.random.default_rng(4)
        m = _model("transe", rng.normal(size=(10, 6)), rng.normal(size=(2, 6)))
        for _ in range(200):
            h, t = (int(x) for x in rng.integers(0, 10, 2))
            r = int(rng.integers(0, 2))
            assert score_transe(m, Triple(h, r, t)) <= 0.0

    def test_index_out_of_range(self):
        m = _model("transe", [[0.0, 0.0]], [[0.0, 0.0]])
        with pytest.raises(DataError, match="out of range"):
            score_transe(m, Triple(0, 0, 5))
        with pytest.raises(DataError, match="out of range"):
            m.score(3, 0, 0)

    def test_vectorized_scores_match_scalar(self):
        rng = np.random.default_rng(5)
        for kind in ("transe", "distmult", "complex"):
            m = EmbeddingModel.initialize(kind, 9, 3, 6, seed=8)
            for rel in range(3):
                tails = m.score_tails(rel, 2)
                heads = m.score_heads(rel, 4)
                for e in range(9):
                    assert tails[e] == pytest.approx(m.score(rel, 2, e), rel=1e-12, abs=1e-12)
                    assert heads[e] == pytest.approx(m.score(rel, e, 4), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex"])
    @pytest.mark.parametrize("side", ["tail", "head"])
    def test_score_block_rows_match_per_query_scores(self, kind, side):
        m = EmbeddingModel.initialize(kind, 40, 5, 7, seed=9)
        rng = np.random.default_rng(10)
        relations = rng.integers(0, 5, 12)
        anchors = rng.integers(0, 40, 12)
        block = m.score_block(relations, anchors, side)
        assert block.shape == (12, 40)
        one = m.score_tails if side == "tail" else m.score_heads
        for row, r, a in zip(block, relations, anchors):
            ref = one(int(r), int(a))
            if kind == "transe":
                assert np.array_equal(row, ref)  # same per-row arithmetic
            else:
                np.testing.assert_allclose(row, ref, rtol=0, atol=1e-12)

    def test_score_block_rejects_bad_input(self):
        m = EmbeddingModel.initialize("complex", 4, 2, 3, seed=0)
        with pytest.raises(DataError, match="out of range"):
            m.score_block(np.array([0]), np.array([4]), "tail")
        with pytest.raises(DataError, match="out of range"):
            m.score_block(np.array([2]), np.array([0]), "head")
        with pytest.raises(DataError, match="side"):
            m.score_block(np.array([0]), np.array([0]), "middle")

    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex"])
    def test_evaluate_names_first_non_finite_score_like_rank_query(self, kind):
        # x scores NaN wherever it is a candidate. It is filtered from the tail
        # query of (a, r, b) but not from its head query, and it is a candidate
        # of the tail query of (c, r, d), which a block scores earlier.
        kg = ingest_triples(["a\tr\tx", "e\tr\tb"], "train")
        kg = ingest_triples(["a\tr\tb", "c\tr\td"], "test", kg)
        m = EmbeddingModel.initialize(kind, kg.n_entities, kg.n_relations, 4, seed=3)
        m.entity_re[kg.entities.id("x")] = np.nan
        first = kg.triples("test")[0]
        rank_query(m, kg, first, "tail")
        with pytest.raises(NumericError) as reference:
            rank_query(m, kg, first, "head")
        assert f"entity {kg.entities.id('x')} " in str(reference.value)
        with pytest.raises(NumericError) as info:
            evaluate(m, kg, split="test")
        assert str(info.value) == str(reference.value)


class TestNegativeSampling:
    def test_exact_count(self):
        kg = ingest_triples(["a\tr\tb", "b\tr\tc", "c\tr\td"], "train")
        negs = sample_negatives(kg, kg.triples("train")[0], 3, np.random.default_rng(0))
        assert len(negs) == 3
        assert all(n not in kg.known_true for n in negs)

    def test_fixed_seed_reproducible(self):
        rng1 = np.random.default_rng(99)
        rng2 = np.random.default_rng(99)
        kg = ingest_triples([f"e{i}\tr\te{i + 1}" for i in range(20)], "train")
        t = kg.triples("train")[5]
        assert sample_negatives(kg, t, 10, rng1) == sample_negatives(kg, t, 10, rng2)

    def test_saturated_relation_forces_accepts(self):
        # every (h, r, *) and (*, r, t) combination is true: rejection cannot succeed
        kg = KnowledgeGraph()
        for i in range(3):
            for j in range(3):
                kg.add_triple(f"e{i}", "r", f"e{j}", "train")
        stats = SamplerStats()
        sample_negatives(kg, kg.triples("train")[0], 5, np.random.default_rng(1), stats)
        assert stats.forced_accepts > 0


def _dense_graph(seed: int, n_entities: int, n_relations: int, density: float) -> KnowledgeGraph:
    """Each (h, r, t) is a train triple with probability `density` (at least
    one is); density 1 makes every corruption known-true."""
    keep = np.random.default_rng(seed).random((n_entities, n_relations, n_entities)) < density
    keep[0, 0, 0] = True
    return ingest_triples([f"e{h}\tr{r}\te{t}" for h, r, t in np.argwhere(keep).tolist()], "train")


class TestBatchedSampling:
    # n = 3 * 2**30 and 2**31 + 1 make Lemire's method reject 25% and nearly 50% of the halves
    sizes = st.one_of(st.sampled_from([1, 2, 14_541, 3 * 2**30, 2**31 + 1, 2**32]), st.integers(1, 2**32))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=sizes, count=st.integers(1, 400), buffered=st.booleans())
    def test_decoder_replays_scalar_draws(self, seed, n, count, buffered):
        rng = np.random.default_rng(seed)
        if buffered:
            rng.integers(0, 10)  # leaves a 32-bit half in the generator's buffer
        start = rng.bit_generator.state
        draws = [(rng.random() < 0.5, int(rng.integers(0, n))) for _ in range(count)]
        replay = np.random.PCG64()
        replay.state = start
        heads, ents, used, has_uint32, uinteger = _decode_attempts(
            replay.random_raw(4 * count + 16), start["has_uint32"], start["uinteger"], n
        )
        assert len(heads) >= count
        assert list(zip(heads[:count].tolist(), ents[:count].tolist())) == draws
        replay.state = start
        replay.random_raw(int(used[count - 1]))
        state = replay.state
        state["has_uint32"], state["uinteger"] = int(has_uint32[count - 1]), int(uinteger[count - 1])
        assert state == rng.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(
        graph_seed=st.integers(0, 2**32 - 1),
        n_entities=st.integers(1, 12),
        n_relations=st.integers(1, 3),
        density=st.sampled_from([0.05, 0.3, 0.9, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 80),  # over _WINDOW slots with k > 1
        k=st.integers(1, 3),
        buffered=st.booleans(),
    )
    def test_batch_matches_scalar_sampler(self, graph_seed, n_entities, n_relations, density, seed, rows, k, buffered):
        kg = _dense_graph(graph_seed, n_entities, n_relations, density)
        rng = np.random.default_rng(seed)
        if buffered:
            rng.integers(0, 10)
        batch = kg.rows("train")[rng.integers(0, len(kg.rows("train")), rows)]
        scalar_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        scalar_rng.bit_generator.state = batch_rng.bit_generator.state = rng.bit_generator.state
        scalar_stats, batch_stats = SamplerStats(), SamplerStats()
        expected = [sample_negatives(kg, t, k, scalar_rng, scalar_stats) for t in batch.tolist()]
        got = _sample_batch(kg, batch, k, batch_rng, batch_stats)
        assert got.tolist() == [[list(c) for c in negs] for negs in expected]
        assert batch_stats == scalar_stats
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 60), m=st.integers(1, 400), skew=st.integers(1, 4))
    def test_add_rows_is_bitwise_add_at(self, seed, n_rows, m, skew):
        rng = np.random.default_rng(seed)
        index = (rng.random(m) ** skew * n_rows).astype(np.int64)  # skew > 1 repeats the low rows
        values = rng.normal(size=(m, 3))
        values[rng.random((m, 3)) < 0.2] = -0.0
        values[rng.random((m, 3)) < 0.1] = 0.0
        dense, sums = np.zeros((n_rows, 3)), np.zeros((n_rows, 3))
        for part in np.split(np.arange(m), [int(rng.integers(0, m + 1))]):  # a second call continues the sums
            np.add.at(dense, index[part], values[part])
            _add_rows(sums, index[part], values[part])
        assert sums.tobytes() == dense.tobytes()


class TestTraining:
    def test_epochs_zero_returns_initialized_model(self):
        kg = ingest_triples(["a\tr\tb", "b\tr\tc"], "train")
        cfg = TrainConfig(model="transe", dim=6, epochs=0, checkpoint_every=0, seed=5)
        result = train(kg, cfg)
        fresh = EmbeddingModel.initialize("transe", kg.n_entities, kg.n_relations, 6, seed=5)
        assert np.array_equal(result.model.entity_re, fresh.entity_re)
        assert np.array_equal(result.model.relation_re, fresh.relation_re)

    def test_checkpoint_every_must_divide_epochs(self):
        with pytest.raises(DataError, match="divide"):
            TrainConfig(model="transe", dim=4, epochs=10, checkpoint_every=3)

    def test_bitwise_identical_checkpoints(self, tmp_path):
        rng = np.random.default_rng(13)
        kg = random_kg(rng, 20, 2, 40, "train")
        cfg = TrainConfig(model="distmult", dim=8, epochs=4, checkpoint_every=2, seed=21, batch_size=16)
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        train(kg, cfg, checkpoint_dir=d1)
        train(kg, cfg, checkpoint_dir=d2)
        for epoch in (2, 4):
            b1 = checkpoint_path(d1, cfg, epoch).read_bytes()
            b2 = checkpoint_path(d2, cfg, epoch).read_bytes()
            assert hashlib.sha256(b1).hexdigest() == hashlib.sha256(b2).hexdigest()

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["transe", "distmult", "complex"]),
        saturated=st.booleans(),
        graph_seed=st.integers(0, 2**32 - 1),
        n_entities=st.integers(2, 40),
        n_triples=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        batch_size=st.integers(1, 64),
        k=st.integers(1, 3),
        learning_rate=st.sampled_from([0.01, 0.5]),
    )
    def test_checkpoints_match_reference_loop(
        self, kind, saturated, graph_seed, n_entities, n_triples, seed, batch_size, k, learning_rate
    ):
        if saturated:  # relation r0 holds between every pair: each of its negatives is a forced accept
            kg = _dense_graph(graph_seed, n_entities % 3 + 1, 1, 1.0)
            kg = random_kg(np.random.default_rng(graph_seed), kg.n_entities, 2, 1, kg=kg)
        else:
            kg = random_kg(np.random.default_rng(graph_seed), n_entities, 3, min(n_triples, 3 * n_entities**2))
        cfg = TrainConfig(model=kind, dim=4, epochs=3, checkpoint_every=1, seed=seed, batch_size=batch_size,
                          negatives_per_positive=k, learning_rate=learning_rate)
        with tempfile.TemporaryDirectory() as d:
            got = train(kg, cfg, checkpoint_dir=Path(d) / "train")
            want = reference_train(kg, cfg, checkpoint_dir=Path(d) / "reference")
            for a, b in zip(got.checkpoints, want.checkpoints, strict=True):
                assert a.read_bytes() == b.read_bytes()
        assert got.epoch_losses == want.epoch_losses
        assert got.forced_negative_accepts == want.forced_negative_accepts
        assert not saturated or got.forced_negative_accepts > 0

    def test_transe_entity_norms_bounded_after_training(self):
        rng = np.random.default_rng(14)
        kg = random_kg(rng, 15, 2, 30, "train")
        cfg = TrainConfig(model="transe", dim=5, epochs=3, checkpoint_every=3, seed=2, batch_size=8)
        result = train(kg, cfg)
        norms = np.sqrt((result.model.entity_re**2).sum(axis=1))
        assert (norms <= 1.0 + 1e-9).all()

    def test_all_parameters_finite_after_training(self):
        rng = np.random.default_rng(15)
        kg = random_kg(rng, 15, 2, 30, "train")
        for kind in ("transe", "distmult", "complex"):
            cfg = TrainConfig(model=kind, dim=5, epochs=2, checkpoint_every=2, seed=3, batch_size=8)
            result = train(kg, cfg)
            assert np.isfinite(result.model.entity_re).all()
            assert np.isfinite(result.model.relation_re).all()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_loss_aborts_with_location(self):
        rng = np.random.default_rng(16)
        kg = random_kg(rng, 10, 2, 20, "train")
        cfg = TrainConfig(
            model="distmult", dim=4, epochs=5, checkpoint_every=5, seed=4,
            batch_size=4, learning_rate=1e12,
        )
        with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
            train(kg, cfg)

    def test_empty_train_split(self):
        kg = KnowledgeGraph()
        with pytest.raises(DataError, match="empty"):
            train(kg, TrainConfig(model="transe", dim=4, epochs=2, checkpoint_every=2))

    def test_loss_history_monotone_in_windows_on_equivalence_kg(self):
        kg = build_equivalence_kg()
        cfg = TrainConfig(
            model="transe", dim=10, epochs=100, checkpoint_every=20, seed=1,
            learning_rate=0.5, batch_size=64, negatives_per_positive=5,
        )
        result = train(kg, cfg)
        windows = [np.mean(result.epoch_losses[i : i + 10]) for i in range(0, 100, 10)]
        for a, b in zip(windows, windows[1:]):
            assert b <= a + 1e-12


class TestGradients:
    @staticmethod
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

    @staticmethod
    def check_model(kind, dim, seed, n_batches, h=1e-5, tol=1e-4, n_ent=10, n_rel=2):
        rng = np.random.default_rng(seed)
        model = EmbeddingModel.initialize(kind, n_ent, n_rel, dim, seed)
        for mat in ("entity_re", "relation_re", "entity_im", "relation_im"):
            arr = getattr(model, mat)
            if arr is not None:
                arr *= 0.3  # keep scores O(1)
        cfg = TrainConfig(model=kind, dim=dim, epochs=0, checkpoint_every=0)
        worst = 0.0
        for _ in range(n_batches):
            pos, neg = TestGradients._random_batch(rng, n_ent, n_rel, 4, 2)
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
        assert worst < tol, f"{kind} dim={dim}: worst relative error {worst}"
        return worst

    @pytest.mark.parametrize("kind", ["transe", "distmult", "complex"])
    def test_gradients_match_finite_differences(self, kind):
        self.check_model(kind, dim=10, seed=42, n_batches=3)


class TestCheckpoints:
    def test_save_load_roundtrip_exact(self, tmp_path):
        for kind in ("transe", "distmult", "complex"):
            m = EmbeddingModel.initialize(kind, 7, 3, 5, seed=11)
            m.epoch = 40
            path = tmp_path / f"{kind}.kge"
            m.save(path)
            back = EmbeddingModel.load(path)
            assert back.kind == kind
            assert back.epoch == 40
            assert back.seed == 11
            assert np.array_equal(back.entity_re, m.entity_re)
            assert np.array_equal(back.relation_re, m.relation_re)
            if kind == "complex":
                assert np.array_equal(back.entity_im, m.entity_im)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.kge"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError, match="bad magic"):
            EmbeddingModel.load(p)


class TestFeatureExport:
    def test_complex_concatenates_real_and_imaginary(self):
        m = EmbeddingModel.initialize("complex", 6, 2, 10, seed=0)
        feats = m.feature_matrix([0, 1, 2])
        assert feats.shape == (3, 20)
        assert np.array_equal(feats[:, :10], m.entity_re[:3])
        assert np.array_equal(feats[:, 10:], m.entity_im[:3])

    def test_transe_width_is_dim(self):
        m = EmbeddingModel.initialize("transe", 6, 2, 50, seed=0)
        assert m.feature_matrix([0]).shape == (1, 50)

    def test_rows_are_exact_projections(self):
        m = EmbeddingModel.initialize("distmult", 6, 2, 7, seed=0)
        feats = m.feature_matrix([4, 2])
        assert np.array_equal(feats[0], m.entity_re[4])
        assert np.array_equal(feats[1], m.entity_re[2])

    def test_unknown_entity(self):
        m = EmbeddingModel.initialize("transe", 4, 1, 3, seed=0)
        with pytest.raises(DataError, match="unknown entity"):
            m.feature_matrix([9])

    def test_csv_header(self, tmp_path):
        m = EmbeddingModel.initialize("transe", 3, 1, 2, seed=0)
        path = tmp_path / "f.csv"
        write_features_csv(m, [0, 1], ["a", "b"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "entity,f0,f1"
        assert lines[1].startswith("a,")
