"""Ingestion, reification, projection and serialization of the triple store."""

import logging
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgbench.cli import main
from kgbench.errors import DataError
from kgbench.graphs import _neighbor_lists, connected_components
from kgbench.kg import (
    SPLITS,
    HyperFact,
    KnowledgeGraph,
    Reifier,
    Triple,
    ingest_triples,
    load_dataset,
    load_kg,
    parse_hyperfacts,
    project_graph,
    reify,
    save_kg,
)
from conftest import random_kg
from oracles import OracleGraph, oracle_components_count


class TestIngest:
    def test_single_line(self):
        kg = ingest_triples(["a\tr\tb"], "train")
        assert kg.n_entities == 2
        assert kg.n_relations == 1
        assert len(kg.triples("train")) == 1

    def test_duplicate_across_splits_is_an_error(self):
        kg = ingest_triples(["a\tr\tb"], "train")
        with pytest.raises(DataError, match="duplicate triple across splits"):
            ingest_triples(["a\tr\tb"], "test", kg)

    def test_duplicate_within_split_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            kg = ingest_triples(["a\tr\tb", "a\tr\tb"], "train")
        assert len(kg.triples("train")) == 1
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_malformed_line_names_line_number(self):
        with pytest.raises(DataError, match="f.txt:3"):
            ingest_triples(["a\tr\tb", "c\tr\td", "broken line"], "train", source="f.txt")

    def test_comments_and_blank_lines_skipped(self):
        kg = ingest_triples(["# header", "", "a\tr\tb", "   "], "train")
        assert len(kg.triples("train")) == 1

    def test_unknown_split_tag(self):
        with pytest.raises(DataError, match="unknown split"):
            ingest_triples(["a\tr\tb"], "dev")

    def test_first_seen_index_assignment(self):
        kg = ingest_triples(["b\tr\ta", "a\ts\tc"], "train")
        assert kg.entities.id("b") == 0
        assert kg.entities.id("a") == 1
        assert kg.relations.id("r") == 0

    def test_sorted_vocab(self, tmp_path):
        f = tmp_path / "train.tsv"
        f.write_text("b\tr2\ta\na\tr1\tc\n", encoding="utf-8")
        kg = load_dataset(train=f, sorted_vocab=True)
        assert kg.entities.id("a") == 0
        assert kg.entities.id("b") == 1
        assert kg.relations.id("r1") == 0
        labels = [(kg.entities.label(h), kg.relations.label(r), kg.entities.label(t)) for h, r, t in kg.triples("train")]
        assert labels == [("b", "r2", "a"), ("a", "r1", "c")]

    def test_known_true_is_union_of_splits(self):
        rng = np.random.default_rng(5)
        kg = random_kg(rng, 20, 3, 30, "train")
        kg = random_kg(rng, 20, 3, 10, "valid", kg)
        kg = random_kg(rng, 20, 3, 10, "test", kg)
        union = set(kg.triples("train")) | set(kg.triples("valid")) | set(kg.triples("test"))
        assert kg.known_true == union
        assert len(kg.known_true) == sum(len(kg.triples(s)) for s in ("train", "valid", "test"))

    def test_adjacency_agrees_with_triples(self):
        rng = np.random.default_rng(6)
        kg = random_kg(rng, 15, 4, 40, "train")
        rebuilt = set()
        for t in kg.triples("train"):
            assert t.tail in kg.tails_of(t.relation, t.head)
            assert t.head in kg.heads_of(t.relation, t.tail)
            rebuilt.add(t)
        for rel in range(kg.n_relations):
            for e in range(kg.n_entities):
                for t in kg.tails_of(rel, e):
                    assert Triple(e, rel, t) in rebuilt
                for h in kg.heads_of(rel, e):
                    assert Triple(h, rel, e) in rebuilt

    def test_fb15k237_counts_if_available(self):
        root = os.environ.get("KGBENCH_DATA", "")
        path = Path(root) / "FB15k-237" / "train.txt" if root else Path("")
        if not root or not path.is_file():
            pytest.skip("FB15k-237 not present")
        with path.open(encoding="utf-8") as fh:
            kg = ingest_triples(fh, "train", source=str(path))
        assert len(kg.triples("train")) == 272115
        assert kg.n_entities == 14541
        assert kg.n_relations == 237


class TestReify:
    def test_positional_scheme(self):
        triples = reify(HyperFact("bond", ("m1", "a1", "a2", "7")))
        assert triples == [
            ("bond#0", "bond_1", "m1"),
            ("bond#0", "bond_2", "a1"),
            ("bond#0", "bond_3", "a2"),
            ("bond#0", "bond_4", "7"),
        ]

    def test_binary_fact_unchanged(self):
        assert reify(HyperFact("friends", ("marc", "eve"))) == [("marc", "friends", "eve")]

    def test_unary_fact_becomes_attribute_triple(self):
        assert reify(HyperFact("smoker", ("marc",))) == [("marc", "smoker", "true")]

    def test_fresh_hubs_per_fact(self):
        r = Reifier()
        first = r.reify(HyperFact("rel", ("a", "b", "c")))
        second = r.reify(HyperFact("rel", ("d", "e", "f")))
        assert first[0][0] == "rel#0"
        assert second[0][0] == "rel#1"

    def test_arity_zero_is_an_error(self):
        with pytest.raises(DataError, match="arity-0"):
            reify(HyperFact("nothing", ()))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["p", "q", "rel"]),
                st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=3, max_size=6),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_roundtrip_recovers_argument_order(self, facts):
        reifier = Reifier()
        emitted: dict[str, list[tuple[int, str]]] = {}
        rel_of_hub: dict[str, str] = {}
        originals = []
        for rel, args in facts:
            fact = HyperFact(rel, tuple(args))
            originals.append(fact)
            for h, r, t in reifier.reify(fact):
                pos = int(r.rsplit("_", 1)[1])
                emitted.setdefault(h, []).append((pos, t))
                rel_of_hub[h] = r.rsplit("_", 1)[0]
        rebuilt = [
            HyperFact(rel_of_hub[hub], tuple(t for _, t in sorted(parts)))
            for hub, parts in emitted.items()
        ]
        assert sorted(rebuilt) == sorted(originals)


class TestHyperfactParsing:
    def test_trailing_period_optional(self):
        facts = list(parse_hyperfacts(["f(a,b).", "g(c,d)"]))
        assert facts == [HyperFact("f", ("a", "b")), HyperFact("g", ("c", "d"))]

    def test_malformed_fact(self):
        with pytest.raises(DataError, match=":1"):
            list(parse_hyperfacts(["not a fact"]))


def _attr_rel_kg(n_attr: int, n_rel: int) -> KnowledgeGraph:
    """n_attr attribute triples and n_rel relation triples, all disjoint pairs."""
    kg = KnowledgeGraph()
    e = 0
    for i in range(n_attr):
        kg.add_triple(f"x{e}", "has_value", f"v{i}", "train")
        e += 1
    for i in range(n_rel):
        kg.add_triple(f"a{i}", "linked", f"b{i}", "train")
    kg.mark_attribute("has_value")
    return kg


class TestProjection:
    def test_informed_filters_attribute_edges(self):
        kg = _attr_rel_kg(5, 5)
        assert project_graph(kg, "informed").n_edges == 5
        assert project_graph(kg, "uninformed").n_edges == 10

    def test_informed_drops_isolated_nodes(self):
        kg = _attr_rel_kg(5, 5)
        informed = project_graph(kg, "informed")
        uninformed = project_graph(kg, "uninformed")
        assert informed.n_nodes == 10  # a_i and b_i only
        assert uninformed.n_nodes == 20

    def test_informed_edges_subset_of_uninformed(self):
        rng = np.random.default_rng(11)
        kg = random_kg(rng, 25, 4, 60, "train")
        kg.mark_attribute("r0")
        kg.mark_attribute("r3")
        inf, uninf = project_graph(kg, "informed"), project_graph(kg, "uninformed")
        uninf_rows = _neighbor_lists(uninf)
        assert all(set(row) <= set(uninf_rows[v]) for v, row in _neighbor_lists(inf).items())
        assert set(inf.ids[inf.loops].tolist()) <= set(uninf.ids[uninf.loops].tolist())

    def test_parallel_edges_collapse(self):
        kg = ingest_triples(["a\tr\tb", "a\ts\tb", "b\tt\ta"], "train")
        assert project_graph(kg, "uninformed").n_edges == 1

    def test_hepatitis_shaped_edge_reduction(self):
        kg = _attr_rel_kg(87, 13)
        informed = project_graph(kg, "informed")
        uninformed = project_graph(kg, "uninformed")
        assert informed.n_edges / uninformed.n_edges == pytest.approx(0.13)

    def test_unknown_mode(self):
        with pytest.raises(DataError):
            project_graph(KnowledgeGraph(), "other")


class TestComponents:
    def test_two_triangles(self):
        kg = ingest_triples(
            ["a\tr\tb", "b\tr\tc", "c\tr\ta", "x\tr\ty", "y\tr\tz", "z\tr\tx"], "train"
        )
        comps = connected_components(project_graph(kg, "uninformed"))
        assert len(comps) == 2
        assert sorted(c.n_nodes for c in comps) == [3, 3]

    def test_empty_graph(self):
        comps = connected_components(project_graph(KnowledgeGraph(), "uninformed"))
        assert comps == []

    def test_random_graph_matches_union_find(self):
        rng = np.random.default_rng(42)
        from kgbench.graphs import UndirectedGraph

        n = 50
        edge_list = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.02]
        g = UndirectedGraph(edge_list, nodes=range(n))
        assert len(connected_components(g)) == oracle_components_count(edge_list, list(range(n)))


class TestSerialization:
    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(3)
        kg = random_kg(rng, 30, 5, 60, "train")
        kg = random_kg(rng, 30, 5, 15, "valid", kg)
        kg = random_kg(rng, 30, 5, 15, "test", kg)
        kg.mark_attribute("r1")
        save_kg(kg, tmp_path / "kg")
        back = load_kg(tmp_path / "kg")
        assert back.entities.labels() == kg.entities.labels()
        assert back.relations.labels() == kg.relations.labels()
        for split in ("train", "valid", "test"):
            assert back.triples(split) == kg.triples(split)
        assert back.attribute_relations == kg.attribute_relations

    def test_ingest_serialize_ingest_identity(self, tmp_path):
        kg = ingest_triples(["a\tr\tb", "c\ts\td"], "train")
        save_kg(kg, tmp_path / "one")
        mid = load_kg(tmp_path / "one")
        save_kg(mid, tmp_path / "two")
        assert (tmp_path / "one" / "train.idx").read_bytes() == (
            tmp_path / "two" / "train.idx"
        ).read_bytes()
        assert (tmp_path / "one" / "entities.tsv").read_text() == (
            tmp_path / "two" / "entities.tsv"
        ).read_text()

    def test_bad_magic(self, tmp_path):
        d = tmp_path / "kg"
        kg = ingest_triples(["a\tr\tb"], "train")
        save_kg(kg, d)
        (d / "train.idx").write_bytes(b"XXXX" + b"\x00" * 12)
        with pytest.raises(DataError, match="bad magic"):
            load_kg(d)

    @pytest.mark.parametrize(
        "files,message",
        [
            ({"train": [(0, 0, 1), (1, 0, 2)], "cut": 4}, "truncated split file"),
            ({"train": [(0, 0, 1), (3, 0, 2)]}, "entity index out of range"),
            ({"train": [(0, 0, 1), (1, 0, -1)]}, "entity index out of range"),
            ({"train": [(0, 0, 1), (1, 1, 2)]}, "relation index out of range"),
            ({"train": [(0, 0, 1)], "test": [(1, 0, 2), (0, 0, 1)]}, "duplicate triple across splits"),
            ({"train": [(0, 0, 1), (1, 0, 2), (0, 0, 1)]}, "duplicate triple across splits"),
        ],
        ids=["truncated", "entity-high", "entity-negative", "relation", "two-files", "one-file"],
    )
    def test_corrupt_idx_is_data_error(self, tmp_path, capsys, files, message):
        # entities a, b, c and one relation r; the .idx files are written by hand
        d = tmp_path / "kg"
        save_kg(ingest_triples(["a\tr\tb", "b\tr\tc"], "train"), d)
        for split in ("train", "valid", "test"):
            rows = files.get(split, [])
            data = b"KGB1" + struct.pack("<I", len(rows)) + b"".join(struct.pack("<iii", *t) for t in rows)
            (d / f"{split}.idx").write_bytes(data[: len(data) - files.get("cut", 0)] if split == "train" else data)
        with pytest.raises(DataError, match=message):
            load_kg(d)
        assert main(["analyze", "--kg", str(d), "--out", str(tmp_path / "profile.json")]) == 2
        assert message in capsys.readouterr().err


# repeated letters weight the draw, so that triples recur within and across splits
_LABEL_TRIPLE = st.tuples(st.sampled_from("aaabbcd"), st.sampled_from("ppq"), st.sampled_from("aaabbcd"))


def _assert_matches_oracle(kg: KnowledgeGraph, oracle: OracleGraph) -> None:
    assert kg.entities.labels() == oracle.entities
    assert kg.relations.labels() == oracle.relations
    ent, rel = kg.entities.label, kg.relations.label

    def labels(t):
        return ent(t[0]), rel(t[1]), ent(t[2])

    for split in SPLITS:
        assert [labels(t) for t in kg.triples(split)] == oracle.splits[split]
        assert kg.rows(split).shape == (len(oracle.splits[split]), 3)
    known = oracle.known()
    assert {labels(t) for t in kg.known_true} == known
    n, r = kg.n_entities, kg.n_relations
    ids = [(kg.entities.id(h), kg.relations.id(rl), kg.entities.id(t)) for h, rl, t in known]
    assert kg.known_keys() == {(h * r + rl) * n + t for h, rl, t in ids}
    for relation in range(r):
        for anchor in range(n):
            for side, view in (("tail", kg.tails_of), ("head", kg.heads_of)):
                expected = oracle.adjacent(rel(relation), ent(anchor), side)
                entities, split_ids = kg.adjacent(relation, anchor, side)
                got = [(ent(e), SPLITS[s]) for e, s in zip(entities.tolist(), split_ids.tolist())]
                assert got == expected
                assert {ent(e) for e in view(relation, anchor)} == {e for e, _ in expected}
    # adjacent_many: step 2 * relation is side "tail", 2 * relation + 1 side "head"; out-of-range
    # anchors and steps (a relation with no triples among them) have no entries
    def expected_many(anchors, steps):
        return [
            (k, step, e, s)
            for k, (a, step) in enumerate(zip(anchors, steps))
            if 0 <= a < n and 0 <= step < 2 * r
            for e, s in oracle.adjacent(rel(step // 2), ent(a), "head" if step % 2 else "tail")
        ]

    def got_many(*args):
        return [(k, s, ent(e), SPLITS[t]) for k, s, e, t in zip(*(a.tolist() for a in kg.adjacent_many(*args)))]

    anchors = list(range(-1, n + 1))
    every = [(k, a, step) for k, a in enumerate(anchors) for step in range(2 * r)]
    assert got_many(anchors) == [(k, step, e, s) for k, a, step in every for _, _, e, s in expected_many([a], [step])]
    pairs = [(a, step) for a in anchors for step in range(-1, 2 * r + 2)]
    keyed_anchors, keyed_steps = [a for a, _ in pairs], [step for _, step in pairs]
    assert got_many(keyed_anchors, keyed_steps) == expected_many(keyed_anchors, keyed_steps)


def _same_outcome(call, oracle_call):
    """Run both; the oracle's ValueError must meet the graph's DataError."""
    try:
        expected = oracle_call()
    except ValueError:
        with pytest.raises(DataError):
            call()
        return None, None
    return expected, call()


class TestColumnarStoreOracle:
    # a clash after a new triple and before new labels: the triple stays, the labels go
    @example(
        ops=[("add", "train", ("a", "p", "b")), ("ingest", "test", [("c", "p", "a"), ("a", "p", "b"), ("e", "r", "f")])],
        extra=[], extra_split="train", dropped=set(),
    )
    @settings(max_examples=300, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("ingest"), st.sampled_from(SPLITS),
                          st.lists(st.one_of(_LABEL_TRIPLE, st.none()), max_size=6)),
                st.tuples(st.just("add"), st.sampled_from(SPLITS), _LABEL_TRIPLE),
                st.tuples(st.just("attribute"), st.sampled_from("ps")),
            ),
            max_size=8,
        ),
        extra=st.lists(_LABEL_TRIPLE, max_size=4),
        extra_split=st.sampled_from(SPLITS),
        dropped=st.sets(st.sampled_from("pqrs")),
    )
    def test_matches_set_oracle(self, ops, extra, extra_split, dropped):
        kg, oracle = KnowledgeGraph(), OracleGraph()
        for op in ops:
            if op[0] == "ingest":
                lines = ["\t".join(t) if t else "broken" for t in op[2]]
                _same_outcome(lambda: ingest_triples(lines, op[1], kg), lambda: oracle.ingest(lines, op[1]))
            elif op[0] == "add":
                appended, added = _same_outcome(lambda: kg.add_triple(*op[2], op[1]), lambda: oracle.add(op[2], op[1]))
                assert appended is None or appended == (added is not None)
            else:
                kg.mark_attribute(op[1])
                oracle.mark_attribute(op[1])
            _assert_matches_oracle(kg, oracle)

        with tempfile.TemporaryDirectory() as d:
            save_kg(kg, Path(d))
            back = load_kg(Path(d))
        _assert_matches_oracle(back, oracle)
        assert back.attribute_relations == kg.attribute_relations

        grown = oracle.copy()
        _same_outcome(lambda: _assert_matches_oracle(kg.extended(extra, extra_split), grown),
                      lambda: [grown.add(t, extra_split) for t in extra])
        _assert_matches_oracle(kg, oracle)

        ids = {kg.relations.id(r) for r in dropped if r in kg.relations}
        _assert_matches_oracle(kg.copy_without_relations(ids), oracle.without_relations(dropped))
