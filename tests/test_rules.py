"""Rule mining, degenerate filtering, scoring and analytics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgbench import rules
from kgbench.errors import DataError
from kgbench.kg import SPLITS, KnowledgeGraph, ingest_triples
from kgbench.ranking import evaluate
from kgbench.rules import (
    Atom,
    HornRule,
    RuleScorer,
    coverage_bin_label,
    connected_relations,
    filter_degenerate,
    format_rule,
    load_theories,
    mine_all,
    mine_rules,
    parse_rule_line,
    save_theories,
    theory_analytics,
)
from conftest import random_kg
from oracles import oracle_mine_rules, oracle_rule_scores


def _rule(head, body):
    return HornRule(head=head, body=tuple(body), correct=1, total=1)


class TestDegenerateFilter:
    def test_unused_head_argument_dropped(self):
        rule = _rule(
            Atom("relationA", ("X", "Y")),
            [Atom("relationB", ("X", "Z")), Atom("relationC", ("Z", "W"))],
        )
        keep, reason = filter_degenerate(rule)
        assert not keep
        assert reason == "Y unused"

    def test_disconnected_head_arguments_dropped(self):
        rule = _rule(
            Atom("relationA", ("X", "Y")),
            [Atom("relationB", ("X", "W")), Atom("relationC", ("Y", "Z"))],
        )
        keep, reason = filter_degenerate(rule)
        assert not keep
        assert reason == "head arguments disconnected"

    def test_connected_closed_chain_kept(self):
        rule = _rule(
            Atom("relationA", ("X", "Y")),
            [Atom("relationB", ("X", "Z")), Atom("relationC", ("Z", "Y"))],
        )
        keep, reason = filter_degenerate(rule)
        assert keep
        assert reason is None

    def test_constants_do_not_link_variables(self):
        rule = _rule(
            Atom("a", ("X", "Y")),
            [Atom("b", ("X", "c1")), Atom("d", ("c1", "Y"))],
        )
        keep, reason = filter_degenerate(rule)
        assert not keep
        assert reason == "head arguments disconnected"


class TestMining:
    def test_exact_implication_confidence_one(self):
        kg = ingest_triples(
            ["a\tr1\tb", "c\tr1\td", "a\tr2\tb", "c\tr2\td"], "train"
        )
        theory = mine_rules(kg, kg.relations.id("r2"), max_body_len=1)
        top = theory.rules[0]
        assert str(top) == "r2(X,Y) :- r1(X,Y)."
        assert top.confidence == 1.0
        assert top.coverage == 2

    def test_nine_of_ten_confidence(self):
        lines = []
        for i in range(10):
            lines.append(f"h{i}\tr1\tt{i}")
        for i in range(9):
            lines.append(f"h{i}\tr2\tt{i}")
        kg = ingest_triples(lines, "train")
        theory = mine_rules(kg, kg.relations.id("r2"), max_body_len=1)
        rule = next(r for r in theory.rules if r.body[0].relation == "r1")
        assert rule.confidence == pytest.approx(0.9)
        assert rule.coverage == 10
        assert rule.correct == 9

    def test_no_connecting_paths_empty_theory(self):
        kg = ingest_triples(["a\tr1\tb", "x\tr2\ty"], "train")
        theory = mine_rules(kg, kg.relations.id("r2"), max_body_len=3, min_coverage=1)
        assert theory.rules == []

    def test_target_relation_excluded_from_bodies(self):
        kg = ingest_triples(["a\tr1\tb", "a\tr2\tb", "b\tr2\ta"], "train")
        theory = mine_rules(kg, kg.relations.id("r2"), max_body_len=3)
        for rule in theory.rules:
            for atom in rule.body:
                assert atom.relation not in ("r2", "inv_r2")

    def test_unknown_relation(self):
        kg = ingest_triples(["a\tr\tb"], "train")
        with pytest.raises(DataError, match="unknown relation"):
            mine_rules(kg, 99)

    def test_max_body_len_bounds(self):
        kg = ingest_triples(["a\tr\tb"], "train")
        with pytest.raises(DataError):
            mine_rules(kg, 0, max_body_len=4)

    def test_coverage_floor_applied(self):
        kg = ingest_triples(["a\tr1\tb", "a\tr2\tb"], "train")
        theory = mine_rules(kg, kg.relations.id("r2"), max_body_len=1, min_coverage=5)
        assert theory.rules == []

    def test_mined_rules_never_degenerate(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            kg = random_kg(rng, 12, 4, 40, "train")
            for target in range(kg.n_relations):
                theory = mine_rules(kg, target, max_body_len=3, min_coverage=1)
                for rule in theory.rules:
                    keep, reason = filter_degenerate(rule)
                    assert keep, f"degenerate rule survived: {rule} ({reason})"

    def test_confidence_times_total_is_integer_correct(self):
        rng = np.random.default_rng(32)
        kg = random_kg(rng, 15, 3, 60, "train")
        for target in range(kg.n_relations):
            for rule in mine_rules(kg, target, max_body_len=2).rules:
                assert rule.confidence * rule.total == pytest.approx(rule.correct, abs=1e-9)
                assert isinstance(rule.correct, int)
                assert isinstance(rule.total, int)

    def test_theory_sorted_by_confidence_then_coverage(self):
        rng = np.random.default_rng(33)
        kg = random_kg(rng, 15, 3, 60, "train")
        theory = mine_rules(kg, 0, max_body_len=2)
        confs = [r.confidence for r in theory.rules]
        assert confs == sorted(confs, reverse=True)
        for a, b in zip(theory.rules, theory.rules[1:]):
            if a.confidence == b.confidence:
                assert a.coverage >= b.coverage

    def test_mine_all_matches_per_target_mining(self):
        rng = np.random.default_rng(34)
        kg = random_kg(rng, 12, 3, 40, "train")
        kg = random_kg(rng, 12, 3, 10, "test", kg)

        def counts(theory):
            return [(str(r), r.correct, r.total, r.train_correct) for r in theory.rules]

        mined = mine_all(kg, max_body_len=2)
        assert list(mined) == list(range(kg.n_relations))
        for target, theory in mined.items():
            assert counts(theory) == counts(mine_rules(kg, target, max_body_len=2))


# "inv_r0" used forward and "r0" inverted print alike, so rules can tie on the whole sort key
RELATION_LABELS = ("r0", "inv_r0", "r1")


@st.composite
def split_graphs(draw):
    """A small random graph with triples in every split."""
    n = draw(st.integers(min_value=1, max_value=7))
    n_rel = draw(st.integers(min_value=1, max_value=3))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n_rel - 1), st.integers(0, n - 1), st.sampled_from(SPLITS)),
            max_size=30,
            unique_by=lambda cell: cell[:3],
        )
    )
    kg = KnowledgeGraph()
    for split in SPLITS:
        ingest_triples([f"e{h}\t{RELATION_LABELS[r]}\te{t}" for h, r, t, s in cells if s == split], split, kg)
    return kg


def _counts(theory):
    return [(str(r), r.correct, r.total, r.train_correct) for r in theory.rules]


# most entries per join chunk: a few entries, so joins split into many chunks, or the default
join_entries = st.sampled_from([1, 2, 3, rules._JOIN_ENTRIES])


class TestMiningOracle:
    """Mining and rule application against brute-force walks over plain sets."""

    # two paths from x to y through different middles: the body's pair (x, y) counts once even
    # when the two joins fall in different chunks
    @example(
        kg=ingest_triples(["x\tr0\tz1", "x\tr0\tz2", "z1\tr1\ty", "z2\tr1\ty", "x\tinv_r0\ty"], "train"),
        depth=2, min_coverage=1, min_confidence=0.0, recursion=False, entries=1,
    )
    # inv_r0(X,Y) twice, from r0 inverted and from inv_r0: a tie on the whole sort key that
    # enumeration order breaks, seen in train_correct (1 against 2)
    @example(
        kg=ingest_triples(["c\tr1\td"], "test", ingest_triples(
            ["a\tr0\tb", "d\tr0\tc", "b\tinv_r0\ta", "e\tinv_r0\tf", "b\tr1\ta", "e\tr1\tf"], "train")),
        depth=1, min_coverage=1, min_confidence=0.0, recursion=False, entries=rules._JOIN_ENTRIES,
    )
    @settings(max_examples=100, deadline=None)
    @given(
        split_graphs(),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.0, 0.2, 0.5, 2 / 3, 1.0]),
        st.booleans(),
        join_entries,
    )
    def test_mining_matches_oracle(self, kg, depth, min_coverage, min_confidence, recursion, entries):
        with mock.patch.object(rules, "_JOIN_ENTRIES", entries):
            for target in range(kg.n_relations):
                theory = mine_rules(kg, target, depth, min_coverage, min_confidence, allow_recursion=recursion)
                assert _counts(theory) == oracle_mine_rules(
                    kg, target, depth, min_coverage, min_confidence, allow_recursion=recursion
                )
            mined = mine_all(kg, None, depth, min_coverage, min_confidence)
        assert list(mined) == list(range(kg.n_relations))
        for target, theory in mined.items():
            assert _counts(theory) == oracle_mine_rules(kg, target, depth, min_coverage, min_confidence)

    @settings(max_examples=60, deadline=None)
    @given(split_graphs(), st.integers(min_value=1, max_value=3), st.booleans(), st.booleans(), join_entries)
    def test_scores_match_oracle(self, kg, depth, recursion, known_train, entries):
        with mock.patch.object(rules, "_JOIN_ENTRIES", entries):
            theories = {t: mine_rules(kg, t, depth, allow_recursion=recursion) for t in range(kg.n_relations)}
        scorer = RuleScorer(theories, kg, score_known_train=known_train)
        for rel in range(kg.n_relations):
            for anchor in range(kg.n_entities):
                tails = oracle_rule_scores(kg, theories, rel, anchor, "tail", known_train)
                heads = oracle_rule_scores(kg, theories, rel, anchor, "head", known_train)
                assert scorer.score_tails(rel, anchor).tolist() == tails
                assert scorer.score_heads(rel, anchor).tolist() == heads
                assert [scorer.score(rel, anchor, e) for e in range(kg.n_entities)] == tails


class TestRuleScorer:
    def _two_rule_theory(self, kg, target):
        """Hand-built theory with confidences 0.7 and 0.9 firing on the same pair."""
        r1 = kg.relations.id("r1")
        r2 = kg.relations.id("r2")
        head = Atom("t", ("X", "Y"))
        rule_a = HornRule(head, (Atom("r1", ("X", "Y")),), correct=7, total=10, chain=((r1, False),))
        rule_b = HornRule(head, (Atom("r2", ("X", "Y")),), correct=9, total=10, chain=((r2, False),))
        from kgbench.rules import RuleTheory

        return {target: RuleTheory(target=target, target_label="t", rules=[rule_b, rule_a])}

    def test_max_aggregation(self):
        kg = ingest_triples(["a\tr1\tb", "a\tr2\tb", "x\tt\ty"], "train")
        target = kg.relations.id("t")
        scorer = RuleScorer(self._two_rule_theory(kg, target), kg)
        assert scorer.score(target, kg.entities.id("a"), kg.entities.id("b")) == 0.9

    def test_no_rule_fires_scores_zero(self):
        kg = ingest_triples(["a\tr1\tb", "x\tt\ty"], "train")
        target = kg.relations.id("t")
        scorer = RuleScorer({}, kg)
        assert scorer.score(target, 0, 1) == 0.0

    def test_monotone_in_theories(self):
        kg = ingest_triples(["a\tr1\tb", "a\tr2\tb", "x\tt\ty"], "train")
        target = kg.relations.id("t")
        theories = self._two_rule_theory(kg, target)
        one_rule = {target: type(theories[target])(target, "t", [theories[target].rules[1]])}
        s_small = RuleScorer(one_rule, kg)
        s_big = RuleScorer(theories, kg)
        for h in range(kg.n_entities):
            for t in range(kg.n_entities):
                assert s_big.score(target, h, t) >= s_small.score(target, h, t)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(35)
        kg = random_kg(rng, 12, 3, 40, "train")
        theories = mine_all(kg, max_body_len=2)
        scorer = RuleScorer(theories, kg)
        for rel in range(kg.n_relations):
            for anchor in range(0, 12, 3):
                tails = oracle_rule_scores(kg, theories, rel, anchor, "tail", False)
                heads = oracle_rule_scores(kg, theories, rel, anchor, "head", False)
                assert scorer.score_tails(rel, anchor).tolist() == tails
                assert scorer.score_heads(rel, anchor).tolist() == heads
                for e in range(12):
                    assert scorer.score(rel, anchor, e) == tails[e]
                    assert scorer.score(rel, e, anchor) == heads[e]

    def test_score_known_train_flag(self):
        kg = ingest_triples(["a\tt\tb"], "train")
        target = kg.relations.id("t")
        scorer = RuleScorer({}, kg, score_known_train=True)
        assert scorer.score(target, kg.entities.id("a"), kg.entities.id("b")) == 1.0
        assert scorer.score_tails(target, kg.entities.id("a"))[kg.entities.id("b")] == 1.0

    def test_equivalence_kg_end_to_end(self, equivalence_kg):
        kg = equivalence_kg
        r2 = kg.relations.id("r2")
        theory = mine_rules(kg, r2, max_body_len=2, min_coverage=5)
        top = theory.rules[0]
        assert str(top) == "r2(X,Y) :- r1(X,Y)."
        assert top.confidence == 1.0
        scorer = RuleScorer({r2: theory}, kg)
        # every held-out triple scores 1.0; corrupted candidates score below
        for triple in kg.triples("test")[:20]:
            assert scorer.score(triple.relation, triple.head, triple.tail) == 1.0
        result = evaluate(scorer, kg, split="test", rank_mode="expected")
        assert result.hits[1] == 1.0


class TestConnectedRelations:
    def test_disjoint_relations_count_zero(self):
        kg = ingest_triples(["a\tr1\tb", "x\tr2\ty"], "train")
        counts = connected_relations(kg)
        assert counts == {0: 0, 1: 0}

    def test_star_hub(self):
        n = 5
        lines = [f"e{i}\tr{i}\thub" for i in range(n)]
        kg = ingest_triples(lines, "train")
        counts = connected_relations(kg)
        assert all(c == n - 1 for c in counts.values())

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(36)
        kg = random_kg(rng, 20, 6, 50, "train")
        counts = connected_relations(kg)
        triples = list(kg.known_true)
        for rel in range(kg.n_relations):
            others = set()
            for t1 in triples:
                if t1.relation != rel:
                    continue
                for t2 in triples:
                    if t2.relation == rel:
                        continue
                    if {t1.head, t1.tail} & {t2.head, t2.tail}:
                        others.add(t2.relation)
            assert counts[rel] == len(others)

    def test_symmetry(self):
        rng = np.random.default_rng(37)
        kg = random_kg(rng, 15, 5, 40, "train")
        ent_rels: dict[int, set[int]] = {}
        for t in kg.known_true:
            ent_rels.setdefault(t.head, set()).add(t.relation)
            ent_rels.setdefault(t.tail, set()).add(t.relation)
        share = {(a, b) for rels in ent_rels.values() for a in rels for b in rels if a != b}
        for a, b in share:
            assert (b, a) in share


class TestAnalytics:
    def test_distinct_relations_per_theory(self):
        from kgbench.rules import RuleTheory

        head = Atom("t", ("X", "Y"))
        rules = [
            HornRule(head, (Atom("a", ("X", "Y")),), 1, 1),
            HornRule(head, (Atom("a", ("X", "Z")), Atom("b", ("Z", "Y"))), 1, 1),
        ]
        analytics = theory_analytics([RuleTheory(0, "t", rules)])
        assert analytics.relations_per_theory["t"] == 2

    def test_inverted_relations_count_as_base(self):
        from kgbench.rules import RuleTheory

        head = Atom("t", ("X", "Y"))
        rules = [
            HornRule(head, (Atom("a", ("X", "Y")),), 1, 1),
            HornRule(head, (Atom("inv_a", ("X", "Y")),), 1, 1),
        ]
        analytics = theory_analytics([RuleTheory(0, "t", rules)])
        assert analytics.relations_per_theory["t"] == 1

    def test_terminal_coverage_bin(self):
        assert coverage_bin_label(1000) == ">400"
        assert coverage_bin_label(400) == "350-400"
        assert coverage_bin_label(37) == "0-49"

    def test_rule_with_coverage_1000_lands_in_terminal_bin(self):
        from kgbench.rules import RuleTheory

        head = Atom("t", ("X", "Y"))
        rules = [HornRule(head, (Atom("a", ("X", "Y")),), 900, 1000)]
        analytics = theory_analytics([RuleTheory(0, "t", rules)])
        assert analytics.coverage_bins == {">400": 1}

    def test_empty_theory_flagged(self):
        from kgbench.rules import RuleTheory

        analytics = theory_analytics([RuleTheory(0, "t", [])])
        assert analytics.relations_per_theory["t"] == 0
        assert analytics.empty_theories == ["t"]

    def test_no_theories_is_an_error(self):
        with pytest.raises(DataError):
            theory_analytics([])


class TestRuleFiles:
    def test_format_parse_roundtrip(self):
        head = Atom("likes", ("X", "Y"))
        body = (Atom("knows", ("X", "Z1")), Atom("inv_admires", ("Z1", "Y")))
        rule = HornRule(head, body, correct=7, total=9)
        line = format_rule(rule)
        back = parse_rule_line(line, 1)
        assert back.head == rule.head
        assert back.body == rule.body
        assert back.total == rule.total
        assert back.correct == rule.correct
        assert format_rule(back) == line

    def test_save_load_and_score(self, tmp_path, equivalence_kg):
        kg = equivalence_kg
        r2 = kg.relations.id("r2")
        theories = {r2: mine_rules(kg, r2, max_body_len=2, min_coverage=5)}
        path = tmp_path / "rules.tsv"
        save_theories(theories, path)
        loaded = load_theories(path, kg)
        scorer = RuleScorer(loaded, kg)
        result = evaluate(scorer, kg, split="test", rank_mode="expected")
        assert result.hits[1] == 1.0

    def test_parse_errors(self):
        with pytest.raises(DataError):
            parse_rule_line("no tabs here", 1)
        with pytest.raises(DataError):
            parse_rule_line("0.5\t3\tnot a rule", 1)

    @pytest.mark.parametrize("conf", ["nan", "inf", "-inf"])
    def test_non_finite_confidence_is_data_error(self, conf):
        with pytest.raises(DataError, match=f"rules.txt:4: confidence '{conf}' is not finite"):
            parse_rule_line(f"{conf}\t3\tr(X,Y) :- r(X,Z), r(Z,Y).", 4, "rules.txt")

    def test_inv_prefix_marks_inversion(self, tmp_path):
        kg = ingest_triples(["b\tr\ta", "a\tt\tb"], "train")
        line = "1.0\t1\tt(X,Y) :- inv_r(X,Y)."
        (tmp_path / "rules.tsv").write_text(line + "\n")
        theories = load_theories(tmp_path / "rules.tsv", kg)
        target = kg.relations.id("t")
        scorer = RuleScorer(theories, kg)
        # r(b, a) holds, so inv_r(a, b) fires for t(a, b)
        assert scorer.score(target, kg.entities.id("a"), kg.entities.id("b")) == 1.0
