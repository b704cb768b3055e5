"""Horn rules over the triple store: a closed path-rule miner, degenerate
rule filtering, confidence-weighted rule application for completion, and
rule-set analytics.

Rules are head-connected closed chains `target(X,Y) <- r1(X,Z1), ...,
rk(Zk-1,Y)` where each body relation may be used forward or inverted (the
`inv_` prefix in the file format). A rule's coverage is the number of
distinct (X,Y) pairs its body derives from the train split; its confidence
is the fraction of those predictions present in the fact set. Confidence
bookkeeping stays in exact integer counts and is rendered as a float only
on output. Mining and rule application read the graph's CSR index
(`KnowledgeGraph.adjacent_many`), keeping only its train entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .kg import SPLITS, KnowledgeGraph, _chunks, _distinct, _spans

INV_PREFIX = "inv_"
_TRAIN = SPLITS.index("train")
COVERAGE_TERMINAL_BIN = 400
_JOIN_ENTRIES = 1 << 22  # most train entries one chunk of a mining join gathers, unless one X has more


def is_variable(arg: str) -> bool:
    """Prolog convention: identifiers starting uppercase or `_` are variables."""
    return bool(arg) and (arg[0].isupper() or arg[0] == "_")


@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.relation}({','.join(self.args)})"


@dataclass(frozen=True, slots=True)  # slots: --all-targets on an FB15k-237-sized graph keeps millions
class HornRule:
    """head <- body with exact prediction counts.

    `total` counts distinct (X,Y) pairs the body derives on train triples;
    `correct` counts those present in the known-true fact set and
    `train_correct` those present in the target's train split (the two can
    differ when the target relation spans several splits).
    """

    head: Atom
    body: tuple[Atom, ...]
    correct: int
    total: int
    train_correct: int = -1  # -1: same as correct (single-split graphs)
    chain: tuple[tuple[int, bool], ...] | None = None  # (relation id, inverted)

    @property
    def confidence(self) -> float:
        return self.correct / self.total if self.total > 0 else 0.0

    @property
    def train_confidence(self) -> float:
        tc = self.correct if self.train_correct < 0 else self.train_correct
        return tc / self.total if self.total > 0 else 0.0

    @property
    def coverage(self) -> int:
        return self.total

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{self.head} :- {body}."


@dataclass
class RuleTheory:
    """All rules mined for one target relation, confidence-descending."""

    target: int
    target_label: str
    rules: list[HornRule] = field(default_factory=list)


# -- degenerate-rule filter ---------------------------------------------------


def filter_degenerate(rule: HornRule) -> tuple[bool, str | None]:
    """Keep/drop decision with a reason.

    Drops rules where a head argument does not occur in the body (that
    argument does not matter: the rule predicts whole rows or columns), and
    rules whose head arguments are not linked through shared body variables
    (the body cannot constrain the pair jointly).
    """
    if len(rule.head.args) != 2:
        raise DataError(f"rule head must be binary: {rule.head}")
    v0, v1 = rule.head.args
    body_vars = [set(a for a in atom.args if is_variable(a)) for atom in rule.body]
    all_vars = set().union(*body_vars) if body_vars else set()
    for v in (v0, v1):
        if v not in all_vars:
            return False, f"{v} unused"
    # union-find over variables linked by co-occurrence in one atom
    parent: dict[str, str] = {v: v for v in all_vars}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for vars_in_atom in body_vars:
        vs = sorted(vars_in_atom)
        for other in vs[1:]:
            parent[find(other)] = find(vs[0])
    if find(v0) != find(v1):
        return False, "head arguments disconnected"
    return True, None


# -- mining ---------------------------------------------------------------------


def _chain_vars(length: int) -> list[str]:
    return ["X"] + [f"Z{i}" for i in range(1, length)] + ["Y"]


def chain_to_atoms(chain: Sequence[tuple[int, bool]], kg: KnowledgeGraph) -> tuple[Atom, ...]:
    names = _chain_vars(len(chain))
    atoms = []
    for i, (rel, inv) in enumerate(chain):
        lab = kg.relations.label(rel)
        atoms.append(Atom((INV_PREFIX + lab) if inv else lab, (names[i], names[i + 1])))
    return tuple(atoms)


def _rule_order(rule: HornRule) -> tuple:
    return (-rule.confidence, -rule.coverage, tuple(a.relation for a in rule.body))


def _mine(
    kg: KnowledgeGraph,
    targets: Iterable[int],
    max_body_len: int,
    min_coverage: int,
    min_confidence: float,
    allow_recursion: bool,
) -> dict[int, RuleTheory]:
    """One theory per target (see mine_rules) from one enumeration of the
    closed chain bodies. A body's distinct (X, Y) pairs are sorted keys
    X * N + Y; one join through the graph's train entries extends a body by
    every step (2 * relation + inverted) at once, and counts the extensions'
    pairs against the known-true pairs of every target."""
    theories: dict[int, RuleTheory] = {}
    for target in targets:
        if not 0 <= target < kg.n_relations:
            raise DataError(f"unknown relation id: {target}")
        theories[int(target)] = RuleTheory(target=int(target), target_label=kg.relations.label(target))
    if not 1 <= max_body_len <= 3:
        raise DataError("max_body_len must be in [1, 3]")
    n, n_rel = kg.n_entities, kg.n_relations
    span = n * n  # a join's keys are step * N^2 + X * N + Y
    if 2 * n_rel * span >= 2**63:
        raise DataError(f"{n} entities and {n_rel} relations overflow 64-bit rule mining keys")
    # the targets' known-true pairs, sorted, each with its relation and whether it is a train triple
    rows = kg.all_rows()
    of_target = np.isin(rows[:, 1], list(theories))
    order = np.argsort(rows[of_target, 0] * n + rows[of_target, 2], kind="stable")
    facts = rows[of_target][order]
    fact_keys = np.append(facts[:, 0] * n + facts[:, 2], np.iinfo(np.int64).max)  # sentinel above every pair
    fact_cells = 2 * facts[:, 1] + (np.arange(len(rows)) < len(kg.rows("train")))[of_target][order]
    heads = {target: Atom(theory.target_label, ("X", "Y")) for target, theory in theories.items()}

    def visit(chain: tuple[tuple[int, bool], ...], pairs: np.ndarray) -> None:
        """Join the body `chain`, with pair keys `pairs`, to every step; emit
        and visit each extension in step order, so that bodies are met in
        lexicographic order, a body before its extensions."""
        x, z = np.divmod(pairs, n)
        anchors, back = np.unique(z, return_inverse=True)
        src, steps, ends, split_ids = kg.adjacent_many(anchors)
        train = split_ids == _TRAIN
        steps, ends, counts = steps[train], ends[train], np.bincount(src[train], minlength=len(anchors))
        gathered, starts = counts[back], (np.cumsum(counts) - counts)[back]
        # per step: distinct pairs, and per (relation, is a train triple) the pairs that are known true
        totals, cells = np.zeros(2 * n_rel, dtype=np.int64), np.zeros(4 * n_rel * n_rel, dtype=np.int64)
        joined = []  # the join's sorted keys, when the extensions are extended in turn
        for lo, hi in _chunks(x, gathered, _JOIN_ENTRIES):
            pos = _spans(starts[lo:hi], gathered[lo:hi])
            keys = _distinct(steps[pos] * span + np.repeat(x[lo:hi], gathered[lo:hi]) * n + ends[pos])
            key_steps, pair = np.divmod(keys, span)
            totals += np.bincount(key_steps, minlength=2 * n_rel)
            first = np.searchsorted(fact_keys, pair)
            hit = np.flatnonzero(fact_keys[first] == pair)
            matches = np.searchsorted(fact_keys, pair[hit], side="right") - first[hit]
            cell = np.repeat(key_steps[hit], matches) * 2 * n_rel + fact_cells[_spans(first[hit], matches)]
            cells += np.bincount(cell, minlength=len(cells))
            if len(chain) + 1 < max_body_len:
                joined.append(keys)
        cells = cells.reshape(2 * n_rel, n_rel, 2)
        for step in np.flatnonzero(totals).tolist():
            body, total = chain + ((step // 2, bool(step % 2)),), int(totals[step])
            correct, train_correct, atoms = cells[step].sum(axis=1), cells[step, :, 1], None
            for target in np.flatnonzero(correct).tolist() if total >= min_coverage else ():
                if body == ((target, False),) or not (allow_recursion or all(r != target for r, _ in body)):
                    continue  # the tautology, or a recursive body
                if correct[target] / total < min_confidence:
                    continue
                atoms = atoms or chain_to_atoms(body, kg)
                rule = HornRule(heads[target], atoms, int(correct[target]), total, int(train_correct[target]), body)
                theories[target].rules.append(rule)
            if joined:
                lo, hi = step * span, (step + 1) * span
                visit(body, np.concatenate([k[np.searchsorted(k, lo) : np.searchsorted(k, hi)] for k in joined]) - lo)

    visit((), np.arange(n, dtype=np.int64) * (n + 1))  # the empty body holds the pairs (X, X)
    for theory in theories.values():
        theory.rules.sort(key=_rule_order)
    return theories


def mine_rules(
    kg: KnowledgeGraph,
    target: int,
    max_body_len: int = 3,
    min_coverage: int = 1,
    min_confidence: float = 0.0,
    allow_recursion: bool = False,
) -> RuleTheory:
    """Enumerate closed chain rules for `target` over the train split.

    Each body relation may be used forward or inverted; by default the
    target relation itself is excluded from bodies (non-recursive language
    bias, so a rule can never prove the target from its own triples).
    `allow_recursion` re-admits it, which label-propagation style
    classification rules need; the single-atom tautology stays excluded.
    Rules below `min_coverage` distinct predictions or with no correct
    prediction are dropped, every kept rule passes the degenerate filter,
    and the theory is sorted by confidence then coverage then body
    (descending, descending, lexicographic).
    """
    return _mine(kg, [target], max_body_len, min_coverage, min_confidence, allow_recursion)[target]


def mine_all(
    kg: KnowledgeGraph,
    targets: Sequence[int] | None = None,
    max_body_len: int = 3,
    min_coverage: int = 1,
    min_confidence: float = 0.0,
) -> dict[int, RuleTheory]:
    """Mine one theory per target relation, in target order, from one shared enumeration."""
    targets = range(kg.n_relations) if targets is None else targets
    return _mine(kg, targets, max_body_len, min_coverage, min_confidence, allow_recursion=False)


# -- rule application --------------------------------------------------------------


class RuleScorer:
    """psi(r,h,t) = max confidence over rules of r's theory whose body links
    h to t in the train triples; 0 when no rule fires. Optionally scores
    known train triples 1.0.

    A query walks every rule of the theory at once: a frontier of (rule,
    entity) rows, joined to one body atom at a time and then deduplicated."""

    def __init__(
        self,
        theories: dict[int, RuleTheory],
        kg: KnowledgeGraph,
        score_known_train: bool = False,
    ) -> None:
        self.theories = theories
        self.kg = kg
        self.n_entities = kg.n_entities
        self.score_known_train = score_known_train
        # relation -> (confidences, the number of rules with a step p for each p, {backward: (K, L) steps})
        # of the rules that can fire, longest body first; steps are padded past each body's end
        self._walks: dict[int, tuple[np.ndarray, list[int], dict[bool, np.ndarray]]] = {}
        for relation, theory in theories.items():
            fire = [r for r in theory.rules if r.chain is not None and r.confidence > 0.0]
            fire.sort(key=lambda r: -len(r.chain))
            if fire:
                forward = [[2 * rel + inv for rel, inv in rule.chain] for rule in fire]
                backward = [[step ^ 1 for step in reversed(c)] for c in forward]  # reversed, each step inverted
                depth = len(forward[0])
                steps = {b: np.array([c + [0] * (depth - len(c)) for c in chains], dtype=np.int64)
                         for b, chains in ((False, forward), (True, backward))}
                live = [sum(len(c) > p for c in forward) for p in range(depth)]
                self._walks[relation] = (np.array([r.confidence for r in fire]), live, steps)

    def score(self, relation: int, head: int, tail: int) -> float:
        return float(self.score_tails(relation, head)[tail])

    def _score_side(self, relation: int, anchor: int, backward: bool) -> np.ndarray:
        n = self.n_entities
        out = np.zeros(n, dtype=np.float64)
        if self.score_known_train:
            entities, split_ids = self.kg.adjacent(relation, anchor, "head" if backward else "tail")
            out[entities[split_ids == _TRAIN]] = 1.0
        if relation not in self._walks:
            return out
        conf, live, steps = self._walks[relation]
        rule, ent = np.arange(len(conf)), np.full(len(conf), anchor, dtype=np.int64)
        for p, n_live in enumerate(live):  # rows stay sorted by rule, so the rows of finished rules come last
            cut = int(np.searchsorted(rule, n_live))
            np.maximum.at(out, ent[cut:], conf[rule[cut:]])
            src, _, ends, split_ids = self.kg.adjacent_many(ent[:cut], steps[backward][rule[:cut], p])
            train = split_ids == _TRAIN
            rule, ent = np.divmod(_distinct(rule[src[train]] * n + ends[train]), n)
        np.maximum.at(out, ent, conf[rule])
        return out

    def score_tails(self, relation: int, head: int):
        return self._score_side(relation, head, backward=False)

    def score_heads(self, relation: int, tail: int):
        return self._score_side(relation, tail, backward=True)


# -- analytics -----------------------------------------------------------------------


def connected_relations(kg: KnowledgeGraph) -> dict[int, int]:
    """For each relation, how many distinct other relations share at least
    one entity with it (over the whole fact set). Uses an R x N float32
    incidence matrix."""
    rows = kg.all_rows()
    touches = np.zeros((kg.n_relations, kg.n_entities), dtype=np.float32)
    touches[rows[:, 1], rows[:, 0]] = 1.0
    touches[rows[:, 1], rows[:, 2]] = 1.0
    shared = (touches @ touches.T) > 0  # exact: a sum of 0/1 products is 0 only if all are
    np.fill_diagonal(shared, False)
    return {rel: int(n) for rel, n in enumerate(shared.sum(axis=1))}


def histogram(values: Iterable[int], bin_width: int = 10) -> dict[str, int]:
    """Counts per [lo, lo+width) bin, keys like \"0-9\"."""
    out: dict[str, int] = {}
    for v in values:
        lo = (v // bin_width) * bin_width
        key = f"{lo}-{lo + bin_width - 1}"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items(), key=lambda kv: int(kv[0].split("-")[0])))


@dataclass
class TheoryAnalytics:
    relations_per_theory: dict[str, int]
    relations_histogram: dict[int, int]
    precision_vs_coverage: list[tuple[float, int]]
    train_confidence_vs_coverage: list[tuple[float, int]]
    coverage_bins: dict[str, int]
    empty_theories: list[str]


def coverage_bin_label(cov: int, width: int = 50, terminal: int = COVERAGE_TERMINAL_BIN) -> str:
    if cov > terminal:
        return f">{terminal}"
    lo = min((cov // width) * width, terminal - width)
    return f"{lo}-{lo + width - 1}" if lo + width < terminal else f"{lo}-{terminal}"


def theory_analytics(theories: dict[int, RuleTheory] | Sequence[RuleTheory]) -> TheoryAnalytics:
    """Distinct body relations per theory, plus the rule-level precision /
    coverage scatter with the terminal >400 coverage bin.

    Precision here is the ground-truth-checked confidence; the train-split
    confidence is reported alongside since the two can be computed on
    different splits.
    """
    tlist = list(theories.values()) if isinstance(theories, dict) else list(theories)
    if not tlist:
        raise DataError("no theories given")
    rel_counts: dict[str, int] = {}
    empty: list[str] = []
    scatter: list[tuple[float, int]] = []
    scatter_train: list[tuple[float, int]] = []
    bins: dict[str, int] = {}
    for th in tlist:
        base_rels = set()
        for rule in th.rules:
            for atom in rule.body:
                name = atom.relation
                base_rels.add(name[len(INV_PREFIX) :] if name.startswith(INV_PREFIX) else name)
            scatter.append((rule.confidence, rule.coverage))
            scatter_train.append((rule.train_confidence, rule.coverage))
            lab = coverage_bin_label(rule.coverage)
            bins[lab] = bins.get(lab, 0) + 1
        rel_counts[th.target_label] = len(base_rels)
        if not th.rules:
            empty.append(th.target_label)
    hist: dict[int, int] = {}
    for c in rel_counts.values():
        hist[c] = hist.get(c, 0) + 1
    return TheoryAnalytics(
        relations_per_theory=rel_counts,
        relations_histogram=dict(sorted(hist.items())),
        precision_vs_coverage=scatter,
        train_confidence_vs_coverage=scatter_train,
        coverage_bins=bins,
        empty_theories=empty,
    )


# -- rule files --------------------------------------------------------------------


def format_rule(rule: HornRule) -> str:
    return f"{rule.confidence!r}\t{rule.coverage}\t{rule}"


def parse_rule_line(line: str, lineno: int = 0, source: str = "<rules>") -> HornRule:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise DataError(f"{source}:{lineno}: expected conf<TAB>cov<TAB>rule")
    try:
        conf = float(parts[0])
        cov = int(parts[1])
    except ValueError as exc:
        raise DataError(f"{source}:{lineno}: bad confidence/coverage: {exc}") from None
    if not math.isfinite(conf):
        raise DataError(f"{source}:{lineno}: confidence {parts[0]!r} is not finite")
    text = parts[2].strip()
    if text.endswith("."):
        text = text[:-1]
    if ":-" not in text:
        raise DataError(f"{source}:{lineno}: missing ':-' in rule")
    head_text, body_text = text.split(":-", 1)
    head = _parse_atom(head_text.strip(), lineno, source)
    body = tuple(_parse_atom(a.strip(), lineno, source) for a in _split_atoms(body_text))
    if not body:
        raise DataError(f"{source}:{lineno}: empty rule body")
    correct = round(conf * cov)
    return HornRule(head=head, body=body, correct=correct, total=cov)


def _split_atoms(text: str) -> list[str]:
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return [a for a in (s.strip() for s in out) if a]


def _parse_atom(text: str, lineno: int, source: str) -> Atom:
    if "(" not in text or not text.endswith(")"):
        raise DataError(f"{source}:{lineno}: malformed atom: {text!r}")
    name, argstr = text.split("(", 1)
    args = tuple(a.strip() for a in argstr[:-1].split(","))
    if not name or any(not a for a in args):
        raise DataError(f"{source}:{lineno}: malformed atom: {text!r}")
    return Atom(name.strip(), args)


def bind_chain(rule: HornRule, kg: KnowledgeGraph) -> HornRule:
    """Resolve a parsed chain rule's relation names to ids and rebuild the
    (relation, inverted) chain the scorer walks."""
    chain: list[tuple[int, bool]] = []
    expect = rule.head.args[0]
    for i, atom in enumerate(rule.body):
        if len(atom.args) != 2:
            raise DataError(f"non-binary body atom: {atom}")
        name = atom.relation
        inv = name.startswith(INV_PREFIX)
        base = name[len(INV_PREFIX) :] if inv else name
        if base not in kg.relations:
            raise DataError(f"unknown relation in rule body: {base!r}")
        if atom.args[0] != expect:
            raise DataError(f"rule body is not a closed chain at atom {atom}")
        expect = atom.args[1]
        chain.append((kg.relations.id(base), inv))
    if expect != rule.head.args[1]:
        raise DataError(f"rule body does not close on the head variables: {rule}")
    return replace(rule, chain=tuple(chain))


def save_theories(theories: dict[int, RuleTheory], path: Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for target in sorted(theories):
            for rule in theories[target].rules:
                fh.write(format_rule(rule) + "\n")


def load_theories(path: Path, kg: KnowledgeGraph) -> dict[int, RuleTheory]:
    theories: dict[int, RuleTheory] = {}
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip() or raw.lstrip().startswith("#"):
                continue
            rule = parse_rule_line(raw, lineno, str(path))
            if rule.head.relation not in kg.relations:
                raise DataError(f"{path}:{lineno}: unknown head relation {rule.head.relation!r}")
            rule = bind_chain(rule, kg)
            target = kg.relations.id(rule.head.relation)
            th = theories.setdefault(target, RuleTheory(target=target, target_label=rule.head.relation))
            th.rules.append(rule)
    for th in theories.values():
        th.rules.sort(key=_rule_order)
    return theories
