"""Horn rules over the triple store: a closed path-rule miner, degenerate
rule filtering, confidence-weighted rule application for completion, and
rule-set analytics.

Rules are head-connected closed chains `target(X,Y) <- r1(X,Z1), ...,
rk(Zk-1,Y)` where each body relation may be used forward or inverted (the
`inv_` prefix in the file format). A rule's coverage is the number of
distinct (X,Y) pairs its body derives from the train split; its confidence
is the fraction of those predictions present in the fact set. Confidence
bookkeeping stays in exact integer counts and is rendered as a float only
on output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .kg import SPLITS, KnowledgeGraph

INV_PREFIX = "inv_"
_TRAIN = SPLITS.index("train")
COVERAGE_TERMINAL_BIN = 400


def is_variable(arg: str) -> bool:
    """Prolog convention: identifiers starting uppercase or `_` are variables."""
    return bool(arg) and (arg[0].isupper() or arg[0] == "_")


@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.relation}({','.join(self.args)})"


@dataclass(frozen=True)
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


def _adjacency(kg: KnowledgeGraph, split: str = "train"):
    fwd: dict[int, dict[int, set[int]]] = {}
    bwd: dict[int, dict[int, set[int]]] = {}
    for h, r, t in kg.rows(split).tolist():
        fwd.setdefault(r, {}).setdefault(h, set()).add(t)
        bwd.setdefault(r, {}).setdefault(t, set()).add(h)
    return fwd, bwd


def _pairs(rows: np.ndarray, relation: int) -> set[tuple[int, int]]:
    """The (head, tail) pairs of `relation` among `rows`."""
    rows = rows[rows[:, 1] == relation]
    return set(zip(rows[:, 0].tolist(), rows[:, 2].tolist()))


def _compose(reach: dict[int, set[int]], step: dict[int, set[int]]) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {}
    for x, mids in reach.items():
        acc: set[int] = set()
        for z in mids:
            nxt = step.get(z)
            if nxt:
                acc |= nxt
        if acc:
            out[x] = acc
    return out


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
    if not 0 <= target < kg.n_relations:
        raise DataError(f"unknown relation id: {target}")
    if not 1 <= max_body_len <= 3:
        raise DataError("max_body_len must be in [1, 3]")
    fwd, bwd = _adjacency(kg)
    target_label = kg.relations.label(target)
    true_pairs = _pairs(kg.all_rows(), target)
    train_pairs = _pairs(kg.rows("train"), target)
    head_atom = Atom(target_label, ("X", "Y"))
    relations = [r for r in sorted(set(fwd) | set(bwd)) if allow_recursion or r != target]
    rules: list[HornRule] = []

    def emit(chain: tuple[tuple[int, bool], ...], reach: dict[int, set[int]]) -> None:
        if chain == ((target, False),):
            return  # tautological body
        total = sum(len(ys) for ys in reach.values())
        if total < min_coverage:
            return
        correct = train_correct = 0
        for x, ys in reach.items():
            for y in ys:
                if (x, y) in true_pairs:  # train_pairs is a subset of true_pairs
                    correct += 1
                    train_correct += (x, y) in train_pairs
        if correct == 0:
            return  # never predicts the target: contributes nothing to scoring
        if correct / total < min_confidence:
            return
        rule = HornRule(
            head=head_atom,
            body=chain_to_atoms(chain, kg),
            correct=correct,
            total=total,
            train_correct=train_correct,
            chain=chain,
        )
        keep, _reason = filter_degenerate(rule)
        if keep:
            rules.append(rule)

    def expand(chain: tuple[tuple[int, bool], ...], reach: dict[int, set[int]]) -> None:
        emit(chain, reach)
        if len(chain) >= max_body_len:
            return
        for rel in relations:
            for inv in (False, True):
                step = bwd.get(rel, {}) if inv else fwd.get(rel, {})
                nxt = _compose(reach, step)
                if nxt:
                    expand(chain + ((rel, inv),), nxt)

    for rel in relations:
        for inv in (False, True):
            start = bwd.get(rel, {}) if inv else fwd.get(rel, {})
            if start:
                expand(((rel, inv),), {x: set(ys) for x, ys in start.items()})

    rules.sort(key=lambda r: (-r.confidence, -r.coverage, tuple(a.relation for a in r.body)))
    return RuleTheory(target=target, target_label=target_label, rules=rules)


def mine_all(
    kg: KnowledgeGraph,
    targets: Sequence[int] | None = None,
    max_body_len: int = 3,
    min_coverage: int = 1,
    min_confidence: float = 0.0,
) -> dict[int, RuleTheory]:
    """Mine one theory per target relation, in target order."""
    if targets is None:
        targets = range(kg.n_relations)
    return {t: mine_rules(kg, t, max_body_len, min_coverage, min_confidence) for t in targets}


# -- rule application --------------------------------------------------------------


class RuleScorer:
    """psi(r,h,t) = max confidence over rules of r's theory whose body links
    h to t in the train triples; 0 when no rule fires. Optionally scores
    known train triples 1.0."""

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
        self._fwd, self._bwd = _adjacency(kg)

    def _walk(self, start: int, chain: Sequence[tuple[int, bool]]) -> set[int]:
        cur = {start}
        for rel, inv in chain:
            step = self._bwd.get(rel, {}) if inv else self._fwd.get(rel, {})
            nxt: set[int] = set()
            for z in cur:
                s = step.get(z)
                if s:
                    nxt |= s
            if not nxt:
                return set()
            cur = nxt
        return cur

    @staticmethod
    def _reverse(chain: Sequence[tuple[int, bool]]) -> tuple[tuple[int, bool], ...]:
        return tuple((rel, not inv) for rel, inv in reversed(chain))

    def _known_train(self, relation: int, anchor: int, side: str) -> np.ndarray:
        entities, split_ids = self.kg.adjacent(relation, anchor, side)
        return entities[split_ids == _TRAIN]

    def score(self, relation: int, head: int, tail: int) -> float:
        if self.score_known_train and tail in self._known_train(relation, head, "tail"):
            return 1.0
        theory = self.theories.get(relation)
        if theory is None:
            return 0.0
        for rule in theory.rules:  # confidence-descending
            if rule.chain is None:
                continue
            if tail in self._walk(head, rule.chain):
                return rule.confidence
        return 0.0

    def _score_side(self, relation: int, anchor: int, backward: bool) -> np.ndarray:
        out = np.zeros(self.n_entities, dtype=np.float64)
        if self.score_known_train:
            out[self._known_train(relation, anchor, "head" if backward else "tail")] = 1.0
        theory = self.theories.get(relation)
        if theory is None:
            return out
        for rule in theory.rules:
            if rule.chain is None or rule.confidence <= 0.0:
                continue
            chain = self._reverse(rule.chain) if backward else rule.chain
            for e in self._walk(anchor, chain):
                if out[e] < rule.confidence:
                    out[e] = rule.confidence
        return out

    def score_tails(self, relation: int, head: int):
        return self._score_side(relation, head, backward=False)

    def score_heads(self, relation: int, tail: int):
        return self._score_side(relation, tail, backward=True)


def rule_scorer(
    theories: dict[int, RuleTheory],
    kg: KnowledgeGraph,
    score_known_train: bool = False,
) -> RuleScorer:
    return RuleScorer(theories, kg, score_known_train)


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
        th.rules.sort(key=lambda r: (-r.confidence, -r.coverage, tuple(a.relation for a in r.body)))
    return theories
