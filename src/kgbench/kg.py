"""Triple store: ingestion, vocabularies, reification, splits, serialization.

A :class:`KnowledgeGraph` owns dense integer vocabularies for entities and
relations, per-split triple lists, the deduplicated set of all known-true
triples used for filtered evaluation, and adjacency indices for fast
(head, relation) -> tails lookups.
"""

from __future__ import annotations

import logging
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DataError

log = logging.getLogger(__name__)

SPLITS = ("train", "valid", "test")

KG_MAGIC = b"KGB1"


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class HyperFact(NamedTuple):
    """An n-ary fact `relation(arg1, ..., argn)` over string labels."""

    relation: str
    args: tuple[str, ...]


class Vocab:
    """Bijective label <-> dense index map, indices assigned in add order."""

    def __init__(self, labels: Iterable[str] = ()) -> None:
        self._index: dict[str, int] = {}
        self._labels: list[str] = []
        for lab in labels:
            self.add(lab)

    def add(self, label: str) -> int:
        idx = self._index.get(label)
        if idx is None:
            idx = len(self._labels)
            self._index[label] = idx
            self._labels.append(label)
        return idx

    def id(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DataError(f"unknown label: {label!r}") from None

    def label(self, idx: int) -> str:
        if not 0 <= idx < len(self._labels):
            raise DataError(f"index {idx} out of vocabulary range [0, {len(self._labels)})")
        return self._labels[idx]

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __len__(self) -> int:
        return len(self._labels)

    def labels(self) -> list[str]:
        return list(self._labels)


class KnowledgeGraph:
    """Indexed triple store with train/valid/test splits.

    Splits are pairwise disjoint triple sets; ``known_true`` is exactly their
    union. Duplicate triples within one split are dropped with a warning,
    duplicates across splits are an error. The graph is append-only during
    ingestion and treated as immutable afterwards.
    """

    def __init__(self) -> None:
        self.entities = Vocab()
        self.relations = Vocab()
        self.splits: dict[str, list[Triple]] = {s: [] for s in SPLITS}
        self.known_true: set[Triple] = set()
        self.attribute_relations: set[int] = set()
        # (relation, head) -> set of tails and (relation, tail) -> set of heads
        self._tails: dict[tuple[int, int], set[int]] = {}
        self._heads: dict[tuple[int, int], set[int]] = {}
        self._split_of: dict[Triple, str] = {}

    # -- construction -----------------------------------------------------

    def add_triple(self, head: str, relation: str, tail: str, split: str) -> Triple | None:
        """Index labels and append the triple to `split`.

        Returns the indexed triple, or None when it was a duplicate within
        the same split (dropped with a warning).
        """
        if split not in self.splits:
            raise DataError(f"unknown split tag: {split!r} (expected one of {SPLITS})")
        t = Triple(self.entities.add(head), self.relations.add(relation), self.entities.add(tail))
        if t in self.known_true:
            if self._split_of[t] == split:
                log.warning("dropping duplicate triple %s/%s/%s in split %r", head, relation, tail, split)
                return None
            raise DataError(f"duplicate triple across splits: {head}\t{relation}\t{tail}")
        self._append_indexed(t, split)
        return t

    def mark_attribute(self, relation: str) -> None:
        self.attribute_relations.add(self.relations.add(relation))

    # -- views ------------------------------------------------------------

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def triples(self, split: str) -> list[Triple]:
        if split not in self.splits:
            raise DataError(f"unknown split tag: {split!r}")
        return self.splits[split]

    def tails_of(self, relation: int, head: int) -> set[int]:
        """All tails t with (head, relation, t) in any split."""
        return self._tails.get((relation, head), set())

    def heads_of(self, relation: int, tail: int) -> set[int]:
        return self._heads.get((relation, tail), set())

    def _append_indexed(self, t: Triple, split: str) -> None:
        self.splits[split].append(t)
        self.known_true.add(t)
        self._split_of[t] = split
        self._tails.setdefault((t.relation, t.head), set()).add(t.tail)
        self._heads.setdefault((t.relation, t.tail), set()).add(t.head)

    def copy_without_relations(self, relations: set[int]) -> "KnowledgeGraph":
        """A new graph with identical vocabularies but without triples of
        the given relations. Relation indices stay stable so embedding
        matrices built on either graph are aligned."""
        out = KnowledgeGraph()
        out.entities = Vocab(self.entities.labels())
        out.relations = Vocab(self.relations.labels())
        out.attribute_relations = set(self.attribute_relations) - relations
        for split in SPLITS:
            for t in self.splits[split]:
                if t.relation not in relations:
                    out._append_indexed(t, split)
        return out

    def extended(self, label_triples: Sequence[tuple[str, str, str]], split: str) -> "KnowledgeGraph":
        """A new graph with extra triples (given as label strings) appended."""
        out = KnowledgeGraph()
        out.entities = Vocab(self.entities.labels())
        out.relations = Vocab(self.relations.labels())
        out.attribute_relations = set(self.attribute_relations)
        for s in SPLITS:
            for t in self.splits[s]:
                out._append_indexed(t, s)
        for h, r, t in label_triples:
            out.add_triple(h, r, t, split)
        return out


# -- ingestion -------------------------------------------------------------


def ingest_triples(
    lines: Iterable[str],
    split: str,
    kg: KnowledgeGraph | None = None,
    source: str = "<stream>",
) -> KnowledgeGraph:
    """Ingest tab-separated `head<TAB>relation<TAB>tail` lines into `split`.

    Empty lines and `#`-prefixed comment lines are skipped. Malformed lines
    raise :class:`DataError` naming the line number. Pass an existing graph
    to ingest incrementally.
    """
    if kg is None:
        kg = KnowledgeGraph()
    if split not in SPLITS:
        raise DataError(f"unknown split tag: {split!r} (expected one of {SPLITS})")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not all(p.strip() for p in parts):
            raise DataError(f"{source}:{lineno}: malformed triple line: {line!r}")
        h, r, t = (p.strip() for p in parts)
        kg.add_triple(h, r, t, split)
    return kg


def ingest_attribute_schema(lines: Iterable[str], kg: KnowledgeGraph) -> None:
    """Mark relations listed one-per-line as attribute-value assignments."""
    for raw in lines:
        name = raw.strip()
        if not name or name.startswith("#"):
            continue
        kg.mark_attribute(name)


def load_dataset(
    train: Path | None = None,
    valid: Path | None = None,
    test: Path | None = None,
    attributes: Path | None = None,
    sorted_vocab: bool = False,
) -> KnowledgeGraph:
    """Load a dataset directory's split files into one graph.

    With ``sorted_vocab`` the entity/relation indices are assigned
    lexicographically over the full vocabulary instead of first-seen order,
    which makes indices reproducible across shuffled input files.
    """
    sources = [(p, s) for p, s in ((train, "train"), (valid, "valid"), (test, "test")) if p is not None]
    kg = KnowledgeGraph()
    if sorted_vocab:
        ents: set[str] = set()
        rels: set[str] = set()
        for path, _ in sources:
            for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise DataError(f"{path}:{lineno}: malformed triple line: {line!r}")
                ents.add(parts[0].strip())
                rels.add(parts[1].strip())
                ents.add(parts[2].strip())
        kg.entities = Vocab(sorted(ents))
        kg.relations = Vocab(sorted(rels))
    for path, split in sources:
        with path.open(encoding="utf-8") as fh:
            ingest_triples(fh, split, kg, source=str(path))
    if attributes is not None:
        with attributes.open(encoding="utf-8") as fh:
            ingest_attribute_schema(fh, kg)
    return kg


# -- reification -----------------------------------------------------------

_FACT_RE = re.compile(r"^\s*([^\s(]+)\s*\(\s*(.*?)\s*\)\s*\.?\s*$")


def parse_hyperfacts(lines: Iterable[str], source: str = "<stream>") -> Iterator[HyperFact]:
    """Parse Prolog-style `relation(arg1,arg2,...)` lines, period optional."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        m = _FACT_RE.match(line)
        if m is None:
            raise DataError(f"{source}:{lineno}: malformed fact: {line!r}")
        rel, argstr = m.group(1), m.group(2)
        args = tuple(a.strip() for a in argstr.split(",")) if argstr else ()
        if any(not a for a in args):
            raise DataError(f"{source}:{lineno}: empty argument in fact: {line!r}")
        yield HyperFact(rel, args)


@dataclass
class Reifier:
    """Decomposes hyperedges into binary edges via fresh hub entities.

    An arity-n fact (n >= 3) becomes one hub entity `rel#k` plus n triples
    `rel_i(hub, arg_i)`; hubs are numbered per relation so repeated facts of
    the same relation get distinct hubs. Arity-2 facts pass through, arity-1
    facts become attribute triples `entity -rel-> true`.
    """

    hub_format: str = "{rel}#{idx}"
    arg_format: str = "{rel}_{pos}"
    unary_value: str = "true"
    _counters: dict[str, int] = field(default_factory=dict)

    def reify(self, fact: HyperFact) -> list[tuple[str, str, str]]:
        n = len(fact.args)
        if n == 0:
            raise DataError(f"cannot reify arity-0 fact: {fact.relation}()")
        if n == 1:
            return [(fact.args[0], fact.relation, self.unary_value)]
        if n == 2:
            return [(fact.args[0], fact.relation, fact.args[1])]
        idx = self._counters.get(fact.relation, 0)
        self._counters[fact.relation] = idx + 1
        hub = self.hub_format.format(rel=fact.relation, idx=idx)
        return [
            (hub, self.arg_format.format(rel=fact.relation, pos=i), arg)
            for i, arg in enumerate(fact.args, start=1)
        ]


def reify(fact: HyperFact, reifier: Reifier | None = None) -> list[tuple[str, str, str]]:
    """One-shot reification of a single fact (fresh hub counter per call)."""
    return (reifier or Reifier()).reify(fact)


# -- graph projection -------------------------------------------------------


def project_graph(kg: KnowledgeGraph, mode: str = "uninformed"):
    """Project the triple store onto an undirected simple graph over entities.

    ``uninformed`` keeps every triple as an edge (attribute values become
    plain nodes). ``informed`` omits edges of attribute relations and drops
    nodes that become isolated. Parallel edges collapse; self-loop triples
    contribute their node and a self-adjacency counted once in the degree.
    """
    from .graphs import UndirectedGraph

    if mode not in ("informed", "uninformed"):
        raise DataError(f"unknown projection mode: {mode!r}")
    g = UndirectedGraph()
    touched: set[int] = set()
    for split in SPLITS:
        for t in kg.splits[split]:
            drop = mode == "informed" and t.relation in kg.attribute_relations
            if not drop:
                g.add_edge(t.head, t.tail)
            touched.add(t.head)
            touched.add(t.tail)
    if mode == "uninformed":
        for v in touched:
            g.add_node(v)
    return g


# -- serialization -----------------------------------------------------------


def _write_idx(path: Path, triples: Sequence[Triple]) -> None:
    with path.open("wb") as fh:
        fh.write(KG_MAGIC)
        fh.write(struct.pack("<I", len(triples)))
        for t in triples:
            fh.write(struct.pack("<iii", t.head, t.relation, t.tail))


def _read_idx(path: Path) -> list[Triple]:
    data = path.read_bytes()
    if data[:4] != KG_MAGIC:
        raise DataError(f"{path}: bad magic, not a serialized split file")
    (count,) = struct.unpack_from("<I", data, 4)
    expected = 8 + 12 * count
    if len(data) != expected:
        raise DataError(f"{path}: truncated split file ({len(data)} bytes, expected {expected})")
    out = []
    for i in range(count):
        h, r, t = struct.unpack_from("<iii", data, 8 + 12 * i)
        out.append(Triple(h, r, t))
    return out


def save_kg(kg: KnowledgeGraph, directory: Path) -> None:
    """Serialize to a directory: entities.tsv, relations.tsv, {split}.idx.

    An attributes.txt sidecar is written when attribute relations are set.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "entities.tsv").open("w", encoding="utf-8") as fh:
        for i, lab in enumerate(kg.entities.labels()):
            fh.write(f"{i}\t{lab}\n")
    with (directory / "relations.tsv").open("w", encoding="utf-8") as fh:
        for i, lab in enumerate(kg.relations.labels()):
            fh.write(f"{i}\t{lab}\n")
    for split in SPLITS:
        _write_idx(directory / f"{split}.idx", kg.splits[split])
    if kg.attribute_relations:
        with (directory / "attributes.txt").open("w", encoding="utf-8") as fh:
            for rid in sorted(kg.attribute_relations):
                fh.write(kg.relations.label(rid) + "\n")


def _read_vocab_tsv(path: Path) -> Vocab:
    labels = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        parts = raw.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: malformed vocabulary line")
        idx = int(parts[0])
        if idx != lineno - 1:
            raise DataError(f"{path}:{lineno}: non-contiguous index {idx}")
        labels.append(parts[1])
    return Vocab(labels)


def load_kg(directory: Path) -> KnowledgeGraph:
    directory = Path(directory)
    kg = KnowledgeGraph()
    kg.entities = _read_vocab_tsv(directory / "entities.tsv")
    kg.relations = _read_vocab_tsv(directory / "relations.tsv")
    for split in SPLITS:
        path = directory / f"{split}.idx"
        if not path.exists():
            continue
        for t in _read_idx(path):
            if not (0 <= t.head < len(kg.entities) and 0 <= t.tail < len(kg.entities)):
                raise DataError(f"{path}: entity index out of range in {t}")
            if not 0 <= t.relation < len(kg.relations):
                raise DataError(f"{path}: relation index out of range in {t}")
            if t in kg.known_true:
                raise DataError(f"{path}: duplicate triple across splits: {t}")
            kg._append_indexed(t, split)
    attrs = directory / "attributes.txt"
    if attrs.exists():
        with attrs.open(encoding="utf-8") as fh:
            ingest_attribute_schema(fh, kg)
    return kg
