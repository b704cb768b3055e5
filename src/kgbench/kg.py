"""Triple store: ingestion, vocabularies, reification, splits, serialization.

A :class:`KnowledgeGraph` owns dense integer vocabularies for entities and
relations and stores each split as one (M, 3) int array, from which it
derives a CSR adjacency index and a hashed membership set on first use.
"""

from __future__ import annotations

import logging
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)

SPLITS = ("train", "valid", "test")

KG_MAGIC = b"KGB1"
_NO_ROWS = np.zeros((0, 3), dtype=np.int64)


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


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of `keys`: np.unique's result, from one sort
    (np.unique took 60 times as long on 4M int64 keys with numpy 2.4)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]  # keys >= 0


def _spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions in the ranges [starts[i], starts[i] + counts[i]), concatenated."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _chunks(x: np.ndarray, counts: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Slices [lo, hi) of whole runs of equal values in the sorted `x` whose
    `counts` add up to at most `budget` (or to one run)."""
    run_ends = np.flatnonzero(np.diff(x, append=-1)) + 1  # x >= 0
    upto = np.cumsum(counts)[run_ends - 1]
    lo, runs, done = 0, 0, 0
    while lo < len(x):
        runs = max(int(np.searchsorted(upto, done + budget, side="right")), runs + 1)
        hi, done = int(run_ends[runs - 1]), int(upto[runs - 1])
        yield lo, hi
        lo = hi


class Adjacency:
    """CSR index of (M, 3) (head, relation, tail) rows by anchor entity and
    step, each entry with its entry of `tags`. Step 2r from anchor a reaches
    the tails of the rows (a, r, t); step 2r + 1 reaches the heads of the
    rows (h, r, a). Entries are sorted by anchor then step, each step's
    entries in row order."""

    def __init__(self, rows: np.ndarray, tags: np.ndarray) -> None:
        self.n_steps = 2 * (int(rows[:, 1].max()) + 1) if len(rows) else 0
        key = np.concatenate([rows[:, 0] * self.n_steps + 2 * rows[:, 1], rows[:, 2] * self.n_steps + 2 * rows[:, 1] + 1])
        order = np.argsort(key, kind="stable")
        self.keys, self.entities = key[order], np.concatenate([rows[:, 2], rows[:, 0]])[order]
        self.tags = np.concatenate([tags, tags])[order]

    def __call__(self, relation: int, anchor: int, side: str) -> tuple[np.ndarray, np.ndarray]:
        """The entities on `side` of the rows of `relation` with `anchor` on the other side, and their tags."""
        key = anchor * self.n_steps + 2 * relation + (side == "head")
        lo, hi = np.searchsorted(self.keys, (key, key + 1)) if 0 <= 2 * relation < self.n_steps else (0, 0)
        return self.entities[lo:hi], self.tags[lo:hi]

    def gather(self, anchors: np.ndarray, steps: np.ndarray | None = None):
        """The entries of every anchors[k] (of step steps[k] only, when given),
        concatenated in k order: each entry's k, step, entity and tag. An
        anchor or step out of range has no entries: the keys of a step in
        range lie between those of the anchors before and after."""
        first = anchors * self.n_steps + (0 if steps is None else steps)
        lo = np.searchsorted(self.keys, first)
        counts = np.searchsorted(self.keys, first + (self.n_steps if steps is None else 1)) - lo
        if steps is not None:
            counts[(steps < 0) | (steps >= self.n_steps)] = 0  # the key of another anchor's step
        pos = _spans(lo, counts)
        return np.repeat(np.arange(len(anchors)), counts), self.keys[pos] % self.n_steps, self.entities[pos], self.tags[pos]


class KnowledgeGraph:
    """Columnar triple store: ``splits[s]`` is split ``s`` as an (M, 3)
    int64 array of (head, relation, tail) rows in insertion order, replaced
    on change, never changed in place. Splits are pairwise disjoint;
    duplicates within a split are dropped with a warning, duplicates across
    splits are an error. Derived on first use, rebuilt after any change: an
    :class:`Adjacency` of every split, tagged with each entry's index in
    SPLITS, and the triple keys (head * R + relation) * N + tail as a
    sorted array."""

    def __init__(self) -> None:
        self.entities = Vocab()
        self.relations = Vocab()
        self.splits: dict[str, np.ndarray] = {s: _NO_ROWS for s in SPLITS}
        self.attribute_relations: set[int] = set()
        self._cache: dict[str, tuple[tuple[int, int], object]] = {}

    # -- construction -----------------------------------------------------

    def add_triple(self, head: str, relation: str, tail: str, split: str) -> Triple | None:
        """Index labels and append one triple to `split`, copying the split's array (bulk loads
        go through ingest_triples). Returns the Triple, or None for a duplicate within `split`."""
        appended = self._ingest([(head, relation, tail)], split)
        return Triple(*self.splits[split][-1].tolist()) if appended else None

    def _ingest(self, labelled: Iterable[tuple[str, str, str]], split: str) -> int:
        """Append label triples to `split` as add_triple would one at a time; returns the number appended."""
        if split not in self.splits:
            raise DataError(f"unknown split tag: {split!r} (expected one of {SPLITS})")
        sizes = len(self.entities), len(self.relations)
        ent, rel = self.entities.add, self.relations.add
        rows = np.array([i for h, r, t in labelled for i in (ent(h), rel(r), ent(t))], dtype=np.int64).reshape(-1, 3)
        keys = self._keys(rows)
        first = np.zeros(len(rows), dtype=bool)
        first[np.unique(keys, return_index=True)[1]] = True
        dup = ~first | np.isin(keys, self._keys(self.splits[split]))
        clash = np.flatnonzero(np.isin(keys, np.concatenate([self._keys(self.splits[s]) for s in SPLITS if s != split])))
        stop = int(clash[0]) if len(clash) else len(rows)
        for h, r, t in rows[:stop][dup[:stop]].tolist():
            log.warning("dropping duplicate triple %s/%s/%s in split %r", *self._labels(h, r, t), split)
        kept = rows[:stop][~dup[:stop]]
        self.splits[split] = np.concatenate([self.splits[split], kept])
        self._cache.clear()
        if len(clash):
            # forget the labels first seen after the clashing triple: one at a time, they were never reached
            self.entities = Vocab(self.entities.labels()[: max(sizes[0], int(rows[: stop + 1, [0, 2]].max()) + 1)])
            self.relations = Vocab(self.relations.labels()[: max(sizes[1], int(rows[: stop + 1, 1].max()) + 1)])
            raise DataError("duplicate triple across splits: " + "\t".join(self._labels(*rows[stop].tolist())))
        return len(kept)

    def _labels(self, head: int, relation: int, tail: int) -> tuple[str, str, str]:
        return self.entities.label(head), self.relations.label(relation), self.entities.label(tail)

    def mark_attribute(self, relation: str) -> None:
        self.attribute_relations.add(self.relations.add(relation))

    # -- views ------------------------------------------------------------

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def rows(self, split: str) -> np.ndarray:
        """The (M, 3) int64 (head, relation, tail) rows of `split`."""
        if split not in self.splits:
            raise DataError(f"unknown split tag: {split!r}")
        return self.splits[split]

    def all_rows(self) -> np.ndarray:
        """The rows of every split, in SPLITS order (built once, then shared)."""
        return self._derived("rows", lambda: np.concatenate([self.splits[s] for s in SPLITS]))

    def triples(self, split: str) -> list[Triple]:
        """The rows of `split` as Triples, built on each call."""
        return list(map(Triple._make, self.rows(split).tolist()))

    @property
    def known_true(self) -> set[Triple]:
        """Every triple of every split, as a set built on each access."""
        return set(map(Triple._make, self.all_rows().tolist()))

    def sorted_keys(self) -> np.ndarray:
        """The key of every known-true triple, as a sorted int64 array for membership tests."""
        return self._derived("sorted_keys", lambda: np.sort(self._keys(self.all_rows())))

    def adjacent(self, relation: int, anchor: int, side: str) -> tuple[np.ndarray, np.ndarray]:
        """The entities e with (anchor, relation, e) known true (side "tail")
        or (e, relation, anchor) known true (side "head"), in split then
        insertion order, and for each the index in SPLITS of its split."""
        return self._derived("csr", self._build_csr)(relation, anchor, side)

    def adjacent_many(self, anchors, steps=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The many-anchor form of adjacent, by step: step 2 * relation is its
        side "tail", step 2 * relation + 1 its side "head". For each anchors[k],
        the entities of step steps[k], or of every step in step order when
        `steps` is None, concatenated in k order: (k, step, entity, index in
        SPLITS) per entity."""
        anchors = np.asarray(anchors, dtype=np.int64)
        steps = None if steps is None else np.asarray(steps, dtype=np.int64)
        return self._derived("csr", self._build_csr).gather(anchors, steps)

    def tails_of(self, relation: int, head: int) -> set[int]:
        """All tails t with (head, relation, t) in any split."""
        return set(self.adjacent(relation, head, "tail")[0].tolist())

    def heads_of(self, relation: int, tail: int) -> set[int]:
        return set(self.adjacent(relation, tail, "head")[0].tolist())

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        n, r = self.n_entities, self.n_relations
        if n * n * r >= 2**63:
            raise DataError(f"{n} entities and {r} relations overflow 64-bit triple keys")
        return (rows[:, 0] * r + rows[:, 1]) * n + rows[:, 2]

    def _derived(self, name: str, build):
        """Index `name`, rebuilt if a vocabulary grew (new rows clear the cache)."""
        shape = (len(self.entities), len(self.relations))
        if self._cache.get(name, (None,))[0] != shape:
            self._cache[name] = (shape, build())
        return self._cache[name][1]

    def _build_csr(self) -> Adjacency:
        split_ids = np.repeat(np.arange(len(SPLITS), dtype=np.int8), [len(self.splits[s]) for s in SPLITS])
        return Adjacency(self.all_rows(), split_ids)

    def _copy_vocab(self) -> "KnowledgeGraph":
        out = KnowledgeGraph()
        out.entities = Vocab(self.entities.labels())
        out.relations = Vocab(self.relations.labels())
        out.attribute_relations = set(self.attribute_relations)
        return out

    def copy_without_relations(self, relations: set[int]) -> "KnowledgeGraph":
        """A new graph with identical vocabularies but without triples of
        the given relations. Relation indices stay stable so embedding
        matrices built on either graph are aligned."""
        out = self._copy_vocab()
        out.attribute_relations -= relations
        out.splits = {s: rows[~np.isin(rows[:, 1], list(relations))] for s, rows in self.splits.items()}
        return out

    def extended(self, label_triples: Sequence[tuple[str, str, str]], split: str) -> "KnowledgeGraph":
        """A new graph with extra triples (given as label strings) appended."""
        out = self._copy_vocab()
        out.splits = dict(self.splits)
        out._ingest(label_triples, split)
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
    to ingest incrementally. When a line raises, the ones before it stay.
    """
    kg = KnowledgeGraph() if kg is None else kg
    malformed: list[DataError] = []

    def parsed() -> Iterator[tuple[str, ...]]:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(p.strip() for p in parts):
                malformed.append(DataError(f"{source}:{lineno}: malformed triple line: {line!r}"))
                return
            yield tuple(p.strip() for p in parts)

    kg._ingest(parsed(), split)
    if malformed:
        raise malformed[0]
    return kg


def ingest_attribute_schema(lines: Iterable[str], kg: KnowledgeGraph, source: str = "<attributes>") -> None:
    """Mark relations listed one-per-line as attribute-value assignments.
    Each must be a relation of the graph's triples."""
    for lineno, raw in enumerate(lines, start=1):
        name = raw.strip()
        if not name or name.startswith("#"):
            continue
        if name not in kg.relations:
            raise DataError(f"{source}:{lineno}: attribute relation {name!r} is used by no triple")
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
    for path, split in sources:
        with path.open(encoding="utf-8") as fh:
            ingest_triples(fh, split, kg, source=str(path))
    if sorted_vocab:  # ingest the same triples again, into sorted vocabularies
        seen, kg = kg, KnowledgeGraph()
        kg.entities, kg.relations = Vocab(sorted(seen.entities.labels())), Vocab(sorted(seen.relations.labels()))
        for split in SPLITS:
            kg._ingest((seen._labels(*t) for t in seen.splits[split].tolist()), split)
    if attributes is not None:
        with attributes.open(encoding="utf-8") as fh:
            ingest_attribute_schema(fh, kg, source=str(attributes))
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
    rows = kg.all_rows()
    if mode == "informed":
        rows = rows[~np.isin(rows[:, 1], list(kg.attribute_relations))]
    return UndirectedGraph(rows[:, [0, 2]])


# -- serialization -----------------------------------------------------------


def _write_idx(path: Path, rows: np.ndarray) -> None:
    path.write_bytes(KG_MAGIC + struct.pack("<I", len(rows)) + rows.astype("<i4").tobytes())


def _read_idx(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:4] != KG_MAGIC:
        raise DataError(f"{path}: bad magic, not a serialized split file")
    count = struct.unpack_from("<I", data, 4)[0] if len(data) >= 8 else 0
    if len(data) != 8 + 12 * count:
        raise DataError(f"{path}: truncated split file ({len(data)} bytes, expected {8 + 12 * count})")
    return np.frombuffer(data, dtype="<i4", offset=8).reshape(count, 3).astype(np.int64)


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
    vocab = Vocab()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        parts = raw.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: malformed vocabulary line")
        if not parts[0].strip().isdecimal() or int(parts[0]) != lineno - 1:
            raise DataError(f"{path}:{lineno}: index {parts[0]!r} is not the integer {lineno - 1}")
        if vocab.add(parts[1]) != lineno - 1:
            raise DataError(f"{path}:{lineno}: label {parts[1]!r} repeats line {vocab.id(parts[1]) + 1}")
    return vocab


def load_kg(directory: Path) -> KnowledgeGraph:
    """Read a directory written by :func:`save_kg`, rejecting out-of-range
    indices and triples repeated within or across the split files."""
    directory = Path(directory)
    kg = KnowledgeGraph()
    kg.entities = _read_vocab_tsv(directory / "entities.tsv")
    kg.relations = _read_vocab_tsv(directory / "relations.tsv")
    seen = np.zeros(0, dtype=np.int64)
    for split in SPLITS:
        path = directory / f"{split}.idx"
        if not path.exists():
            continue
        rows = _read_idx(path)
        keys = np.concatenate([seen, kg._keys(rows)])
        repeated = np.ones(len(keys), dtype=bool)
        repeated[np.unique(keys, return_index=True)[1]] = False
        for bad, what in (
            (((rows[:, [0, 2]] < 0) | (rows[:, [0, 2]] >= kg.n_entities)).any(axis=1), "entity index out of range in"),
            ((rows[:, 1] < 0) | (rows[:, 1] >= kg.n_relations), "relation index out of range in"),
            (repeated[len(seen) :], "duplicate triple across splits:"),
        ):
            if bad.any():
                raise DataError(f"{path}: {what} {Triple(*rows[int(np.argmax(bad))].tolist())}")
        kg.splits[split] = rows
        seen = keys
    attrs = directory / "attributes.txt"
    if attrs.exists():
        with attrs.open(encoding="utf-8") as fh:
            ingest_attribute_schema(fh, kg, source=str(attrs))
    return kg
