"""Seeded graph generators for the benchmark workloads.

Both generators are pure functions of their seed and size arguments and
write plain TSV files, so the same seed always gives byte-identical inputs.
The program under test only ever sees these files.

* ``write_fb``: a graph shaped like FB15k-237 (14,541 entities, 237
  relations with Zipf frequencies, power-law entity popularity, typed
  relation ranges, 272,115 / 500 / 20,466 train / valid / test triples).
* ``write_symbolic``: a small graph with four planted communities, eight
  base relations, four relations that are compositions of two base
  relations, three attribute relations and a community label per entity.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

FB_SHAPE = {"entities": 14_541, "relations": 237, "train": 272_115, "valid": 500, "test": 20_466}
SYM_SHAPE = {
    "items": 1_200, "labeled": 600, "classes": 4, "base_edges": 600, "composed": 400,
    "attr_share": 0.8, "leaves": 0.05, "valid": 500, "test": 1_200,
}

SYM_BASE = 8
SYM_COMPOSED = ((0, 1), (2, 3), (4, 5), (6, 7))  # composed relation k = base a o base b
SYM_ATTR_VALUES = (16, 16, 12)  # values per attribute relation; items + values = 1,244 entities
SYM_IN_COMMUNITY = 0.85  # share of base edges inside one community
SYM_ATTR_INFORMATIVE = 0.7  # share of attribute values drawn from the community's own values


def _unique_keys(keys: np.ndarray) -> np.ndarray:
    """Keys in first-seen order with duplicates removed."""
    _, first = np.unique(keys, return_index=True)
    return keys[np.sort(first)]


def _write_tsv(path: Path, rows: list[str]) -> None:
    path.write_text("".join(rows), encoding="utf-8", newline="\n")


def _triple_rows(ent: list[str], rel: list[str], triples: np.ndarray) -> list[str]:
    return [f"{ent[h]}\t{rel[r]}\t{ent[t]}\n" for h, r, t in triples.tolist()]


def fb_triples(seed: int, shape: dict = FB_SHAPE) -> dict[str, np.ndarray]:
    """Split arrays of (head, relation, tail) ids, pairwise disjoint.

    Every entity and every relation occurs in at least one split, so the
    ingested vocabulary sizes equal the shape exactly.
    """
    rng = np.random.default_rng(seed)
    n, r = shape["entities"], shape["relations"]
    total = shape["train"] + shape["valid"] + shape["test"]
    popularity = rng.permutation(np.arange(1, n + 1, dtype=np.float64) ** -0.75)
    popularity /= popularity.sum()
    rel_freq = 1.0 / np.arange(1, r + 1, dtype=np.float64) ** 1.1
    rel_freq = rng.permutation(rel_freq / rel_freq.sum())
    # typed ranges: relation k draws tails from the first range_size[k]
    # entities of its own random order, sizes log-uniform in [20, n]
    range_size = np.exp(rng.uniform(np.log(20), np.log(n), size=r)).astype(np.int64)
    range_order = [rng.permutation(n) for _ in range(r)]

    def draw(rels: np.ndarray, heads: np.ndarray | None = None) -> np.ndarray:
        if heads is None:
            heads = rng.choice(n, size=len(rels), p=popularity)
        tails = np.empty(len(rels), dtype=np.int64)
        for k in np.unique(rels):
            sel = np.flatnonzero(rels == k)
            rng_ents = range_order[k][: range_size[k]]
            p = popularity[rng_ents] / popularity[rng_ents].sum()
            tails[sel] = rng.choice(rng_ents, size=len(sel), p=p)
        return (heads.astype(np.int64) * r + rels) * n + tails

    coverage = np.concatenate([
        draw(rng.choice(r, size=n, p=rel_freq), heads=rng.permutation(n)),
        draw(np.arange(r)),
    ])
    keys = _unique_keys(coverage)
    while len(keys) < total:
        keys = _unique_keys(np.concatenate([keys, draw(rng.choice(r, size=total - len(keys) + 4096, p=rel_freq))]))
    keys = keys[:total]
    triples = np.stack([keys // (r * n), (keys // n) % r, keys % n], axis=1)
    triples = triples[rng.permutation(total)]
    n_test, n_valid = shape["test"], shape["valid"]
    return {
        "test": triples[:n_test],
        "valid": triples[n_test : n_test + n_valid],
        "train": triples[n_test + n_valid :],
    }


def write_fb(out: Path, seed: int, shape: dict = FB_SHAPE) -> dict[str, Path]:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    ent = [f"/m/e{i:05d}" for i in range(shape["entities"])]
    rel = [f"/domain{i % 23:02d}/type/rel{i:03d}" for i in range(shape["relations"])]
    paths = {}
    for split, triples in fb_triples(seed, shape).items():
        paths[split] = out / f"{split}.txt"
        _write_tsv(paths[split], _triple_rows(ent, rel, triples))
    return paths


def symbolic_graph(seed: int, shape: dict = SYM_SHAPE) -> dict:
    """Triples, attribute relation ids and item labels of the planted graph.

    Items belong to one of ``classes`` communities. Base edges mostly stay
    inside a community, composed relations are sampled from the two-step
    paths of their base pair, and attribute values lean towards values
    owned by the item's community. A ``leaves`` share of the items gets
    exactly one base edge and nothing else, so both graph projections have
    nodes of degree one, as real graphs do. The label of an item is its
    community.
    """
    rng = np.random.default_rng(seed)
    n_items, n_cls = shape["items"], shape["classes"]
    community = rng.permutation(np.arange(n_items) % n_cls)
    order = rng.permutation(n_items)
    n_leaves = int(round(shape["leaves"] * n_items))
    leaves, core = order[:n_leaves], np.sort(order[n_leaves:])
    members = [core[community[core] == c] for c in range(n_cls)]
    n_rel = SYM_BASE + len(SYM_COMPOSED) + len(SYM_ATTR_VALUES)
    n_ent = n_items + sum(SYM_ATTR_VALUES)

    def key(h, r, t):
        return (np.asarray(h, dtype=np.int64) * n_rel + r) * n_ent + np.asarray(t, dtype=np.int64)

    def split_key(k):
        return k // n_ent // n_rel, (k // n_ent) % n_rel, k % n_ent

    def in_community(heads, inside):
        tails = rng.choice(core, size=len(heads))
        for c in range(n_cls):
            sel = np.flatnonzero(inside & (community[heads] == c))
            tails[sel] = rng.choice(members[c], size=len(sel))
        return tails

    base_pairs, keys = [], []
    for b in range(SYM_BASE):
        heads = rng.choice(core, size=int(shape["base_edges"] * 1.1))
        tails = in_community(heads, rng.random(len(heads)) < SYM_IN_COMMUNITY)
        k = _unique_keys(key(heads, b, tails))
        h, _, t = split_key(k)
        k = k[h != t][: shape["base_edges"]]  # no self-loops
        h, _, t = split_key(k)
        base_pairs.append((h, t))
        keys.append(k)
    for ci, (a, b) in enumerate(SYM_COMPOSED):
        ha, ta = base_pairs[a]
        hb, tb = base_pairs[b]
        by_head = np.argsort(hb, kind="stable")
        lo = np.searchsorted(hb[by_head], ta, side="left")
        hi = np.searchsorted(hb[by_head], ta, side="right")
        heads = np.repeat(ha, hi - lo)
        tails = tb[by_head][np.concatenate([np.arange(s, e) for s, e in zip(lo, hi)] + [np.empty(0, np.int64)])]
        k = _unique_keys(key(heads, SYM_BASE + ci, tails))
        h, _, t = split_key(k)
        keys.append(rng.permutation(k[h != t])[: shape["composed"]])
    keys.append(key(leaves, rng.integers(0, SYM_BASE, size=n_leaves), in_community(leaves, np.ones(n_leaves, bool))))
    value_base = n_items
    for ai, n_vals in enumerate(SYM_ATTR_VALUES):
        owner = np.arange(n_vals) % n_cls  # each value is owned by one community
        pick = rng.integers(0, n_vals, size=n_items)
        own = rng.random(n_items) < SYM_ATTR_INFORMATIVE
        for c in range(n_cls):
            sel = np.flatnonzero(own & (community == c))
            pick[sel] = rng.choice(np.flatnonzero(owner == c), size=len(sel))
        has = core[rng.random(len(core)) < shape["attr_share"]]
        keys.append(key(has, SYM_BASE + len(SYM_COMPOSED) + ai, value_base + pick[has]))
        value_base += n_vals
    all_keys = _unique_keys(np.concatenate(keys))
    triples = np.stack(split_key(all_keys), axis=1)
    triples = triples[rng.permutation(len(triples))]
    present = np.unique(triples[:, [0, 2]])
    labeled = np.sort(rng.choice(present[present < n_items], size=shape["labeled"], replace=False))
    n_test, n_valid = shape["test"], shape["valid"]
    return {
        "n_entities": n_ent,
        "n_relations": n_rel,
        "test": triples[:n_test],
        "valid": triples[n_test : n_test + n_valid],
        "train": triples[n_test + n_valid :],
        "attributes": list(range(SYM_BASE + len(SYM_COMPOSED), n_rel)),
        "labels": [(int(e), int(community[e])) for e in labeled],
    }


def symbolic_names(n_entities: int, n_items: int) -> tuple[list[str], list[str]]:
    ent = [f"item{i:04d}" if i < n_items else f"value{i - n_items:02d}" for i in range(n_entities)]
    rel = (
        [f"base{b}" for b in range(SYM_BASE)]
        + [f"comp_{a}_{b}" for a, b in SYM_COMPOSED]
        + [f"attr{a}" for a in range(len(SYM_ATTR_VALUES))]
    )
    return ent, rel


def write_symbolic(out: Path, seed: int, shape: dict = SYM_SHAPE) -> dict[str, Path]:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    g = symbolic_graph(seed, shape)
    ent, rel = symbolic_names(g["n_entities"], shape["items"])
    paths = {split: out / f"{split}.txt" for split in ("train", "valid", "test") if len(g[split])}
    paths.update(attributes=out / "attributes.txt", labels=out / "labels.tsv")
    for split in ("train", "valid", "test"):
        if split in paths:
            _write_tsv(paths[split], _triple_rows(ent, rel, g[split]))
    _write_tsv(paths["attributes"], [rel[a] + "\n" for a in g["attributes"]])
    _write_tsv(paths["labels"], [f"{ent[e]}\tclass{c}\n" for e, c in g["labels"]])
    return paths
