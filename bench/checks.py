"""Output checks. Each one recomputes its answer from the generated TSV
files, the program's binary outputs read with this file's own parsers, or
the report itself, without calling into the program.

Every check returns a list of ``(name, ok, detail)`` tuples.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

KINDS = ("transe", "distmult", "complex")
Result = list[tuple[str, bool, str]]


# -- readers ------------------------------------------------------------------


def read_tsv(path: Path) -> list[tuple[str, str, str]]:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            h, r, t = line.split("\t")
            rows.append((h, r, t))
    return rows


def read_idx(path: Path) -> np.ndarray:
    """(M, 3) int64 array of a ``.idx`` split file."""
    data = Path(path).read_bytes()
    (count,) = struct.unpack_from("<I", data, 4)
    return np.frombuffer(data, dtype="<i4", count=3 * count, offset=8).reshape(count, 3).astype(np.int64)


def read_vocab(path: Path) -> list[str]:
    return [line.split("\t", 1)[1] for line in Path(path).read_text(encoding="utf-8").splitlines()]


def read_checkpoint(path: Path) -> dict:
    data = Path(path).read_bytes()
    kind, dim, epoch, _seed, n_ent, n_rel = struct.unpack_from("<BIIQII", data, 4)
    off = 4 + struct.calcsize("<BIIQII")
    mats = {}
    names = ["entity_re", "entity_im", "relation_re", "relation_im"] if KINDS[kind] == "complex" else ["entity_re", "relation_re"]
    for name in names:
        rows = n_ent if name.startswith("entity") else n_rel
        mats[name] = np.frombuffer(data, dtype="<f8", count=rows * dim, offset=off).reshape(rows, dim).astype(np.float64)
        off += rows * dim * 8
    return {"kind": KINDS[kind], "dim": dim, "epoch": epoch, "n_entities": n_ent, "n_relations": n_rel,
            "size_ok": off == len(data), **mats}


def _check(out: Result, name: str, ok: bool, detail: str = "") -> None:
    out.append((name, bool(ok), "" if ok else detail))


# -- ingest -------------------------------------------------------------------


def check_ingest(splits: dict[str, Path], attributes: Path | None, kg_dir: Path) -> Result:
    """Entity, relation and per-split triple counts of the ingested graph."""
    out: Result = []
    kg_dir = Path(kg_dir)
    ents, rels = set(), set()
    for path in splits.values():
        for h, r, t in read_tsv(path):
            ents.update((h, t))
            rels.add(r)
    if attributes is not None:
        rels.update(x.strip() for x in Path(attributes).read_text(encoding="utf-8").splitlines() if x.strip())
    n_ent = len(read_vocab(kg_dir / "entities.tsv"))
    n_rel = len(read_vocab(kg_dir / "relations.tsv"))
    _check(out, "ingest.entities", n_ent == len(ents), f"{n_ent} != {len(ents)}")
    _check(out, "ingest.relations", n_rel == len(rels), f"{n_rel} != {len(rels)}")
    for split in ("train", "valid", "test"):
        want = len(read_tsv(splits[split])) if split in splits else 0
        got = len(read_idx(kg_dir / f"{split}.idx"))
        _check(out, f"ingest.{split}", got == want, f"{got} != {want}")
    return out


# -- train --------------------------------------------------------------------


def check_train(kg_dir: Path, checkpoint: Path, training_json: Path, model: str, dim: int, epochs: int) -> Result:
    out: Result = []
    ck = read_checkpoint(checkpoint)
    n_ent = len(read_vocab(Path(kg_dir) / "entities.tsv"))
    n_rel = len(read_vocab(Path(kg_dir) / "relations.tsv"))
    shape = (ck["kind"], ck["dim"], ck["epoch"], ck["n_entities"], ck["n_relations"], ck["size_ok"])
    _check(out, "train.checkpoint", shape == (model, dim, epochs, n_ent, n_rel, True), f"header {shape}")
    info = json.loads(Path(training_json).read_text(encoding="utf-8"))
    losses = info["epoch_losses"]
    _check(out, "train.losses", len(losses) == epochs and all(np.isfinite(losses)), f"losses {losses}")
    return out


# -- ranking --------------------------------------------------------------------


def _known_true(kg_dir: Path) -> np.ndarray:
    return np.concatenate([read_idx(Path(kg_dir) / f"{s}.idx") for s in ("train", "valid", "test")])


def _check_query_list(out: Result, prefix: str, report: dict, split_triples: np.ndarray) -> list[dict]:
    queries = report["queries"]
    want = [(int(h), int(r), int(t), side) for h, r, t in split_triples for side in ("tail", "head")]
    got = [(q["head"], q["relation"], q["tail"], q["side"]) for q in queries]
    _check(out, f"{prefix}.queries", got == want and report["n_queries"] == len(want),
           f"{len(got)} queries, expected {len(want)} in split order")
    bad = [i for i, q in enumerate(queries) if q["expected"] != (q["optimistic"] + q["pessimistic"]) / 2.0]
    _check(out, f"{prefix}.expected_rank", not bad, f"{len(bad)} queries with expected != (opt+pess)/2")
    return queries


def _rank(scores: np.ndarray, truth: int, candidates: np.ndarray) -> tuple[float, float]:
    s = scores[candidates]
    s_true = scores[truth]
    greater = int((s > s_true).sum())
    ties = int((s == s_true).sum()) - 1
    return 1.0 + greater, 1.0 + greater + ties


def _candidates(known: np.ndarray, n_ent: int, h: int, r: int, t: int, side: str) -> np.ndarray:
    mask = np.ones(n_ent, dtype=bool)
    if side == "tail":
        mask[known[(known[:, 0] == h) & (known[:, 1] == r), 2]] = False
        mask[t] = True
    else:
        mask[known[(known[:, 2] == t) & (known[:, 1] == r), 0]] = False
        mask[h] = True
    return np.flatnonzero(mask)


def embedding_scores(ck: dict, h: int, r: int, t: int, side: str) -> np.ndarray:
    """Scores of every entity substituted on `side`, from the checkpoint
    matrices (same grouping of terms as the documented scoring functions)."""
    E, R = ck["entity_re"], ck["relation_re"]
    if ck["kind"] == "transe":
        delta = (E[h] + R[r] - E) if side == "tail" else (E + R[r] - E[t])
        return -np.sqrt((delta * delta).sum(axis=1))
    if ck["kind"] == "distmult":
        return (E[h] * E) @ R[r] if side == "tail" else (E * E[t]) @ R[r]
    Ei, Ri = ck["entity_im"], ck["relation_im"]
    rr, ri = R[r], Ri[r]
    if side == "tail":
        hr, hi, tr, ti = E[h], Ei[h], E, Ei
    else:
        hr, hi, tr, ti = E, Ei, E[t], Ei[t]
    return (hr * tr) @ rr + (hi * ti) @ rr + (hr * ti) @ ri - (hi * tr) @ ri


def check_eval(kg_dir: Path, checkpoint: Path, report_path: Path, split: str, sample: int, seed: int) -> Result:
    """Query list and expected ranks on every query; exact filtered
    optimistic and pessimistic ranks recomputed for a seeded sample."""
    out: Result = []
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    queries = _check_query_list(out, "eval", report, read_idx(Path(kg_dir) / f"{split}.idx"))
    ck = read_checkpoint(checkpoint)
    known = _known_true(kg_dir)
    pick = np.random.default_rng(seed).choice(len(queries), size=min(sample, len(queries)), replace=False)
    wrong = 0
    for i in sorted(pick.tolist()):
        q = queries[i]
        h, r, t, side = q["head"], q["relation"], q["tail"], q["side"]
        cands = _candidates(known, ck["n_entities"], h, r, t, side)
        opt, pess = _rank(embedding_scores(ck, h, r, t, side), t if side == "tail" else h, cands)
        if (opt, pess, len(cands)) != (q["optimistic"], q["pessimistic"], q["n_candidates"]):
            wrong += 1
    _check(out, "eval.sampled_ranks", wrong == 0, f"{wrong} of {len(pick)} sampled ranks differ")
    return out


# -- rules ------------------------------------------------------------------------


def parse_rules(path: Path) -> list[dict]:
    """conf, cov, head relation and body chain [(relation, inverted)]."""
    rules = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        conf, cov, text = line.split("\t")
        head, body = text.rstrip(".").split(":-")
        atoms = [a.strip() + ")" for a in body.strip().rstrip(")").split("),")]
        chain = []
        for atom in atoms:
            name = atom.split("(", 1)[0].strip()
            inv = name.startswith("inv_")
            chain.append((name[4:] if inv else name, inv))
        rules.append({"conf": float(conf), "cov": int(cov), "head": head.split("(", 1)[0].strip(), "chain": chain})
    return rules


def _adjacency(rows) -> dict:
    adj: dict = {}
    for h, r, t in rows:
        adj.setdefault((r, False), {}).setdefault(h, set()).add(t)
        adj.setdefault((r, True), {}).setdefault(t, set()).add(h)
    return adj


def _walk(adj: dict, start, chain) -> set:
    cur = {start}
    for step in chain:
        nxt = set()
        for z in cur:
            nxt |= adj.get(step, {}).get(z, set())
        cur = nxt
    return cur


def check_rules(train_tsv: Path, all_tsvs: list[Path], rules_path: Path, sample: int, seed: int) -> Result:
    """Integer correct/total of a seeded sample of rules, recounted from the
    TSV files: total = distinct (X, Y) pairs the body derives on train,
    correct = those that are known-true facts of the head relation."""
    out: Result = []
    rules = parse_rules(rules_path)
    _check(out, "rules.nonempty", len(rules) > 0, "no rules mined")
    train = read_tsv(train_tsv)
    adj = _adjacency(train)
    facts = {row for p in all_tsvs for row in read_tsv(p)}
    pick = np.random.default_rng(seed).choice(len(rules), size=min(sample, len(rules)), replace=False)
    wrong = []
    for i in sorted(pick.tolist()):
        rule = rules[i]
        first = rule["chain"][0]
        total = correct = 0
        for x in adj.get(first, {}):
            for y in _walk(adj, x, rule["chain"]):
                total += 1
                correct += (x, rule["head"], y) in facts
        if total != rule["cov"] or correct / total != rule["conf"]:
            wrong.append(f"rule {i}: {correct}/{total} vs conf {rule['conf']} cov {rule['cov']}")
    _check(out, "rules.sampled_counts", not wrong, "; ".join(wrong[:3]))
    return out


def check_rule_eval(kg_dir: Path, rules_path: Path, report_path: Path, split: str, sample: int, seed: int) -> Result:
    """Query list and expected ranks on every query; filtered ranks of a
    seeded sample recomputed with max-confidence rule scoring."""
    out: Result = []
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    queries = _check_query_list(out, "apply", report, read_idx(Path(kg_dir) / f"{split}.idx"))
    ents = read_vocab(Path(kg_dir) / "entities.tsv")
    rels = read_vocab(Path(kg_dir) / "relations.tsv")
    rel_id = {r: i for i, r in enumerate(rels)}
    train = read_idx(Path(kg_dir) / "train.idx")
    adj = _adjacency(train.tolist())
    theories: dict[int, list] = {}
    for rule in parse_rules(rules_path):
        chain = [(rel_id[r], inv) for r, inv in rule["chain"]]
        theories.setdefault(rel_id[rule["head"]], []).append((round(rule["conf"] * rule["cov"]) / rule["cov"], chain))
    known = _known_true(kg_dir)
    pick = np.random.default_rng(seed).choice(len(queries), size=min(sample, len(queries)), replace=False)
    wrong = 0
    for i in sorted(pick.tolist()):
        q = queries[i]
        h, r, t, side = q["head"], q["relation"], q["tail"], q["side"]
        scores = np.zeros(len(ents))
        for conf, chain in theories.get(r, []):
            if side == "head":
                chain = [(rel, not inv) for rel, inv in reversed(chain)]
            for e in _walk(adj, h if side == "tail" else t, chain):
                scores[e] = max(scores[e], conf)
        cands = _candidates(known, len(ents), h, r, t, side)
        opt, pess = _rank(scores, t if side == "tail" else h, cands)
        if (opt, pess, len(cands)) != (q["optimistic"], q["pessimistic"], q["n_candidates"]):
            wrong += 1
    _check(out, "apply.sampled_ranks", wrong == 0, f"{wrong} of {len(pick)} sampled ranks differ")
    return out


# -- analyze ------------------------------------------------------------------------


def _projection(rows, drop: set[str]) -> tuple[int, int, int]:
    """(nodes, edges, components) of the undirected simple projection.
    Edges of `drop` relations are left out together with the nodes that
    only they touched; with nothing dropped every entity is a node."""
    edges = {(min(h, t), max(h, t)) for h, r, t in rows if r not in drop}
    nodes = {e for h, _, t in rows for e in (h, t)} if not drop else {v for e in edges for v in e}
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    return len(nodes), len(edges), len({find(v) for v in nodes})


def check_analyze(splits: dict[str, Path], attributes: Path | None, profile_path: Path) -> Result:
    out: Result = []
    profile = json.loads(Path(profile_path).read_text(encoding="utf-8"))
    rows = [row for p in splits.values() for row in read_tsv(p)]
    attrs = set()
    if attributes is not None:
        attrs = {x.strip() for x in Path(attributes).read_text(encoding="utf-8").splitlines() if x.strip()}
    counts = {"uninformed": _projection(rows, set()), "informed": _projection(rows, attrs)}
    for mode, (n, m, c) in counts.items():
        got = tuple(profile[mode][k] for k in ("n_nodes", "n_edges", "n_components"))
        _check(out, f"analyze.{mode}", got == (n, m, c), f"{got} != {(n, m, c)}")
    reduction = 1.0 - counts["informed"][1] / counts["uninformed"][1]
    got = profile["meta"]["edge_reduction"]
    _check(out, "analyze.edge_reduction", got == reduction, f"{got} != {reduction}")
    return out


# -- classify --------------------------------------------------------------------------


def check_classify(labels_tsv: Path, report_path: Path, outer_folds: int) -> Result:
    """Stratified fold sizes from the label counts, and the accuracy
    difference equal to distributional minus symbolic on every fold."""
    out: Result = []
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    classes = [line.split("\t")[1] for line in Path(labels_tsv).read_text(encoding="utf-8").splitlines() if line]
    sizes = [0] * outer_folds
    for cls in set(classes):
        for pos in range(classes.count(cls)):
            sizes[pos % outer_folds] += 1
    sizes = [n for n in sizes if n]  # a fold without entities does not exist
    for track in ("distributional", "symbolic"):
        got = report[track]["fold_sizes"]
        _check(out, f"classify.{track}_folds", got == sizes, f"{got} != {sizes}")
    dist, sym = report["distributional"]["fold_accuracies"], report["symbolic"]["fold_accuracies"]
    diff = report["accuracy_difference"]
    want = [a - b for a, b in zip(dist, sym)]
    ok = diff["per_fold"] == want and len(want) == outer_folds and diff["mean"] == float(np.mean(want))
    _check(out, "classify.accuracy_difference", ok, f"{diff} != {want}")
    return out
