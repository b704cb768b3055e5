"""Independent brute-force oracles used to verify the library.

These deliberately avoid the library's own code paths: bitmask subset
enumeration, Floyd-Warshall, pure-Python loops. They are exponential or
quadratic and only run on small inputs. The reference paths are the
exception: they keep retired library code as the exact reference for its
replacement -- the dict-of-set graph code for the CSR graph, the
per-triple sampling, dense-gradient training loop for embed.train, and the
per-point kNN loop and per-grid-point nested CV for the kNN grid kernel,
and the per-entity loop for the rule classifier's block prediction.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations, product

import numpy as np

from kgbench.classify import (
    DEFAULT_INNER_FOLDS,
    KNN_K_GRID,
    KNN_WEIGHTS,
    CVResult,
    _accuracy,
    _cell_repr,
    make_folds,
)
from kgbench.embed import (
    EmbeddingModel,
    SamplerStats,
    TrainResult,
    _apply_sgd,
    _check_finite_params,
    _project_unit_ball,
    batch_gradients,
    checkpoint_path,
    sample_negatives,
)
from kgbench.errors import DataError, NumericError
from kgbench.graphs import (
    PROPERTY_ORDER,
    GraphModeProfile,
    PropertyStat,
    UndirectedGraph,
    bfs_distances,
    cliques,
    connectivity,
)


def random_connected_graph(rng, n: int, extra_edge_prob: float = 0.25) -> list[set[int]]:
    """Random spanning tree plus random extra edges; adjacency sets."""
    adj: list[set[int]] = [set() for _ in range(n)]
    order = [int(v) for v in rng.permutation(n)]
    for i in range(1, n):
        a, b = order[i], order[int(rng.integers(0, i))]
        adj[a].add(b)
        adj[b].add(a)
    for u in range(n):
        for v in range(u + 1, n):
            if v not in adj[u] and rng.random() < extra_edge_prob:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def edges_of(adj: list[set[int]]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in adj[u] if u < v]


def oracle_avg_neighbor_degree(adj: list[set[int]]) -> float | None:
    vals = []
    for v in range(len(adj)):
        if not adj[v]:
            continue
        vals.append(math.fsum(len(adj[u]) for u in adj[v]) / len(adj[v]))
    return math.fsum(vals) / len(vals) if vals else None


def oracle_assortativity(adj: list[set[int]]) -> float | None:
    xs, ys = [], []
    for u, v in edges_of(adj):
        du, dv = len(adj[u]), len(adj[v])
        xs += [du, dv]
        ys += [dv, du]
    if len(xs) < 2:
        return None
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx == 0.0 or syy == 0.0:
        return None
    return sxy / math.sqrt(sxx * syy)


def oracle_clustering(adj: list[set[int]]) -> float:
    n = len(adj)
    if n == 0:
        return 0.0
    total = 0.0
    for v in range(n):
        nbrs = sorted(adj[v])
        k = len(nbrs)
        if k < 2:
            continue
        tri = 0
        for i in range(k):
            for j in range(i + 1, k):
                if nbrs[j] in adj[nbrs[i]]:
                    tri += 1
        total += 2.0 * tri / (k * (k - 1))
    return total / n


def oracle_all_pairs(adj: list[set[int]]) -> list[list[float]]:
    """Floyd-Warshall distances."""
    n = len(adj)
    dist = [[math.inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
        for u in adj[v]:
            dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def oracle_ecc_radius_diameter(adj: list[set[int]]) -> tuple[float, int, int]:
    dist = oracle_all_pairs(adj)
    eccs = [max(row) for row in dist]
    return math.fsum(eccs) / len(eccs), int(min(eccs)), int(max(eccs))


def oracle_closeness_mean(adj: list[set[int]]) -> float:
    dist = oracle_all_pairs(adj)
    n = len(adj)
    vals = [(n - 1) / math.fsum(row) for row in dist]
    return math.fsum(vals) / n


# -- reference path -----------------------------------------------------------------
# The dict-of-set graph and the metrics that the library's CSR code replaced,
# kept as the exact reference for it: the library's results must equal these,
# floats included. The per-source distance references run one BFS per node:
# the library's single-source bfs_distances on its own graphs, the dict-of-set
# BFS on a ReferenceGraph.


class ReferenceGraph:
    """Simple undirected graph over integer nodes (adjacency sets).

    Parallel edges collapse. A self-loop is stored as self-adjacency and
    counted once in the node's degree; metrics that iterate neighbours skip
    the node itself.
    """

    def __init__(self, edges=(), nodes=()) -> None:
        self.adj: dict[int, set[int]] = {}
        for v in nodes:
            self.adj.setdefault(int(v), set())
        for u, v in edges:
            self.adj.setdefault(int(u), set()).add(int(v))
            self.adj.setdefault(int(v), set()).add(int(u))

    def nodes(self) -> list[int]:
        return sorted(self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> set[int]:
        return self.adj[v] - {v}

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in sorted(self.adj) for v in sorted(self.adj[u]) if u <= v]

    @property
    def n_nodes(self) -> int:
        return len(self.adj)

    @property
    def n_edges(self) -> int:
        loops = sum(1 for u, nbrs in self.adj.items() if u in nbrs)
        return (sum(len(n) for n in self.adj.values()) - loops) // 2 + loops

    def subgraph(self, nodes: set[int]) -> "ReferenceGraph":
        g = ReferenceGraph()
        for v in nodes:
            g.adj[v] = self.adj[v] & nodes
        return g


def reference_components(g: ReferenceGraph) -> list[ReferenceGraph]:
    """Connected components by BFS, ordered by smallest node id."""
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in sorted(g.adj):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(comp)
    return [g.subgraph(c) for c in comps]


def reference_bfs_distances(g: ReferenceGraph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def reference_avg_neighbor_degree(g: ReferenceGraph) -> float | None:
    per_node = []
    for v in g.nodes():
        nbrs = g.neighbors(v)
        if not nbrs:
            continue
        per_node.append(sum(g.degree(u) for u in nbrs) / len(nbrs))
    if not per_node:
        return None
    return float(np.mean(per_node))


def reference_assortativity(g: ReferenceGraph) -> float | None:
    xs: list[float] = []
    ys: list[float] = []
    for u, v in g.edges():
        if u == v:
            continue
        du, dv = g.degree(u), g.degree(v)
        xs.extend((du, dv))
        ys.extend((dv, du))
    if len(xs) < 2:
        return None
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return None
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def reference_clustering(g: ReferenceGraph) -> float:
    if g.n_nodes == 0:
        return 0.0
    total = 0.0
    for v in g.nodes():
        nbrs = sorted(g.neighbors(v))
        k = len(nbrs)
        if k < 2:
            continue
        links = 0
        for i in range(k):
            ai = g.adj[nbrs[i]]
            for j in range(i + 1, k):
                if nbrs[j] in ai:
                    links += 1
        total += 2.0 * links / (k * (k - 1))
    return total / g.n_nodes


def reference_degree_centrality_mean(g: ReferenceGraph) -> float:
    n = g.n_nodes
    if n <= 1:
        return 0.0
    return float(np.mean([g.degree(v) / (n - 1) for v in g.nodes()]))


def _bfs_of(g):
    return reference_bfs_distances if isinstance(g, ReferenceGraph) else bfs_distances


def reference_ecc_radius_diameter(g) -> tuple[float, int, int]:
    nodes = g.nodes()
    if not nodes:
        raise DataError("eccentricity of an empty graph is undefined")
    if len(nodes) == 1:
        return 0.0, 0, 0
    eccs = []
    for v in nodes:
        dist = _bfs_of(g)(g, v)
        if len(dist) != len(nodes):
            raise DataError("graph is disconnected; pass a connected component")
        eccs.append(max(dist.values()))
    return float(np.mean(eccs)), min(eccs), max(eccs)


def reference_closeness_mean(g) -> float:
    nodes = g.nodes()
    n = len(nodes)
    if n <= 1:
        return 0.0
    vals = []
    for v in nodes:
        dist = _bfs_of(g)(g, v)
        if len(dist) != n:
            raise DataError("graph is disconnected; pass a connected component")
        vals.append((n - 1) / sum(dist.values()))
    return float(np.mean(vals))


def reference_profile_graph(g: ReferenceGraph, mode: str, node_guard: int) -> GraphModeProfile:
    """profile_graph on the reference path. Connectivity and cliques, whose
    algorithms the CSR graph kept, run the library's code on each component
    rebuilt as a library graph."""
    comps = reference_components(g)
    notes: list[str] = []
    per_comp: dict[str, list[float]] = {k: [] for k in PROPERTY_ORDER}
    for ci, comp in enumerate(comps):
        n = comp.n_nodes
        per_comp["average_degree_per_component"].append(float(np.mean([comp.degree(v) for v in comp.nodes()])))
        nbr = reference_avg_neighbor_degree(comp)
        if nbr is None:
            notes.append(f"component {ci}: no node with degree >= 1, neighbor degree skipped")
        else:
            per_comp["average_neighbor_degree"].append(nbr)
        assort = reference_assortativity(comp)
        if assort is not None:
            per_comp["degree_assortativity"].append(assort)
        per_comp["average_clustering"].append(reference_clustering(comp))
        per_comp["degree_centrality"].append(reference_degree_centrality_mean(comp))
        per_comp["closeness_centrality"].append(reference_closeness_mean(comp))
        ecc, radius, diam = reference_ecc_radius_diameter(comp)
        per_comp["eccentricity"].append(ecc)
        per_comp["radius"].append(float(radius))
        per_comp["diameter"].append(float(diam))
        if n > node_guard:
            notes.append(
                f"component {ci}: {n} nodes exceeds guard {node_guard}, connectivity and cliques skipped"
            )
            continue
        if n == 1:
            notes.append(f"component {ci}: single node, connectivity defined as 0")
            per_comp["edge_connectivity"].append(0.0)
            per_comp["node_connectivity"].append(0.0)
        else:
            ec, nc = connectivity(UndirectedGraph(comp.edges(), comp.nodes()))
            per_comp["edge_connectivity"].append(float(ec))
            per_comp["node_connectivity"].append(float(nc))
        cs = cliques(UndirectedGraph(comp.edges(), comp.nodes()))
        if cs.truncated:
            notes.append(f"component {ci}: maximal clique count truncated at cap")
        per_comp["max_clique"].append(float(cs.max_size))
        per_comp["n_maximal_cliques"].append(float(cs.count))
    degrees = [float(g.degree(v)) for v in g.nodes()]
    props = {"average_degree": PropertyStat.of(degrees) if degrees else None}
    for key in PROPERTY_ORDER[1:]:
        props[key] = PropertyStat.of(per_comp[key]) if per_comp[key] else None
    sizes = [float(c.n_nodes) for c in comps]
    return GraphModeProfile(
        mode=mode,
        n_nodes=g.n_nodes,
        n_edges=g.n_edges,
        n_components=len(comps),
        component_size=PropertyStat.of(sizes) if sizes else None,
        properties=props,
        notes=notes,
    )


def oracle_degree_centrality_mean(adj: list[set[int]]) -> float:
    n = len(adj)
    if n <= 1:
        return 0.0
    return math.fsum(len(adj[v]) / (n - 1) for v in range(n)) / n


def _bitmasks(adj: list[set[int]]) -> list[int]:
    return [sum(1 << u for u in nbrs) for nbrs in adj]


def _connected_mask(masks: list[int], nodes: int) -> bool:
    """BFS over the bitmask-induced subgraph `nodes` (a bitmask)."""
    if nodes == 0:
        return True
    start = nodes & -nodes
    seen = start
    frontier = start
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= masks[v] & nodes & ~seen
        seen |= nxt
        frontier = nxt
    return seen == nodes


def oracle_edge_connectivity(adj: list[set[int]]) -> int:
    """Minimum crossing-edge count over all proper bipartitions."""
    n = len(adj)
    masks = _bitmasks(adj)
    full = (1 << n) - 1
    best = math.inf
    # fix node 0 on the S side; enumerate the rest
    for rest in range(1 << (n - 1)):
        s = 1 | (rest << 1)
        if s == full:
            continue
        crossing = 0
        m = s
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            crossing += bin(masks[v] & ~s & full).count("1")
        best = min(best, crossing)
    return int(best)


def oracle_node_connectivity(adj: list[set[int]]) -> int:
    """Smallest vertex set whose removal disconnects the graph; n-1 when
    no such set exists (complete graphs)."""
    n = len(adj)
    masks = _bitmasks(adj)
    full = (1 << n) - 1
    for k in range(0, n - 1):
        for cut in combinations(range(n), k):
            remaining = full
            for v in cut:
                remaining &= ~(1 << v)
            if bin(remaining).count("1") >= 2 and not _connected_mask(masks, remaining):
                return k
    return n - 1


def oracle_cliques(adj: list[set[int]]) -> tuple[int, int]:
    """(max clique size, number of maximal cliques) via subset enumeration."""
    n = len(adj)
    masks = _bitmasks(adj)
    max_size = 0
    count = 0
    for s in range(1, 1 << n):
        is_clique = True
        m = s
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if s & ~(masks[v] | (1 << v)):
                is_clique = False
                break
        if not is_clique:
            continue
        maximal = True
        for w in range(n):
            if s & (1 << w):
                continue
            if (s & masks[w]) == s:
                maximal = False
                break
        if maximal:
            count += 1
            max_size = max(max_size, bin(s).count("1"))
    return max_size, count


def oracle_components_count(edge_list: list[tuple[int, int]], nodes: list[int]) -> int:
    """Union-find component count."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_list:
        parent[find(u)] = find(v)
    return len({find(v) for v in nodes})


# -- ranking oracle --------------------------------------------------------------


def oracle_ranks(score_true: float, corrupted_scores: list[float]) -> tuple[float, float, float]:
    """Direct evaluation of the rank definitions: optimistic counts strict
    wins of corrupted candidates, pessimistic counts wins-or-ties, expected
    is 1 + half of each indicator sum."""
    strict = sum(1 for s in corrupted_scores if score_true < s)
    weak = sum(1 for s in corrupted_scores if score_true <= s)
    optimistic = 1.0 + strict
    pessimistic = 1.0 + weak
    expected = 1.0 + 0.5 * strict + 0.5 * weak
    return optimistic, pessimistic, expected


# -- kNN oracle --------------------------------------------------------------------


def oracle_knn(train_X, train_y, test_X, k: int, weighting: str) -> list[int]:
    """Exhaustive-distance kNN mirroring the documented tie rules."""
    preds = []
    n_classes = int(max(train_y)) + 1
    for x in test_X:
        dists = []
        for idx, row in enumerate(train_X):
            d2 = math.fsum((a - b) * (a - b) for a, b in zip(row, x))
            dists.append((d2, idx))
        dists.sort(key=lambda t: (t[0], t[1]))
        chosen = dists[:k]
        votes = [0.0] * n_classes
        zero = [idx for d2, idx in chosen if d2 == 0.0]
        if weighting == "distance" and zero:
            for idx in zero:
                votes[train_y[idx]] += 1.0
        elif weighting == "distance":
            for d2, idx in chosen:
                votes[train_y[idx]] += 1.0 / math.sqrt(d2)
        else:
            for _, idx in chosen:
                votes[train_y[idx]] += 1.0
        best = max(votes)
        preds.append(votes.index(best))
    return preds


def reference_knn_classify(train_X, train_y, test_X, k: int, weighting: str = "uniform") -> np.ndarray:
    """The retired per-point kNN loop: one distance row, one stable
    argsort and one Python vote loop per test point."""
    train_X = np.asarray(train_X, dtype=np.float64)
    test_X = np.asarray(test_X, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    if len(train_X) == 0:
        raise DataError("kNN training set is empty")
    if not 1 <= k <= len(train_X):
        raise DataError(f"k={k} must be in [1, {len(train_X)}]")
    if weighting not in KNN_WEIGHTS:
        raise DataError(f"unknown weighting: {weighting!r}")
    n_classes = int(train_y.max()) + 1 if len(train_y) else 0
    preds = np.empty(len(test_X), dtype=np.int64)
    for i, x in enumerate(test_X):
        diff = train_X - x
        d2 = (diff * diff).sum(axis=1)
        nbrs = np.argsort(d2, kind="stable")[:k]
        votes = np.zeros(n_classes, dtype=np.float64)
        zero = nbrs[d2[nbrs] == 0.0]
        if weighting == "distance" and len(zero):
            for j in zero:
                votes[train_y[j]] += 1.0
        elif weighting == "distance":
            for j in nbrs:
                votes[train_y[j]] += 1.0 / np.sqrt(d2[j])
        else:
            for j in nbrs:
                votes[train_y[j]] += 1.0
        preds[i] = int(np.argmax(votes))  # argmax returns the smallest index on ties
    return preds


def reference_nested_cv_features(
    cells: dict,
    labels: np.ndarray,
    folds: np.ndarray,
    inner_folds: int = DEFAULT_INNER_FOLDS,
    k_grid=KNN_K_GRID,
    weight_grid=KNN_WEIGHTS,
    seed: int = 0,
) -> CVResult:
    """The retired nested CV: one reference_knn_classify call per
    (outer fold, cell, k, weighting, inner fold)."""
    if not cells:
        raise DataError("no feature cells given")
    fold_ids = sorted(set(int(f) for f in folds))
    if len(fold_ids) < 2:
        raise DataError("need at least 2 outer folds")
    result = CVResult(fold_accuracies=[], fold_sizes=[])
    for fold in fold_ids:
        test_mask = folds == fold
        train_idx = np.flatnonzero(~test_mask)
        test_idx = np.flatnonzero(test_mask)
        y_train = labels[train_idx]
        inner = make_folds(y_train, min(inner_folds, max(2, len(train_idx))), seed + fold)
        best = None
        for cell_key, X in cells.items():
            X_train = X[train_idx]
            for k in k_grid:
                for w in weight_grid:
                    accs = []
                    for inner_fold in sorted(set(int(f) for f in inner)):
                        val_mask = inner == inner_fold
                        fit_idx = np.flatnonzero(~val_mask)
                        val_idx = np.flatnonzero(val_mask)
                        if len(fit_idx) == 0 or len(val_idx) == 0 or k > len(fit_idx):
                            continue
                        pred = reference_knn_classify(X_train[fit_idx], y_train[fit_idx], X_train[val_idx], k, w)
                        accs.append(_accuracy(pred, y_train[val_idx]))
                    if not accs:
                        continue
                    score = float(np.mean(accs))
                    if best is None or score > best[0]:
                        best = (score, {"cell": cell_key, "k": k, "weighting": w})
        if best is None:
            raise DataError(f"no usable hyperparameter cell for outer fold {fold}")
        choice = best[1]
        X = cells[choice["cell"]]
        k_eff = min(choice["k"], len(train_idx))
        pred = reference_knn_classify(X[train_idx], y_train, X[test_idx], k_eff, choice["weighting"])
        result.fold_accuracies.append(_accuracy(pred, labels[test_idx]))
        result.fold_sizes.append(len(test_idx))
        result.chosen.append({**choice, "cell": _cell_repr(choice["cell"])})
    return result


# -- triple store oracle -------------------------------------------------------------


class OracleGraph:
    """Plain-Python model of triple-store ingestion over label triples:
    first-seen vocabulary lists, per-split lists in insertion order and
    per-split sets for membership. A ValueError stands for DataError."""

    def __init__(self) -> None:
        self.entities: list[str] = []
        self.relations: list[str] = []
        self.splits: dict[str, list[tuple[str, str, str]]] = {s: [] for s in ("train", "valid", "test")}
        self.sets: dict[str, set[tuple[str, str, str]]] = {s: set() for s in self.splits}

    def copy(self) -> "OracleGraph":
        out = OracleGraph()
        out.entities, out.relations = list(self.entities), list(self.relations)
        out.splits = {s: list(rows) for s, rows in self.splits.items()}
        out.sets = {s: set(rows) for s, rows in self.sets.items()}
        return out

    def add(self, triple: tuple[str, str, str], split: str) -> bool:
        """True when appended, False for a duplicate within `split`."""
        h, r, t = triple
        for label, vocab in ((h, self.entities), (r, self.relations), (t, self.entities)):
            if label not in vocab:
                vocab.append(label)
        for s, members in self.sets.items():
            if triple in members:
                if s == split:
                    return False
                raise ValueError(f"duplicate triple across splits: {triple}")
        self.splits[split].append(triple)
        self.sets[split].add(triple)
        return True

    def ingest(self, lines: list[str], split: str) -> None:
        """Line by line; stops at the first malformed line or cross-split duplicate."""
        for line in lines:
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"malformed triple line: {line!r}")
            self.add(tuple(parts), split)

    def mark_attribute(self, relation: str) -> None:
        if relation not in self.relations:
            self.relations.append(relation)

    def without_relations(self, relations: set[str]) -> "OracleGraph":
        out = self.copy()
        for s in out.splits:
            out.splits[s] = [t for t in out.splits[s] if t[1] not in relations]
            out.sets[s] = set(out.splits[s])
        return out

    def known(self) -> set[tuple[str, str, str]]:
        return set().union(*self.sets.values())

    def adjacent(self, relation: str, anchor: str, side: str) -> list[tuple[str, str]]:
        """(entity, split) of every triple of `relation` with `anchor` on the
        other side, in split order and then insertion order."""
        return [
            ((t if side == "tail" else h), s)
            for s, rows in self.splits.items()
            for h, r, t in rows
            if r == relation and (h if side == "tail" else t) == anchor
        ]


# -- rule mining and scoring oracles ----------------------------------------------


def _oracle_train_steps(kg) -> dict[tuple[int, bool], dict[int, set[int]]]:
    """(relation, inverted) -> entity -> the entities one train triple away."""
    steps: dict[tuple[int, bool], dict[int, set[int]]] = {}
    for h, r, t in kg.rows("train").tolist():
        steps.setdefault((r, False), {}).setdefault(h, set()).add(t)
        steps.setdefault((r, True), {}).setdefault(t, set()).add(h)
    return steps


def _oracle_chain_pairs(steps, chain, n_entities: int) -> set[tuple[int, int]]:
    """Every (X, Y) linked by the chain, walked from every entity X."""
    pairs = set()
    for x in range(n_entities):
        cur = {x}
        for step in chain:
            cur = {e for z in cur for e in steps.get(step, {}).get(z, ())}
        pairs |= {(x, y) for y in cur}
    return pairs


def oracle_mine_rules(
    kg, target: int, max_body_len: int, min_coverage: int = 1, min_confidence: float = 0.0, allow_recursion=False
) -> list[tuple[str, int, int, int]]:
    """(rule text, correct, total, train_correct) per rule, in theory order:
    every chain of at most `max_body_len` (relation, inverted) steps over
    every relation, in lexicographic order, each walked from every entity,
    then the documented filters and a stable sort by confidence, coverage
    and body relation names."""
    steps = _oracle_train_steps(kg)
    known = {(h, t) for s in ("train", "valid", "test") for h, r, t in kg.rows(s).tolist() if r == target}
    train = {(h, t) for h, r, t in kg.rows("train").tolist() if r == target}
    step_list = [(r, inv) for r in range(kg.n_relations) for inv in (False, True)]
    chains = sorted(c for k in range(1, max_body_len + 1) for c in product(step_list, repeat=k))
    found = []
    for chain in chains:
        if chain == ((target, False),) or not allow_recursion and any(r == target for r, _ in chain):
            continue
        pairs = _oracle_chain_pairs(steps, chain, kg.n_entities)
        total, correct, train_correct = len(pairs), len(pairs & known), len(pairs & train)
        if total < min_coverage or correct == 0 or correct / total < min_confidence:
            continue
        names = [("inv_" if inv else "") + kg.relations.label(r) for r, inv in chain]
        args = ["X"] + [f"Z{i}" for i in range(1, len(chain))] + ["Y"]
        body = ", ".join(f"{name}({args[i]},{args[i + 1]})" for i, name in enumerate(names))
        text = f"{kg.relations.label(target)}(X,Y) :- {body}."
        found.append(((-(correct / total), -total, tuple(names)), (text, correct, total, train_correct)))
    found.sort(key=lambda item: item[0])
    return [rule for _, rule in found]


def oracle_rule_scores(kg, theories, relation: int, anchor: int, side: str, score_known_train: bool) -> list[float]:
    """Per entity e, the max confidence of a rule of `relation`'s theory whose
    body links (anchor, e) (side "tail") or (e, anchor) (side "head") over
    train triples, 1.0 for a known train triple when `score_known_train`,
    else 0.0."""
    steps = _oracle_train_steps(kg)
    out = [0.0] * kg.n_entities
    theory = theories.get(relation)
    for rule in theory.rules if theory is not None else []:
        if rule.chain is None:
            continue
        for x, y in _oracle_chain_pairs(steps, rule.chain, kg.n_entities):
            a, e = (x, y) if side == "tail" else (y, x)
            if a == anchor:
                out[e] = max(out[e], rule.confidence)
    if score_known_train:
        for h, r, t in kg.rows("train").tolist():
            a, e = (h, t) if side == "tail" else (t, h)
            if r == relation and a == anchor:
                out[e] = 1.0
    return out


def reference_rule_predict(classifier, entity_ids) -> np.ndarray:
    """RuleBasedClassifier.predict's former loop: one score_tails row per
    entity, its class entities read in class order with a strict >, from the
    majority class at score 0."""
    preds = np.empty(len(entity_ids), dtype=np.int64)
    for i, ent in enumerate(entity_ids):
        scores = classifier._scorer.score_tails(classifier._rel_id, ent)
        best_cls, best_score = classifier._majority, 0.0
        for cls, ce in enumerate(classifier._class_entity_ids):
            if ce >= 0 and scores[ce] > best_score:
                best_cls, best_score = cls, float(scores[ce])
        preds[i] = best_cls
    return preds


def reference_train(kg, cfg, checkpoint_dir=None) -> TrainResult:
    """embed.train's former loop: sample_negatives per triple, dense
    batch_gradients and _apply_sgd per batch. It consumes the generator,
    saves checkpoints, reports losses and forced accepts and raises
    NumericError on a non-finite loss or parameter as train does."""
    arr = kg.rows("train")
    model = EmbeddingModel.initialize(cfg.model, kg.n_entities, kg.n_relations, cfg.dim, cfg.seed)
    result = TrainResult(model=model)
    rng = np.random.default_rng(cfg.seed)
    stats = SamplerStats()
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(arr))
        epoch_loss, n_batches = 0.0, 0
        for bi, start in enumerate(range(0, len(arr), cfg.batch_size)):
            batch = arr[order[start : start + cfg.batch_size]]
            negs = [sample_negatives(kg, t, cfg.negatives_per_positive, rng, stats) for t in batch.tolist()]
            loss, grads = batch_gradients(model, batch, np.array(negs, dtype=np.int64), cfg)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss at epoch {epoch}, batch {bi}")
            _apply_sgd(model, grads, cfg.learning_rate)
            epoch_loss += loss
            n_batches += 1
        if cfg.model == "transe":
            _project_unit_ball(model.entity[0])
        _check_finite_params(model, epoch)
        model.epoch = epoch
        result.epoch_losses.append(epoch_loss / max(n_batches, 1))
        if checkpoint_dir is not None and cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            path = checkpoint_path(checkpoint_dir, cfg, epoch)
            model.save(path)
            result.checkpoints.append(path)
    result.forced_negative_accepts = stats.forced_accepts
    return result
