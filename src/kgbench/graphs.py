"""Undirected graph structure and exact topology metrics.

All algorithms are exact and deterministic: a bit-parallel multi-source BFS
over each component's CSR arrays for eccentricity, radius, diameter and
closeness, exact triangle counts for clustering, augmenting-path max-flow
for edge and node connectivity, Bron-Kerbosch with pivoting for maximal
cliques. No sampling or estimation is used. The distance metrics run on
every component, with memory bounded by a fixed block budget; a node-count
guard refuses connectivity and cliques on oversized components instead of
approximating.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .kg import _chunks, _distinct, _spans

CLIQUE_COUNT_CAP = 10_000_000
DEFAULT_NODE_GUARD = 5000
# _distance_arrays() runs the BFS sources in blocks of 64·w, one bit of w
# uint64 words per node for each source. w is chosen so that one level's
# temporaries, the gathered frontier (8 bytes per CSR entry and word) and its
# unpacked bits (64 bytes per node and word), stay within 4 MiB.
_BFS_BLOCK_BYTES = 4 << 20
# _triangles() tests the neighbour pairs of whole rows, at most this many at
# once unless one row has more: about 10 MB
# of temporaries, which stay in cache (on the FB15k-237-shaped graph, chunks
# of 4M pairs took 60% longer and 150 MB more memory)
_TRIANGLE_PAIRS = 1 << 17


class UndirectedGraph:
    """Immutable simple undirected graph over non-negative integer node ids,
    in CSR form.

    ``ids`` holds the sorted node ids; row i of ``indptr``/``indices`` holds
    the positions of node ids[i]'s neighbours, sorted, without i itself;
    ``loops[i]`` says whether ids[i] has a self-loop, and ``degrees[i]`` is
    its degree. Parallel edges collapse, and a self-loop counts once in the
    node's degree. `edges` is an (M, 2) array or a sequence of (u, v) pairs;
    `nodes` adds nodes that may have no edge.
    """

    def __init__(self, edges=(), nodes=()) -> None:
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        ids = _distinct(np.concatenate([edges.ravel(), np.asarray(nodes, dtype=np.int64).ravel()]))
        n = len(ids)
        u, v = np.searchsorted(ids, edges).T
        row, col = np.divmod(_distinct(np.concatenate([u * n + v, v * n + u])), n)
        loops = np.zeros(n, dtype=bool)
        loops[row[row == col]] = True
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(row[row != col], minlength=n), out=indptr[1:])
        self._set(ids, indptr, col[row != col], loops)

    @classmethod
    def _of_arrays(cls, ids, indptr, indices, loops) -> "UndirectedGraph":
        g = cls.__new__(cls)
        g._set(ids, indptr, indices, loops)
        return g

    def _set(self, ids, indptr, indices, loops) -> None:
        self.ids, self.indptr, self.indices, self.loops = ids, indptr, indices, loops
        self.degrees = np.diff(indptr) + loops
        self._distances: tuple[np.ndarray, np.ndarray] | None = None  # _distance_arrays(self), once computed

    def nodes(self) -> list[int]:
        return self.ids.tolist()

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2 + int(self.loops.sum())


def _neighbor_lists(g: UndirectedGraph) -> dict[int, list[int]]:
    """Each node's neighbours by id, sorted, itself left out: the adjacency
    that the flow and clique searches walk."""
    ptr, nbrs = g.indptr.tolist(), g.ids[g.indices].tolist()
    return {v: nbrs[ptr[i] : ptr[i + 1]] for i, v in enumerate(g.ids.tolist())}


def _component_labels(g: UndirectedGraph) -> np.ndarray:
    """For each node, the smallest position in its component.

    Hook and compress: every node takes the smallest label among its own
    and its neighbours' labels, the node its old label points to takes it
    too, and then pointers are followed until each label is a fixed point.
    Labels only decrease and stay within the component, so at the fixed
    point each component carries its smallest position."""
    nonempty = g.indptr[:-1] < g.indptr[1:]
    starts = g.indptr[:-1][nonempty]
    label = np.arange(g.n_nodes)
    while True:
        low = label.copy()
        if len(starts):
            low[nonempty] = np.minimum(label[nonempty], np.minimum.reduceat(label[g.indices], starts))
        np.minimum.at(low, label, low)
        while not np.array_equal(jump := low[low], low):
            low = jump
        if np.array_equal(low, label):
            return label
        label = low


def connected_components(g: UndirectedGraph) -> list[UndirectedGraph]:
    """Partition into connected components, ordered by smallest node id.

    The nodes are labelled once, sorted stably by label, and each component
    is a slice of the reordered arrays."""
    label = _component_labels(g)
    order = np.argsort(label, kind="stable")
    first = np.flatnonzero(np.diff(label[order], prepend=-1))  # label >= 0
    bounds = np.flatnonzero(np.diff(label[order], append=-1)) + 1
    local = np.empty(g.n_nodes, dtype=np.int64)
    local[order] = np.arange(g.n_nodes) - np.repeat(first, bounds - first)
    counts = np.diff(g.indptr)[order]
    ptr = np.zeros(g.n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    indices = local[g.indices[_spans(g.indptr[:-1][order], counts)]]
    ids, loops = g.ids[order], g.loops[order]
    return [
        UndirectedGraph._of_arrays(ids[a:b], ptr[a : b + 1] - ptr[a], indices[ptr[a] : ptr[b]], loops[a:b])
        for a, b in zip(first.tolist(), bounds.tolist())
    ]


def bfs_distances(g: UndirectedGraph, source: int) -> dict[int, int]:
    """Hop distance from `source` to every node it reaches, by node id."""
    nbrs = _neighbor_lists(g)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_connected(g: UndirectedGraph) -> bool:
    if g.n_nodes == 0:
        return True
    return len(bfs_distances(g, int(g.ids[0]))) == g.n_nodes


# -- local/degree metrics ----------------------------------------------------


def avg_neighbor_degree(g: UndirectedGraph) -> float | None:
    """Mean over nodes with degree >= 1 of the mean degree of their
    neighbours; None when no node qualifies (isolated nodes are excluded)."""
    k = np.diff(g.indptr)
    has = k > 0
    if not has.any():
        return None
    sums = np.add.reduceat(g.degrees[g.indices], g.indptr[:-1][has])
    return float(np.mean(sums / k[has]))


def degree_assortativity(g: UndirectedGraph) -> float | None:
    """Pearson correlation of endpoint degrees over all edges counted in
    both orientations; None when either endpoint series has zero variance
    (k-regular graphs). Self-loops are excluded."""
    row = np.repeat(np.arange(g.n_nodes), np.diff(g.indptr))
    upper = row < g.indices  # each non-loop edge once, in (u, v) order
    row, col = row[upper], g.indices[upper]
    if len(row) == 0:
        return None
    ends = np.column_stack([row, col])
    deg = g.degrees.astype(np.float64)
    x, y = deg[ends.ravel()], deg[ends[:, ::-1].ravel()]  # (du, dv) and (dv, du) per edge, in edge order
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return None
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def _triangles(g: UndirectedGraph) -> np.ndarray:
    """The number of triangles through each node, in ids order (self-loops
    ignored). Each triangle is found once, at its node of lowest (degree,
    position), as two of that node's higher-ranked neighbours that are
    adjacent (Latapy, "Main-memory triangle computations for very large
    (sparse (power-law)) graphs", TCS 2008)."""
    n = g.n_nodes
    k = np.diff(g.indptr)
    row, col = np.repeat(np.arange(n), k), g.indices
    up = (k[col] > k[row]) | ((k[col] == k[row]) & (col > row))
    src, dst = row[up], col[up]  # each edge once, from its lower-ranked end; rows stay sorted
    end = np.searchsorted(src, src, side="right")
    pairs = end - np.arange(len(src)) - 1  # an entry pairs with the later entries of its row
    tri = np.zeros(n, dtype=np.int64)
    if not pairs.any():
        return tri
    keys = row * n + col  # sorted
    for lo, hi in _chunks(src, pairs, _TRIANGLE_PAIRS):
        a = np.repeat(np.arange(lo, hi), pairs[lo:hi])
        b = _spans(np.arange(lo, hi) + 1, pairs[lo:hi])
        key = dst[a] * n + dst[b]
        hit = keys[np.minimum(np.searchsorted(keys, key), len(keys) - 1)] == key
        tri += np.bincount(np.concatenate([src[a[hit]], dst[a[hit]], dst[b[hit]]]), minlength=n)
    return tri


def average_clustering(g: UndirectedGraph) -> float:
    """Mean over nodes of 2*triangles(v) / (deg(v)*(deg(v)-1)), with
    degree-<2 nodes contributing 0. Self-adjacency is ignored."""
    if g.n_nodes == 0:
        return 0.0
    k = np.diff(g.indptr)
    coef = 2.0 * _triangles(g) / np.maximum(k * (k - 1), 1)  # a node of degree < 2 has no triangle
    # cumsum adds one node at a time, in node order, as a running total does
    return float(np.cumsum(coef)[-1] / g.n_nodes)


def degree_centrality_mean(g: UndirectedGraph) -> float:
    n = g.n_nodes
    if n <= 1:
        return 0.0
    return float(np.mean(g.degrees / (n - 1)))


# -- distance metrics ---------------------------------------------------------


def _distance_arrays(g: UndirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per-node eccentricity and sum of BFS distances of a connected graph,
    as int64 arrays in ``g.nodes()`` order, computed once per graph. Raises
    on disconnected input.

    Multi-source BFS (MS-BFS, Then et al., VLDB 2015) over g's CSR arrays:
    each source is one bit of a uint64 word, so one pass over the edges per
    level advances 64 sources per word.
    """
    if g._distances is not None:
        return g._distances
    n, indices = g.n_nodes, g.indices
    # reduceat yields row[start], not 0, for an empty row: reduce only the
    # non-empty rows, whose segments then end where the next one starts
    nonempty = g.indptr[:-1] < g.indptr[1:]
    starts = g.indptr[:-1][nonempty]
    ecc = np.zeros(n, dtype=np.int64)
    sums = np.zeros(n, dtype=np.int64)
    reached = np.ones(n, dtype=np.int64)
    words = max(1, min(-(-n // 64), _BFS_BLOCK_BYTES // (8 * len(indices) + 64 * n)))
    for first in range(0, n, 64 * words):
        width = min(64 * words, n - first)
        src = np.arange(width)
        frontier = np.zeros((n, -(-width // 64)), dtype=np.uint64)
        frontier[first + src, src >> 6] = np.left_shift(np.uint64(1), (src & 63).astype(np.uint64))
        seen = frontier.copy()
        block = slice(first, first + width)
        level = 0
        while True:
            level += 1
            nxt = np.zeros_like(frontier)
            if len(starts):
                nxt[nonempty] = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            nxt &= ~seen
            if not nxt.any():
                break
            seen |= nxt
            # bit j of a word is source j: unpack the words' bytes little-endian
            bits = np.unpackbits(nxt.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little")
            count = bits[:, :width].sum(axis=0, dtype=np.int64)
            sums[block] += level * count
            ecc[block][count > 0] = level
            reached[block] += count
            frontier = nxt
    if (reached < n).any():
        raise DataError("graph is disconnected; pass a connected component")
    g._distances = ecc, sums
    return ecc, sums


def eccentricity_radius_diameter(g: UndirectedGraph) -> tuple[float, int, int]:
    """(mean eccentricity, radius, diameter) of a connected graph, exact
    over every source node. Raises on disconnected input."""
    if g.n_nodes == 0:
        raise DataError("eccentricity of an empty graph is undefined")
    ecc, _ = _distance_arrays(g)
    return float(np.mean(ecc)), int(ecc.min()), int(ecc.max())


def closeness_centrality_mean(g: UndirectedGraph) -> float:
    """Mean over nodes of (n-1) / sum of distances, on a connected graph."""
    n = g.n_nodes
    if n <= 1:
        return 0.0
    _, sums = _distance_arrays(g)
    return float(np.mean((n - 1) / sums))


# -- connectivity --------------------------------------------------------------


def _max_flow(cap: dict[int, dict[int, int]], source: int, sink: int, cutoff: int) -> int:
    """Augmenting-path max flow on an integer-capacity digraph; stops early
    once the flow reaches `cutoff`. Mutates `cap` (pass a fresh copy)."""
    flow = 0
    while flow < cutoff:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        # unit bottlenecks dominate here; still compute it generally
        bottleneck = math.inf
        v = sink
        while v != source:
            u = parent[v]
            bottleneck = min(bottleneck, cap[u][v])
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] = cap[v].get(u, 0) + bottleneck
            v = u
        flow += int(bottleneck)
    return flow


def _edge_connectivity(nbrs: dict[int, list[int]]) -> int:
    """Size of a minimum edge cut of a connected graph: min over t != s of
    max-flow(s, t) with unit capacities, s fixed at a minimum-degree node."""
    s = min(nbrs, key=lambda v: (len(nbrs[v]), v))
    best = len(nbrs[s])
    for t in nbrs:
        if t == s:
            continue
        if best <= 1:
            break  # connected graphs have connectivity >= 1
        best = min(best, _max_flow({v: dict.fromkeys(row, 1) for v, row in nbrs.items()}, s, t, best))
    return best


def _vertex_split_flow(nbrs: dict[int, list[int]], s: int, t: int, cutoff: int) -> int:
    """Minimum vertex cut between non-adjacent s and t via unit node
    capacities: each internal node v becomes v_in -> v_out with capacity 1."""
    # encode: node v -> (2v) in, (2v+1) out
    inf = len(nbrs) + 1
    cap: dict[int, dict[int, int]] = {}
    for v, row in nbrs.items():
        cap[2 * v] = {2 * v + 1: inf if v in (s, t) else 1}
        cap[2 * v + 1] = {2 * u: inf for u in row}
    return _max_flow(cap, 2 * s + 1, 2 * t, cutoff)


def _node_connectivity(nbrs: dict[int, list[int]]) -> int:
    """Size of a minimum vertex cut of a connected graph. Complete graphs
    have connectivity n-1.

    Uses the standard reduction: fix a minimum-degree node s and take the
    minimum vertex-split flow over all targets non-adjacent to s plus all
    non-adjacent pairs among s's neighbours.
    """
    s = min(nbrs, key=lambda v: (len(nbrs[v]), v))
    s_nbrs = set(nbrs[s])
    best = len(s_nbrs)  # kappa <= minimum degree; equals n-1 on complete graphs
    non_neighbors = [t for t in nbrs if t != s and t not in s_nbrs]
    for t in non_neighbors:
        if best <= 1:
            return best
        best = min(best, _vertex_split_flow(nbrs, s, t, best))
    snl = nbrs[s]
    for i, u in enumerate(snl):
        adj_u = set(nbrs[u])
        for w in snl[i + 1 :]:
            if w in adj_u:
                continue
            if best <= 1:
                return best
            best = min(best, _vertex_split_flow(nbrs, u, w, best))
    return best


def connectivity(g: UndirectedGraph) -> tuple[int, int]:
    """(edge connectivity, node connectivity) of a component; (0, 0) when
    it has fewer than two nodes or is disconnected."""
    if g.n_nodes < 2 or not is_connected(g):
        return 0, 0
    nbrs = _neighbor_lists(g)
    return _edge_connectivity(nbrs), _node_connectivity(nbrs)


# -- cliques --------------------------------------------------------------------


@dataclass
class CliqueStats:
    max_size: int
    count: int
    truncated: bool = False


def cliques(g: UndirectedGraph, count_cap: int = CLIQUE_COUNT_CAP) -> CliqueStats:
    """Enumerate maximal cliques (Bron-Kerbosch with pivoting) and return
    the clique number and the number of maximal cliques. Counting stops at
    `count_cap` with the truncation flag set."""
    if g.n_nodes == 0:
        return CliqueStats(0, 0)
    adj = {v: set(row) for v, row in _neighbor_lists(g).items()}
    stats = CliqueStats(0, 0)

    def expand(r_size: int, p: set[int], x: set[int]) -> None:
        if stats.count >= count_cap:
            stats.truncated = True
            return
        if not p and not x:
            stats.count += 1
            stats.max_size = max(stats.max_size, r_size)
            return
        pivot = max(p | x, key=lambda u: (len(p & adj[u]), -u))
        for v in sorted(p - adj[pivot]):
            expand(r_size + 1, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(0, set(adj), set())
    return stats


# -- dataset profile --------------------------------------------------------------


@dataclass
class PropertyStat:
    """Population mean/std of a property over its defined carriers."""

    mean: float
    std: float
    n: int

    @classmethod
    def of(cls, values: list[float]) -> "PropertyStat":
        arr = np.asarray(values, dtype=np.float64)
        return cls(float(arr.mean()), float(arr.std()), len(values))


PROPERTY_ORDER = [
    "average_degree",
    "average_degree_per_component",
    "average_neighbor_degree",
    "degree_assortativity",
    "average_clustering",
    "degree_centrality",
    "closeness_centrality",
    "eccentricity",
    "radius",
    "diameter",
    "edge_connectivity",
    "node_connectivity",
    "max_clique",
    "n_maximal_cliques",
]


@dataclass
class GraphModeProfile:
    mode: str
    n_nodes: int
    n_edges: int
    n_components: int
    component_size: PropertyStat | None
    properties: dict[str, PropertyStat | None]
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "n_components": self.n_components,
            "component_size": None
            if self.component_size is None
            else vars(self.component_size),
            "properties": {
                k: (None if v is None else vars(v)) for k, v in self.properties.items()
            },
            "notes": list(self.notes),
        }


@dataclass
class MetaBlock:
    n_attributes: int
    n_relations: int
    edge_reduction: float
    degree_proportion: float

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class DatasetProfile:
    uninformed: GraphModeProfile
    informed: GraphModeProfile
    meta: MetaBlock

    def to_dict(self) -> dict:
        return {
            "uninformed": self.uninformed.to_dict(),
            "informed": self.informed.to_dict(),
            "meta": self.meta.to_dict(),
        }


def _avg_degree(g: UndirectedGraph) -> float:
    if g.n_nodes == 0:
        return 0.0
    return float(np.mean(g.degrees))


def profile_graph(g: UndirectedGraph, mode: str, node_guard: int = DEFAULT_NODE_GUARD) -> GraphModeProfile:
    """Per-component property sweep aggregated to mean(std) over components.

    `average_degree` is additionally reported node-level over the whole
    graph, which is how the per-dataset tables render it (its std there can
    exceed its mean, impossible for a mean of per-component means).
    Undefined or guarded-off values aggregate to None and render as "--".
    """
    comps = connected_components(g)
    notes: list[str] = []
    per_comp: dict[str, list[float]] = {k: [] for k in PROPERTY_ORDER}
    for ci, comp in enumerate(comps):
        n = comp.n_nodes
        per_comp["average_degree_per_component"].append(_avg_degree(comp))
        nbr = avg_neighbor_degree(comp)
        if nbr is None:
            notes.append(f"component {ci}: no node with degree >= 1, neighbor degree skipped")
        else:
            per_comp["average_neighbor_degree"].append(nbr)
        assort = degree_assortativity(comp)
        if assort is not None:
            per_comp["degree_assortativity"].append(assort)
        per_comp["average_clustering"].append(average_clustering(comp))
        per_comp["degree_centrality"].append(degree_centrality_mean(comp))
        per_comp["closeness_centrality"].append(closeness_centrality_mean(comp))
        ecc, radius, diam = eccentricity_radius_diameter(comp)
        per_comp["eccentricity"].append(ecc)
        per_comp["radius"].append(float(radius))
        per_comp["diameter"].append(float(diam))
        if n > node_guard:
            notes.append(
                f"component {ci}: {n} nodes exceeds guard {node_guard}, "
                "connectivity and cliques skipped"
            )
            continue
        if n == 1:
            notes.append(f"component {ci}: single node, connectivity defined as 0")
            per_comp["edge_connectivity"].append(0.0)
            per_comp["node_connectivity"].append(0.0)
        else:
            ec, nc = connectivity(comp)
            per_comp["edge_connectivity"].append(float(ec))
            per_comp["node_connectivity"].append(float(nc))
        cs = cliques(comp)
        if cs.truncated:
            notes.append(f"component {ci}: maximal clique count truncated at cap")
        per_comp["max_clique"].append(float(cs.max_size))
        per_comp["n_maximal_cliques"].append(float(cs.count))

    per_comp["average_degree"] = g.degrees
    props = {key: PropertyStat.of(vals) if len(vals) else None for key, vals in per_comp.items()}
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


def meta_properties(kg, uninformed: UndirectedGraph, informed: UndirectedGraph) -> MetaBlock:
    """Edge reduction and degree proportion between the two projections of
    `kg` (``project_graph(kg, mode)``), plus attribute/relation counts."""
    if uninformed.n_edges == 0:
        raise DataError("uninformed graph has no edges; meta-properties undefined")
    edge_reduction = 1.0 - informed.n_edges / uninformed.n_edges
    avg_uninf = _avg_degree(uninformed)
    avg_inf = _avg_degree(informed)
    degree_proportion = avg_inf / avg_uninf if avg_uninf > 0 else 0.0
    n_attr = len(kg.attribute_relations)
    return MetaBlock(
        n_attributes=n_attr,
        n_relations=kg.n_relations - n_attr,
        edge_reduction=edge_reduction,
        degree_proportion=degree_proportion,
    )


def profile_kg(kg, node_guard: int = DEFAULT_NODE_GUARD) -> DatasetProfile:
    """Full profile of both graph projections plus meta-properties."""
    from .kg import project_graph

    uninf, inf = project_graph(kg, "uninformed"), project_graph(kg, "informed")
    return DatasetProfile(
        uninformed=profile_graph(uninf, "uninformed", node_guard),
        informed=profile_graph(inf, "informed", node_guard),
        meta=meta_properties(kg, uninf, inf),
    )
