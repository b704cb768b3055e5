"""Undirected graph structure and exact topology metrics.

All algorithms are exact and deterministic: a bit-parallel multi-source BFS
over a CSR view of each component for eccentricity, radius, diameter and
closeness, augmenting-path max-flow for edge and node connectivity,
Bron-Kerbosch with pivoting for maximal cliques. No sampling or estimation
is used. The distance metrics run on every component, with memory bounded
by a fixed block budget; a node-count guard refuses connectivity and
cliques on oversized components instead of approximating.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DataError

CLIQUE_COUNT_CAP = 10_000_000
DEFAULT_NODE_GUARD = 5000
# _distance_arrays() runs the BFS sources in blocks of 64·w, one bit of w
# uint64 words per node for each source. w is chosen so that one level's
# temporaries, the gathered frontier (8 bytes per CSR entry and word) and its
# unpacked bits (64 bytes per node and word), stay within 4 MiB.
_BFS_BLOCK_BYTES = 4 << 20


class UndirectedGraph:
    """Simple undirected graph over integer nodes (adjacency sets).

    Parallel edges collapse. A self-loop is stored as self-adjacency and
    counted once in the node's degree; metrics that iterate neighbours skip
    the node itself.
    """

    def __init__(self) -> None:
        self.adj: dict[int, set[int]] = {}

    def add_node(self, v: int) -> None:
        self.adj.setdefault(v, set())

    def add_edge(self, u: int, v: int) -> None:
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def has_edge(self, u: int, v: int) -> bool:
        return u in self.adj and v in self.adj[u]

    def nodes(self) -> list[int]:
        return sorted(self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> set[int]:
        """Adjacent nodes excluding v itself (self-loops skipped)."""
        return self.adj[v] - {v}

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in sorted(self.adj):
            for v in sorted(self.adj[u]):
                if u <= v:
                    out.append((u, v))
        return out

    @property
    def n_nodes(self) -> int:
        return len(self.adj)

    @property
    def n_edges(self) -> int:
        loops = sum(1 for u, nbrs in self.adj.items() if u in nbrs)
        return (sum(len(n) for n in self.adj.values()) - loops) // 2 + loops

    def subgraph(self, nodes: set[int]) -> "UndirectedGraph":
        g = UndirectedGraph()
        for v in nodes:
            g.adj[v] = self.adj[v] & nodes
        return g


def connected_components(g: UndirectedGraph) -> list[UndirectedGraph]:
    """Partition into connected components, ordered by smallest node id."""
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


def bfs_distances(g: UndirectedGraph, source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_connected(g: UndirectedGraph) -> bool:
    if g.n_nodes == 0:
        return True
    return len(bfs_distances(g, next(iter(g.adj)))) == g.n_nodes


# -- local/degree metrics ----------------------------------------------------


def avg_neighbor_degree(g: UndirectedGraph) -> float | None:
    """Mean over nodes with degree >= 1 of the mean degree of their
    neighbours; None when no node qualifies (isolated nodes are excluded)."""
    per_node = []
    for v in g.nodes():
        nbrs = g.neighbors(v)
        if not nbrs:
            continue
        per_node.append(sum(g.degree(u) for u in nbrs) / len(nbrs))
    if not per_node:
        return None
    return float(np.mean(per_node))


def degree_assortativity(g: UndirectedGraph) -> float | None:
    """Pearson correlation of endpoint degrees over all edges counted in
    both orientations; None when either endpoint series has zero variance
    (k-regular graphs). Self-loops are excluded."""
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


def average_clustering(g: UndirectedGraph) -> float:
    """Mean over nodes of 2*triangles(v) / (deg(v)*(deg(v)-1)), with
    degree-<2 nodes contributing 0. Self-adjacency is ignored."""
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


def degree_centrality_mean(g: UndirectedGraph) -> float:
    n = g.n_nodes
    if n <= 1:
        return 0.0
    return float(np.mean([g.degree(v) / (n - 1) for v in g.nodes()]))


# -- distance metrics ---------------------------------------------------------


def _distance_arrays(g: UndirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Per-node eccentricity and sum of BFS distances of a connected graph,
    as int64 arrays in ``g.nodes()`` order. Raises on disconnected input.

    Multi-source BFS (MS-BFS, Then et al., VLDB 2015) over a CSR view of g:
    each source is one bit of a uint64 word, so one pass over the edges per
    level advances 64 sources per word.
    """
    nodes = g.nodes()
    n = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    rows = [sorted(pos[u] for u in g.adj[v] if u != v) for v in nodes]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1]))
    # reduceat yields row[start], not 0, for an empty row: reduce only the
    # non-empty rows, whose segments then end where the next one starts
    nonempty = indptr[:-1] < indptr[1:]
    starts = indptr[:-1][nonempty]
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


def _edge_cap_graph(g: UndirectedGraph) -> dict[int, dict[int, int]]:
    cap: dict[int, dict[int, int]] = {v: {} for v in g.adj}
    for u, v in g.edges():
        if u == v:
            continue
        cap[u][v] = 1
        cap[v][u] = 1
    return cap


def edge_connectivity(g: UndirectedGraph) -> int:
    """Size of a minimum edge cut: min over t != s of max-flow(s, t) with
    unit capacities, s fixed at a minimum-degree node."""
    nodes = g.nodes()
    if len(nodes) < 2:
        return 0
    if not is_connected(g):
        return 0
    s = min(nodes, key=lambda v: (len(g.neighbors(v)), v))
    best = len(g.neighbors(s))
    for t in nodes:
        if t == s:
            continue
        if best <= 1:
            break  # connected graphs have connectivity >= 1
        best = min(best, _max_flow(_edge_cap_graph(g), s, t, best))
    return best


def _vertex_split_flow(g: UndirectedGraph, s: int, t: int, cutoff: int) -> int:
    """Minimum vertex cut between non-adjacent s and t via unit node
    capacities: each internal node v becomes v_in -> v_out with capacity 1."""
    # encode: node v -> (2v) in, (2v+1) out
    inf = g.n_nodes + 1
    cap: dict[int, dict[int, int]] = {}
    for v in g.adj:
        cap[2 * v] = {}
        cap[2 * v + 1] = {}
        cap[2 * v][2 * v + 1] = inf if v in (s, t) else 1
    for u, v in g.edges():
        if u == v:
            continue
        cap[2 * u + 1][2 * v] = inf
        cap[2 * v + 1][2 * u] = inf
    return _max_flow(cap, 2 * s + 1, 2 * t, cutoff)


def node_connectivity(g: UndirectedGraph) -> int:
    """Size of a minimum vertex cut. Complete graphs have connectivity n-1.

    Uses the standard reduction: fix a minimum-degree node s and take the
    minimum vertex-split flow over all targets non-adjacent to s plus all
    non-adjacent pairs among s's neighbours.
    """
    nodes = g.nodes()
    n = len(nodes)
    if n < 2:
        return 0
    if not is_connected(g):
        return 0
    s = min(nodes, key=lambda v: (len(g.neighbors(v)), v))
    s_nbrs = g.neighbors(s)
    best = len(s_nbrs)  # kappa <= minimum degree; equals n-1 on complete graphs
    non_neighbors = [t for t in nodes if t != s and t not in s_nbrs]
    for t in non_neighbors:
        if best <= 1:
            return best
        best = min(best, _vertex_split_flow(g, s, t, best))
    snl = sorted(s_nbrs)
    for i, u in enumerate(snl):
        for w in snl[i + 1 :]:
            if w in g.adj[u]:
                continue
            if best <= 1:
                return best
            best = min(best, _vertex_split_flow(g, u, w, best))
    return best


def connectivity(g: UndirectedGraph) -> tuple[int, int]:
    """(edge connectivity, node connectivity) of a connected component."""
    return edge_connectivity(g), node_connectivity(g)


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
    adj = {v: g.neighbors(v) for v in g.adj}
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

    expand(0, set(g.adj), set())
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
    return float(np.mean([g.degree(v) for v in g.nodes()]))


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

    props: dict[str, PropertyStat | None] = {}
    all_degrees = [float(g.degree(v)) for v in g.nodes()]
    props["average_degree"] = PropertyStat.of(all_degrees) if all_degrees else None
    for key in PROPERTY_ORDER:
        if key == "average_degree":
            continue
        vals = per_comp[key]
        props[key] = PropertyStat.of(vals) if vals else None
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


def meta_properties(kg) -> MetaBlock:
    """Edge reduction and degree proportion between the two projections,
    plus attribute/relation counts."""
    from .kg import project_graph

    uninf = project_graph(kg, "uninformed")
    inf = project_graph(kg, "informed")
    if uninf.n_edges == 0:
        raise DataError("uninformed graph has no edges; meta-properties undefined")
    edge_reduction = 1.0 - inf.n_edges / uninf.n_edges
    avg_uninf = _avg_degree(uninf)
    avg_inf = _avg_degree(inf)
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

    uninf = profile_graph(project_graph(kg, "uninformed"), "uninformed", node_guard)
    inf = profile_graph(project_graph(kg, "informed"), "informed", node_guard)
    return DatasetProfile(uninformed=uninf, informed=inf, meta=meta_properties(kg))
