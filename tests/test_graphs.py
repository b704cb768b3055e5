"""Exact graph metrics against fixed values and brute-force oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgbench import graphs
from kgbench.errors import DataError
from kgbench.graphs import (
    UndirectedGraph,
    average_clustering,
    avg_neighbor_degree,
    bfs_distances,
    cliques,
    closeness_centrality_mean,
    connectivity,
    degree_assortativity,
    degree_centrality_mean,
    eccentricity_radius_diameter,
    meta_properties,
    profile_graph,
    profile_kg,
)
from kgbench.kg import KnowledgeGraph, ingest_triples, project_graph
from conftest import random_kg
from oracles import (
    ReferenceGraph,
    edges_of,
    oracle_all_pairs,
    oracle_assortativity,
    oracle_avg_neighbor_degree,
    oracle_cliques,
    oracle_closeness_mean,
    oracle_clustering,
    oracle_degree_centrality_mean,
    oracle_ecc_radius_diameter,
    oracle_edge_connectivity,
    oracle_node_connectivity,
    random_connected_graph,
    reference_closeness_mean,
    reference_components,
    reference_ecc_radius_diameter,
    reference_profile_graph,
)


def graph_from_adj(adj) -> UndirectedGraph:
    return UndirectedGraph([(v, u) for v in range(len(adj)) for u in adj[v]], nodes=range(len(adj)))


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _path(n):
    return UndirectedGraph(_path_edges(n))


def _cycle(n):
    return UndirectedGraph(_path_edges(n) + [(n - 1, 0)])


def _complete_edges(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _complete(n):
    return UndirectedGraph(_complete_edges(n))


def _star(leaves):
    return UndirectedGraph([(0, i) for i in range(1, leaves + 1)])


class TestFixedValues:
    def test_triangle(self):
        g = _complete(3)
        assert average_clustering(g) == 1.0
        ecc, radius, diam = eccentricity_radius_diameter(g)
        assert (ecc, radius, diam) == (1.0, 1, 1)
        assert avg_neighbor_degree(g) == 2.0

    def test_p4(self):
        _, radius, diam = eccentricity_radius_diameter(_path(4))
        assert (radius, diam) == (2, 3)
        assert average_clustering(_path(4)) == 0.0

    def test_k5_clustering(self):
        assert average_clustering(_complete(5)) == 1.0

    def test_kn_diameter_one(self):
        for n in (2, 4, 6):
            assert eccentricity_radius_diameter(_complete(n))[2] == 1

    def test_c6(self):
        _, radius, diam = eccentricity_radius_diameter(_cycle(6))
        assert (radius, diam) == (3, 3)

    def test_star_s3_neighbor_degree(self):
        assert avg_neighbor_degree(_star(3)) == pytest.approx(2.5)

    def test_star_assortativity_minus_one(self):
        assert degree_assortativity(_star(3)) == pytest.approx(-1.0)

    def test_regular_graph_assortativity_undefined(self):
        assert degree_assortativity(_cycle(5)) is None
        assert degree_assortativity(_complete(4)) is None

    def test_tree_connectivity(self):
        g = UndirectedGraph([(0, 1), (1, 2), (1, 3), (3, 4)])
        assert connectivity(g) == (1, 1)

    def test_cycle_c5_connectivity(self):
        assert connectivity(_cycle(5)) == (2, 2)

    def test_k4_connectivity(self):
        assert connectivity(_complete(4)) == (3, 3)

    def test_triangle_plus_pendant_cliques(self):
        g = UndirectedGraph(_complete_edges(3) + [(2, 3)])
        stats = cliques(g)
        assert (stats.max_size, stats.count) == (3, 2)

    def test_edgeless_cliques(self):
        g = UndirectedGraph([], nodes=range(6))
        stats = cliques(g)
        assert (stats.max_size, stats.count) == (1, 6)

    def test_clique_count_cap(self):
        stats = cliques(_complete(6), count_cap=0)
        assert stats.truncated

    def test_disconnected_eccentricity_is_an_error(self):
        g = UndirectedGraph([(0, 1)], nodes=[5])
        with pytest.raises(DataError, match="disconnected"):
            eccentricity_radius_diameter(g)

    def test_self_loop_degree_counted_once(self):
        g = UndirectedGraph([(0, 0), (0, 1)])
        assert g.degrees.tolist() == [2, 1]
        assert g.n_edges == 2
        assert graphs._neighbor_lists(g) == {0: [1], 1: [0]}


class TestOracleSweep:
    def test_all_properties_match_brute_force(self):
        rng = np.random.default_rng(123)
        for trial in range(40):
            n = int(rng.integers(3, 11))
            adj = random_connected_graph(rng, n)
            g = graph_from_adj(adj)

            nbr = avg_neighbor_degree(g)
            assert nbr == pytest.approx(oracle_avg_neighbor_degree(adj), abs=1e-9)

            a_mine = degree_assortativity(g)
            a_oracle = oracle_assortativity(adj)
            if a_oracle is None:
                assert a_mine is None
            else:
                assert a_mine == pytest.approx(a_oracle, abs=1e-9)

            assert average_clustering(g) == pytest.approx(oracle_clustering(adj), abs=1e-9)

            ecc, radius, diam = eccentricity_radius_diameter(g)
            o_ecc, o_radius, o_diam = oracle_ecc_radius_diameter(adj)
            assert ecc == pytest.approx(o_ecc, abs=1e-9)
            assert (radius, diam) == (o_radius, o_diam)
            assert radius <= diam <= 2 * radius

            assert closeness_centrality_mean(g) == pytest.approx(oracle_closeness_mean(adj), abs=1e-9)
            assert degree_centrality_mean(g) == pytest.approx(
                oracle_degree_centrality_mean(adj), abs=1e-9
            )

            ec, nc = connectivity(g)
            assert ec == oracle_edge_connectivity(adj)
            assert nc == oracle_node_connectivity(adj)

            stats = cliques(g)
            assert (stats.max_size, stats.count) == oracle_cliques(adj)


class TestDistanceKernel:
    """The multi-source BFS against one BFS per source and Floyd-Warshall,
    on node counts that cross 64-bit word boundaries."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([1, 2, 63, 64, 65, 128, 129]), st.integers(1, 150)),
        seed=st.integers(0, 2**32 - 1),
        sparse_ids=st.booleans(),
        self_loops=st.booleans(),
        one_word=st.booleans(),
    )
    def test_matches_per_source_bfs_and_floyd_warshall(self, n, seed, sparse_ids, self_loops, one_word):
        rng = np.random.default_rng(seed)
        adj = random_connected_graph(rng, n, extra_edge_prob=2.0 / n)
        node = (lambda v: 7 * v + 3) if sparse_ids else (lambda v: v)
        edges = [(node(v), node(u)) for v in range(n) for u in adj[v]]
        if self_loops:
            edges += [(node(v), node(v)) for v in rng.choice(n, size=max(1, n // 4), replace=False).tolist()]
        g = UndirectedGraph(edges, nodes=[node(v) for v in range(n)])
        with pytest.MonkeyPatch.context() as mp:
            if one_word:
                mp.setattr(graphs, "_BFS_BLOCK_BYTES", 1)
            ecc, sums = graphs._distance_arrays(g)
            assert (ecc.dtype, sums.dtype) == (np.int64, np.int64)
            per_source = [bfs_distances(g, v) for v in g.nodes()]
            assert ecc.tolist() == [max(d.values()) for d in per_source]
            assert sums.tolist() == [sum(d.values()) for d in per_source]
            if n <= 65:  # Floyd-Warshall is cubic; 65 nodes still span two words
                dist = oracle_all_pairs(adj)
                assert ecc.tolist() == [max(row) for row in dist]
                assert sums.tolist() == [sum(row) for row in dist]
            assert eccentricity_radius_diameter(g) == reference_ecc_radius_diameter(g)
            assert closeness_centrality_mean(g) == reference_closeness_mean(g)

    def test_one_pass_per_component(self, monkeypatch):
        computed = []
        kernel = graphs._distance_arrays

        def recording(g):
            computed.append(g._distances is None)
            return kernel(g)

        monkeypatch.setattr(graphs, "_distance_arrays", recording)
        profile_graph(UndirectedGraph(_path_edges(5) + [(10, 11), (11, 12)]), "uninformed")
        assert computed == [True, False, True, False]  # closeness, then eccentricity, per component

    @pytest.mark.parametrize("n", [65, 129])
    @pytest.mark.parametrize("one_word", [False, True])
    def test_disconnected_part_in_a_later_block_raises(self, monkeypatch, n, one_word):
        # an isolated node, whose CSR row is empty, and the last sources in a component of their own
        g = UndirectedGraph(_path_edges(n) + [(n + 10, n + 11)], nodes=[n + 5])
        if one_word:
            monkeypatch.setattr(graphs, "_BFS_BLOCK_BYTES", 1)
        for metric in (graphs._distance_arrays, eccentricity_radius_diameter, closeness_centrality_mean):
            with pytest.raises(DataError, match="disconnected"):
                metric(g)


@st.composite
def random_graphs(draw):
    """(edges, nodes) of a random graph: several random connected components
    (single nodes among them), sizes that cross 64, self-loops, and node ids
    that are sparse or interleave the components."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.one_of(st.integers(1, 6), st.integers(60, 80)), min_size=1, max_size=5))
    n = sum(sizes)
    ids = rng.choice(10**6, size=n, replace=False) if draw(st.booleans()) else rng.permutation(n)
    density = draw(st.sampled_from([0.0, 0.1, 0.5]))
    edges, base = [], 0
    for size in sizes:
        adj = random_connected_graph(rng, size, extra_edge_prob=density * 4 / (size + 3))
        edges += [(int(ids[base + u]), int(ids[base + v])) for u, v in edges_of(adj)]
        base += size
    loops = ids[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))]
    edges += [(int(v), int(v)) for v in loops]
    return edges, ids.tolist()


class TestReferencePath:
    """The CSR graph and its metrics against the dict-of-set reference path
    that they replaced, and the triangle counts against a brute-force count."""

    @settings(max_examples=60, deadline=None)
    @given(graph=random_graphs(), node_guard=st.integers(1, 39), pairs=st.integers(1, 3))
    def test_profile_equals_reference_path(self, graph, node_guard, pairs):
        edges, nodes = graph
        g, ref = UndirectedGraph(edges, nodes), ReferenceGraph(edges, nodes)
        assert (g.nodes(), g.n_edges) == (ref.nodes(), ref.n_edges)
        assert g.degrees.tolist() == [ref.degree(v) for v in ref.nodes()]
        assert g.ids[g.loops].tolist() == [v for v in ref.nodes() if v in ref.adj[v]]
        comps = graphs.connected_components(g)
        for comp, ref_comp in zip(comps, reference_components(ref), strict=True):
            assert graphs._neighbor_lists(comp) == {v: sorted(ref_comp.neighbors(v)) for v in ref_comp.nodes()}
            assert comp.ids[comp.loops].tolist() == [v for v in ref_comp.nodes() if v in ref_comp.adj[v]]

        adj = np.zeros((g.n_nodes, g.n_nodes), dtype=np.int64)  # no self-loops on the diagonal
        row = np.repeat(np.arange(g.n_nodes), np.diff(g.indptr))
        adj[row, g.indices] = 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_TRIANGLE_PAIRS", pairs)
            assert graphs._triangles(g).tolist() == (((adj @ adj) * adj).sum(axis=1) // 2).tolist()
            got = profile_graph(g, "uninformed", node_guard).to_dict()
        want = reference_profile_graph(ref, "uninformed", node_guard).to_dict()
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


class TestProfile:
    def test_two_identical_components_zero_std(self):
        kg = ingest_triples(
            ["a\tr\tb", "b\tr\tc", "c\tr\ta", "x\tr\ty", "y\tr\tz", "z\tr\tx"], "train"
        )
        prof = profile_graph(project_graph(kg, "uninformed"), "uninformed")
        for key, stat in prof.properties.items():
            if stat is not None:
                assert stat.std == pytest.approx(0.0, abs=1e-12), key

    def test_single_triangle_profile(self):
        kg = ingest_triples(["a\tr\tb", "b\tr\tc", "c\tr\ta"], "train")
        prof = profile_graph(project_graph(kg, "uninformed"), "uninformed")
        p = prof.properties
        assert p["average_degree"].mean == pytest.approx(2.0)
        assert p["average_clustering"].mean == pytest.approx(1.0)
        assert p["diameter"].mean == pytest.approx(1.0)
        assert p["degree_assortativity"] is None  # regular graph
        assert prof.n_components == 1

    def test_aggregation_is_population_statistics(self):
        rng = np.random.default_rng(9)
        kg = random_kg(rng, 40, 3, 50, "train")
        g = project_graph(kg, "uninformed")
        prof = profile_graph(g, "uninformed")
        from kgbench.graphs import connected_components

        comps = connected_components(g)
        diams = [float(eccentricity_radius_diameter(c)[2]) for c in comps]
        stat = prof.properties["diameter"]
        assert stat.mean == pytest.approx(np.mean(diams), abs=1e-12)
        assert stat.std == pytest.approx(np.std(diams), abs=1e-12)

    def test_node_guard_skips_expensive_properties(self):
        kg = ingest_triples(["a\tr\tb", "b\tr\tc", "c\tr\ta"], "train")
        prof = profile_graph(project_graph(kg, "uninformed"), "uninformed", node_guard=2)
        assert prof.properties["edge_connectivity"] is None
        assert any("guard" in note for note in prof.notes)
        # distance metrics still computed
        assert prof.properties["diameter"] is not None

    def test_profile_kg_means_within_component_range(self):
        rng = np.random.default_rng(17)
        kg = random_kg(rng, 60, 4, 70, "train")
        kg.mark_attribute("r0")
        profile = profile_kg(kg)
        g = project_graph(kg, "uninformed")
        from kgbench.graphs import connected_components

        comps = connected_components(g)
        per_comp = [average_clustering(c) for c in comps]
        stat = profile.uninformed.properties["average_clustering"]
        assert min(per_comp) - 1e-12 <= stat.mean <= max(per_comp) + 1e-12


    def test_profile_json_equals_per_source_reference(self, monkeypatch):
        rng = np.random.default_rng(31)
        kg = random_kg(rng, 200, 4, 230, "train")
        random_kg(rng, 200, 4, 20, "valid", kg)
        random_kg(rng, 200, 4, 20, "test", kg)
        for h, t in [("z0", "z1"), ("z1", "z2"), ("z2", "z0"), ("z3", "z4")]:
            kg.add_triple(h, "r0", t, "train")
        kg.mark_attribute("r1")
        for mode in ("uninformed", "informed"):
            sizes = [c.n_nodes for c in graphs.connected_components(project_graph(kg, mode))]
            assert len(sizes) >= 2 and max(sizes) > 64, mode
        fast = json.dumps(profile_kg(kg).to_dict(), sort_keys=True)
        monkeypatch.setattr(graphs, "eccentricity_radius_diameter", reference_ecc_radius_diameter)
        monkeypatch.setattr(graphs, "closeness_centrality_mean", reference_closeness_mean)
        assert json.dumps(profile_kg(kg).to_dict(), sort_keys=True) == fast


def _meta(kg):
    return meta_properties(kg, project_graph(kg, "uninformed"), project_graph(kg, "informed"))


class TestMetaProperties:
    def _attr_kg(self, n_attr, n_rel):
        kg = KnowledgeGraph()
        for i in range(n_attr):
            kg.add_triple(f"x{i}", "has_value", f"v{i}", "train")
        for i in range(n_rel):
            kg.add_triple(f"a{i}", "linked", f"b{i}", "train")
        kg.mark_attribute("has_value")
        return kg

    def test_hepatitis_shaped_edge_reduction(self):
        meta = _meta(self._attr_kg(87, 13))
        assert meta.edge_reduction == pytest.approx(0.87)
        assert meta.n_attributes == 1
        assert meta.n_relations == 1

    def test_no_attributes(self):
        kg = ingest_triples(["a\tr\tb", "b\tr\tc"], "train")
        meta = _meta(kg)
        assert meta.edge_reduction == 0.0
        assert meta.degree_proportion == 1.0

    def test_degree_proportion_same_node_count(self):
        # 20 uninformed edges, 5 informed, attribute edges between relation nodes
        kg = KnowledgeGraph()
        for i in range(5):
            kg.add_triple(f"a{i}", "linked", f"b{i}", "train")
        k = 0
        for i in range(5):
            for j in range(3):
                kg.add_triple(f"a{i}", "has_value", f"b{(i + j + 1) % 5}", "train")
                k += 1
        assert k == 15
        kg.mark_attribute("has_value")
        meta = _meta(kg)
        uninf = project_graph(kg, "uninformed")
        inf = project_graph(kg, "informed")
        assert uninf.n_edges == 20
        assert inf.n_edges == 5
        assert inf.n_nodes == uninf.n_nodes
        assert meta.degree_proportion == pytest.approx(0.25)

    def test_empty_uninformed_graph_is_an_error(self):
        with pytest.raises(DataError):
            _meta(KnowledgeGraph())

    def test_informed_node_count_never_exceeds_uninformed(self):
        rng = np.random.default_rng(23)
        kg = random_kg(rng, 30, 4, 50, "train")
        kg.mark_attribute("r2")
        profile = profile_kg(kg)
        assert profile.informed.n_nodes <= profile.uninformed.n_nodes
        assert profile.meta.edge_reduction == pytest.approx(
            1.0 - profile.informed.n_edges / profile.uninformed.n_edges
        )
