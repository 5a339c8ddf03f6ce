import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesion_lab import graphs
from cohesion_lab.errors import (
    DomainError,
    EdgeListParseError,
    ResourceBudgetError,
    ValidationError,
)
from cohesion_lab.generators import (
    clique,
    clique_chain,
    clique_chain_groups,
    cycle,
    path,
    rewire,
    square_lattice,
    two_cliques_bridged,
)
from cohesion_lab.graphs import (
    Graph,
    chordless_cycles,
    connected_components,
    distance_summary,
    from_edge_list,
    hop_distances,
    longest_chordless_cycle,
    smallest_cycle,
    to_edge_list,
    vertex_connectivity,
)
from conftest import (
    brute_chordless_cycles,
    brute_local_connectivity,
    brute_vertex_connectivity,
    floyd_warshall,
    matrix_maxflow_vertex_connectivity,
    random_connected_graph,
    random_graph,
)


def disjoint_union(a: Graph, b: Graph, extra=()) -> Graph:
    """a beside b, with b's nodes shifted by a.n, plus the `extra` edges."""
    return Graph.from_edges(a.n + b.n, [(u, v) for u, v, _ in a.edges]
                            + [(a.n + u, a.n + v) for u, v, _ in b.edges] + list(extra))


class TestEdgeListIO:
    def test_parses_path_graph(self):
        g, labels = from_edge_list("0 1\n1 2")
        assert g.n == 3 and g.m == 2
        assert labels == {"0": 0, "1": 1, "2": 2}

    def test_deduplicates_symmetric_weighted_edge(self):
        g, labels = from_edge_list("a b 2.0\nb a 2.0")
        assert g.n == 2 and g.m == 1
        assert g.edges[0] == (0, 1, 2.0)

    def test_round_trip_identity(self):
        text = "a b 2.5\nb c\n# comment\n\nc d 1.5\n"
        g, labels = from_edge_list(text)
        again, labels2 = from_edge_list(to_edge_list(g, labels))
        assert again.edges == g.edges and labels2 == labels

    def test_serialization_is_byte_stable(self):
        g, labels = from_edge_list("b a\nc a\nb c")
        assert to_edge_list(g, labels) == to_edge_list(g, labels)

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as err:
            from_edge_list("0 1\n0 1 2 3")
        assert err.value.line_no == 2

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            from_edge_list("0 1 -2")

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            from_edge_list("x x")

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValidationError, match="non-finite"):
            from_edge_list(f"0 1\n1 2 {weight}")
        with pytest.raises(ValidationError, match="non-finite"):
            Graph.from_edges(3, [(0, 1), (1, 2, float(weight))])

    def test_comments_and_blanks_ignored(self):
        g, _ = from_edge_list("# full comment\n0 1  # trailing\n\n1 2\n")
        assert g.m == 2


class TestGraphInvariants:
    def test_conflicting_duplicate_weight(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_out_of_range_edge(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(2, [(0, 2)])

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_edges_stored_sorted_and_symmetric(self, n, data):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)))
        g = Graph.from_edges(n, [(j, i) for i, j in chosen])  # reversed on purpose
        assert all(u < v for u, v, _ in g.edges)
        assert g.edge_set() == set(chosen)
        for u in range(n):
            expected = sorted({a + b - u for a, b in chosen if u in (a, b)})
            assert g.neighbors(u) == tuple(expected) and g.degree(u) == len(expected)
            assert all(g.has_edge(u, v) is (v in expected) for v in range(-1, n + 65))


class TestComponents:
    def test_clique_single_component(self):
        assert connected_components(clique(5))[0] == 1

    def test_two_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        count, labels = connected_components(g)
        assert count == 2
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5] != labels[0]

    def test_partition_covers_all_nodes(self, rng):
        for _ in range(10):
            g = random_graph(rng, 12, 10)
            count, labels = connected_components(g)
            assert len(labels) == g.n and count >= 1
            assert set(labels) == set(range(count))


class TestDistances:
    def test_complete(self):
        ds = distance_summary(clique(7))
        assert ds.mean_distance == 1.0 and ds.diameter == 1 and ds.finite

    def test_c6_against_oracle(self):
        g = cycle(6)
        d = floyd_warshall(g)
        iu = np.triu_indices(6, 1)
        assert d[iu].mean() == pytest.approx(1.8)
        ds = distance_summary(g)
        assert ds.mean_distance == pytest.approx(1.8)
        assert ds.diameter == 3

    def test_disconnected_flag(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not distance_summary(g).finite

    def test_matches_floyd_warshall_exactly(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 31))
            m = int(rng.integers(1, n * (n - 1) // 2 + 1))
            g = random_graph(rng, n, m)
            d = floyd_warshall(g)
            assert np.array_equal(hop_distances(g), np.where(np.isinf(d), -1, d))
            ds = distance_summary(g)
            if np.isinf(d).any():
                assert not ds.finite
            else:
                iu = np.triu_indices(n, 1)
                assert ds.mean_distance == d[iu].sum() * 2 / (n * (n - 1))
                assert ds.diameter == int(d[iu].max())

    def test_past_one_machine_word_matches_floyd_warshall(self, rng):
        # the level masks of more than 64 nodes span several machine words
        cases = [random_connected_graph(rng, n, 2 * n) for n in (65, 90, 130)]
        cases += [random_graph(rng, 100, 150), disjoint_union(cycle(40), random_connected_graph(rng, 50, 120)),
                  disjoint_union(clique(70), path(3))]
        for g in cases:
            d = floyd_warshall(g)
            assert np.array_equal(hop_distances(g), np.where(np.isinf(d), -1, d))
            ds = distance_summary(g)
            if np.isinf(d).any():
                assert not ds.finite and ds.mean_distance == float("inf")
            else:
                iu = np.triu_indices(g.n, 1)
                assert ds.finite
                assert ds.mean_distance == d[iu].sum() * 2 / (g.n * (g.n - 1))
                assert ds.diameter == int(d[iu].max())

    @pytest.mark.parametrize("side", [9, 12, 16])
    def test_square_lattice_mean_distance_is_two_thirds_of_the_side(self, side):
        ds = distance_summary(square_lattice(side))
        assert ds.mean_distance == 2 * side / 3
        assert ds.diameter == 2 * (side - 1) and ds.finite

    def test_empty_and_single_node(self):
        assert hop_distances(Graph.from_edges(0, [])).shape == (0, 0)
        assert hop_distances(Graph.from_edges(1, [])).tolist() == [[0]]
        assert distance_summary(Graph.from_edges(1, [])).finite

    def test_bounds_when_connected(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 10, 14)
            ds = distance_summary(g)
            assert 1 <= ds.mean_distance <= ds.diameter <= g.n - 1


class TestVertexConnectivity:
    def test_cycle_is_two(self):
        assert vertex_connectivity(cycle(8)) == 2

    def test_complete_convention(self):
        assert vertex_connectivity(clique(6)) == 5

    def test_disconnected_zero(self):
        assert vertex_connectivity(Graph.from_edges(4, [(0, 1), (2, 3)])) == 0

    def test_too_small(self):
        with pytest.raises(DomainError):
            vertex_connectivity(Graph.from_edges(1, []))

    def test_against_brute_force(self, rng):
        for _ in range(40):
            n = int(rng.integers(4, 13))
            m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
            g = random_graph(rng, n, m)
            assert vertex_connectivity(g) == brute_vertex_connectivity(g)
        # sparse clustered graphs with low kappa, the structure Table 1 feeds in
        base, groups = clique_chain(3, 4), clique_chain_groups(3, 4)
        for p in (0.2, 0.4, 0.6):
            for seed in range(8):
                g = rewire(base, p, seed=seed, groups=groups)
                assert vertex_connectivity(g) == brute_vertex_connectivity(g)

    def test_whitney_inequality(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 16))
            m = int(rng.integers(n, n * (n - 1) // 2 + 1))
            g = random_graph(rng, n, m)
            assert vertex_connectivity(g) <= min(g.degree(u) for u in range(n))

    def test_removing_fewer_than_kappa_keeps_connected(self, rng):
        from itertools import combinations

        checked = 0
        while checked < 8:
            n = int(rng.integers(6, 13))
            g = random_connected_graph(rng, n, min(18, n * (n - 1) // 2))
            kappa = vertex_connectivity(g)
            if kappa < 2:
                continue
            checked += 1
            for removed in combinations(range(g.n), kappa - 1):
                kept = [(u, v) for u, v, _ in g.edges if u not in removed and v not in removed]
                nodes = [u for u in range(g.n) if u not in removed]
                relabel = {u: i for i, u in enumerate(nodes)}
                h = Graph.from_edges(len(nodes), [(relabel[u], relabel[v]) for u, v in kept])
                count, _ = connected_components(h)
                assert count == 1

    def test_bridged_cliques_small_instances(self, rng):
        for k in (1, 2, 3):
            g = two_cliques_bridged(6, k, seed=3)
            assert vertex_connectivity(g) == k == brute_vertex_connectivity(g)

    def test_against_both_oracles_by_family(self, rng):
        cases = []
        for _ in range(8):
            n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            a = random_connected_graph(rng, n1, n1 - 1)
            b = random_connected_graph(rng, n2, int(rng.integers(n2 - 1, n2 * (n2 - 1) // 2 + 1)))
            cases.append(disjoint_union(a, b))  # disconnected
            cases.append(disjoint_union(a, b, [(int(rng.integers(n1)), n1 + int(rng.integers(n2)))]))  # one bridge
        cases += [clique(n) for n in range(2, 9)]
        for _ in range(12):
            n = int(rng.integers(5, 10))
            full = n * (n - 1) // 2
            cases.append(random_graph(rng, n, full - int(rng.integers(1, 4))))  # dense
        for g in cases:
            assert vertex_connectivity(g) == brute_vertex_connectivity(g) == matrix_maxflow_vertex_connectivity(g)

    @pytest.mark.parametrize("k", [1, 7, 20])
    def test_bridged_cliques_past_one_machine_word(self, k):
        g = two_cliques_bridged(40, k, seed=5)
        assert g.n == 80
        assert vertex_connectivity(g) == k

    def test_local_connectivity_honours_the_cutoff(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 10))
            g = random_graph(rng, n, int(rng.integers(n - 1, n * (n - 1) // 2)))
            s, t = next((a, b) for a in range(n) for b in range(a + 1, n) if not g.has_edge(a, b))
            exact = brute_local_connectivity(g, s, t)
            for cutoff in range(n):
                assert graphs._local_node_connectivity(g, s, t, cutoff) == min(cutoff, exact)


class TestCycles:
    def test_c10_longest_chordless(self):
        c = longest_chordless_cycle(cycle(10), 6)
        assert c.length == 10

    def test_k4_has_no_long_chordless(self):
        assert longest_chordless_cycle(clique(4), 6) is None

    def test_c8_with_midway_chord_halves(self):
        g = cycle(8).with_edges_added([(0, 4)])
        c = longest_chordless_cycle(g, 3)
        assert c.length == 5

    def test_triangle_smallest(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        c = smallest_cycle(g)
        assert c.length == 3 and c.nodes == (0, 1, 2)

    def test_c7_girth(self):
        assert smallest_cycle(cycle(7)).length == 7

    def test_tree_has_none(self):
        assert smallest_cycle(path(6)) is None
        assert longest_chordless_cycle(path(6)) is None

    def test_budget_on_large_graph(self):
        with pytest.raises(ResourceBudgetError) as err:
            longest_chordless_cycle(cycle(41), 6)
        assert "40" in str(err.value)

    def test_enumeration_matches_brute_force(self, rng):
        for _ in range(25):
            n = int(rng.integers(4, 9))
            m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
            g = random_graph(rng, n, m)
            mine = {c.nodes for c in chordless_cycles(g, 3)}
            assert mine == brute_chordless_cycles(g)

    def test_tie_break_is_lexicographic(self):
        # two disjoint triangles: the (0,1,2) one wins
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert smallest_cycle(g).nodes == (0, 1, 2)
        assert longest_chordless_cycle(g, 3).nodes == (0, 1, 2)

    def test_smallest_cycle_matches_brute_force(self):
        # the shortest cycles are chordless, so the brute-force set holds them all
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(rng.integers(4, 9))
            m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
            g = random_graph(rng, n, m)
            brute = brute_chordless_cycles(g)
            c = smallest_cycle(g)
            if not brute:
                assert c is None
                continue
            girth = min(len(nodes) for nodes in brute)
            assert c.length == girth
            assert c.nodes == min(nodes for nodes in brute if len(nodes) == girth)

    def test_smallest_cycle_without_triangles(self):
        # girth 4 found by the breadth-first search, not the triangle scan
        assert smallest_cycle(square_lattice(3)).nodes == (0, 1, 4, 3)
        g = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(1, 5)])
        assert smallest_cycle(g).nodes == (0, 1, 5, 6, 7)
        # edge (0, 3) closes (0, 3, 2, 4) first; the smaller (0, 3, 1, 5) is
        # found only from the later edge (0, 5), at the pruning depth
        g = Graph.from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)])
        assert smallest_cycle(g).nodes == (0, 3, 1, 5)

    @pytest.mark.parametrize("budget,fits", [(6098, False), (6099, True)])
    def test_chordless_search_budget_is_pinned(self, monkeypatch, budget, fits):
        # square_lattice(5) takes exactly 6,099 expansions
        monkeypatch.setattr(graphs, "_CHORDLESS_SEARCH_MAX_STEPS", budget)
        if fits:
            assert len(chordless_cycles(square_lattice(5))) == 229
        else:
            with pytest.raises(ResourceBudgetError, match="6098 expansions"):
                chordless_cycles(square_lattice(5))
