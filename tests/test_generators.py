import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesion_lab import generators
from cohesion_lab.errors import DomainError, ResourceBudgetError
from cohesion_lab.generators import (
    chord_midway,
    clique,
    clique_chain,
    clique_chain_groups,
    cycle,
    path,
    random_poisson,
    random_skewed,
    relocation_plan,
    relocation_suite,
    rewire,
    ring_lattice,
    square_lattice,
    standard_graph,
    star,
    two_cliques_bridged,
)
from cohesion_lab.graphs import Graph, distance_summary, is_connected, vertex_connectivity
from cohesion_lab.spectra import LaplacianKind, algebraic_connectivity
from conftest import brute_vertex_connectivity, floyd_warshall

BIN = LaplacianKind.BINARY
ROW = LaplacianKind.ROW_NORMALIZED


class TestStandardGraphs:
    def test_ring_lattice_degrees(self):
        g = ring_lattice(24, 4)
        assert all(g.degree(u) == 4 for u in range(24))
        assert is_connected(g)

    def test_square_lattice_counts(self):
        g = square_lattice(5)
        assert g.n == 25 and g.m == 40

    def test_clique_density(self):
        g = clique(24)
        assert g.m == 24 * 23 // 2 and g.is_complete()

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            ring_lattice(10, 3)
        with pytest.raises(DomainError):
            ring_lattice(4, 4)
        with pytest.raises(DomainError):
            cycle(2)
        with pytest.raises(DomainError):
            star(1)

    def test_spec_string_dispatch(self):
        assert standard_graph("clique:5").m == 10
        assert standard_graph("ring_lattice:24:4").n == 24
        with pytest.raises(DomainError):
            standard_graph("heptagram:7")
        with pytest.raises(DomainError):
            standard_graph("clique")


class TestCliqueChain:
    def test_reference_row(self):
        g = clique_chain()
        assert g.n == 36 and g.m == 95
        assert distance_summary(g).mean_distance == pytest.approx(25 / 7, abs=1e-12)
        assert round(algebraic_connectivity(g, ROW), 4) == 0.0083
        assert vertex_connectivity(g) == 1

    def test_groups_partition(self):
        groups = clique_chain_groups()
        flat = [v for grp in groups for v in grp]
        assert sorted(flat) == list(range(36))


class TestRewire:
    def test_p_zero_identity(self):
        base = clique_chain()
        out = rewire(base, 0.0, seed=5, groups=clique_chain_groups())
        assert out.edges == base.edges

    def test_edge_count_and_connectivity_preserved(self):
        base = clique_chain()
        for seed in range(5):
            out = rewire(base, 0.6, seed=seed, groups=clique_chain_groups())
            assert out.m == base.m
            assert is_connected(out)

    def test_deterministic_given_seed(self):
        base = clique_chain()
        a = rewire(base, 0.4, seed=9, groups=clique_chain_groups())
        b = rewire(base, 0.4, seed=9, groups=clique_chain_groups())
        assert a.edges == b.edges

    def test_groups_route_ties_between_clusters(self):
        base = clique_chain()
        groups = clique_chain_groups()
        gmap = {v: i for i, grp in enumerate(groups) for v in grp}
        out = rewire(base, 1.0, seed=3, groups=groups)
        base_inter = sum(1 for u, v, _ in base.edges if gmap[u] != gmap[v])
        out_inter = sum(1 for u, v, _ in out.edges if gmap[u] != gmap[v])
        assert out_inter > base_inter

    def test_no_landing_node_raises_instead_of_hanging(self):
        # every cross-group tie of K4 with groups {0,1,2},{3} already exists
        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="land"):
            rewire(clique(4), 1.0, seed=0, groups=[[0, 1, 2], [3]])
        assert time.perf_counter() - start < 1.0

    def test_retry_budget(self, monkeypatch):
        monkeypatch.setattr(generators, "_REWIRE_ATTEMPTS", 0)
        with pytest.raises(ResourceBudgetError):
            rewire(cycle(8), 1.0, seed=1)

    def test_disconnected_input_rejected(self):
        from cohesion_lab.graphs import Graph

        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DomainError):
            rewire(g, 0.1, seed=0)

    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_probability_validated(self, p):
        base = clique_chain()
        if 0.0 <= p <= 1.0:
            assert rewire(base, p, seed=0, groups=clique_chain_groups()).m == base.m
        else:
            # rejected before the random stream is even created
            with mock.patch.object(generators.np.random, "default_rng", side_effect=AssertionError), \
                    pytest.raises(DomainError, match="probability"):
                rewire(base, p, seed=0, groups=clique_chain_groups())


class TestRandomFamilies:
    def test_poisson_exact_edge_count(self):
        g = random_poisson(20, 0.3, seed=4)
        assert g.m == round(0.3 * 20 * 19 / 2)
        assert is_connected(g)

    def test_poisson_deterministic(self):
        assert random_poisson(15, 0.3, seed=8).edges == random_poisson(15, 0.3, seed=8).edges

    def test_skewed_same_edge_count(self):
        g = random_skewed(20, 0.3, seed=4)
        assert g.m == round(0.3 * 20 * 19 / 2)
        assert is_connected(g)

    def test_skewed_has_heavier_degree_tail(self):
        # across seeds the skewed family shows larger degree variance
        var_p, var_s = [], []
        for seed in range(15):
            gp = random_poisson(30, 0.3, seed=seed)
            gs = random_skewed(30, 0.3, seed=seed)
            var_p.append(np.var([gp.degree(u) for u in range(30)]))
            var_s.append(np.var([gs.degree(u) for u in range(30)]))
        assert np.mean(var_s) > 1.5 * np.mean(var_p)

    def test_infeasible_density_rejected(self):
        with pytest.raises(DomainError):
            random_poisson(20, 0.02, seed=1)


class TestTwoCliquesBridged:
    def test_zero_bridges_disconnected(self):
        g = two_cliques_bridged(10, 0, seed=1)
        assert algebraic_connectivity(g, BIN) == 0.0

    def test_edge_count_constant(self):
        base = two_cliques_bridged(12, 0, seed=1)
        for k in range(1, 8):
            assert two_cliques_bridged(12, k, seed=1).m == base.m

    def test_kappa_equals_bridges_small(self):
        for k in (1, 2, 3, 4):
            g = two_cliques_bridged(8, k, seed=2)
            assert vertex_connectivity(g) == k
            assert brute_vertex_connectivity(g) == k

    def test_k_too_large(self):
        with pytest.raises(DomainError):
            two_cliques_bridged(8, 7, seed=0)
        with pytest.raises(DomainError):
            two_cliques_bridged(10, 11, seed=0)

    def test_lambda2_linear_in_kappa(self):
        ks = np.arange(1, 13)
        lams = np.array([algebraic_connectivity(two_cliques_bridged(20, int(k), seed=5), BIN)
                         for k in ks])
        slope, icept = np.polyfit(ks, lams, 1)
        pred = icept + slope * ks
        r2 = 1 - ((lams - pred) ** 2).sum() / ((lams - lams.mean()) ** 2).sum()
        assert r2 > 0.99 and slope > 0


class TestChords:
    def test_midway_reduces_distance_c6(self):
        before = distance_summary(cycle(6)).mean_distance
        after = distance_summary(chord_midway(6)).mean_distance
        assert before == pytest.approx(1.8)
        assert after == pytest.approx(5 / 3)  # brute BFS value

    def test_minimum_length(self):
        with pytest.raises(DomainError):
            chord_midway(5)

    @staticmethod
    def _moved(g):
        """(plan, midway graph, awkward graph), built from one plan as fig5 does."""
        plan = relocation_plan(g)
        cut = g.with_edges_removed([plan.removed])
        return plan, *(cut.with_edges_added([pair]) for pair in (plan.midway_added, plan.awkward_added))

    def test_relocate_needs_a_cycle(self):
        with pytest.raises(DomainError, match="relocation_plan needs a cycle"):
            relocation_plan(path(8))

    def test_relocate_needs_long_chordless_cycle(self):
        with pytest.raises(DomainError):
            relocation_plan(clique(4))

    def test_relocation_preserves_density_and_connectivity(self):
        suite = relocation_suite(count=4, seed=99)
        for g, _plan in suite:
            plan, *moved = self._moved(g)
            for out in moved:
                assert out.m == g.m
                assert is_connected(out)
                assert plan.removed not in out.edge_set()

    def test_relocation_dichotomy_on_suite_sample(self):
        suite = relocation_suite(count=6, seed=123)
        for g, _plan in suite:
            lam0 = algebraic_connectivity(g, BIN)
            _plan, mid, awk = self._moved(g)
            assert algebraic_connectivity(mid, BIN) > lam0
            assert algebraic_connectivity(awk, BIN) < lam0

    @staticmethod
    def _check_plan_against_floyd_warshall(g):
        def total(graph):
            return int(floyd_warshall(graph).sum())

        plan = relocation_plan(g)
        h = g.with_edges_removed([plan.removed])
        assert plan.total_distance_before == total(g)
        assert plan.total_distance_midway == total(h.with_edges_added([plan.midway_added]))
        assert plan.total_distance_awkward == total(h.with_edges_added([plan.awkward_added]))
        free = [(a, b) for a in range(g.n) for b in range(a + 1, g.n)
                if (a, b) not in h.edge_set() and (a, b) != plan.removed]
        totals = {p: total(h.with_edges_added([p])) for p in free}
        assert plan.total_distance_awkward == max(totals.values())
        # ties on the maximum go to the smallest lambda2, then the smallest pair;
        # lambda2 values equal up to eigensolver rounding count as one value
        tied = [p for p in free if totals[p] == plan.total_distance_awkward]
        lam = {p: algebraic_connectivity(h.with_edges_added([p]), BIN) for p in tied}
        low = min(lam.values())
        assert plan.awkward_added == min(p for p in tied if np.isclose(lam[p], low, rtol=1e-9, atol=0))
        return plan, tied

    @pytest.mark.parametrize("seed", [7, 31])
    def test_plan_distance_bookkeeping(self, seed):
        for g, _plan in relocation_suite(count=4, seed=seed):
            plan, _tied = self._check_plan_against_floyd_warshall(g)
            assert plan.total_distance_midway < plan.total_distance_before
            assert plan.total_distance_awkward > plan.total_distance_before

    def test_plan_bookkeeping_with_tied_awkward_maximum(self):
        # an 8-cycle with a triangle hanging on node 0: the triangle's far
        # tie (8, 9) is removed, and four placements tie on the worst total
        g = Graph.from_edges(10, [(i, (i + 1) % 8) for i in range(8)] + [(0, 8), (0, 9), (8, 9)])
        plan, tied = self._check_plan_against_floyd_warshall(g)
        assert plan.removed == (8, 9)
        assert tied == [(1, 8), (1, 9), (7, 8), (7, 9)]
        # the four placements are mirror images: the smallest pair wins whatever the rounding
        assert plan.awkward_added == (1, 8)

    def test_suite_deterministic(self):
        a = relocation_suite(count=3, seed=42)
        b = relocation_suite(count=3, seed=42)
        assert [g.edges for g, _plan in a] == [g.edges for g, _plan in b]

    def test_relocate_needs_a_connected_graph(self):
        # a triangle beside a 9-cycle: a girth cycle exists, but no plan can
        with pytest.raises(DomainError, match="relocation_plan needs a connected graph"):
            relocation_plan(Graph.from_edges(12, [(0, 1), (1, 2), (0, 2)]
                                             + [(3 + i, 3 + (i + 1) % 9) for i in range(9)]))

    @pytest.mark.parametrize("count", [0, -3, 2.5, True, "3", None])
    def test_suite_rejects_a_bad_count(self, count):
        with pytest.raises(DomainError, match="relocation_suite needs an integer count >= 1"):
            relocation_suite(count=count)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None])
    def test_suite_rejects_a_bad_seed(self, seed):
        with pytest.raises(DomainError, match="relocation_suite needs an integer seed >= 0"):
            relocation_suite(count=1, seed=seed)

    @pytest.mark.parametrize("seed", [5, 42])
    def test_suite_plans_are_the_plans_from_scratch(self, seed):
        for g, plan in relocation_suite(count=4, seed=seed):
            assert plan == relocation_plan(g)

    def test_suite_screens_each_candidate_once(self, monkeypatch):
        # the graphs are kept alive so that no two of them can share an id
        seen = {"smallest_cycle": [], "spectrum": []}
        for name, calls in seen.items():
            def record(g, *args, _fn=getattr(generators, name), _calls=calls, **kwargs):
                _calls.append(g)
                return _fn(g, *args, **kwargs)
            monkeypatch.setattr(generators, name, record)
        relocation_suite(count=3, seed=11)
        for name, graphs in seen.items():
            assert graphs, name
            assert len({id(g) for g in graphs}) == len(graphs), name
