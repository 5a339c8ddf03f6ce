import numpy as np
import pytest

from cohesion_lab.dynamics import convergence_time, diffuse_spectral
from cohesion_lab.errors import DomainError
from cohesion_lab.generators import clique, cycle, path, ring_lattice, star
from cohesion_lab.graphs import Graph
from cohesion_lab.spectra import (
    LaplacianKind,
    algebraic_connectivity,
    bound_report,
    laplacian,
    spectrum,
    spectrum_to_csv,
    symmetric_form,
)
from conftest import random_connected_graph

BIN = LaplacianKind.BINARY
ROW = LaplacianKind.ROW_NORMALIZED
SYM = LaplacianKind.SYM_NORMALIZED


class TestKindMembers:
    @pytest.mark.parametrize("name", ["rownorm", "adjacency"])
    @pytest.mark.parametrize("call", [
        lambda g, k: laplacian(g, k),
        lambda g, k: spectrum(g, k),
        lambda g, k: algebraic_connectivity(g, k),
        lambda g, k: diffuse_spectral(g, k, np.arange(5.0), [0.0, 1.0]),
        lambda g, k: convergence_time(g, k, np.arange(5.0), 1e-3),
    ], ids=["laplacian", "spectrum", "algebraic_connectivity", "diffuse_spectral", "convergence_time"])
    def test_unknown_name_raises(self, name, call):
        # a name is not a kind: strings are rejected, not read as the closest kind
        with pytest.raises(DomainError, match=f"unknown laplacian kind '{name}'"):
            call(cycle(5), name)


class TestLaplacianConstruction:
    def test_k2_binary(self):
        assert np.array_equal(laplacian(clique(2), BIN), np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_row_sums_vanish(self, rng):
        for kind in (BIN, ROW):
            g = random_connected_graph(rng, 9, 14)
            lap = laplacian(g, kind)
            assert np.abs(lap.sum(axis=1)).max() < 1e-12

    def test_c4_row_normalized_by_hand(self):
        lap = laplacian(cycle(4), ROW)
        expected = np.eye(4)
        for u, v, _ in cycle(4).edges:
            expected[u, v] = expected[v, u] = -0.5
        assert np.allclose(lap, expected)

    def test_isolated_node_rejected_for_normalized(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(DomainError, match="isolated"):
            laplacian(g, ROW)
        with pytest.raises(DomainError):
            laplacian(g, SYM)
        # rownorm is solved through its symmetric similarity, yet the message
        # names the kind the caller asked for
        with pytest.raises(DomainError, match="^rownorm laplacian .* node 2 is isolated"):
            algebraic_connectivity(g, ROW)
        laplacian(g, BIN)  # fine

    def test_weights_enter_degrees(self):
        g = Graph.from_edges(2, [(0, 1, 2.5)])
        lap = laplacian(g, BIN)
        assert lap[0, 0] == 2.5 and lap[0, 1] == -2.5


class TestSpectrumBasics:
    def test_complete_graph_spectrum(self):
        spec = spectrum(clique(4), BIN)
        assert np.allclose(spec.eigenvalues, [0.0, 4.0, 4.0, 4.0], atol=1e-10)

    @pytest.mark.parametrize("n", range(3, 31))
    def test_closed_forms(self, n):
        assert algebraic_connectivity(clique(n), BIN) == pytest.approx(n, abs=1e-8)
        assert algebraic_connectivity(clique(n), ROW) == pytest.approx(n / (n - 1), abs=1e-8)
        assert algebraic_connectivity(cycle(n), BIN) == pytest.approx(
            2 * (1 - np.cos(2 * np.pi / n)), abs=1e-8)
        assert algebraic_connectivity(path(n), BIN) == pytest.approx(
            2 * (1 - np.cos(np.pi / n)), abs=1e-8)
        assert algebraic_connectivity(star(n), BIN) == pytest.approx(1.0, abs=1e-8)

    def test_star5_example(self):
        assert algebraic_connectivity(star(5), BIN) == pytest.approx(1.0, abs=1e-10)

    def test_spectrum_invariants(self, rng):
        g = random_connected_graph(rng, 12, 20)
        spec = spectrum(g, BIN)
        n = g.n
        assert abs(spec.eigenvalues[0]) < 1e-10
        v = spec.eigenvectors
        assert np.abs(v.T @ v - np.eye(n)).max() < 1e-8
        lap = laplacian(g, BIN)
        assert np.abs(lap @ v - v * spec.eigenvalues).max() < 1e-8


class TestAlgebraicConnectivity:
    def test_k24_row_normalized(self):
        assert algebraic_connectivity(clique(24), ROW) == pytest.approx(24 / 23, abs=1e-10)

    def test_ring_lattice_24_4(self):
        expected = 1 - (np.cos(2 * np.pi / 24) + np.cos(4 * np.pi / 24)) / 2
        assert algebraic_connectivity(ring_lattice(24, 4), ROW) == pytest.approx(expected, abs=1e-10)

    def test_two_disjoint_cliques(self):
        g = Graph.from_edges(8, [(i, j) for i in range(4) for j in range(i + 1, 4)]
                             + [(i, j) for i in range(4, 8) for j in range(i + 1, 8)])
        assert algebraic_connectivity(g, ROW) == 0.0
        assert algebraic_connectivity(g, BIN) == 0.0

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("kind", list(LaplacianKind), ids=lambda k: k.value)
    def test_fewer_than_two_nodes_raises(self, n, kind):
        with pytest.raises(DomainError, match="at least 2 nodes"):
            algebraic_connectivity(Graph.from_edges(n, []), kind)

    def test_rownorm_equals_symnorm(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 10, 16)
            assert algebraic_connectivity(g, ROW) == pytest.approx(
                algebraic_connectivity(g, SYM), abs=1e-12)

    def test_similarity_residual(self, rng):
        # v = D^(-1/2) u is an actual eigenvector of the row-normalized operator
        for _ in range(20):
            g = random_connected_graph(rng, 11, 18)
            s, d = symmetric_form(g, ROW)
            w, u = np.linalg.eigh(s)
            vec = u[:, 1] / d
            lap = laplacian(g, ROW)
            assert np.linalg.norm(lap @ vec - w[1] * vec) < 1e-8

    def test_edge_addition_never_decreases_lambda2(self, rng):
        for _ in range(6):
            g = random_connected_graph(rng, 9, 13)
            lam = algebraic_connectivity(g, BIN)
            present = g.edge_set()
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if (u, v) in present:
                        continue
                    lam2 = algebraic_connectivity(g.with_edges_added([(u, v)]), BIN)
                    assert lam2 >= lam - 1e-9


class TestBoundReport:
    def test_c6_by_hand(self):
        rep = bound_report(cycle(6))
        assert rep.lambda2 == pytest.approx(1.0, abs=1e-9)
        assert rep.eq5_bound == pytest.approx(2 / (5 * 1.8 - 2), abs=1e-12)
        assert rep.diameter_bound == pytest.approx(4 / 18, abs=1e-12)
        assert rep.kappa == 2 and rep.k_min == 2
        assert all(v for v in rep.satisfied.values() if v is not None)

    def test_complete_graph_skips_kappa(self):
        rep = bound_report(clique(5))
        assert rep.complete
        assert rep.satisfied["kappa_upper"] is None
        assert rep.satisfied["eq5_lower"] and rep.satisfied["diameter_lower"]

    def test_disconnected_rejected(self):
        with pytest.raises(DomainError):
            bound_report(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_edge_weights_are_ignored(self):
        unit = cycle(6)
        weighted = Graph.from_edges(6, [(0, 1, 2.5)] + [(u, v) for u, v, _ in unit.edges[1:]])
        assert weighted.edges[0] == (0, 1, 2.5)
        assert bound_report(weighted) == bound_report(unit)

    def test_random_graphs_satisfy_all_bounds(self, rng):
        for _ in range(30):
            n = int(rng.integers(6, 15))
            g = random_connected_graph(rng, n, min(20, n * (n - 1) // 2))
            rep = bound_report(g)
            assert all(v for v in rep.satisfied.values() if v is not None)


class TestCsvExport:
    def test_spectrum_csv_round_trip_values(self):
        spec = spectrum(cycle(5), BIN)
        lines = spectrum_to_csv(spec).strip().split("\n")
        assert lines[1] == "index,eigenvalue"
        vals = [float(line.split(",")[1]) for line in lines[2:]]
        assert np.allclose(vals, spec.eigenvalues)
