import signal
from contextlib import contextmanager

import numpy as np
import pytest

from cohesion_lab.dynamics import (
    CROSS_MATCHINGS,
    _round_operator,
    convergence_time,
    diffuse_spectral,
    memory_experiment,
    memory_schedules,
    rep_rng,
    run_rounds,
    within_cluster_rounds,
)
from cohesion_lab.errors import DomainError, ValidationError
from cohesion_lab.generators import clique, clique_chain, cycle
from cohesion_lab.graphs import Graph
from cohesion_lab.spectra import LaplacianKind, algebraic_connectivity
from conftest import diffuse_stepped, memory_differences_oracle, random_connected_graph, rounds_oracle

BIN = LaplacianKind.BINARY
ROW = LaplacianKind.ROW_NORMALIZED


@contextmanager
def finishes_within(seconds: float):
    """Turn a hang into a failure: raise TimeoutError after `seconds`."""
    def expire(_signum, _frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def counted_eigh(monkeypatch) -> list:
    """Stub eigen.eigh with a pass-through that appends 1 per call to the returned list."""
    from cohesion_lab import eigen

    calls = []
    solve = eigen.eigh
    monkeypatch.setattr(eigen, "eigh", lambda a: calls.append(1) or solve(a))
    return calls


def spread(states: np.ndarray) -> np.ndarray:
    return states.max(axis=1) - states.min(axis=1)


def random_matching(rng, n) -> tuple:
    nodes = rng.permutation(n)
    k = int(rng.integers(1, n // 2 + 1))
    return tuple((int(nodes[2 * i]), int(nodes[2 * i + 1])) for i in range(k))


class TestSpectralDiffusion:
    def test_two_node_closed_form(self):
        g = clique(2)
        times = np.linspace(0.0, 3.0, 13)
        states = diffuse_spectral(g, BIN, np.array([0.0, 1.0]), times)
        expected0 = 0.5 - 0.5 * np.exp(-2 * times)
        expected1 = 0.5 + 0.5 * np.exp(-2 * times)
        assert np.abs(states[:, 0] - expected0).max() < 1e-10
        assert np.abs(states[:, 1] - expected1).max() < 1e-10

    def test_t_zero_returns_y0(self, rng):
        g = random_connected_graph(rng, 9, 14)
        y0 = rng.standard_normal(9)
        states = diffuse_spectral(g, ROW, y0, np.array([0.0, 1.0]))
        assert states.shape == (2, 9)
        assert np.abs(states[0] - y0).max() < 1e-10

    def test_constant_vector_is_fixed_point(self, rng):
        g = random_connected_graph(rng, 8, 12)
        y0 = np.full(8, 3.7)
        for kind in (BIN, ROW):
            states = diffuse_spectral(g, kind, y0, np.linspace(0, 5, 7))
            assert np.abs(states - 3.7).max() < 1e-10

    def test_binary_conserves_mean(self, rng):
        g = random_connected_graph(rng, 10, 17)
        y0 = rng.standard_normal(10)
        states = diffuse_spectral(g, BIN, y0, np.linspace(0, 8, 9))
        assert np.abs(states.mean(axis=1) - y0.mean()).max() < 1e-10

    def test_rownorm_conserves_degree_weighted_mean(self, rng):
        g = random_connected_graph(rng, 10, 17)
        deg = np.array([g.degree(u) for u in range(10)], dtype=float)
        y0 = rng.standard_normal(10)
        weighted = diffuse_spectral(g, ROW, y0, np.linspace(0, 8, 9)) @ deg
        assert np.abs(weighted - deg @ y0).max() < 1e-10

    def test_spread_non_increasing(self, rng):
        for kind in (BIN, ROW):
            g = random_connected_graph(rng, 9, 13)
            y0 = rng.standard_normal(9)
            states = diffuse_spectral(g, kind, y0, np.linspace(0, 6, 40))
            assert np.all(np.diff(spread(states)) <= 1e-10)

    def test_disconnected_settles_to_component_equilibria(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        y0 = np.array([0.0, 1.0, 4.0, 8.0])
        states = diffuse_spectral(g, BIN, y0, np.array([0.0, 50.0]))
        assert states[1, 0] == pytest.approx(0.5, abs=1e-8)
        assert states[1, 2] == pytest.approx(6.0, abs=1e-8)

    @pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_times_rejected(self, t):
        # exp(-lambda * inf) on a rounding-level negative lambda_1 would give inf, not the mean
        with pytest.raises(DomainError, match="finite and non-negative"):
            diffuse_spectral(cycle(5), BIN, np.arange(5.0), np.array([1.0, t]))


class TestSteppedDiffusion:
    def test_matches_spectral_with_unit_susceptibility(self, rng):
        for kind in (BIN, ROW):
            g = random_connected_graph(rng, 9, 14)
            y0 = rng.standard_normal(9)
            times, stepped = diffuse_stepped(g, kind, y0, t_end=5.0, dt=0.01)
            assert np.abs(stepped - diffuse_spectral(g, kind, y0, times)).max() < 1e-6


class TestConvergenceTime:
    def test_epsilon_above_spread_rejected(self, rng):
        g = random_connected_graph(rng, 6, 9)
        with pytest.raises(DomainError):
            convergence_time(g, BIN, np.zeros(6), epsilon=1.0)

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DomainError):
            convergence_time(g, BIN, np.array([0.0, 1.0, 0.0, 1.0]), epsilon=0.1)

    def test_higher_lambda2_converges_faster(self, rng):
        # the claim is asymptotic: compare pairs whose lambda2 differ materially
        wins = 0
        for _ in range(40):
            a = random_connected_graph(rng, 10, 16)
            b = random_connected_graph(rng, 10, 16)
            la = algebraic_connectivity(a, ROW)
            lb = algebraic_connectivity(b, ROW)
            if la < lb:
                a, b, la, lb = b, a, lb, la
            if lb <= 0 or la / lb < 1.3:
                continue
            y0 = rng.standard_normal(10)
            ta = convergence_time(a, ROW, y0, epsilon=1e-8)
            tb = convergence_time(b, ROW, y0, epsilon=1e-8)
            wins += 1
            assert ta < tb
        assert wins >= 10

    def test_tail_decay_rate_matches_lambda2(self, rng):
        g = random_connected_graph(rng, 9, 13)
        lam2 = algebraic_connectivity(g, BIN)
        y0 = rng.standard_normal(9)
        t0 = convergence_time(g, BIN, y0, epsilon=1e-5)
        ts = np.linspace(t0, t0 + 4.0 / lam2, 30)
        slope = np.polyfit(ts, np.log(spread(diffuse_spectral(g, BIN, y0, ts))), 1)[0]
        assert -slope == pytest.approx(lam2, rel=0.05)

    def test_one_eigensolve_per_call(self, rng, monkeypatch):
        calls = counted_eigh(monkeypatch)
        g = random_connected_graph(rng, 10, 16)
        convergence_time(g, ROW, rng.standard_normal(10), epsilon=1e-8)
        assert len(calls) == 1

    def test_bisection_hits_threshold(self, rng):
        g = random_connected_graph(rng, 8, 13)
        y0 = rng.standard_normal(8)
        eps = 1e-3
        t = convergence_time(g, BIN, y0, epsilon=eps, tol=1e-8)
        before = spread(diffuse_spectral(g, BIN, y0, np.array([t - 1e-6])))[0]
        after = spread(diffuse_spectral(g, BIN, y0, np.array([t + 1e-6])))[0]
        assert after < eps <= before + 1e-9

    @pytest.mark.parametrize("epsilon,tol", [(1e-3, 0.0), (1e-3, -1.0), (np.nan, 1e-6),
                                             (1e-3, np.nan), (-1e-3, 1e-6), (1e-3, np.inf)])
    def test_nonpositive_or_nonfinite_epsilon_and_tol_rejected(self, epsilon, tol):
        y0 = np.arange(36, dtype=float)
        with finishes_within(5.0), pytest.raises(DomainError, match="finite and positive"):
            convergence_time(clique_chain(), ROW, y0, epsilon, tol=tol)

    def test_tolerance_below_float_spacing_ends_at_the_crossing(self, rng):
        g = random_connected_graph(rng, 8, 13)
        y0 = rng.standard_normal(8)
        with finishes_within(5.0):
            t = convergence_time(g, BIN, y0, epsilon=1e-3, tol=1e-300)
        before = spread(diffuse_spectral(g, BIN, y0, np.array([np.nextafter(t, 0.0)])))[0]
        after = spread(diffuse_spectral(g, BIN, y0, np.array([t])))[0]
        assert after < 1e-3 <= before


class TestRounds:
    def test_single_pair_average(self):
        states = run_rounds((((0, 1),),), np.array([0.0, 1.0]))
        assert states.shape == (2, 2)
        assert np.allclose(states[-1], [0.5, 0.5])

    def test_round_robin_reaches_global_mean(self):
        y0 = np.array([1.0, 5.0, -3.0, 9.0])
        states = run_rounds((((0, 1), (2, 3)), ((0, 2), (1, 3))), y0)
        assert np.allclose(states[-1], y0.mean())

    def test_unmatched_nodes_keep_values(self):
        rounds = (((0, 1),),)
        y0 = np.array([0.0, 1.0, 7.0, -2.0])
        states = run_rounds(rounds, y0)
        assert states[-1, 2] == 7.0 and states[-1, 3] == -2.0
        states_exp = run_rounds(rounds, y0, rule="exponential", t_round=2.0)
        assert states_exp[-1, 2] == 7.0 and states_exp[-1, 3] == -2.0

    def test_overlapping_pairs_rejected_for_averaging(self):
        rounds = (((0, 1), (1, 2)),)
        with pytest.raises(ValidationError, match="matching"):
            run_rounds(rounds, np.zeros(3))
        # the exponential rule accepts arbitrary subgraphs
        run_rounds(rounds, np.array([1.0, 2.0, 3.0]), rule="exponential")

    def test_pair_average_is_long_time_exponential_limit(self, rng):
        rounds = (((0, 3), (1, 4)), ((2, 5),))
        y0 = rng.standard_normal(6)
        avg = run_rounds(rounds, y0)
        exp = run_rounds(rounds, y0, rule="exponential", t_round=50.0)
        assert np.abs(avg - exp).max() < 1e-8

    def test_matches_oracle_on_random_matchings(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 13))
            rounds = tuple(random_matching(rng, n) for _ in range(int(rng.integers(1, 6))))
            y0 = rng.standard_normal(n)
            assert np.array_equal(run_rounds(rounds, y0), rounds_oracle(rounds, y0, "pair_average"))
            t_round = float(rng.uniform(0.1, 5.0))
            exp = run_rounds(rounds, y0, rule="exponential", t_round=t_round)
            assert np.allclose(exp, rounds_oracle(rounds, y0, "exponential", t_round),
                               rtol=1e-12, atol=1e-12)

    def test_exponential_matches_oracle_on_overlapping_rounds(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 13))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            rounds = tuple(
                tuple(pairs[k] for k in rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)),
                                                   replace=False))
                for _ in range(int(rng.integers(1, 5))))
            y0 = rng.standard_normal(n)
            t_round = float(rng.uniform(0.1, 5.0))
            exp = run_rounds(rounds, y0, rule="exponential", t_round=t_round)
            assert np.allclose(exp, rounds_oracle(rounds, y0, "exponential", t_round),
                               rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("t_round", [np.nan, np.inf, 0.0, -5.0])
    def test_t_round_validated(self, t_round):
        with pytest.raises(DomainError, match="t_round"):
            run_rounds((((0, 1),),), np.array([0.0, 1.0]), rule="exponential", t_round=t_round)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValidationError, match="rule"):
            run_rounds((((0, 1),),), np.array([0.0, 1.0]), rule="gossip")

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValidationError, match="at least one round"):
            run_rounds((), np.zeros(4))

    #: (round on 4 nodes, message); every rule rejects these
    BAD_ROUNDS = [(((0, 1), (1, 0)), "duplicate pair"), (((2, 2),), "self-pair"),
                  (((0, 4),), "out of range"), (((-1, 2),), "out of range"),
                  (((0, 1.5),), "integer node"), (((0, 1, 2),), "not a pair"), ((3,), "not a pair")]

    @pytest.mark.parametrize("rule", ["pair_average", "exponential"])
    @pytest.mark.parametrize("pairs,message", BAD_ROUNDS,
                             ids=["duplicate", "self", "above", "negative", "float", "triple", "bare"])
    def test_bad_round_raises_validation_error(self, rule, pairs, message):
        # a bad round is a ValidationError, never an IndexError from the operator
        for call in (lambda: _round_operator(pairs, 4, rule, 1.0),
                     lambda: run_rounds((((0, 1),), pairs), np.zeros(4), rule=rule)):
            with pytest.raises(ValidationError, match=message) as exc:
                call()
            assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("pairs,message", [(((0, 1), (1, 0)), "duplicate pair"),
                                               (((0, 4), (1, 5), (2, 4)), "matching"),
                                               (((0, 16),), "out of range")])
    def test_memory_experiment_checks_its_rounds(self, monkeypatch, pairs, message):
        monkeypatch.setitem(CROSS_MATCHINGS, "bad", pairs)
        with pytest.raises(ValidationError, match=message):
            memory_experiment(reps=5, seed=0, cross_style="bad")


class TestMemoryExperiment:
    @pytest.mark.parametrize("style", sorted(CROSS_MATCHINGS))
    def test_schedules_are_perfect_matchings(self, style):
        t1, t2 = memory_schedules(style)
        for rounds in (t1, t2):
            assert len(rounds) == 4
            for pairs in rounds:
                nodes = sorted(x for p in pairs for x in p)
                assert nodes == list(range(16))
        # treatment 2 is treatment 1 with the cross round moved to the end
        assert t1[0] == t2[-1] == CROSS_MATCHINGS[style]
        assert t1[1:] == t2[:-1]

    def test_cross_matchings_span_clusters(self):
        for style, pairs in CROSS_MATCHINGS.items():
            assert len(pairs) == 8
            for u, v in pairs:
                assert u // 4 != v // 4, style

    def test_within_rounds_cover_each_clique(self):
        rounds = within_cluster_rounds()
        assert len(rounds) == 3
        partners = {u: set() for u in range(16)}
        for pairs in rounds:
            for u, v in pairs:
                assert u // 4 == v // 4
                partners[u].add(v)
                partners[v].add(u)
        for u in range(16):
            assert partners[u] == {4 * (u // 4) + k for k in range(4)} - {u}

    def test_constant_memory_vector_contributes_zero(self):
        t1, t2 = memory_schedules()
        y0 = np.ones(16)
        s1 = run_rounds(t1, y0)[1:].std(axis=1).mean()
        s2 = run_rounds(t2, y0)[1:].std(axis=1).mean()
        assert s1 == 0.0 and s2 == 0.0

    def test_deterministic_given_seed(self):
        a = memory_experiment(reps=200, seed=77)
        b = memory_experiment(reps=200, seed=77)
        assert a.mean_sd_difference == b.mean_sd_difference
        assert a.mc_standard_error == b.mc_standard_error

    def test_rep_streams_do_not_depend_on_order(self):
        y_first = rep_rng(5, 0).integers(0, 2, size=16)
        _ = rep_rng(5, 1).integers(0, 2, size=16)
        y_again = rep_rng(5, 0).integers(0, 2, size=16)
        assert np.array_equal(y_first, y_again)

    def test_difference_positive_at_moderate_reps(self):
        res = memory_experiment(reps=2000, seed=11)
        assert res.mean_sd_difference > 5 * res.mc_standard_error
        assert res.mean_sd_difference > 0.015

    def test_reps_validated(self):
        with pytest.raises(DomainError):
            memory_experiment(reps=0, seed=1)

    def test_protocol_recorded(self):
        res = memory_experiment(reps=10, seed=1, cross_style="balanced")
        assert res.protocol["cross_style"] == "balanced"
        assert res.protocol["sd_convention"].startswith("population")

    @pytest.mark.parametrize("style", sorted(CROSS_MATCHINGS))
    def test_pair_average_matches_oracle_bit_for_bit(self, style):
        # 1023, 1024 and 1025 replications straddle the edge of the first block
        diffs = memory_differences_oracle(1025, 9, style, "pair_average")
        for reps in (1023, 1024, 1025):
            res = memory_experiment(reps=reps, seed=9, cross_style=style)
            assert res.mean_sd_difference == float(diffs[:reps].mean())
            assert res.mc_standard_error == float(diffs[:reps].std(ddof=1) / np.sqrt(reps))

    @pytest.mark.parametrize("style", sorted(CROSS_MATCHINGS))
    def test_exponential_matches_oracle(self, style):
        diffs = memory_differences_oracle(40, 9, style, "exponential", t_round=0.7)
        res = memory_experiment(reps=40, seed=9, cross_style=style, rule="exponential", t_round=0.7)
        assert res.mean_sd_difference == pytest.approx(diffs.mean(), rel=1e-14, abs=0)
        assert res.mc_standard_error == pytest.approx(diffs.std(ddof=1) / np.sqrt(40), rel=1e-14, abs=0)

    @pytest.mark.parametrize("rule,reps,solves", [("exponential", 5, 4), ("exponential", 2000, 4),
                                                  ("pair_average", 2000, 0)])
    def test_round_operators_built_once_per_call(self, monkeypatch, rule, reps, solves):
        calls = counted_eigh(monkeypatch)
        memory_experiment(reps=reps, seed=3, rule=rule)
        assert len(calls) == solves

    @pytest.mark.parametrize("t_round", [np.nan, np.inf, 0.0, -5.0])
    def test_t_round_validated(self, t_round):
        with pytest.raises(DomainError, match="t_round"):
            memory_experiment(reps=50, seed=0, rule="exponential", t_round=t_round)
