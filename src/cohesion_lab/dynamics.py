"""Diffusion dynamics: the exact spectral solution and convergence time that
Fig. 1 reads, and the round protocols of the appendix memory experiment.
"""

from dataclasses import dataclass, field

import numpy as np

from . import eigen
from .errors import ConvergenceError, DomainError, ValidationError
from .graphs import Graph, is_connected
from .spectra import LaplacianKind, symmetric_form


def _position_vector(y0, n: int) -> np.ndarray:
    y = np.asarray(y0, dtype=float)
    if y.shape != (n,):
        raise ValidationError(f"position vector must have length {n}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("position vector entries must be finite")
    return y


def _spectral_solution(g: Graph, kind: LaplacianKind, y: np.ndarray):
    """Expand y in the eigenbasis once: returns states_at.

    states_at(times) gives y_t = sum_k b_k exp(-lambda_k t) v_k as rows,
    through the symmetric form: exp(-L t) = D^(-1/2) exp(-S t) D^(1/2) with
    (S, D^(1/2)) from symmetric_form.
    """
    s, d = symmetric_form(g, kind)
    w, v = eigen.eigh(s)
    b = v.T @ (y * d)

    def states_at(times: np.ndarray) -> np.ndarray:
        decay = np.exp(-np.outer(times, w))  # (T, n)
        return (decay * b[None, :] @ v.T) / d[None, :]

    return states_at


def diffuse_spectral(g: Graph, kind: LaplacianKind, y0, times) -> np.ndarray:
    """Exact solution of dy/dt = -L y; row k of the result is y at times[k].

    The position vector is expanded in the eigenbasis, y_t = sum_k b_k
    exp(-lambda_k t) v_k; disconnected graphs are allowed and settle to
    per-component equilibria.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValidationError("times must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise DomainError("times must be finite and non-negative")
    return _spectral_solution(g, kind, _position_vector(y0, g.n))(times)


def spread_of(y) -> float:
    y = np.asarray(y, dtype=float)
    return float(y.max() - y.min())


def convergence_time(
    g: Graph,
    kind: LaplacianKind,
    y0,
    epsilon: float,
    tol: float = 1e-6,
) -> float:
    """Smallest t with spread(y_t) < epsilon, by bisection on the spectral
    solution; the graph is decomposed once. epsilon and tol must be finite and > 0."""
    if not (np.isfinite(epsilon) and epsilon > 0 and np.isfinite(tol) and tol > 0):
        raise DomainError(f"epsilon and tol must be finite and positive, got {epsilon} and {tol}")
    if not is_connected(g):
        raise DomainError("convergence_time requires a connected graph")
    y = _position_vector(y0, g.n)
    if spread_of(y) <= epsilon:
        raise DomainError(f"spread(y0) = {spread_of(y):.6g} does not exceed epsilon = {epsilon}")

    states_at = _spectral_solution(g, kind, y)

    def spread_at(t: float) -> float:
        return spread_of(states_at(np.array([t]))[0])

    hi = 1.0
    for _ in range(80):
        if spread_at(hi) < epsilon:
            break
        hi *= 2.0
        if hi > 1e9:
            raise ConvergenceError("spread never fell below epsilon (non-convergent setup)")
    else:
        raise ConvergenceError("bracketing failed")
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if spread_at(mid) < epsilon:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# round-based protocols
# ---------------------------------------------------------------------------

def _round_operator(pairs, n: int, rule: str, t_round: float) -> np.ndarray:
    """The round as an n x n matrix op, y -> op @ y; nodes without round ties keep
    their value. 'pair_average' puts a 1/2 block on each pair of a matching;
    'exponential' is D^(-1/2) V exp(-t W) V^T D^(1/2) on the round's
    Lnor = V W V^T (not symmetric), for any set of distinct pairs."""
    if rule not in ("pair_average", "exponential"):
        raise ValidationError(f"unknown round rule {rule!r}")
    seen = set()
    for pair in pairs:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(isinstance(x, (int, np.integer)) for x in pair)):
            raise ValidationError(f"round entry {pair!r} is not a pair of integer node ids")
        u, v = pair
        if u == v:
            raise ValidationError(f"self-pair at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"node out of range 0..{n - 1} in pair ({u},{v})")
        if (min(u, v), max(u, v)) in seen:
            raise ValidationError(f"duplicate pair ({u},{v})")
        seen.add((min(u, v), max(u, v)))
    nodes = [u for pair in seen for u in pair]
    op = np.eye(n)
    if rule == "pair_average":
        if len(set(nodes)) != len(nodes):
            raise ValidationError("overlapping pairs; pair_average needs a matching")
        for u, v in seen:
            op[np.ix_((u, v), (u, v))] = 0.5
        return op
    if not (np.isfinite(t_round) and t_round > 0):
        raise DomainError(f"t_round must be finite and positive, got {t_round}")
    idx = sorted(set(nodes))  # the round's active nodes
    if idx:
        pos = {u: i for i, u in enumerate(idx)}
        sub = Graph.from_edges(len(idx), [(pos[u], pos[v]) for u, v in seen])
        s, d = symmetric_form(sub, LaplacianKind.ROW_NORMALIZED)
        w, v = eigen.eigh(s)
        op[np.ix_(idx, idx)] = (1 / d)[:, None] * ((v * np.exp(-t_round * w)) @ v.T) * d[None, :]
    return op


def run_rounds(rounds, y0, rule="pair_average", t_round: float = 1.0) -> np.ndarray:
    """Apply the rounds in order; row k of the result is y after round k (row 0 is y0).

    Each round is a tuple of (u, v) pairs on the len(y0) nodes. Rule
    'pair_average' replaces both members of each pair by their mean (the
    long-time limit of pairwise diffusion) and needs every round to be a
    matching; rule 'exponential' diffuses for a finite t_round > 0 on each
    round's subgraph Laplacian. Each round is applied as one n x n operator.
    """
    y = _position_vector(y0, np.size(y0))
    if not rounds:
        raise ValidationError("a schedule needs at least one round")
    states = [y]
    for pairs in rounds:
        states.append(_round_operator(pairs, y.size, rule, t_round) @ states[-1])
    return np.array(states)


# ---------------------------------------------------------------------------
# the four-cluster memory experiment
# ---------------------------------------------------------------------------

CLUSTER_COUNT = 4
CLUSTER_SIZE = 4
_N_MEMORY = CLUSTER_COUNT * CLUSTER_SIZE
_REP_BLOCK = 1024

#: Within-cluster round-robin: three matchings cover each 4-clique.
_WITHIN_PATTERNS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

#: Cross-cluster matchings keyed by style.
CROSS_MATCHINGS = {
    # clusters paired off (0<->1, 2<->3), member k with member k
    "cluster_pairing": tuple(
        (4 * a + k, 4 * b + k) for (a, b) in ((0, 1), (2, 3)) for k in range(4)
    ),
    # one pair per cluster pair, leftovers matched across
    "balanced": ((0, 4), (1, 8), (2, 12), (5, 9), (6, 13), (10, 14), (3, 7), (11, 15)),
    # ring of clusters, two members to the next cluster
    "ring": ((0, 6), (1, 7), (4, 10), (5, 11), (8, 14), (9, 15), (2, 12), (3, 13)),
}


def within_cluster_rounds():
    return tuple(
        tuple((4 * c + a, 4 * c + b) for c in range(CLUSTER_COUNT) for a, b in pat)
        for pat in _WITHIN_PATTERNS
    )


def memory_schedules(cross_style: str = "cluster_pairing"):
    """(treatment1, treatment2) as tuples of rounds: cross-cluster round first vs last."""
    try:
        cross = CROSS_MATCHINGS[cross_style]
    except KeyError:
        raise DomainError(f"unknown cross-matching style {cross_style!r}") from None
    within = within_cluster_rounds()
    return (cross,) + within, within + (cross,)


def rep_rng(master_seed: int, rep_index: int) -> np.random.Generator:
    """Counter-based per-replication stream; invariant to worker scheduling."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, rep_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class MemoryExperimentResult:
    mean_sd_difference: float
    mc_standard_error: float
    reps: int
    seed: int
    protocol: dict = field(compare=False)


def memory_experiment(
    reps: int,
    seed: int,
    cross_style: str = "cluster_pairing",
    rule: str = "pair_average",
    t_round: float = 1.0,
) -> MemoryExperimentResult:
    """Mean convergence-score gap between the two round orderings.

    Per replication the 16 initial memories are fair coin flips shared by
    both treatments; a treatment's score is the mean population sd over its
    four round outputs (the final states alone cannot separate the
    orderings: any product of symmetric round operators has the same
    second-moment trace either way). Positive differences mean the
    cross-first ordering converged more.

    Both treatments use the same four rounds, so each round's 16 x 16 operator
    is built once per call (four eigensolves under the exponential rule) and
    applied to _REP_BLOCK replications at a time as one product; the blocks
    bound the memory of a large reps. Each replication keeps its rep_rng stream.
    """
    if reps < 1:
        raise DomainError("reps must be >= 1")
    t1, t2 = memory_schedules(cross_style)
    ops = {pairs: _round_operator(pairs, _N_MEMORY, rule, t_round).T for pairs in set(t1)}

    def score(y: np.ndarray, rounds) -> np.ndarray:
        total = np.zeros(len(y))
        for pairs in rounds:
            y = y @ ops[pairs]
            total += y.std(axis=1)  # population sd of each round output
        return total / len(rounds)

    diffs = np.empty(reps)
    y0 = np.empty((min(reps, _REP_BLOCK), _N_MEMORY))
    for start in range(0, reps, _REP_BLOCK):
        block = y0[: min(_REP_BLOCK, reps - start)]
        for i in range(len(block)):
            block[i] = rep_rng(seed, start + i).integers(0, 2, size=_N_MEMORY)
        diffs[start:start + len(block)] = score(block, t2) - score(block, t1)
    se = float(diffs.std(ddof=1) / np.sqrt(reps)) if reps > 1 else float("nan")
    return MemoryExperimentResult(
        mean_sd_difference=float(diffs.mean()),
        mc_standard_error=se,
        reps=reps,
        seed=seed,
        protocol={
            "network": "four 4-cliques, cross ties from the matching rounds",
            "cross_style": cross_style,
            "rule": rule,
            "t_round": t_round if rule == "exponential" else None,
            "score": "mean population sd over the four round outputs",
            "sd_convention": "population (divide by n)",
        },
    )
