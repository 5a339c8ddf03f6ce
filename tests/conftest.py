"""Shared independent oracles: these deliberately avoid the package's own
algorithms (Floyd-Warshall vs BFS, subset/matrix-based cuts vs node-splitting
flow, permutation enumeration vs DFS, Householder + implicit-shift QL vs
LAPACK, per-replication round updates vs fixed round operators, Runge-Kutta
steps vs the spectral diffusion solution) so each check has two routes.
"""

from itertools import combinations, permutations

import numpy as np
import pytest

from cohesion_lab.errors import ConvergenceError
from cohesion_lab.graphs import Graph


def random_graph(rng, n, m) -> Graph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    idx = rng.choice(len(pairs), size=m, replace=False)
    return Graph.from_edges(n, [pairs[i] for i in idx])


def random_connected_graph(rng, n, m) -> Graph:
    from cohesion_lab.graphs import is_connected

    for _ in range(500):
        g = random_graph(rng, n, m)
        if is_connected(g):
            return g
    raise RuntimeError("could not sample a connected graph")


def floyd_warshall(g: Graph) -> np.ndarray:
    inf = float("inf")
    d = np.full((g.n, g.n), inf)
    np.fill_diagonal(d, 0.0)
    for u, v, _w in g.edges:
        d[u, v] = d[v, u] = 1.0
    for k in range(g.n):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return d


def _connected_after_removal(g: Graph, removed) -> bool:
    removed = set(removed)
    alive = [u for u in range(g.n) if u not in removed]
    if len(alive) <= 1:
        return True
    adj = {u: [v for v in g.neighbors(u) if v not in removed] for u in alive}
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(alive)


def brute_vertex_connectivity(g: Graph) -> int:
    """Smallest node set whose removal disconnects (exhaustive; small n only)."""
    if g.is_complete():
        return g.n - 1
    for k in range(g.n - 1):
        for removed in combinations(range(g.n), k):
            if not _connected_after_removal(g, removed):
                return k
    return g.n - 1


def brute_local_connectivity(g: Graph, s: int, t: int) -> int:
    """Fewest nodes other than s and t whose removal separates non-adjacent
    s and t (exhaustive; small n only). By Menger this is the number of
    internally node-disjoint s-t paths."""
    others = [u for u in range(g.n) if u not in (s, t)]
    for k in range(len(others) + 1):
        for removed in combinations(others, k):
            seen = {s, *removed}
            stack = [s]
            while stack:
                for v in g.neighbors(stack.pop()):
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if t not in seen:
                return k
    raise AssertionError("s and t are adjacent")


def matrix_maxflow_vertex_connectivity(g: Graph) -> int:
    """Independent local-connectivity oracle: dense-matrix Ford-Fulkerson with
    DFS augmenting paths on the node-split digraph, minimized over all
    non-adjacent pairs."""
    if g.is_complete():
        return g.n - 1
    n2 = 2 * g.n
    base = np.zeros((n2, n2))
    for v in range(g.n):
        base[2 * v, 2 * v + 1] = 1.0
    for u, v, _w in g.edges:
        base[2 * u + 1, 2 * v] = g.n
        base[2 * v + 1, 2 * u] = g.n

    def local(s, t):
        cap = base.copy()
        cap[2 * s, 2 * s + 1] = g.n
        cap[2 * t, 2 * t + 1] = g.n
        source, sink = 2 * s + 1, 2 * t
        flow = 0
        while True:
            parent = {source: None}
            stack = [source]
            while stack and sink not in parent:
                u = stack.pop()
                for v in range(n2):
                    if v not in parent and cap[u, v] > 0:
                        parent[v] = u
                        stack.append(v)
            if sink not in parent:
                return flow
            v = sink
            while parent[v] is not None:
                cap[parent[v], v] -= 1
                cap[v, parent[v]] += 1
                v = parent[v]
            flow += 1

    adj = {u: set(g.neighbors(u)) for u in range(g.n)}
    best = g.n - 1
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if t not in adj[s]:
                best = min(best, local(s, t))
    return best


def brute_chordless_cycles(g: Graph) -> set:
    """All chordless cycles as canonical node tuples (permutation search)."""
    adj = {u: set(g.neighbors(u)) for u in range(g.n)}
    out = set()
    for size in range(3, g.n + 1):
        for nodes in combinations(range(g.n), size):
            for perm in permutations(nodes[1:]):
                seq = (nodes[0],) + perm
                if not all(seq[(i + 1) % size] in adj[seq[i]] for i in range(size)):
                    continue
                chord = False
                for i in range(size):
                    for j in range(i + 2, size):
                        if i == 0 and j == size - 1:
                            continue
                        if seq[j] in adj[seq[i]]:
                            chord = True
                if not chord:
                    k = seq.index(min(seq))
                    fwd = tuple(seq[(k + t) % size] for t in range(size))
                    bwd = tuple(seq[(k - t) % size] for t in range(size))
                    out.add(min(fwd, bwd))
    return out


# ---------------------------------------------------------------------------
# eigensolver oracle: Householder tridiagonalization + implicit-shift QL in
# plain Python loops, independent of LAPACK
# ---------------------------------------------------------------------------

_QL_MAX_SWEEPS = 60


def tridiagonalize(a: np.ndarray, accumulate: bool = True):
    """Reduce symmetric `a` to tridiagonal T = Q^T A Q via Householder reflections.

    Returns (d, e, q): diagonal, subdiagonal (length n-1), and Q (or None when
    accumulate=False).
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    q = np.eye(n) if accumulate else None
    for k in range(n - 2):
        x = a[k + 1:, k]
        alpha = float(np.linalg.norm(x))
        if alpha == 0.0:
            continue
        if x[0] > 0:
            alpha = -alpha
        v = x.copy()
        v[0] -= alpha
        vnorm = float(np.linalg.norm(v))
        if vnorm == 0.0:
            continue
        v /= vnorm
        sub = a[k + 1:, k + 1:]
        w = sub @ v
        w -= (v @ w) * v
        sub -= 2.0 * np.outer(v, w)
        sub -= 2.0 * np.outer(w, v)
        a[k + 1:, k] = 0.0
        a[k, k + 1:] = 0.0
        a[k + 1, k] = alpha
        a[k, k + 1] = alpha
        if accumulate:
            qsub = q[:, k + 1:]
            qsub -= 2.0 * np.outer(qsub @ v, v)
    d = np.diag(a).copy()
    e = np.diag(a, 1).copy() if n > 1 else np.zeros(0)
    return d, e, q


def ql_implicit(d: np.ndarray, e: np.ndarray, z: np.ndarray = None) -> np.ndarray:
    """Implicit-shift QL sweeps on a tridiagonal matrix; rotations hit z's columns."""
    d = d.astype(float).copy()
    n = d.size
    ee = np.zeros(n)
    ee[: n - 1] = e
    eps = np.finfo(float).eps
    for l in range(n):
        for sweep in range(_QL_MAX_SWEEPS + 1):
            m = l
            while m < n - 1:
                if abs(ee[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            if sweep == _QL_MAX_SWEEPS:
                raise ConvergenceError(f"QL iteration stalled at index {l}")
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = float(np.hypot(g, 1.0))
            g = d[m] - d[l] + ee[l] / (g + (r if g >= 0 else -r))
            s = c = 1.0
            p = 0.0
            broke = False
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = float(np.hypot(f, g))
                ee[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    ee[m] = 0.0
                    broke = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if z is not None:
                    col = z[:, i + 1].copy()
                    z[:, i + 1] = s * z[:, i] + c * col
                    z[:, i] = c * z[:, i] - s * col
            if not broke:
                d[l] -= p
                ee[l] = g
                ee[m] = 0.0
    return d


# ---------------------------------------------------------------------------
# diffusion oracle: classic 4th-order Runge-Kutta steps of dy/dt = -L y on the
# Laplacian built here in numpy, never through its symmetric form
# ---------------------------------------------------------------------------


def diffuse_stepped(g: Graph, kind, y0, t_end: float, dt: float):
    """(times, states): row k of states is y at times[k], from 0 to t_end in
    steps of at most dt; kind is binary (D - A) or row_normalized (I - A/deg)."""
    from cohesion_lab.spectra import LaplacianKind

    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = a[v, u] = w
    deg = a.sum(axis=1)
    lap = {LaplacianKind.BINARY: lambda: np.diag(deg) - a,
           LaplacianKind.ROW_NORMALIZED: lambda: np.eye(g.n) - a / deg[:, None]}[kind]()
    # RK4 is stable on the real axis for h * lambda_max < 2.78; stay well inside
    assert dt * np.abs(np.linalg.eigvals(lap)).max() < 2.0, "step too large for RK4"
    n_steps = max(1, int(np.ceil(t_end / dt - 1e-12)))
    h = t_end / n_steps
    m = -lap
    y = np.asarray(y0, dtype=float)
    states = [y]
    for _ in range(n_steps):
        k1 = m @ y
        k2 = m @ (y + 0.5 * h * k1)
        k3 = m @ (y + 0.5 * h * k2)
        k4 = m @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(y)
    return np.linspace(0.0, t_end, n_steps + 1), np.array(states)


# ---------------------------------------------------------------------------
# round-protocol oracle: one replication at a time, each round applied to the
# vector directly (pair means, or its own eigensolve of the round's Lnor)
# ---------------------------------------------------------------------------


def apply_pair_average(y: np.ndarray, pairs) -> np.ndarray:
    out = y.copy()
    for u, v in pairs:
        m = 0.5 * (out[u] + out[v])
        out[u] = m
        out[v] = m
    return out


def apply_exponential(y: np.ndarray, pairs, n: int, t_round: float) -> np.ndarray:
    """exp(-Lrw t) on the round's subgraph; nodes without round ties keep y."""
    a = np.zeros((n, n))
    for u, v in pairs:
        a[u, v] = a[v, u] = 1.0
    deg = a.sum(axis=1)
    out = y.copy()
    idx = np.where(deg > 0)[0]
    if idx.size == 0:
        return out
    sub = a[np.ix_(idx, idx)]
    dsub = sub.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(dsub)
    lnor = np.eye(idx.size) - (sub * inv_sqrt[:, None]) * inv_sqrt[None, :]
    w, v = np.linalg.eigh(lnor)
    ysub = v @ (np.exp(-t_round * w) * (v.T @ (y[idx] * np.sqrt(dsub))))
    out[idx] = ysub * inv_sqrt
    return out


def rounds_oracle(rounds, y0, rule: str, t_round: float = 1.0) -> np.ndarray:
    """Row k is y after round k (row 0 is y0)."""
    states = [np.asarray(y0, dtype=float)]
    for pairs in rounds:
        y = states[-1]
        states.append(apply_pair_average(y, pairs) if rule == "pair_average"
                      else apply_exponential(y, pairs, y.size, t_round))
    return np.array(states)


def memory_differences_oracle(reps: int, seed: int, cross_style: str, rule: str,
                              t_round: float = 1.0) -> np.ndarray:
    """Per-replication score gaps (cross last minus cross first) of the
    appendix memory experiment, one replication and one round at a time."""
    from cohesion_lab.dynamics import memory_schedules, rep_rng

    t1, t2 = memory_schedules(cross_style)
    diffs = np.empty(reps)
    for r in range(reps):
        y0 = rep_rng(seed, r).integers(0, 2, size=16).astype(float)
        s1, s2 = (float(rounds_oracle(s, y0, rule, t_round)[1:].std(axis=1).mean())
                  for s in (t1, t2))
        diffs[r] = s2 - s1
    return diffs


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
