"""Seeded parametric network families and the chord-relocation procedure."""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DomainError, ResourceBudgetError
from .graphs import Graph, hop_distances, is_connected, longest_chordless_cycle, smallest_cycle
from .spectra import LaplacianKind, algebraic_connectivity, spectrum

# ---------------------------------------------------------------------------
# deterministic standard graphs
# ---------------------------------------------------------------------------

def clique(n: int) -> Graph:
    if n < 1:
        raise DomainError("clique needs n >= 1")
    return Graph.from_edges(n, combinations(range(n), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 2:
        raise DomainError("path needs n >= 2")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """One hub (node 0) with n-1 leaves."""
    if n < 2:
        raise DomainError("star needs n >= 2")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def ring_lattice(n: int, k: int) -> Graph:
    """Circular lattice: every node tied to its k/2 nearest on each side."""
    if k % 2 != 0 or k < 2:
        raise DomainError("ring_lattice needs even k >= 2")
    if k >= n:
        raise DomainError("ring_lattice needs k < n")
    edges = {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in range(1, k // 2 + 1)}
    return Graph.from_edges(n, sorted(edges))


def square_lattice(side: int) -> Graph:
    """side x side grid with 2*side*(side-1) edges."""
    if side < 1:
        raise DomainError("square_lattice needs side >= 1")
    edges = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return Graph.from_edges(side * side, edges)


def standard_graph(spec_str: str) -> Graph:
    """Parse 'clique:24', 'ring_lattice:24:4', 'square_lattice:5', ..."""
    name, *raw_args = spec_str.split(":")
    table = {
        "clique": clique,
        "cycle": cycle,
        "path": path,
        "star": star,
        "ring_lattice": ring_lattice,
        "square_lattice": square_lattice,
        "clique_chain": clique_chain,
        "two_cliques_bridged": lambda n_each, k: two_cliques_bridged(n_each, k, seed=0),
        "chord_midway": chord_midway,
    }
    if name not in table:
        raise DomainError(f"unknown generator {name!r}")
    try:
        args = [int(x) for x in raw_args]
    except ValueError:
        raise DomainError(f"arguments for {name} must be integers, got {spec_str!r}") from None
    try:
        return table[name](*args)
    except TypeError as exc:
        raise DomainError(f"bad arguments for {name}: {exc}") from None


# ---------------------------------------------------------------------------
# the clustered coloring-experiment family
# ---------------------------------------------------------------------------

def clique_chain(clusters: int = 6, clique_size: int = 6) -> Graph:
    """Dense clusters joined by single ties, one per consecutive cluster pair.

    The default (chain of six 6-cliques, one shared port node per cluster)
    reproduces the deterministic p = 0 reference row exactly: mean distance
    25/7, row-normalized lambda2 0.0083, vertex connectivity 1.
    """
    if clusters < 2 or clique_size < 2:
        raise DomainError("clique_chain needs clusters >= 2 and clique_size >= 2")
    edges = []
    for c in range(clusters):
        base = c * clique_size
        edges.extend((base + i, base + j) for i, j in combinations(range(clique_size), 2))
    edges.extend((c * clique_size, (c + 1) * clique_size) for c in range(clusters - 1))
    return Graph.from_edges(clusters * clique_size, edges)


def clique_chain_groups(clusters: int = 6, clique_size: int = 6):
    return tuple(tuple(range(c * clique_size, (c + 1) * clique_size)) for c in range(clusters))


# ---------------------------------------------------------------------------
# rewiring
# ---------------------------------------------------------------------------

#: a relayed endpoint gets _LANDING_DRAWS * n draws for a landing node; when a
#: free one exists, the budget runs out with probability below exp(-64)
_LANDING_DRAWS = 64
#: whole rewiring attempts before a connected result is given up on
_REWIRE_ATTEMPTS = 200


def rewire(g: Graph, p: float, seed: int, groups=None) -> Graph:
    """Randomly relay ties; the result keeps the edge count bit-exactly.

    p is the per-endpoint relaying probability: each end of an eligible tie
    is independently moved to a uniformly random new node (the other end
    stays anchored), never duplicating an existing tie. With node groups
    given, only within-group ties are eligible and relocated ends land in a
    different group.

    An attempt whose result is disconnected is rejected as a whole and
    resampled, up to _REWIRE_ATTEMPTS times. A tie with nowhere to land
    raises ResourceBudgetError.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"rewiring probability must be in [0,1], got {p}")
    if not is_connected(g):
        raise DomainError("rewire expects a connected input graph")
    rng = np.random.default_rng(seed)
    gmap = None if groups is None else {int(v): gi for gi, members in enumerate(groups) for v in members}
    all_edges = [(u, v) for u, v, _ in g.edges]
    if gmap is None:
        eligible = list(all_edges)
    else:
        eligible = [(u, v) for u, v in all_edges if gmap[u] == gmap[v]]

    for _attempt in range(_REWIRE_ATTEMPTS):
        edges = set(all_edges)
        for e in eligible:
            if e not in edges:
                continue
            cur = e
            for side in (0, 1):
                if rng.random() >= p:
                    continue
                anchor = cur[1 - side]
                edges.discard((min(cur), max(cur)))
                for _draw in range(_LANDING_DRAWS * g.n):
                    w = int(rng.integers(g.n))
                    if w == anchor:
                        continue
                    if gmap is not None and gmap[w] == gmap[anchor]:
                        continue
                    cand = (min(anchor, w), max(anchor, w))
                    if cand in edges:
                        continue
                    break
                else:
                    raise ResourceBudgetError(f"rewire found no landing node for anchor {anchor}")
                edges.add(cand)
                cur = (anchor, w) if side == 1 else (w, anchor)
        out = Graph.from_edges(g.n, sorted(edges))
        assert out.m == g.m, "rewiring must preserve the edge count"
        if is_connected(out):
            return out
    raise ResourceBudgetError(f"rewire exhausted {_REWIRE_ATTEMPTS} attempts (p={p})")


# ---------------------------------------------------------------------------
# random families with fixed edge count
# ---------------------------------------------------------------------------

_CONNECT_ATTEMPTS = 1000
#: Pareto exponent of random_skewed's node weights
_SKEW_EXPONENT = 2.5


#: room for every n the relocation suite draws (SUITE_N_RANGE holds seven)
@lru_cache(maxsize=8)
def _pairs_index(n: int) -> tuple:
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def _connected_sample(n: int, dens: float, seed: int, skewed: bool) -> Graph:
    """m = round(density * n(n-1)/2) distinct pairs, redrawn until connected.

    Skewed draws give node i a Pareto weight w_i with exponent _SKEW_EXPONENT,
    fresh on every draw, and pick pairs with probability proportional to
    w_i * w_j; otherwise every pair is equally likely.
    """
    pairs = _pairs_index(n)
    m = round(dens * len(pairs))
    if m < n - 1:
        raise DomainError(f"density {dens} cannot produce a connected graph on {n} nodes")
    rng = np.random.default_rng(seed)
    for _ in range(_CONNECT_ATTEMPTS):
        pw = None
        if skewed:
            w = (1.0 - rng.random(n)) ** (-1.0 / (_SKEW_EXPONENT - 1.0))
            pw = np.array([w[i] * w[j] for i, j in pairs])
            pw /= pw.sum()
        idx = rng.choice(len(pairs), size=m, replace=False, p=pw)
        g = Graph.from_edges(n, [pairs[i] for i in idx])
        if is_connected(g):
            return g
    raise ResourceBudgetError(f"no connected sample in {_CONNECT_ATTEMPTS} draws")


def random_poisson(n: int, dens: float, seed: int) -> Graph:
    """Uniform connected graph with exactly m = round(density * n(n-1)/2) edges."""
    return _connected_sample(n, dens, seed, skewed=False)


def random_skewed(n: int, dens: float, seed: int) -> Graph:
    """Connected expected-degree graph with power-law weights and fixed edge count."""
    return _connected_sample(n, dens, seed, skewed=True)


# ---------------------------------------------------------------------------
# two bridged cliques (redundancy experiment)
# ---------------------------------------------------------------------------

def two_cliques_bridged(n_each: int, k: int, seed: int = 0) -> Graph:
    """Two cliques joined by k node-independent bridges at constant edge count.

    Bridge i ties node i of the left clique to node i of the right one; for
    every bridge added, one within-clique tie among non-bridge nodes is
    removed (alternating cliques, chosen by the seed), so density stays
    fixed and the bridges alone govern the vertex connectivity.
    """
    if n_each < 2:
        raise DomainError("two_cliques_bridged needs n_each >= 2")
    if not (0 <= k <= n_each):
        raise DomainError(f"bridge count must be in [0, {n_each}], got {k}")
    per_side = [(k + 1) // 2, k // 2]
    free = n_each - k  # nodes untouched by bridges
    if any(cnt > free * (free - 1) // 2 for cnt in per_side):
        raise DomainError(f"k = {k} leaves too few non-bridge ties to remove at n_each = {n_each}")
    edges = set()
    for base in (0, n_each):
        edges.update((base + i, base + j) for i, j in combinations(range(n_each), 2))
    rng = np.random.default_rng(seed)
    for b in range(k):
        edges.add((b, n_each + b))
        base = 0 if b % 2 == 0 else n_each
        pool = sorted(
            (base + i, base + j)
            for i, j in combinations(range(k, n_each), 2)
            if (base + i, base + j) in edges
        )
        drop = pool[int(rng.integers(len(pool)))]
        edges.discard(drop)
    return Graph.from_edges(2 * n_each, sorted(edges))


# ---------------------------------------------------------------------------
# chords
# ---------------------------------------------------------------------------

def chord_midway(cycle_len: int) -> Graph:
    """A cycle cross-connected midway (span floor(l/2) when l is odd)."""
    if cycle_len < 6:
        raise DomainError("chord_midway needs cycle length >= 6")
    g = cycle(cycle_len)
    return g.with_edges_added([(0, cycle_len // 2)])


@dataclass(frozen=True)
class RelocationPlan:
    """One tie relayed from the smallest cycle onto the longest chordless cycle."""

    removed: tuple
    cycle_nodes: tuple
    midway_added: tuple
    awkward_added: tuple
    total_distance_before: int
    total_distance_midway: int
    total_distance_awkward: int
    fiedler_loss: float          # lambda2 drop realized by the removal
    midway_gain_first_order: float
    awkward_gain_first_order: float
    gap_after_removal: float


def _totals_with(dist: np.ndarray, pairs: list) -> np.ndarray:
    """Total distance after adding each tie in `pairs` alone, by the exact
    single-edge update of the connected hop-distance matrix `dist`, all
    pairs in one (pairs x n x n) integer broadcast."""
    a, b = np.array(pairs).T
    da, db = dist[a], dist[b]  # rows: distances from each pair's ends
    via = da[:, :, None] + db[:, None, :]
    np.minimum(via, db[:, :, None] + da[:, None, :], out=via)
    via += 1
    return np.minimum(dist, via, out=via).sum(axis=(1, 2))


#: lambda2 values this close (relative) are one value: isomorphic placements
#: differ only by eigensolver rounding, which must not decide the pick
_LAMBDA2_TIE_RTOL = 1e-9


def _pick_pair(h: Graph, dist_h: np.ndarray, pairs: list, best) -> tuple:
    """(pair, total) for the tie in `pairs` whose addition to h gives the `best`
    (min or max) total distance; dist_h is h's hop-distance matrix. Ties go to
    the other extreme of lambda2, so the closest pick is the most cohesive and
    the farthest the least, and then to the smallest pair."""
    totals = _totals_with(dist_h, pairs).tolist()
    total = best(totals)
    tied = [pair for pair, tot in zip(pairs, totals) if tot == total]
    if len(tied) > 1:
        lam = {pair: algebraic_connectivity(h.with_edges_added([pair]), LaplacianKind.BINARY)
               for pair in tied}
        top = (max if best is min else min)(lam.values())
        tied = [pair for pair in tied if abs(lam[pair] - top) <= _LAMBDA2_TIE_RTOL * abs(top)]
    return min(tied), total


def relocation_plan(g: Graph, min_cycle_len: int = 6) -> RelocationPlan:
    """Choose the tie to remove and both candidate re-insertions.

    Removal: the girth-cycle tie with the smallest squared difference of the
    input graph's Fiedler components (the most redundant tie for the slow
    mode; ties broken lexicographically). Midway insertion: the chord
    halving the longest chordless cycle that minimizes total distance (ties:
    larger lambda2, then smallest pair). Awkward insertion: the non-adjacent
    pair maximizing total distance (ties: smaller lambda2, then smallest
    pair). The removed position itself is never re-used. Edge weights are
    read as given; every graph the suite samples has unit weights.

    This finds the girth cycle and the binary spectrum of g and hands them to
    _plan, the core that relocation_suite calls with the ones it screened.
    """
    if not is_connected(g):
        raise DomainError("relocation_plan needs a connected graph")
    girth = smallest_cycle(g)
    if girth is None:
        raise DomainError("relocation_plan needs a cycle to borrow a tie from")
    return _plan(g, girth, spectrum(g, LaplacianKind.BINARY), min_cycle_len)


def _plan(g: Graph, girth, spec, min_cycle_len: int) -> RelocationPlan:
    """relocation_plan for a connected g whose girth cycle and binary
    spectrum are already known."""
    v = spec.eigenvectors[:, 1]
    cyc = girth.nodes
    cyc_edges = sorted(
        {tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)]))) for i in range(len(cyc))}
    )
    removed = min(cyc_edges, key=lambda e: ((v[e[0]] - v[e[1]]) ** 2, e))
    h = g.with_edges_removed([removed])
    if not is_connected(h):
        raise DomainError("tie removal disconnected the graph")
    target = longest_chordless_cycle(h, min_len=min_cycle_len)
    if target is None:
        raise DomainError(f"no chordless cycle of length >= {min_cycle_len} after removal")
    spec_h = spectrum(h, LaplacianKind.BINARY)
    vh = spec_h.eigenvectors[:, 1]
    loss = spec.lambda2 - spec_h.lambda2
    gap_h = float(spec_h.eigenvalues[2] - spec_h.eigenvalues[1])
    nodes = target.nodes
    l = len(nodes)
    half = l // 2
    dist_h = hop_distances(h)

    midway = set()
    for i in range(l):
        a, b = nodes[i], nodes[(i + half) % l]
        pair = (min(a, b), max(a, b))
        if a == b or h.has_edge(a, b) or pair == removed:
            continue
        midway.add(pair)
    if not midway:
        raise DomainError("no midway chord position is available")
    midway = sorted(midway)
    midway_pick, best_total = _pick_pair(h, dist_h, midway, min)

    free = [(a, b) for a in range(g.n) for b in range(a + 1, g.n)
            if not h.has_edge(a, b) and (a, b) != removed]
    if not free:
        raise DomainError("no awkward placement is available")
    worst_pick, worst_total = _pick_pair(h, dist_h, free, max)

    gain_mid = float((vh[midway_pick[0]] - vh[midway_pick[1]]) ** 2)
    gain_awk = float((vh[worst_pick[0]] - vh[worst_pick[1]]) ** 2)
    return RelocationPlan(
        removed=removed,
        cycle_nodes=nodes,
        midway_added=midway_pick,
        awkward_added=worst_pick,
        total_distance_before=int(_totals_with(dist_h, [removed])[0]),  # g is h plus removed
        total_distance_midway=best_total,
        total_distance_awkward=worst_total,
        fiedler_loss=float(loss),
        midway_gain_first_order=gain_mid,
        awkward_gain_first_order=gain_awk,
        gap_after_removal=gap_h,
    )


# ---------------------------------------------------------------------------
# the seeded qualification suite for the relocation dichotomy
# ---------------------------------------------------------------------------

#: structural qualification constants (frozen suite definition)
SUITE_N_RANGE = (12, 18)
SUITE_EXTRA_EDGES = (3, 5)
SUITE_MIN_GAP = 0.02
SUITE_MAX_LAMBDA2 = 0.4
SUITE_MIN_CYCLE = 8
SUITE_GAIN_FACTOR = 6.0
SUITE_LOSS_FACTOR = 0.5
SUITE_MIN_LOSS = 1e-9


def _qualifies(g: Graph):
    """The relocation plan of g if g meets the structural preconditions under
    which the relocation dichotomy is tested, else None.

    All checks are on the input side of each step (spectra of the original
    and tie-removed graph, first-order Fiedler spans, distance premises);
    the lambda2 of the relocated outputs is never consulted. The girth cycle
    and spectrum screened here go straight into _plan, so each candidate's
    girth and spectrum are computed once.
    """
    if not is_connected(g):
        return None
    girth = smallest_cycle(g)
    if girth is None or girth.length != 3:
        return None
    spec = spectrum(g, LaplacianKind.BINARY)
    lam = spec.eigenvalues
    if lam[2] - lam[1] < SUITE_MIN_GAP or lam[1] > SUITE_MAX_LAMBDA2:
        return None
    try:
        plan = _plan(g, girth, spec, SUITE_MIN_CYCLE)
    except DomainError:
        return None
    if len(plan.cycle_nodes) < SUITE_MIN_CYCLE:
        return None
    if plan.fiedler_loss < SUITE_MIN_LOSS or plan.gap_after_removal < SUITE_MIN_GAP:
        return None
    if plan.total_distance_midway >= plan.total_distance_before:
        return None
    if plan.total_distance_awkward <= plan.total_distance_before:
        return None
    if plan.midway_gain_first_order < SUITE_GAIN_FACTOR * plan.fiedler_loss:
        return None
    if plan.awkward_gain_first_order > SUITE_LOSS_FACTOR * plan.fiedler_loss:
        return None
    return plan


def relocation_suite(count: int = 50, seed: int = 20240901) -> list:
    """Seeded sparse graphs meeting the relocation preconditions.

    Returns `count` (graph, plan) pairs. Each plan equals relocation_plan(graph):
    every accepted graph has a chordless cycle of length >= SUITE_MIN_CYCLE
    after the removal, so the default min_cycle_len picks the same cycle.
    """
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise DomainError(f"relocation_suite needs an integer count >= 1, got {count!r}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise DomainError(f"relocation_suite needs an integer seed >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ResourceBudgetError("relocation_suite rejection sampling exhausted")
        n = int(rng.integers(SUITE_N_RANGE[0], SUITE_N_RANGE[1] + 1))
        m = n + int(rng.integers(SUITE_EXTRA_EDGES[0], SUITE_EXTRA_EDGES[1] + 1))
        pairs = _pairs_index(n)
        idx = rng.choice(len(pairs), size=m, replace=False)
        g = Graph.from_edges(n, [pairs[i] for i in idx])
        plan = _qualifies(g)
        if plan is not None:
            out.append((g, plan))
    return out
