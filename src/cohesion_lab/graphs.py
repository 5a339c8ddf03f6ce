"""Immutable graph values, edge-list I/O, and combinatorial metrics.

Nodes are dense integer indices 0..n-1. Edge weights only matter to the
Laplacian builders; every distance/connectivity/cycle metric below works on
the unweighted hop structure. A node set is one Python int bit mask (bit v
for node v), and `Graph.adj_masks` holds each node's neighbours that way:
all-pairs distances advance every source's reach mask one hop per level,
and vertex connectivity runs its augmenting-path searches on masks of the
split network's in- and out-copies.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import DomainError, EdgeListParseError, ResourceBudgetError, ValidationError

CHORDLESS_SEARCH_MAX_NODES = 40
_CHORDLESS_SEARCH_MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph: no self-loops, positive weights, dense node
    indices. Each edge is stored once with u < v; a_ij = a_ji is implied.
    """

    n: int
    edges: tuple  # tuple of (u, v, w) with u < v

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 0:
            raise ValidationError(f"node count must be non-negative, got {n}")
        seen = {}
        for e in edges:
            if len(e) == 2:
                u, v = e
                w = 1.0
            else:
                u, v, w = e
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValidationError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) outside 0..{n - 1}")
            if not math.isfinite(w):
                raise ValidationError(f"edge ({u},{v}) has non-finite weight {w}")
            if w <= 0.0:
                raise ValidationError(f"edge ({u},{v}) has non-positive weight {w}")
            key = (min(u, v), max(u, v))
            if key in seen and seen[key] != w:
                raise ValidationError(f"conflicting weights for edge {key}")
            seen[key] = w
        return cls(n=n, edges=tuple(sorted((u, v, w) for (u, v), w in seen.items())))

    @property
    def m(self) -> int:
        """Number of stored edges."""
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple:
        """Per node, the sorted tuple of its neighbours."""
        out = [[] for _ in range(self.n)]
        for u, v, _w in self.edges:
            out[u].append(v)
            out[v].append(u)
        return tuple(tuple(sorted(a)) for a in out)

    @cached_property
    def adj_masks(self) -> tuple:
        """Per node, its neighbour set as one int bit mask (bit u set for neighbour u)."""
        out = [0] * self.n
        for u, v, _w in self.edges:
            out[u] |= 1 << v
            out[v] |= 1 << u
        return tuple(out)

    def neighbors(self, u: int) -> tuple:
        return self.adj[u]

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v >= 0 and self.adj_masks[u] >> v & 1 == 1

    def edge_set(self) -> set:
        """Unweighted edge set as {(u, v): u < v}."""
        return {(u, v) for u, v, _ in self.edges}

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def with_edges_added(self, new_edges) -> "Graph":
        return Graph.from_edges(self.n, list(self.edges) + [tuple(e) if len(e) == 3 else (*e, 1.0) for e in new_edges])

    def with_edges_removed(self, drop) -> "Graph":
        dropset = {(min(u, v), max(u, v)) for u, v in drop}
        kept = [(u, v, w) for u, v, w in self.edges if (min(u, v), max(u, v)) not in dropset]
        if len(kept) != self.m - len(dropset):
            raise ValidationError("edge to remove is not present")
        return Graph.from_edges(self.n, kept)


@dataclass(frozen=True)
class DistanceSummary:
    """Mean and maximum shortest-path hop counts over all unordered pairs."""

    mean_distance: float
    diameter: int
    finite: bool


@dataclass(frozen=True)
class Cycle:
    """A chordless cycle as a canonical node sequence (closure first->last
    implied). A girth cycle is chordless too: a chord would close a shorter one."""

    nodes: tuple

    @property
    def length(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------------
# edge-list I/O
# ---------------------------------------------------------------------------

def from_edge_list(text: str):
    """Parse whitespace-separated `u v [w]` lines into a Graph.

    Returns (graph, label_map) where label_map sends the original string
    labels to dense indices in first-appearance order. `#` starts a comment;
    blank lines are ignored.
    """
    label_map: dict = {}
    raw_edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListParseError(line_no, f"expected 'u v [w]', got {raw!r}")
        u_lbl, v_lbl = parts[0], parts[1]
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise EdgeListParseError(line_no, f"bad weight {parts[2]!r}") from None
        else:
            w = 1.0
        if u_lbl == v_lbl:
            raise ValidationError(f"line {line_no}: self-loop at {u_lbl!r}")
        if w < 0:
            raise ValidationError(f"line {line_no}: negative weight {w}")
        if w == 0:
            raise ValidationError(f"line {line_no}: zero weight")
        for lbl in (u_lbl, v_lbl):
            if lbl not in label_map:
                label_map[lbl] = len(label_map)
        raw_edges.append((label_map[u_lbl], label_map[v_lbl], w))
    g = Graph.from_edges(len(label_map), raw_edges)
    return g, label_map


def to_edge_list(g: Graph, label_map: dict = None) -> str:
    """Serialize to byte-stable edge-list text (edges sorted; weight 1 omitted)."""
    if label_map is not None:
        inverse = {i: lbl for lbl, i in label_map.items()}
        name = lambda i: str(inverse[i])
    else:
        name = str
    lines = []
    for u, v, w in g.edges:
        if w == 1.0:
            lines.append(f"{name(u)} {name(v)}")
        else:
            lines.append(f"{name(u)} {name(v)} {w!r}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def connected_components(g: Graph):
    """Returns (count, labels) with labels[v] = 0-based component id."""
    labels = [-1] * g.n
    adj = g.adj
    count = 0
    for s in range(g.n):
        if labels[s] >= 0:
            continue
        labels[s] = count
        q = deque([s])
        while q:
            u = q.popleft()
            for v in adj[u]:
                if labels[v] < 0:
                    labels[v] = count
                    q.append(v)
        count += 1
    return count, labels


def is_connected(g: Graph) -> bool:
    return connected_components(g)[0] == 1


def _reach_levels(g: Graph):
    """Yield, for d = 0, 1, ..., the masks of the nodes within d hops of each
    node, up to the last level that grows. One level is reach[v] | reach[u]
    over v's neighbours u (bit-parallel BFS; Akiba, Iwata & Yoshida, SIGMOD
    2013)."""
    adj = g.adj
    reach = [1 << v for v in range(g.n)]
    while True:
        yield reach
        grown = []
        for v, a in enumerate(adj):
            r = reach[v]
            for u in a:
                r |= reach[u]
            grown.append(r)
        if grown == reach:
            return
        reach = grown


def hop_distances(g: Graph) -> np.ndarray:
    """All-pairs hop distances as an n x n integer matrix; -1 where unreachable.
    Entry (v, u) is the level d of _reach_levels that adds u to v's mask."""
    out = np.full((g.n, g.n), -1, dtype=np.int64)
    width, prev = (g.n + 7) // 8, [0] * g.n
    for d, reach in enumerate(_reach_levels(g)):
        new = b"".join((r ^ p).to_bytes(width, "little") for r, p in zip(reach, prev))
        bits = np.unpackbits(np.frombuffer(new, dtype=np.uint8).reshape(g.n, width),
                             axis=1, count=g.n, bitorder="little")
        out[bits.view(bool)] = d
        prev = reach
    return out


def distance_summary(g: Graph) -> DistanceSummary:
    """Mean distance and diameter over all pairs (hop metric, weights ignored),
    without an n x n matrix: the pairs at distance d are the growth of the
    summed popcounts at level d of _reach_levels, the diameter its last level."""
    if g.n < 2:
        return DistanceSummary(mean_distance=0.0, diameter=0, finite=True)
    total = within = 0
    for d, reach in enumerate(_reach_levels(g)):
        now = sum(r.bit_count() for r in reach)
        total += d * (now - within)
        within = now
    if within < g.n * g.n:
        return DistanceSummary(mean_distance=float("inf"), diameter=0, finite=False)
    return DistanceSummary(mean_distance=total / (g.n * (g.n - 1)), diameter=d, finite=True)


# ---------------------------------------------------------------------------
# vertex connectivity (node-splitting max-flow, Menger)
# ---------------------------------------------------------------------------

def _bits(mask: int):
    while mask:  # set bits, lowest first
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _local_node_connectivity(g: Graph, s: int, t: int, cutoff: int) -> int:
    """Max number of internally node-disjoint paths between non-adjacent s
    and t, stopping at cutoff: unit augmenting paths from s_out to t_in in
    Even's split network (node v is an arc v_in -> v_out of capacity 1, edge
    (u, w) the arcs u_out -> w_in and w_out -> u_in of capacity n).

    `used` masks the nodes whose split arc carries flow; bit w of fwd[u] (and
    bit u of rev[w]) marks flow on u_out -> w_in. A breadth-first level moves
    the in- and out-frontiers together; the path is walked back from t_in.
    """
    nbr = g.adj_masks
    used, fwd, rev = 0, [0] * g.n, [0] * g.n
    flow = 0
    while flow < cutoff:
        f_in, f_out = 0, 1 << s
        seen_in, seen_out = 0, f_out
        levels = []
        while (f_in | f_out) and not f_in >> t & 1:
            levels.append((f_in, f_out))
            new_in, new_out = f_out & used, f_in & ~used
            for u in _bits(f_out):
                new_in |= nbr[u]
            for w in _bits(f_in & used):
                new_out |= rev[w]
            f_in, f_out = new_in & ~seen_in, new_out & ~seen_out
            seen_in, seen_out = seen_in | f_in, seen_out | f_out
        if not f_in >> t & 1:
            break
        was_used, v, on_in = used, t, True
        for f_in, f_out in reversed(levels):
            bit = 1 << v
            if on_in:  # v_in came from v_out (split arc reversed) or from u_out
                u = v if was_used & f_out & bit else next(_bits(f_out & nbr[v]))
                a, b = u, v
            else:  # v_out came from v_in (split arc) or from w_in (arc v_out -> w_in reversed)
                u = v if f_in & bit & ~was_used else next(_bits(f_in & fwd[v]))
                a, b = v, u
            if u == v:
                used ^= bit
            else:  # one unit on a -> b, pushed forward or cancelled
                fwd[a] ^= 1 << b
                rev[b] ^= 1 << a
            v, on_in = u, not on_in
        flow += 1
    return flow


def vertex_connectivity(g: Graph) -> int:
    """Minimum node-cut size; n-1 for complete graphs, 0 when disconnected.

    Minimizes local node-splitting max-flow over the reduced candidate pair
    set of Esfahanian-Hakimi: every minimum cut either separates some
    non-neighbor pair anchored at a minimum-degree node v, or contains v and
    then separates two non-adjacent neighbors of v. The local max-flows run
    on neighbour masks (_local_node_connectivity) and stop at the best cut so far.
    """
    if g.n < 2:
        raise DomainError("vertex_connectivity needs at least 2 nodes")
    if g.is_complete():
        return g.n - 1
    if not is_connected(g):
        return 0
    v = min(range(g.n), key=lambda u: (g.degree(u), u))
    best = g.degree(v)
    for t in range(g.n):
        if t != v and not g.has_edge(v, t):
            best = min(best, _local_node_connectivity(g, v, t, best))
            if best == 1:  # a connected graph has kappa >= 1
                return 1
    for a, b in combinations(g.adj[v], 2):
        if not g.has_edge(a, b):
            best = min(best, _local_node_connectivity(g, a, b, best))
            if best == 1:
                return 1
    return best


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def _canonical_cycle(nodes):
    """Canonical rotation/reflection: smallest node first, smaller successor."""
    k = len(nodes)
    i = nodes.index(min(nodes))
    fwd = tuple(nodes[(i + j) % k] for j in range(k))
    bwd = tuple(nodes[(i - j) % k] for j in range(k))
    return min(fwd, bwd)


def smallest_cycle(g: Graph):
    """A girth cycle (ties: lexicographically smallest canonical sequence)."""
    adj, nbr = g.adj, g.adj_masks
    # the first edge (in sorted order) with a common neighbour c closes the
    # smallest triangle: any earlier such edge would close a smaller one
    for u, v, _w in g.edges:
        common = nbr[u] & nbr[v]
        if common:
            return Cycle(nodes=(u, v, next(_bits(common))))
    best = None
    for u, v, _w in g.edges:
        # shortest u-v path avoiding the edge itself closes a shortest cycle;
        # nodes at depth len(best) - 1 are not expanded, since any cycle found
        # through them would be longer than best (the tree above is unchanged)
        limit = g.n if best is None else len(best) - 1
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[u] = 0
        q = deque([u])
        while q and dist[v] < 0:
            x = q.popleft()
            if dist[x] >= limit:
                break
            for y in adj[x]:
                if dist[y] < 0 and not (x == u and y == v):
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
        if dist[v] < 0:
            continue
        path = [v]
        while path[-1] != u:
            path.append(parent[path[-1]])
        nodes = _canonical_cycle(tuple(path))
        if best is None or (len(nodes), nodes) < (len(best), best):
            best = nodes
    if best is None:
        return None
    return Cycle(nodes=best)


def chordless_cycles(g: Graph, min_len: int = 3):
    """Enumerate all chordless cycles of length >= min_len (n <= 40)."""
    if g.n > CHORDLESS_SEARCH_MAX_NODES:
        raise ResourceBudgetError(
            f"chordless-cycle search is bounded to n <= {CHORDLESS_SEARCH_MAX_NODES}, got n = {g.n}"
        )
    adj, nbr = g.adj, g.adj_masks
    steps = 0
    found = []

    def extend(path, blocked, inner):
        """blocked: path nodes and every node <= path[0]; inner: the
        neighbours of path[1:-1]."""
        nonlocal steps
        steps += 1
        if steps > _CHORDLESS_SEARCH_MAX_STEPS:
            raise ResourceBudgetError(
                f"chordless-cycle search exceeded {_CHORDLESS_SEARCH_MAX_STEPS} expansions"
            )
        s = path[0]
        tail = path[-1]
        skip = blocked | inner
        closes = nbr[s] if len(path) >= 2 else 0
        inner_next = inner | nbr[tail] if len(path) >= 2 else inner
        for v in adj[tail]:
            # v may see only the tail (and possibly s, closing) among path nodes
            if skip >> v & 1:
                continue
            if closes >> v & 1:
                # closes a cycle; record one of the two traversal directions
                if path[1] < v:
                    found.append(tuple(path) + (v,))
                continue
            path.append(v)
            extend(path, blocked | 1 << v, inner_next)
            path.pop()

    for s in range(g.n):
        extend([s], (1 << (s + 1)) - 1, 0)
    out = []
    for nodes in found:
        if len(nodes) >= min_len:
            out.append(Cycle(nodes=_canonical_cycle(nodes)))
    out.sort(key=lambda c: (c.length, c.nodes))
    return out


def longest_chordless_cycle(g: Graph, min_len: int = 6):
    """Maximum-length chordless cycle of length >= min_len, or None.

    Ties are broken by lexicographically smallest canonical node sequence.
    """
    if min_len < 3:
        raise DomainError("min_len must be at least 3")
    cycles = chordless_cycles(g, min_len=min_len)
    if not cycles:
        return None
    best_len = max(c.length for c in cycles)
    return min((c for c in cycles if c.length == best_len), key=lambda c: c.nodes)
