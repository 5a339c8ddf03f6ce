"""Immutable graph values, edge-list I/O, and combinatorial metrics.

Nodes are dense integer indices 0..n-1. Edge weights only matter to the
Laplacian builders; every distance/connectivity/cycle metric below works on
the unweighted hop structure.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from .errors import DomainError, EdgeListParseError, ResourceBudgetError, ValidationError

CHORDLESS_SEARCH_MAX_NODES = 40
_CHORDLESS_SEARCH_MAX_STEPS = 5_000_000


@dataclass(frozen=True)
class Graph:
    """A simple graph: no self-loops, positive weights, dense node indices.

    Undirected graphs (the default) store each edge once with u < v; the
    symmetry a_ij = a_ji is implied. Directed graphs store ordered pairs.
    """

    n: int
    edges: tuple  # tuple of (u, v, w); u < v when undirected
    directed: bool = False
    _adj: dict = field(default=None, compare=False, repr=False)

    @classmethod
    def from_edges(cls, n: int, edges, directed: bool = False) -> "Graph":
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
            key = (u, v) if directed else (min(u, v), max(u, v))
            if key in seen and seen[key] != w:
                raise ValidationError(f"conflicting weights for edge {key}")
            seen[key] = w
        edge_tuple = tuple(sorted((u, v, w) for (u, v), w in seen.items()))
        g = cls(n=n, edges=edge_tuple, directed=directed)
        object.__setattr__(g, "_adj", _build_adjacency(n, edge_tuple, directed))
        return g

    @property
    def m(self) -> int:
        """Number of stored edges."""
        return len(self.edges)

    def adjacency(self) -> dict:
        """node -> sorted list of (neighbor, weight). Directed: out-neighbors."""
        if self._adj is None:
            object.__setattr__(self, "_adj", _build_adjacency(self.n, self.edges, self.directed))
        return self._adj

    def neighbors(self, u: int) -> list:
        return [v for v, _ in self.adjacency()[u]]

    def degree(self, u: int) -> int:
        return len(self.adjacency()[u])

    def has_edge(self, u: int, v: int) -> bool:
        return any(x == v for x, _ in self.adjacency()[u])

    def edge_set(self) -> set:
        """Unweighted undirected edge set as {(u, v): u < v}."""
        return {(u, v) for u, v, _ in self.edges} if not self.directed else {
            (min(u, v), max(u, v)) for u, v, _ in self.edges
        }

    def is_complete(self) -> bool:
        return not self.directed and self.m == self.n * (self.n - 1) // 2

    def with_edges_added(self, new_edges) -> "Graph":
        return Graph.from_edges(self.n, list(self.edges) + [tuple(e) if len(e) == 3 else (*e, 1.0) for e in new_edges], self.directed)

    def with_edges_removed(self, drop) -> "Graph":
        dropset = {(min(u, v), max(u, v)) for u, v in drop}
        kept = [(u, v, w) for u, v, w in self.edges if (min(u, v), max(u, v)) not in dropset]
        if len(kept) != self.m - len(dropset):
            raise ValidationError("edge to remove is not present")
        return Graph.from_edges(self.n, kept, self.directed)


def _build_adjacency(n, edges, directed):
    adj = {u: [] for u in range(n)}
    for u, v, w in edges:
        adj[u].append((v, w))
        if not directed:
            adj[v].append((u, w))
    for u in adj:
        adj[u].sort()
    return adj


def _require_undirected(g: Graph, op: str):
    if g.directed:
        raise DomainError(f"{op} is defined for undirected graphs only")


@dataclass(frozen=True)
class DistanceSummary:
    """Mean and maximum shortest-path hop counts over all unordered pairs."""

    mean_distance: float
    diameter: int
    finite: bool


@dataclass(frozen=True)
class Cycle:
    """A cycle as a canonical node sequence (closure first->last implied)."""

    nodes: tuple
    chordless: bool

    @property
    def length(self) -> int:
        return len(self.nodes)


# ---------------------------------------------------------------------------
# edge-list I/O
# ---------------------------------------------------------------------------

def from_edge_list(text: str, directed: bool = False):
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
    g = Graph.from_edges(len(label_map), raw_edges, directed=directed)
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

def density(g: Graph) -> float:
    """Existing-edge count over n(n-1)/2; unweighted, undirected."""
    _require_undirected(g, "density")
    if g.n < 2:
        raise DomainError("density needs at least 2 nodes")
    return g.m / (g.n * (g.n - 1) / 2)


def connected_components(g: Graph):
    """Returns (count, labels) with labels[v] = 0-based component id."""
    _require_undirected(g, "connected_components")
    labels = [-1] * g.n
    adj = g.adjacency()
    count = 0
    for s in range(g.n):
        if labels[s] >= 0:
            continue
        labels[s] = count
        q = deque([s])
        while q:
            u = q.popleft()
            for v, _ in adj[u]:
                if labels[v] < 0:
                    labels[v] = count
                    q.append(v)
        count += 1
    return count, labels


def is_connected(g: Graph) -> bool:
    return connected_components(g)[0] == 1


def bfs_distances(g: Graph, source: int) -> list:
    """Hop distances from source; -1 for unreachable nodes."""
    dist = [-1] * g.n
    dist[source] = 0
    adj = g.adjacency()
    q = deque([source])
    while q:
        u = q.popleft()
        for v, _ in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def distance_summary(g: Graph) -> DistanceSummary:
    """All-pairs BFS mean distance and diameter (hop metric, weights ignored)."""
    _require_undirected(g, "distance_summary")
    if g.n < 2:
        return DistanceSummary(mean_distance=0.0, diameter=0, finite=True)
    total = 0
    diameter = 0
    for s in range(g.n):
        dist = bfs_distances(g, s)
        for d in dist:
            if d < 0:
                return DistanceSummary(mean_distance=float("inf"), diameter=0, finite=False)
            total += d
            if d > diameter:
                diameter = d
    mean = total / (g.n * (g.n - 1))
    return DistanceSummary(mean_distance=mean, diameter=diameter, finite=True)


# ---------------------------------------------------------------------------
# vertex connectivity (node-splitting max-flow, Menger)
# ---------------------------------------------------------------------------

def _local_node_connectivity(adj_sets, n, s, t, cutoff):
    """Max number of internally node-disjoint s-t paths, stopping at cutoff.

    Node-splitting formulation: v_in -> v_out with capacity 1 for v not in
    {s, t}; each undirected edge (a, b) becomes a_out->b_in and b_out->a_in.
    Unit-capacity BFS augmentation; flow value never exceeds n.
    """
    # residual graph over 2n nodes: v_in = 2v, v_out = 2v+1
    cap = {}

    def add(a, b, c):
        cap[(a, b)] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), 0)

    for v in range(n):
        if v != s and v != t:
            add(2 * v, 2 * v + 1, 1)
    for a in range(n):
        for b in adj_sets[a]:
            add(2 * a + 1, 2 * b, n)
    out = {}
    for (a, b) in cap:
        out.setdefault(a, []).append(b)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < cutoff:
        parent = {source: None}
        q = deque([source])
        while q and sink not in parent:
            u = q.popleft()
            for v in out.get(u, ()):
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    q.append(v)
        if sink not in parent:
            break
        v = sink
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1
    return flow


def vertex_connectivity(g: Graph) -> int:
    """Minimum node-cut size; n-1 for complete graphs, 0 when disconnected.

    Minimizes local node-splitting max-flow over the reduced candidate pair
    set of Esfahanian-Hakimi: every minimum cut either separates some
    non-neighbor pair anchored at a minimum-degree node v, or contains v and
    then separates two non-adjacent neighbors of v.
    """
    _require_undirected(g, "vertex_connectivity")
    if g.n < 2:
        raise DomainError("vertex_connectivity needs at least 2 nodes")
    if g.is_complete():
        return g.n - 1
    if not is_connected(g):
        return 0
    adj_sets = {u: set(g.neighbors(u)) for u in range(g.n)}
    v = min(range(g.n), key=lambda u: (len(adj_sets[u]), u))
    best = len(adj_sets[v])
    for t in range(g.n):
        if t != v and t not in adj_sets[v]:
            best = min(best, _local_node_connectivity(adj_sets, g.n, v, t, best))
            if best == 0:
                return 0
    for a, b in combinations(sorted(adj_sets[v]), 2):
        if b not in adj_sets[a]:
            best = min(best, _local_node_connectivity(adj_sets, g.n, a, b, best))
            if best == 0:
                return 0
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


def _is_chordless(nodes, adj_sets):
    k = len(nodes)
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            if nodes[j] in adj_sets[nodes[i]]:
                return False
    return True


def smallest_cycle(g: Graph):
    """A girth cycle (ties: lexicographically smallest canonical sequence)."""
    _require_undirected(g, "smallest_cycle")
    adj_sets = {u: set(g.neighbors(u)) for u in range(g.n)}
    best = None
    for (u, v, _w) in g.edges:
        # shortest u-v path avoiding the edge itself closes a shortest cycle
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[u] = 0
        q = deque([u])
        while q:
            x = q.popleft()
            if x == v:
                break
            for y, _ in g.adjacency()[x]:
                if (x, y) in ((u, v), (v, u)):
                    continue
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
        if dist[v] < 0:
            continue
        path = [v]
        while path[-1] != u:
            path.append(parent[path[-1]])
        nodes = _canonical_cycle(tuple(path))
        key = (len(nodes), nodes)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    nodes = best[1]
    return Cycle(nodes=nodes, chordless=_is_chordless(nodes, adj_sets))


def chordless_cycles(g: Graph, min_len: int = 3):
    """Enumerate all chordless cycles of length >= min_len (n <= 40)."""
    _require_undirected(g, "chordless_cycles")
    if g.n > CHORDLESS_SEARCH_MAX_NODES:
        raise ResourceBudgetError(
            f"chordless-cycle search is bounded to n <= {CHORDLESS_SEARCH_MAX_NODES}, got n = {g.n}"
        )
    adj_sets = {u: set(g.neighbors(u)) for u in range(g.n)}
    steps = 0
    found = []

    def extend(path, blocked):
        nonlocal steps
        steps += 1
        if steps > _CHORDLESS_SEARCH_MAX_STEPS:
            raise ResourceBudgetError(
                f"chordless-cycle search exceeded {_CHORDLESS_SEARCH_MAX_STEPS} expansions"
            )
        s = path[0]
        tail = path[-1]
        for v in sorted(adj_sets[tail]):
            if v <= s or v in blocked:
                continue
            # v may see only the tail (and possibly s, closing) among path nodes
            if any(v in adj_sets[p] for p in path[1:-1]):
                continue
            if len(path) >= 2 and s in adj_sets[v]:
                # closes a cycle; record one of the two traversal directions
                if path[1] < v:
                    found.append(tuple(path) + (v,))
                continue
            extend(path + [v], blocked | {v})

    for s in range(g.n):
        extend([s], {s})
    out = []
    for nodes in found:
        if len(nodes) >= min_len:
            out.append(Cycle(nodes=_canonical_cycle(nodes), chordless=True))
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
