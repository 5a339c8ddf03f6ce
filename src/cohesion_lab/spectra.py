"""Laplacian variants, spectra, algebraic connectivity and its bounds.

Three operators are supported for a graph with adjacency A and degree
matrix D:

* binary          L     = D - A
* row_normalized  Lrw   = I - W,  w_ij = a_ij / sum_j a_ij
* sym_normalized  Lnor  = I - D^(-1/2) A D^(-1/2)

Lrw is similar to Lnor (Lrw = D^(-1/2) Lnor D^(1/2)), so its spectrum is
computed through the symmetric form; the non-symmetric matrix never reaches
the eigensolver. `symmetric_form` is the one route from a graph and a kind to
an operator: it returns the symmetric matrix and the D^(1/2) scaling (ones
for binary and sym_normalized) that every spectrum, algebraic connectivity and
diffusion solution in the package is built from; `laplacian` gives the
operator itself as a matrix. `bound_report` sets lambda2 against the distance
and connectivity bounds, and `spectrum_to_csv` writes a spectrum out.
"""

import enum
import io
from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import DomainError
from .graphs import Graph, distance_summary, is_connected, vertex_connectivity

ZERO_EIGENVALUE_RTOL = 1e-8


class LaplacianKind(enum.Enum):
    BINARY = "binary"
    ROW_NORMALIZED = "rownorm"
    SYM_NORMALIZED = "symnorm"


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kind: LaplacianKind

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def lambda2(self) -> float:
        return float(self.eigenvalues[1])


def _adjacency_degrees(g: Graph, kind: LaplacianKind):
    """Adjacency and degrees; normalized kinds need degree >= 1."""
    if not isinstance(kind, LaplacianKind):
        raise DomainError(f"unknown laplacian kind {kind!r}")
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = a[v, u] = w
    deg = a.sum(axis=1)
    if kind is not LaplacianKind.BINARY and np.any(deg <= 0):
        isolated = int(np.argmax(deg <= 0))
        raise DomainError(
            f"{kind.value} laplacian requires degree >= 1 everywhere; node {isolated} is isolated"
        )
    return a, deg


def symmetric_form(g: Graph, kind: LaplacianKind):
    """(s, d) with s symmetric and laplacian(g, kind) = diag(d)^-1 s diag(d).

    s is L for binary and Lnor for both normalized kinds; d is sqrt(degree)
    for row_normalized and ones otherwise. A kind that is not a LaplacianKind
    member raises DomainError.
    """
    a, deg = _adjacency_degrees(g, kind)
    if kind is LaplacianKind.BINARY:
        return np.diag(deg) - a, np.ones(g.n)
    sqrt_deg = np.sqrt(deg)
    inv_sqrt = 1.0 / sqrt_deg
    s = np.eye(g.n) - (a * inv_sqrt[:, None]) * inv_sqrt[None, :]
    return s, sqrt_deg if kind is LaplacianKind.ROW_NORMALIZED else np.ones(g.n)


def laplacian(g: Graph, kind: LaplacianKind = LaplacianKind.BINARY) -> np.ndarray:
    """Build the requested Laplacian."""
    if kind is LaplacianKind.ROW_NORMALIZED:
        a, deg = _adjacency_degrees(g, kind)
        return np.eye(g.n) - a / deg[:, None]
    return symmetric_form(g, kind)[0]


def spectrum(g: Graph, kind: LaplacianKind = LaplacianKind.BINARY) -> Spectrum:
    """Spectrum of the chosen Laplacian; row-normalized goes via the similarity."""
    w, v = eigen.eigh(symmetric_form(g, kind)[0])
    return Spectrum(eigenvalues=w, eigenvectors=v, kind=kind)


def algebraic_connectivity(g: Graph, kind: LaplacianKind = LaplacianKind.BINARY) -> float:
    """Second-smallest Laplacian eigenvalue; 0 for disconnected graphs."""
    if g.n < 2:
        raise DomainError(f"algebraic connectivity needs at least 2 nodes, got {g.n}")
    w = eigen.eigvalsh(symmetric_form(g, kind)[0])
    lam2 = float(w[1])
    return 0.0 if abs(lam2) < ZERO_EIGENVALUE_RTOL * max(float(w[-1]), 1.0) else lam2


# ---------------------------------------------------------------------------
# analytic bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """lambda2 of the binary Laplacian against its analytic bounds.

    satisfied maps bound name -> bool, or None where a comparison is skipped
    (kappa/k_min only apply to non-complete graphs).
    """

    lambda2: float
    mean_distance: float
    eq5_bound: float
    diameter_bound: float
    kappa: int
    k_min: int
    complete: bool
    satisfied: dict


_BOUND_SLACK = 1e-9


def bound_report(g: Graph) -> BoundReport:
    """Evaluate the distance and connectivity bounds on a connected graph.

    Uses the unweighted (0/1) adjacency whatever the edge weights: the bound
    theory is stated for symmetric binary matrices.
    """
    if not is_connected(g):
        raise DomainError("bound_report requires a connected graph")
    if g.n < 2:
        raise DomainError("bound_report needs at least 2 nodes")
    lam2 = algebraic_connectivity(Graph.from_edges(g.n, g.edge_set()), LaplacianKind.BINARY)
    ds = distance_summary(g)
    eq5 = 2.0 / ((g.n - 1) * ds.mean_distance - 0.5 * (g.n - 2))
    diam = 4.0 / (g.n * ds.diameter)
    kappa = vertex_connectivity(g)
    k_min = min(g.degree(u) for u in range(g.n))
    complete = g.is_complete()
    satisfied = {
        "eq5_lower": lam2 >= eq5 - _BOUND_SLACK,
        "diameter_lower": lam2 >= diam - _BOUND_SLACK,
        "kappa_upper": None if complete else lam2 <= kappa + _BOUND_SLACK,
        "kmin_upper": None if complete else (lam2 <= k_min + _BOUND_SLACK and kappa <= k_min),
    }
    return BoundReport(
        lambda2=lam2,
        mean_distance=ds.mean_distance,
        eq5_bound=eq5,
        diameter_bound=diam,
        kappa=kappa,
        k_min=k_min,
        complete=complete,
        satisfied=satisfied,
    )


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def spectrum_to_csv(spec: Spectrum) -> str:
    buf = io.StringIO()
    buf.write(f"# kind={spec.kind.value} n={spec.n}\n")
    buf.write("index,eigenvalue\n")
    for i, lam in enumerate(spec.eigenvalues):
        buf.write(f"{i},{float(lam)!r}\n")
    return buf.getvalue()
