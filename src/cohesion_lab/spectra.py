"""Laplacian variants, spectra, algebraic connectivity and its bounds.

Three operators are supported for a graph with adjacency A and degree
matrix D:

* binary          L     = D - A
* row_normalized  Lrw   = I - W,  w_ij = a_ij / sum_j a_ij
* sym_normalized  Lnor  = I - D^(-1/2) A D^(-1/2)

Lrw is similar to Lnor (Lrw = D^(-1/2) Lnor D^(1/2)), so its spectrum is
computed through the symmetric form; the non-symmetric matrix never reaches
the eigensolver.
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

    @classmethod
    def parse(cls, name) -> "LaplacianKind":
        """The kind named by `name`; a LaplacianKind is returned unchanged."""
        if isinstance(name, cls):
            return name
        aliases = {
            "binary": cls.BINARY,
            "rownorm": cls.ROW_NORMALIZED,
            "row_normalized": cls.ROW_NORMALIZED,
            "symnorm": cls.SYM_NORMALIZED,
            "sym_normalized": cls.SYM_NORMALIZED,
        }
        try:
            return aliases[name.lower()]
        except KeyError:
            raise DomainError(f"unknown laplacian kind {name!r}") from None


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

    def zero_multiplicity(self) -> int:
        scale = max(float(self.eigenvalues[-1]), 1.0)
        return int(np.sum(np.abs(self.eigenvalues) < ZERO_EIGENVALUE_RTOL * scale))


def adjacency_matrix(g: Graph, weighted: bool = True) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        val = w if weighted else 1.0
        a[u, v] = a[v, u] = val
    return a


def _adjacency_degrees(g: Graph, kind: LaplacianKind, weighted=True):
    """Adjacency and degrees; normalized kinds need degree >= 1."""
    a = adjacency_matrix(g, weighted=weighted)
    deg = a.sum(axis=1)
    if kind is not LaplacianKind.BINARY and np.any(deg <= 0):
        isolated = int(np.argmax(deg <= 0))
        raise DomainError(
            f"{kind.value} laplacian requires degree >= 1 everywhere; node {isolated} is isolated"
        )
    return a, deg


def _sym_normalized(a: np.ndarray, deg: np.ndarray) -> np.ndarray:
    inv_sqrt = 1.0 / np.sqrt(deg)
    return np.eye(deg.size) - (a * inv_sqrt[:, None]) * inv_sqrt[None, :]


def laplacian(g: Graph, kind: LaplacianKind = LaplacianKind.BINARY, weighted: bool = True) -> np.ndarray:
    """Build the requested Laplacian."""
    kind = LaplacianKind.parse(kind)
    a, deg = _adjacency_degrees(g, kind, weighted)
    if kind is LaplacianKind.BINARY:
        return np.diag(deg) - a
    if kind is LaplacianKind.ROW_NORMALIZED:
        return np.eye(g.n) - a / deg[:, None]
    return _sym_normalized(a, deg)


def _symmetric_operator(g: Graph, kind: LaplacianKind, weighted=True):
    """The symmetric matrix whose spectrum equals laplacian(g, kind)'s."""
    if kind is LaplacianKind.ROW_NORMALIZED:
        return _sym_normalized(*_adjacency_degrees(g, kind, weighted))
    return laplacian(g, kind, weighted)


def spectrum(g: Graph, kind: LaplacianKind = LaplacianKind.BINARY, weighted: bool = True) -> Spectrum:
    """Spectrum of the chosen Laplacian; row-normalized goes via the similarity."""
    kind = LaplacianKind.parse(kind)
    w, v = eigen.eigh(_symmetric_operator(g, kind, weighted))
    return Spectrum(eigenvalues=w, eigenvectors=v, kind=kind)


def algebraic_connectivity(g: Graph, kind: LaplacianKind = LaplacianKind.BINARY,
                           weighted: bool = True) -> float:
    """Second-smallest Laplacian eigenvalue; 0 for disconnected graphs."""
    kind = LaplacianKind.parse(kind)
    w = eigen.eigvalsh(_symmetric_operator(g, kind, weighted))
    lam2 = float(w[1])
    return 0.0 if abs(lam2) < ZERO_EIGENVALUE_RTOL * max(float(w[-1]), 1.0) else lam2


def fiedler_pair(g: Graph, kind: LaplacianKind = LaplacianKind.BINARY, weighted: bool = True):
    """(lambda2, fiedler vector) of the chosen Laplacian.

    For the row-normalized operator the returned vector is the similarity
    image v = D^(-1/2) u of the symmetric eigenvector u, i.e. an actual
    eigenvector of the non-symmetric matrix.
    """
    kind = LaplacianKind.parse(kind)
    spec = spectrum(g, kind, weighted)
    vec = spec.eigenvectors[:, 1].copy()
    if kind is LaplacianKind.ROW_NORMALIZED:
        _a, deg = _adjacency_degrees(g, kind, weighted)
        vec = vec / np.sqrt(deg)
    return spec.lambda2, vec


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
    eq5_bound: float
    diameter_bound: float
    kappa: int
    k_min: int
    complete: bool
    satisfied: dict


_BOUND_SLACK = 1e-9


def bound_report(g: Graph) -> BoundReport:
    """Evaluate the distance and connectivity bounds on a connected graph.

    Uses the unweighted (0/1) adjacency: the bound theory is stated for
    symmetric binary matrices.
    """
    if not is_connected(g):
        raise DomainError("bound_report requires a connected graph")
    if g.n < 2:
        raise DomainError("bound_report needs at least 2 nodes")
    lam2 = algebraic_connectivity(g, LaplacianKind.BINARY, weighted=False)
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
