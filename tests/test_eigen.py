import numpy as np
import pytest

from cohesion_lab import eigen
from cohesion_lab.errors import ConvergenceError, DomainError
from conftest import ql_implicit, tridiagonalize

# The package solves with numpy's LAPACK; the Householder + implicit-shift QL
# code in conftest.py is the independent oracle it is checked against.


def _random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def _ql_eigh(a):
    """Oracle (w, V): ascending, largest-magnitude entry of each column positive."""
    d, e, q = tridiagonalize(a, accumulate=True)
    w = ql_implicit(d, e, q)
    order = np.argsort(w, kind="stable")
    v = q[:, order]
    return w[order], v * np.sign(v[np.abs(v).argmax(axis=0), np.arange(v.shape[1])])


@pytest.mark.parametrize("n", [2, 3, 5, 17, 60, 140])
def test_eigenvalues_match_lapack_oracle(n):
    # the wrapper adds checks only: its values are LAPACK's, bit for bit
    a = _random_symmetric(np.random.default_rng(n), n)
    assert np.array_equal(eigen.eigvalsh(a), np.linalg.eigvalsh(a))


@pytest.mark.parametrize("n", [2, 3, 5, 17, 60, 140])
def test_eigenvalues_match_ql_oracle(n):
    rng = np.random.default_rng(n)
    a = _random_symmetric(rng, n)
    w = eigen.eigvalsh(a)
    d, e, _ = tridiagonalize(a, accumulate=False)
    ref = np.sort(ql_implicit(d, e))
    scale = max(1.0, np.abs(ref).max())
    assert np.abs(w - ref).max() < 1e-10 * scale


@pytest.mark.parametrize("n", [2, 6, 25, 80])
def test_vectors_orthonormal_and_reconstructing(n):
    rng = np.random.default_rng(100 + n)
    a = _random_symmetric(rng, n)
    w, v = eigen.eigh(a)
    assert np.abs(v.T @ v - np.eye(n)).max() < 1e-8
    assert np.abs(a @ v - v * w).max() < 1e-8
    assert np.all(np.diff(w) >= -1e-12)


@pytest.mark.parametrize("n", [2, 6, 25])
def test_vectors_match_ql_oracle(n):
    # a random symmetric matrix has simple eigenvalues, so each eigenvector is
    # fixed up to sign, and both routes pick the same sign
    a = _random_symmetric(np.random.default_rng(200 + n), n)
    w, v = eigen.eigh(a)
    w_ref, v_ref = _ql_eigh(a)
    assert np.abs(w - w_ref).max() < 1e-10
    assert np.abs(v - v_ref).max() < 1e-8


def test_degenerate_spectrum_grid():
    # 2-D grid Laplacians carry many repeated eigenvalues
    side = 7
    n = side * side
    a = np.zeros((n, n))
    for r in range(side):
        for c in range(side):
            u = r * side + c
            if c + 1 < side:
                a[u, u + 1] = a[u + 1, u] = 1
            if r + 1 < side:
                a[u, u + side] = a[u + side, u] = 1
    lap = np.diag(a.sum(1)) - a
    w, v = eigen.eigh(lap)
    assert np.abs(v.T @ v - np.eye(n)).max() < 1e-8
    assert np.abs(lap @ v - v * w).max() < 1e-8
    assert np.abs(w - _ql_eigh(lap)[0]).max() < 1e-10


def test_sign_convention_deterministic():
    rng = np.random.default_rng(9)
    a = _random_symmetric(rng, 12)
    _, v1 = eigen.eigh(a)
    _, v2 = eigen.eigh(a.copy())
    assert np.array_equal(v1, v2)
    for k in range(12):
        assert v1[np.argmax(np.abs(v1[:, k])), k] > 0


def test_asymmetric_input_rejected():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match="similarity"):
        eigen.eigh(m)


def test_small_sizes():
    w, v = eigen.eigh(np.array([[3.0]]))
    assert w[0] == 3.0 and v[0, 0] == 1.0
    w, v = eigen.eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0])


def test_empty_matrix():
    w, v = eigen.eigh(np.zeros((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)
    assert eigen.eigvalsh(np.zeros((0, 0))).shape == (0,)


def _no_solve(*_args, **_kw):
    raise AssertionError("LAPACK was called")


@pytest.mark.parametrize("solve", [eigen.eigh, eigen.eigvalsh])
def test_size_cap_rejects_before_any_solve(solve, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _no_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_solve)
    n = eigen.MAX_DENSE_N + 1
    with pytest.raises(DomainError, match="capped"):
        solve(np.broadcast_to(0.0, (n, n)))


@pytest.mark.parametrize("solve", [eigen.eigh, eigen.eigvalsh])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_rejected(solve, bad):
    with pytest.raises(DomainError, match="non-finite"):
        solve(np.array([[1.0, bad], [bad, 1.0]]))


@pytest.mark.parametrize("solve", [eigen.eigh, eigen.eigvalsh])
def test_lapack_failure_becomes_convergence_error(solve, monkeypatch):
    def fail(_a):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        solve(np.eye(3))


def test_tridiagonalize_preserves_spectrum():
    rng = np.random.default_rng(4)
    a = _random_symmetric(rng, 20)
    d, e, q = tridiagonalize(a)
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.abs(q @ t @ q.T - a).max() < 1e-10
    assert np.abs(np.sort(np.linalg.eigvalsh(t)) - np.linalg.eigvalsh(a)).max() < 1e-10
