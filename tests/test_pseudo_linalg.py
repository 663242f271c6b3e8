import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from confgeo.conformal_atlas import is_null
from confgeo.errors import DimensionMismatchError, RegularityError, ValidationError
from confgeo.pseudo_linalg import (
    batched_normal,
    cluster_eigenvalues,
    form_signs as signs,
    pseudo_dot,
    triangular_frame,
)


class TestInner:
    """The indefinite inner product `pseudo_dot`."""

    def test_single_time_slot(self):
        assert pseudo_dot(np.array([1.0, 0]), np.array([1.0, 0]), signs(1, 2)) == -1.0

    def test_orthogonal_slots(self):
        assert pseudo_dot(np.array([1.0, 0]), np.array([0, 1.0]), signs(1, 2)) == 0.0

    def test_two_time_slots(self):
        v = np.array([1.0, 1, 1, 0, 0])
        assert pseudo_dot(v, v, signs(2, 5)) == pytest.approx(-1.0)

    @given(
        u=arrays(float, 5, elements=st.floats(-10, 10)),
        v=arrays(float, 5, elements=st.floats(-10, 10)),
        w=arrays(float, 5, elements=st.floats(-10, 10)),
        a=st.floats(-5, 5),
    )
    def test_bilinear_symmetric(self, u, v, w, a):
        s = signs(2, 5)
        left = pseudo_dot(u + a * w, v, s)
        right = pseudo_dot(u, v, s) + a * pseudo_dot(w, v, s)
        assert left == pytest.approx(right, abs=1e-7)
        assert pseudo_dot(u, v, s) == pytest.approx(pseudo_dot(v, u, s))

    @given(u=arrays(float, 3, elements=st.floats(-10, 10)))
    def test_time_slot_vectors_nonpositive(self, u):
        v = np.concatenate([u, np.zeros(2)])
        assert pseudo_dot(v, v, signs(3, 5)) <= 0.0


class TestLightlike:
    """Null representatives: `is_null`."""

    def test_balanced(self):
        assert is_null(np.array([1.0, 0, 1, 0, 0]))

    def test_timelike(self):
        assert not is_null(np.array([1.0, 0, 0, 0, 0]))

    def test_flat_embedding_image(self):
        # canonical flat-form representative of u = (1, 1, 0): (2u1, q+1, q-1, 2u')
        u = np.array([1.0, 1.0, 0.0])
        q = -u[0] ** 2 + u[1] ** 2 + u[2] ** 2
        rep = np.array([2 * u[0], q + 1, q - 1, 2 * u[1], 2 * u[2]])
        assert is_null(rep)


def frame_of(vectors, s):
    """The vectors E = V F that triangular_frame makes of the columns of V
    from their Gram matrix: Gram-Schmidt in the column order."""
    V = np.asarray(vectors, dtype=float).T
    g = V.T @ np.diag(signs(s, V.shape[0])) @ V
    return V @ triangular_frame(g[None])[0]


class TestGramSchmidt:
    """Orthonormal frames in the coordinate order: `triangular_frame`."""

    def test_already_triangular(self):
        E = frame_of([[0, 2, 0], [0, 1, 1]], 1)
        assert np.allclose(E[:, 0], [0, 1, 0])
        assert np.allclose(E[:, 1], [0, 0, 1])

    def test_normalization_with_time_component(self):
        E = frame_of([[1, 2, 0]], 1)
        assert np.allclose(E[:, 0], np.array([1, 2, 0]) / np.sqrt(3))

    def test_lightlike_pivot_rejected(self):
        with pytest.raises(RegularityError):
            frame_of([[1, 1, 0]], 1)

    def test_indefinite_metric_rejected(self):
        with pytest.raises(RegularityError, match="not positive definite"):
            triangular_frame(np.array([[[1.0, 0.0], [0.0, -1.0]]]))

    @given(M=arrays(float, st.integers(2, 5).map(lambda k: (k, k)), elements=st.floats(-3, 3)))
    @settings(max_examples=50)
    def test_orthonormal_and_spanning(self, M):
        g = M.T @ M + np.eye(M.shape[0])
        F = triangular_frame(g[None])[0]
        assert np.allclose(F.T @ g @ F, np.eye(M.shape[0]), atol=1e-10)
        assert np.all(np.tril(F, -1) == 0.0)
        assert np.all(np.diag(F) > 0.0)  # so the first k columns span the first k axes


class TestBatchedNormal:
    def test_needs_one_row_fewer_than_the_dimension(self):
        with pytest.raises(DimensionMismatchError, match="need d-1=4 rows, got 3"):
            batched_normal(np.zeros((2, 3, 5)), signs(1, 5))


class TestClusterEigenvalues:
    def test_all_equal(self):
        assert cluster_eigenvalues([1.0, 1.0, 1.0], 1e-6) == [(1.0, 3)]

    def test_two_clusters(self):
        out = cluster_eigenvalues([-0.5, -0.5, 0.5], 1e-6)
        assert out == [(-0.5, 2), (0.5, 1)]

    def test_sub_tolerance_merge(self):
        out = cluster_eigenvalues([1.0, 1.0 + 1e-9, 2.0], 1e-6)
        assert [mult for _, mult in out] == [2, 1]
        assert out[0][0] == pytest.approx(1.0, abs=1e-9)

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            cluster_eigenvalues([2.0, 1.0], 1e-6)

    def test_empty_spectrum_has_no_clusters(self):
        assert cluster_eigenvalues([], 1e-6) == []

    def test_spectrum_is_one_dimensional(self):
        with pytest.raises(DimensionMismatchError, match="expected a 1-d spectrum"):
            cluster_eigenvalues([[1.0, 2.0]], 1e-6)

    @given(
        vals=st.lists(st.floats(-100, 100), min_size=1, max_size=12),
        tol=st.floats(1e-9, 1e-3),
    )
    def test_multiplicities_sum_and_idempotent(self, vals, tol):
        vals = sorted(vals)
        out = cluster_eigenvalues(vals, tol)
        assert sum(mult for _, mult in out) == len(vals)
        again = cluster_eigenvalues(sorted(v for v, _ in out), tol)
        assert len(again) <= len(out)


class TestSignature:
    """The diagonal of a form: `form_signs`."""

    def test_invalid(self):
        with pytest.raises(ValidationError, match="0 <= s <= n, got s=4, n=3"):
            signs(4, 3)

    def test_signs(self):
        assert np.array_equal(signs(2, 5), [-1, -1, 1, 1, 1])
