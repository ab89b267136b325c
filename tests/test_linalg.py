"""SVD, unitary projection, unitary square roots, matrix serialization."""

import numpy as np
import pytest

from rbmpo.errors import FactorizationError, InputError, ShapeError, SingularMatrixError
from rbmpo.linalg import (dagger, matrix_from_json_dict, matrix_to_json_dict,
                          principal_unitary_sqrt, project_to_unitary, svd, unitarity_defect)
from rbmpo.selfcheck import haar_unitary


def random_complex(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestDagger:
    def test_matrix(self):
        m = np.array([[1 + 2j, 3j], [4, 5 - 1j], [6j, 7]])
        assert np.array_equal(dagger(m), np.array([[1 - 2j, 4, -6j], [-3j, 5 + 1j, 7]]))

    def test_stack_is_matrix_by_matrix(self):
        rng = np.random.default_rng(40)
        stack = rng.standard_normal((5, 3, 2, 4)) + 1j * rng.standard_normal((5, 3, 2, 4))
        out = dagger(stack)
        assert out.shape == (5, 3, 4, 2)
        for idx in np.ndindex(5, 3):
            assert np.array_equal(out[idx], dagger(stack[idx]))


class TestUnitarityDefect:
    def test_stack_gives_its_largest_defect(self):
        # a (5, 2, 3, 3) stack, so an identity sized by the first axis fails;
        # diag(1, 1.5, 1) has U^dag U - I = diag(0, 1.25, 0) exactly
        rng = np.random.default_rng(41)
        stack = np.array([[haar_unitary(3, rng) for _ in range(2)] for _ in range(5)])
        assert unitarity_defect(stack) < 1e-14
        stack[3, 1] = np.diag([1.0, 1.5, 1.0])
        assert unitarity_defect(stack) == unitarity_defect(stack[3, 1]) == 1.25
        stack[0, 0, 2, 1] = np.nan
        assert np.isnan(unitarity_defect(stack))


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(2))
        assert np.allclose(res.U, np.eye(2))
        assert np.allclose(res.S, [1.0, 1.0])
        assert np.allclose(res.Vh, np.eye(2))

    def test_diagonal_positive(self):
        res = svd(np.diag([3.0, 1.0]))
        assert np.allclose(res.S, [3.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(4, rng)
        res = svd(m)
        rel = np.linalg.norm((res.U * res.S) @ res.Vh - m) / np.linalg.norm(m)
        assert rel < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_factor_isometry(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        res = svd(m)
        k = min(m.shape)
        assert np.linalg.norm(dagger(res.U) @ res.U - np.eye(k)) < 1e-12
        assert np.linalg.norm(res.Vh @ dagger(res.Vh) - np.eye(k)) < 1e-12
        assert np.all(np.diff(res.S) <= 1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        m = random_complex(4, rng)
        a, b = svd(m.copy()), svd(m.copy())
        assert np.array_equal(a.U, b.U) and np.array_equal(a.S, b.S) and np.array_equal(a.Vh, b.Vh)

    @pytest.mark.parametrize("seed", range(3))
    def test_singular_values_unitary_invariant(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = random_complex(4, rng)
        u, v = haar_unitary(4, rng), haar_unitary(4, rng)
        assert np.allclose(svd(u @ m @ v).S, svd(m).S, atol=1e-10)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ShapeError):
            svd(np.zeros((0, 0)))
        with pytest.raises(ShapeError):
            svd(np.array([[np.nan, 0], [0, 1]]))

    def test_lapack_failure_names_the_shape(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(FactorizationError, match=r"\(input was 3x2\)"):
            svd(np.ones((3, 2)))


class TestProjectToUnitary:
    def test_unitary_is_fixed_point(self):
        rng = np.random.default_rng(0)
        u = haar_unitary(4, rng)
        assert np.linalg.norm(project_to_unitary(u) - u) < 1e-12

    def test_positive_scale_of_identity(self):
        assert np.linalg.norm(project_to_unitary(2.0 * np.eye(2)) - np.eye(2)) < 1e-12
        # any positive scale leaves the projection unchanged
        x = random_complex(4, np.random.default_rng(6))
        assert np.linalg.norm(project_to_unitary(3.0 * x) - project_to_unitary(x)) < 1e-12

    def test_diag_signs(self):
        # closest unitary to diag(3, -1) keeps the signs
        p = project_to_unitary(np.diag([3.0, -1.0]))
        assert np.linalg.norm(p - np.diag([1.0, -1.0])) < 1e-12

    def test_beats_dense_sample_of_unitaries(self):
        rng = np.random.default_rng(1)
        x = np.diag([3.0, -1.0]).astype(complex)
        p = project_to_unitary(x)
        d0 = np.linalg.norm(x - p)
        for _ in range(2000):
            assert d0 <= np.linalg.norm(x - haar_unitary(2, rng)) + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_result_unitary(self, seed):
        rng = np.random.default_rng(300 + seed)
        p = project_to_unitary(random_complex(4, rng))
        assert np.linalg.norm(dagger(p) @ p - np.eye(4)) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_equivariance(self, seed):
        rng = np.random.default_rng(400 + seed)
        x = random_complex(4, rng)
        u, v = haar_unitary(4, rng), haar_unitary(4, rng)
        lhs = project_to_unitary(u @ x @ v)
        rhs = u @ project_to_unitary(x) @ v
        assert np.linalg.norm(lhs - rhs) < 1e-10

    def test_rank_deficient_rejected(self):
        with pytest.raises(SingularMatrixError):
            project_to_unitary(np.diag([1.0, 0.0]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            project_to_unitary(np.ones((2, 3)))


class TestUnitarySqrt:
    @pytest.mark.parametrize("seed", range(4))
    def test_square_recovers(self, seed):
        rng = np.random.default_rng(500 + seed)
        h = rng.standard_normal((4, 4))
        h = (h + h.T) / 2
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-0.3j * w)) @ dagger(v)
        r = principal_unitary_sqrt(u)
        assert np.linalg.norm(r @ r - u) < 1e-10
        assert np.linalg.norm(dagger(r) @ r - np.eye(4)) < 1e-12

    def test_identity(self):
        assert np.linalg.norm(principal_unitary_sqrt(np.eye(4)) - np.eye(4)) < 1e-12


class TestMatrixJson:
    def test_exact_round_trip(self):
        import json

        rng = np.random.default_rng(8)
        m = random_complex(3, rng)
        blob = json.dumps(matrix_to_json_dict(m))
        back = matrix_from_json_dict(json.loads(blob))
        assert np.array_equal(back, m)  # repr round-trip is exact

    def test_malformed(self):
        with pytest.raises(ShapeError):
            matrix_from_json_dict({"rows": 2, "cols": 2, "re": [[1.0]], "im": [[0.0]]})
        with pytest.raises(ShapeError):
            matrix_from_json_dict({"rows": 2})
        # sizes are JSON integers, never coerced
        for rows in (2.7, "2", True, 2.0):
            with pytest.raises(InputError):
                matrix_from_json_dict({"rows": rows, "cols": 2, "re": [[1.0, 0.0], [0.0, 1.0]],
                                       "im": [[0.0, 0.0], [0.0, 0.0]]})
