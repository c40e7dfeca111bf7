import numpy as np
import pytest
from numpy.testing import assert_allclose

from polarchan.equiv import (
    PivotError,
    is_equiv_under,
    normalized_diff,
    relation_matrix,
)
from polarchan.matkit import frob_norm, hermitian_eig, random_density, random_unitary


def phase_diagonal(rng, n):
    return np.exp(1j * rng.uniform(-np.pi, np.pi, size=n))


def class_member(u, v, d):
    """u V diag(d) V* for unimodular d."""
    return u @ (v * d[np.newaxis, :]) @ v.conj().T


class TestRelationMatrix:
    def test_same_matrix(self):
        u = random_unitary(4, 2)
        v = random_unitary(4, 3)
        rel = relation_matrix(u, u, v)
        assert_allclose(rel.d_hat, np.ones(4), atol=1e-13)
        assert rel.offdiag_mass < 1e-13

    def test_recovers_constructed_phases(self):
        rng = np.random.default_rng(4)
        u2 = random_unitary(5, 5)
        v = random_unitary(5, 6)
        d = phase_diagonal(rng, 5)
        u1 = class_member(u2, v, d)
        rel = relation_matrix(u1, u2, v)
        assert rel.offdiag_mass < 1e-12
        assert_allclose(rel.d_hat, d, atol=1e-12)


class TestIsEquivUnder:
    def test_reflexive(self):
        u = random_unitary(4, 11)
        v = random_unitary(4, 12)
        assert is_equiv_under(u, u, v, 1e-10)

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        u2 = random_unitary(4, 14)
        v = random_unitary(4, 15)
        u1 = class_member(u2, v, phase_diagonal(rng, 4))
        assert is_equiv_under(u1, u2, v, 1e-10)
        assert is_equiv_under(u2, u1, v, 1e-10)

    def test_transitive(self):
        rng = np.random.default_rng(16)
        v = random_unitary(5, 17)
        u1 = random_unitary(5, 18)
        u2 = class_member(u1, v, phase_diagonal(rng, 5))
        u3 = class_member(u2, v, phase_diagonal(rng, 5))
        assert is_equiv_under(u1, u3, v, 1e-10)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), True, "1e-6", None])
    def test_rejects_bad_tol(self, tol):
        u = random_unitary(3, 4)
        with pytest.raises(ValueError, match="tol must be a finite nonnegative number"):
            is_equiv_under(u, u, np.eye(3), tol)

    def test_unrelated_unitaries_fail(self):
        v = random_unitary(4, 19)
        assert not is_equiv_under(random_unitary(4, 20), random_unitary(4, 21), v, 1e-6)

    def test_members_produce_identical_channel_output(self):
        # membership soundness: same sigma for rho diagonalized by V
        rng = np.random.default_rng(22)
        rho = random_density(5, 23)
        v = hermitian_eig(rho).eigenvectors
        u = random_unitary(5, 24)
        for _ in range(5):
            member = class_member(u, v, phase_diagonal(rng, 5))
            assert is_equiv_under(member, u, v, 1e-10)
            s1 = u @ rho @ u.conj().T
            s2 = member @ rho @ member.conj().T
            assert frob_norm(s1 - s2) < 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda a, b: relation_matrix(a, b, b),
        lambda a, b: relation_matrix(b, a, b),
        lambda a, b: relation_matrix(b, b, a),
        normalized_diff,
    ],
)
def test_shape_mismatch_rejected(call):
    with pytest.raises(ValueError, match="shape"):
        call(np.eye(3), np.eye(2))


class TestNormalizedDiff:
    def test_global_phase_cancels(self):
        u = random_unitary(5, 25)
        for theta in (0.0, 0.3, -2.0):
            assert normalized_diff(u, np.exp(1j * theta) * u) < 1e-12

    def test_unrelated_random_pairs_are_far(self):
        for seed in range(5):
            u = random_unitary(6, 30 + seed)
            v = random_unitary(6, 60 + seed)
            assert normalized_diff(u, v) > 0.1

    def test_zero_iff_phase_multiple(self):
        u = random_unitary(4, 26)
        perturbed = u + 1e-6 * random_unitary(4, 27)
        assert normalized_diff(u, perturbed) > 1e-8

    def test_max_modulus_pivot(self):
        u = random_unitary(4, 28)
        mu = np.exp(0.9j)
        assert normalized_diff(u, mu * u, pivot="max-modulus-entry") < 1e-12

    def test_small_pivot_raises(self):
        # entry (0, 0) of the swap matrix is zero, so entry11 falls back to
        # the max-modulus pivot; only a tiny second pivot still raises
        u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        mu = np.exp(0.4j)
        for pivot in ("entry11", "max-modulus-entry"):
            assert normalized_diff(u, mu * u, pivot=pivot) < 1e-15
            with pytest.raises(PivotError, match=r"pivot entry \(0,1\)"):
                normalized_diff(u, np.eye(2), pivot=pivot)
        v = random_unitary(4, 29)
        w = v.copy()
        w[0, 0] = 1e-13
        assert normalized_diff(v, w) == normalized_diff(v, w, pivot="max-modulus-entry")

    def test_unknown_pivot(self):
        with pytest.raises(ValueError):
            normalized_diff(np.eye(2), np.eye(2), pivot="corner")

    def test_phase_leaves_channel_invariant(self):
        u = random_unitary(5, 10)
        mu = np.exp(0.3j)
        for seed in range(5):
            rho = random_density(5, seed)
            assert frob_norm(u @ rho @ u.conj().T - (mu * u) @ rho @ (mu * u).conj().T) < 1e-14
