import numpy as np
import pytest
from numpy.testing import assert_allclose

from polarchan import matkit
from polarchan.search import ChannelInstance
from polarchan.matkit import (
    frob_norm,
    herm_part,
    hermitian_eig,
    poldec,
    random_density,
    random_unitary,
    skew_part,
    unitarity_defect,
)


def _rand_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestFrobNorm:
    def test_identity(self):
        assert_allclose(frob_norm(np.eye(2)), np.sqrt(2.0), rtol=0, atol=0)

    def test_zero(self):
        assert frob_norm(np.zeros((3, 3))) == 0.0

    def test_diag_3_4(self):
        assert_allclose(frob_norm(np.diag([3.0, 4.0])), 5.0, rtol=0, atol=1e-15)


class TestHermSkewSplit:
    def test_hermitian_input(self):
        rng = np.random.default_rng(2)
        a = herm_part(_rand_complex(rng, 4))
        assert_allclose(herm_part(a), a, atol=1e-15)
        assert_allclose(skew_part(a), 0.0, atol=1e-15)

    def test_skew_input(self):
        rng = np.random.default_rng(3)
        a = skew_part(_rand_complex(rng, 4))
        assert_allclose(skew_part(a), a, atol=1e-15)
        assert_allclose(herm_part(a), 0.0, atol=1e-15)

    def test_upper_corner(self):
        a = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert_allclose(herm_part(a), [[0, 1], [1, 0]], atol=0)
        assert_allclose(skew_part(a), [[0, 1], [-1, 0]], atol=0)

    def test_split_reconstructs(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = _rand_complex(rng, 6)
            assert_allclose(herm_part(a) + skew_part(a), a, rtol=0, atol=1e-14 * np.abs(a).max())

    def test_split_identity(self):
        # H = X skew(X*H) + X herm(X*H) to round-off
        rng = np.random.default_rng(9)
        x = random_unitary(4, 3)
        h = _rand_complex(rng, 4)
        xh = x.conj().T @ h
        recon = x @ skew_part(xh) + x @ herm_part(xh)
        assert_allclose(recon, h, atol=1e-14 * np.abs(h).max())


class TestHermitianEig:
    def test_diagonal(self):
        out = hermitian_eig(np.diag([1.0, 2.0, 3.0]))
        assert_allclose(out.eigenvalues, [3.0, 2.0, 1.0], atol=0)
        # eigenvectors are a permutation of identity columns
        assert_allclose(np.abs(out.eigenvectors), np.eye(3)[:, ::-1], atol=1e-14)

    def test_2x2(self):
        out = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(out.eigenvalues, [3.0, 1.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(10)
        a = herm_part(_rand_complex(rng, 8))
        out = hermitian_eig(a)
        v = out.eigenvectors
        assert frob_norm(v.conj().T @ v - np.eye(8)) < 1e-12
        recon = (v * out.eigenvalues) @ v.conj().T
        assert frob_norm(recon - a) < 1e-10 * frob_norm(a)

    def test_phase_convention(self):
        rng = np.random.default_rng(11)
        out = hermitian_eig(herm_part(_rand_complex(rng, 6)))
        v = out.eigenvectors
        lead = np.argmax(np.abs(v), axis=0)
        pivots = v[lead, np.arange(6)]
        assert np.all(pivots.real > 0)
        assert np.all(np.abs(pivots.imag) < 1e-13)

    def test_bit_stable(self):
        rng = np.random.default_rng(12)
        a = herm_part(_rand_complex(rng, 7))
        first = hermitian_eig(a)
        second = hermitian_eig(a)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        a = np.eye(3, dtype=complex)
        a[2, 2] = bad
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            hermitian_eig(a)

    @pytest.mark.parametrize("scale", [1e-310, 1e-200, 1.0, 1e200, 1e307])
    def test_hermitian_rule_is_scale_free(self, scale):
        # unscaled, ||a||_F overflows to inf above ~1e154 (and ||a - a*||_F
        # underflows to 0 below ~1e-154), so either matrix would pass; both
        # entry points of the one check reject at every scale
        bad = scale * np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            hermitian_eig(bad)
        with pytest.raises(ValueError, match=r"rho\[0\] is not Hermitian"):
            ChannelInstance([(bad, bad)])
        w = hermitian_eig(scale * np.diag([2.0, 1.0])).eigenvalues
        assert_allclose(w, [2.0 * scale, scale], rtol=1e-14, atol=0)


def test_relative_eigengap_reads_either_order():
    w = np.linalg.eigvalsh(random_density(6, 3))
    assert matkit._relative_eigengap(w) == matkit._relative_eigengap(w[::-1])
    assert_allclose(matkit._relative_eigengap(np.array([0.1, 0.15, 0.35, 0.4])), 1 / 6, rtol=1e-14)
    assert matkit._relative_eigengap(np.array([1.0])) == np.inf
    assert matkit._relative_eigengap(np.full(3, 1 / 3)) == 0.0


def _psd_factor(out, a):
    """H = unitary* a, the Hermitian factor of a = unitary @ H."""
    return out.unitary.conj().T @ a


class TestPoldec:
    def test_identity(self):
        out = poldec(np.eye(3))
        assert_allclose(out.unitary, np.eye(3), atol=1e-15)
        assert_allclose(out.singular_values, np.ones(3), atol=1e-15)

    def test_positive_scaling(self):
        u0 = random_unitary(4, 2)
        a = 5.0 * u0
        out = poldec(a)
        assert_allclose(out.unitary, u0, atol=1e-13)
        assert_allclose(_psd_factor(out, a), 5.0 * np.eye(4), atol=1e-13)
        assert_allclose(out.singular_values, np.full(4, 5.0), atol=1e-13)

    def test_hand_computed_2x2(self):
        a = np.array([[0.0, -2.0], [3.0, 0.0]])
        out = poldec(a)
        assert_allclose(out.unitary, [[0.0, -1.0], [1.0, 0.0]], atol=1e-14)
        assert_allclose(_psd_factor(out, a), np.diag([3.0, 2.0]), atol=1e-14)
        assert_allclose(out.singular_values, [3.0, 2.0], atol=1e-14)

    def test_factor_invariants(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 5, 8):
            a = _rand_complex(rng, n)
            out = poldec(a)
            h = _psd_factor(out, a)
            assert unitarity_defect(out.unitary) < 1e-12
            assert frob_norm(h - h.conj().T) < 1e-12 * frob_norm(a)
            assert frob_norm(out.unitary @ h - a) < 1e-10 * frob_norm(a)
            s = out.singular_values
            assert np.all(np.diff(s) <= 0) and s[-1] >= 0
            assert_allclose(np.linalg.eigvalsh(herm_part(h))[::-1], s, atol=1e-12 * s[0])

    def test_rank_deficient(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 2.0
        out = poldec(a)
        h = _psd_factor(out, a)
        assert unitarity_defect(out.unitary) < 1e-12
        assert frob_norm(h - h.conj().T) < 1e-12
        assert frob_norm(out.unitary @ h - a) < 1e-12
        assert_allclose(out.singular_values, [2.0, 0.0, 0.0], atol=1e-15)
        assert_allclose(np.linalg.eigvalsh(herm_part(h))[::-1], [2.0, 0.0, 0.0], atol=1e-14)

    def test_nearest_unitary_sample(self):
        # smaller sample here; the full 200x50 sweep runs in the acceptance suite
        rng = np.random.default_rng(14)
        for k in range(20):
            n = int(rng.integers(2, 6))
            a = _rand_complex(rng, n)
            u = poldec(a).unitary
            d_polar = frob_norm(a - u)
            for j in range(10):
                z = random_unitary(n, 1000 * k + j)
                assert d_polar <= frob_norm(a - z) + 1e-10


class TestRandomUnitary:
    def test_scalar_case(self):
        u = random_unitary(1, 3)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_deterministic(self):
        assert np.array_equal(random_unitary(6, 42), random_unitary(6, 42))

    def test_unitarity(self):
        assert unitarity_defect(random_unitary(10, 0)) < 1e-12

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            random_unitary(0, 1)


class TestRandomDensity:
    def test_scalar_case(self):
        assert_allclose(random_density(1, 5), [[1.0]], rtol=0, atol=0)

    def test_spectrum_and_trace(self):
        for seed in range(5):
            rho = random_density(6, seed)
            evals = np.linalg.eigvalsh(rho)
            assert evals.min() > 0
            assert evals.max() < 1
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert abs(np.trace(rho).imag) < 1e-15

    def test_deterministic(self):
        assert np.array_equal(random_density(4, 9), random_density(4, 9))

    @pytest.mark.parametrize("make", [random_density, random_unitary])
    @pytest.mark.parametrize("n", [0, -2])
    def test_rejects_bad_n(self, make, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            make(n, 1)


def test_square_rejects_nonsquare():
    with pytest.raises(ValueError):
        matkit.square(np.ones((2, 3)))
    with pytest.raises(ValueError):
        matkit.square(np.zeros((0, 0)))
