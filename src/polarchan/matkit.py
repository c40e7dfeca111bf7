"""Dense complex linear algebra and unitary-group geometry primitives.

Everything operates on plain numpy arrays of complex128. Functions return
fresh arrays and never mutate their inputs; decomposition results are frozen
dataclasses and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermitianEigen",
    "PolarFactors",
    "square",
    "unitarity_defect",
    "frob_norm",
    "real_inner",
    "herm_part",
    "skew_part",
    "tangent_project",
    "hermitian_eig",
    "poldec",
    "random_unitary",
    "random_density",
    "kron",
]

# Diagonal shift keeping random densities strictly positive definite.
DENSITY_SHIFT = 1e-3


def square(a) -> np.ndarray:
    """Coerce input to a square complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def unitarity_defect(u) -> float:
    """Frobenius norm of U*U - I."""
    u = square(u)
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def frob_norm(a) -> float:
    """Frobenius norm (sum of |a_ij|^2)^(1/2)."""
    return float(np.linalg.norm(np.asarray(a)))


def real_inner(a, b) -> float:
    """Real inner product Re(tr(A* B)) of two same-shape matrices."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.real(np.vdot(a, b)))


def herm_part(a) -> np.ndarray:
    """Hermitian part (A + A*)/2."""
    a = square(a)
    return (a + a.conj().T) / 2.0


def skew_part(a) -> np.ndarray:
    """Skew-Hermitian part (A - A*)/2."""
    a = square(a)
    return (a - a.conj().T) / 2.0


def tangent_project(x, h) -> np.ndarray:
    """Project h onto the tangent space of the unitary group at x: x skew(x* h)."""
    x = square(x)
    h = square(h)
    if x.shape != h.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {h.shape}")
    if unitarity_defect(x) > 1e-10:
        raise ValueError("base point x is not unitary within 1e-10")
    return x @ skew_part(x.conj().T @ h)


def _check_hermitian(a: np.ndarray, label: str) -> None:
    """Raise ValueError unless ||a - a*||_F <= 1e-10 ||a||_F."""
    if frob_norm(a - a.conj().T) > 1e-10 * max(frob_norm(a), 1e-300):
        raise ValueError(f"{label} is not Hermitian within 1e-10")


@dataclass(frozen=True)
class HermitianEigen:
    """Eigenvalues sorted descending; column i of eigenvectors pairs with eigenvalue i."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a) -> HermitianEigen:
    """Eigendecomposition of a Hermitian matrix with a reproducible convention.

    Eigenvalues come back in descending order and each eigenvector is scaled
    so its largest-modulus entry (lowest row index on ties) is real and
    positive, making the basis bit-stable across repeated calls.
    """
    a = square(a)
    _check_hermitian(a, "matrix")
    w, v = np.linalg.eigh(herm_part(a))
    w = np.ascontiguousarray(w[::-1])
    v = np.ascontiguousarray(v[:, ::-1])
    lead_rows = np.argmax(np.abs(v), axis=0)
    lead = v[lead_rows, np.arange(v.shape[1])]
    v = v * (np.abs(lead) / lead)
    return HermitianEigen(eigenvalues=w, eigenvectors=v)


@dataclass(frozen=True)
class PolarFactors:
    """unitary @ psd reproduces the decomposed matrix; psd is Hermitian PSD."""

    unitary: np.ndarray
    psd: np.ndarray


def poldec(a) -> PolarFactors:
    """Polar decomposition a = unitary @ psd via SVD.

    The unitary factor is the closest unitary matrix to ``a`` in Frobenius
    norm; for rank-deficient input the SVD formula still applies and yields
    one valid completion of the unitary factor.
    """
    a = square(a)
    w, s, vh = np.linalg.svd(a)
    return PolarFactors(unitary=w @ vh, psd=(vh.conj().T * s) @ vh)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Seeded random unitary: polar factor of a complex Gaussian matrix."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return poldec(g).unitary


def random_density(n: int, seed: int) -> np.ndarray:
    """Seeded random Hermitian positive definite state with unit trace.

    Built as (G G* + shift I) / trace for complex Gaussian G, so every
    eigenvalue is strictly positive (and strictly below one for n >= 2).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T + DENSITY_SHIFT * np.eye(n)
    m = herm_part(m)
    return m / np.real(np.trace(m))


def kron(a, b) -> np.ndarray:
    """Kronecker product with complex128 output."""
    return np.kron(np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128))
