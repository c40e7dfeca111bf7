"""Dense complex linear algebra primitives: Hermitian and skew parts, the
reproducible Hermitian eigendecomposition, the polar decomposition, and seeded
random unitaries and densities.

Everything operates on plain numpy arrays of complex128. Functions return
fresh arrays and never mutate their inputs; decomposition results are frozen
dataclasses and safe to share between threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermitianEigen",
    "PolarFactors",
    "square",
    "unitarity_defect",
    "frob_norm",
    "herm_part",
    "skew_part",
    "hermitian_eig",
    "poldec",
    "random_unitary",
    "random_density",
]

# Diagonal shift keeping random densities strictly positive definite.
DENSITY_SHIFT = 1e-3


def square(a) -> np.ndarray:
    """Coerce input to a nonempty square complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    return m


def unitarity_defect(u) -> float:
    """Frobenius norm of U*U - I."""
    u = square(u)
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def frob_norm(a) -> float:
    """Frobenius norm (sum of |a_ij|^2)^(1/2)."""
    return float(np.linalg.norm(np.asarray(a)))


def herm_part(a) -> np.ndarray:
    """Hermitian part (A + A*)/2, bitwise 0.5 * (A + A*)."""
    a = square(a)
    h = a + a.conj().T
    # halving by a multiply, the scalar first: a complex division costs about
    # as much as the sum, and h *= 0.5 rounds a subnormal half to the other
    # signed zero
    return np.multiply(0.5, h, out=h)


def skew_part(a) -> np.ndarray:
    """Skew-Hermitian part (A - A*)/2."""
    a = square(a)
    return (a - a.conj().T) / 2.0


def _entry_scale(a: np.ndarray) -> float:
    """Largest |Re| or |Im| over the entries of a finite complex matrix: within
    a factor sqrt(2) of its largest entry modulus, and never overflowing."""
    return float(max(np.abs(a.real).max(), np.abs(a.imag).max()))


def _freeze(a) -> np.ndarray:
    """An immutable complex128 copy of a: a read-only array over a ``bytes``
    object, which numpy refuses to make writeable again."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return np.frombuffer(a.tobytes(), dtype=np.complex128).reshape(a.shape)


def _is_frozen(a) -> bool:
    """True when a's entries can never change: every array down its ``.base``
    chain is read-only and the chain ends in a ``bytes`` object. A read-only
    view of a writable array is not frozen, nor is an array over a bytearray."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return type(a) is bytes


def _check_finite(a: np.ndarray, label: str) -> np.ndarray:
    """Return a, raising ValueError when it has a NaN or infinite entry."""
    if not np.isfinite(a).all():
        raise ValueError(f"{label} has non-finite entries")
    return a


def _check_unitary(u: np.ndarray, label: str, *, exact: bool) -> np.ndarray:
    """Return u, raising ValueError "<label> is not unitary within 1e-10" unless
    u is finite with no entry beyond 1 + 1e-10, which a unitary never has, and,
    when exact, ||U*U - I||_F <= 1e-10. The entry test forms no product, so it
    runs before any product with u (U*U included) could overflow."""
    if not (
        np.isfinite(u).all()
        and _entry_scale(u) <= 1 + 1e-10
        and (not exact or unitarity_defect(u) <= 1e-10)
    ):
        raise ValueError(f"{label} is not unitary within 1e-10")
    return u


def _check_hermitian(a: np.ndarray, label: str) -> float:
    """Return a's entry scale, raising ValueError unless a is finite and
    ||a - a*||_F <= 1e-10 ||a||_F, compared on a scaled to unit entry scale so
    that neither norm over- or underflows."""
    _check_finite(a, label)
    scale = _entry_scale(a)
    if scale > 0:
        # part by part: numpy's complex division overflows for a subnormal scale
        a = a.real / scale + 1j * (a.imag / scale)
    if frob_norm(a - a.conj().T) > 1e-10 * frob_norm(a):
        raise ValueError(f"{label} is not Hermitian within 1e-10")
    return scale


def _check_tolerance(value, name: str, positive: bool = False) -> None:
    """Raise ValueError unless value is a finite real (not a bool) that is
    nonnegative, or positive when asked."""
    is_real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (is_real and math.isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be a finite {kind} number, got {value!r}")


@dataclass(frozen=True, eq=False)
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


def _relative_eigengap(w: np.ndarray) -> float:
    """Smallest gap between consecutive sorted (either order) eigenvalues over
    their span: inf for fewer than two, 0.0 when the span is not positive."""
    if w.size < 2:
        return float("inf")
    span = abs(float(w[-1] - w[0]))
    return float(np.min(np.abs(np.diff(w)))) / span if span > 0 else 0.0


@dataclass(frozen=True, eq=False)
class PolarFactors:
    """a = unitary @ H with H Hermitian PSD; H's eigenvalues are singular_values (descending)."""

    unitary: np.ndarray
    singular_values: np.ndarray


def poldec(a) -> PolarFactors:
    """Polar decomposition a = unitary @ H via SVD, H = unitary* a.

    The unitary factor is the closest unitary matrix to ``a`` in Frobenius
    norm; for rank-deficient input the SVD formula still applies and yields
    one valid completion of the unitary factor. H itself is not formed: its
    eigenvalues are the singular values of ``a``, returned in descending order.
    """
    a = square(a)
    w, s, vh = np.linalg.svd(a)
    return PolarFactors(unitary=w @ vh, singular_values=s)


def _child_seeds(entropy, count: int) -> list[int]:
    """``count`` independent integer seeds drawn from ``entropy`` (an int or a
    sequence of ints) by numpy's ``SeedSequence``."""
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(count)]


def _complex_gaussian(n: int, seed: int) -> np.ndarray:
    """Seeded n x n complex Gaussian matrix: real part drawn first, then imaginary."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Seeded random unitary: polar factor of a complex Gaussian matrix."""
    return poldec(_complex_gaussian(n, seed)).unitary


def random_density(n: int, seed: int) -> np.ndarray:
    """Seeded random Hermitian positive definite state with unit trace.

    Built as (G G* + shift I) / trace for complex Gaussian G, so every
    eigenvalue is strictly positive (and strictly below one for n >= 2).
    """
    g = _complex_gaussian(n, seed)
    m = g @ g.conj().T + DENSITY_SHIFT * np.eye(n)
    m = herm_part(m)
    return m / np.real(np.trace(m))

