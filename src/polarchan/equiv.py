"""Phase-equivalence verifiers and phase-normalized error metrics.

Two unitaries implement the same channel iff they differ by a global phase;
solutions recovered from a single state pair agree up to a diagonal-phase
conjugation in that state's eigenbasis. normalized_diff is the global-phase
metric (it cancels the phase by pivot scaling); the diagonal-phase relation
reduces to one matrix build plus norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkit import frob_norm, square

__all__ = [
    "DiagonalRelation",
    "PivotError",
    "relation_matrix",
    "is_equiv_under",
    "normalized_diff",
]

PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class DiagonalRelation:
    """Diagonal of V* U2* U1 V and the Frobenius mass left off the diagonal."""

    d_hat: np.ndarray
    offdiag_mass: float


class PivotError(ValueError):
    """Pivot entry too small to normalize by; retry with pivot='max-modulus-entry'."""


def relation_matrix(u1, u2, v) -> DiagonalRelation:
    """Conjugate U2* U1 into the basis V; the result is a unimodular diagonal
    exactly when U1 and U2 are diagonal-phase equivalent over V."""
    u1 = square(u1)
    u2 = square(u2)
    v = square(v)
    if not (u1.shape == u2.shape == v.shape):
        raise ValueError("all three matrices must share one shape")
    delta = v.conj().T @ u2.conj().T @ u1 @ v
    d_hat = np.diag(delta).copy()
    return DiagonalRelation(d_hat=d_hat, offdiag_mass=frob_norm(delta - np.diag(d_hat)))


def is_equiv_under(u1, u2, v, tol: float) -> bool:
    """True iff U1 = U2 V D V* holds within tol for some unimodular diagonal D."""
    rel = relation_matrix(u1, u2, v)
    if rel.offdiag_mass > tol:
        return False
    return bool(np.all(np.abs(np.abs(rel.d_hat) - 1.0) <= tol))


def normalized_diff(u, uprime, pivot: str = "entry11") -> float:
    """Frobenius distance between the two matrices after each is scaled by a
    pivot entry, cancelling any global phase (and scale) difference.

    pivot='entry11' divides each matrix by its own (0, 0) entry; the
    'max-modulus-entry' variant pivots both matrices on the position of the
    first matrix's largest-modulus entry, for when entry (0, 0) is tiny.
    """
    u = square(u)
    up = square(uprime)
    if u.shape != up.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {up.shape}")
    if pivot == "entry11":
        i = j = 0
    elif pivot == "max-modulus-entry":
        i, j = np.unravel_index(int(np.argmax(np.abs(u))), u.shape)
    else:
        raise ValueError(f"unknown pivot {pivot!r}")
    p = complex(u[i, j])
    pp = complex(up[i, j])
    if min(abs(p), abs(pp)) <= PIVOT_TOL:
        raise PivotError(
            f"pivot entry ({i},{j}) has modulus {min(abs(p), abs(pp)):.2e}; "
            "use pivot='max-modulus-entry'"
        )
    return frob_norm(u / p - up / pp)
