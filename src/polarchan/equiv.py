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

from .matkit import _check_tolerance, frob_norm, square

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
    """No pivot entry is large enough in both matrices to normalize by."""


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
    _check_tolerance(tol, "tol")
    rel = relation_matrix(u1, u2, v)
    if rel.offdiag_mass > tol:
        return False
    return bool(np.all(np.abs(np.abs(rel.d_hat) - 1.0) <= tol))


def normalized_diff(u, uprime, pivot: str = "entry11") -> float:
    """Frobenius distance between the two matrices after each is scaled by a
    pivot entry, cancelling any global phase (and scale) difference.

    Both matrices pivot on the position of the first matrix's largest-modulus
    entry; pivot='entry11' pivots on entry (0, 0) instead whenever that entry
    clears PIVOT_TOL in both. PivotError means the chosen pivot is tiny in
    one of the two matrices.
    """
    u = square(u)
    up = square(uprime)
    if u.shape != up.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {up.shape}")
    if pivot not in ("entry11", "max-modulus-entry"):
        raise ValueError(f"unknown pivot {pivot!r}")
    i = j = 0
    if pivot == "max-modulus-entry" or min(abs(u[0, 0]), abs(up[0, 0])) <= PIVOT_TOL:
        i, j = np.unravel_index(int(np.argmax(np.abs(u))), u.shape)
    p = complex(u[i, j])
    pp = complex(up[i, j])
    if min(abs(p), abs(pp)) <= PIVOT_TOL:
        raise PivotError(f"pivot entry ({i},{j}) has modulus {min(abs(p), abs(pp)):.2e}")
    return frob_norm(u / p - up / pp)
