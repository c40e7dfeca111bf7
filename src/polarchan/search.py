"""Channel-search objective, its gradient, and the polar fixed-point solver.

The solver repeatedly replaces the current unitary with the polar factor of
the summed negative gradient, which is the closest unitary to that matrix
and never increases the single-pair objective.

One iteration costs one n x n SVD (the polar factor), three n x n products
per pair (the gradient and the objective share U rho_i), written into three
n x n buffers reused across the pairs, and two more products: U* m for the
residual and W V* for the polar factor.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .matkit import (
    _check_hermitian,
    _check_tolerance,
    _check_unitary,
    _freeze,
    frob_norm,
    herm_part,
    poldec,
    skew_part,
    square,
)

__all__ = [
    "ChannelInstance",
    "SolverConfig",
    "IterationTrace",
    "SolveResult",
    "STATUS_CONVERGED_TOL",
    "STATUS_CONVERGED_STALL",
    "STATUS_MAX_ITERS",
    "objective",
    "neg_gradient",
    "residual",
    "step",
    "solve",
]

STATUS_CONVERGED_TOL = "converged-tol"
STATUS_CONVERGED_STALL = "converged-stall"
STATUS_MAX_ITERS = "max-iters"

# Relative smallest-singular-value threshold below which a gradient sum is
# treated as singular (the SVD completion is still accepted, only flagged).
_SINGULAR_RTOL = 1e-14

# Update norm ||U_new - U||_F below which the iteration has stalled. Absolute:
# the iterates are unitary whatever the states' scale.
_STALL_TOL = 1e-13

# Largest accepted n * entry scale L of a state. sqrt(2) L bounds the state's
# Frobenius norm. The objective is degree 2 in the states, but the residual
# squares the entries of U* m, whose norm is degree 2, so its sum of squares is
# degree 4: for unitary U, ||U* m||_F <= 2P ||sigma||_F ||rho||_F <= 4P L^2 over
# P pairs, and (4P L^2)^2 <= DBL_MAX (~1.8e308) needs L <= ~5.8e76 / sqrt(P).
# 1e75 keeps every squared norm finite for P up to about 3000.
_STATE_SCALE_LIMIT = 1e75


def _check_state_scale(bound: float, label: str) -> None:
    """The state rule's scale half: raise ValueError unless bound, a state's
    n * entry scale, is within _STATE_SCALE_LIMIT."""
    if bound > _STATE_SCALE_LIMIT:
        raise ValueError(
            f"{label} is too large: n * max entry = {bound:.1e} exceeds {_STATE_SCALE_LIMIT:.0e}"
        )


def _validated_state(m, label: str) -> np.ndarray:
    """square(m) under the one state rule: finite, Hermitian, positive
    semidefinite within 1e-10, and n * entry scale within _STATE_SCALE_LIMIT."""
    m = square(m)
    _check_state_scale(m.shape[0] * _check_hermitian(m, label), label)
    evals = np.linalg.eigvalsh(herm_part(m))
    if evals[0] < -1e-10 * np.abs(evals).max():
        cause = f"its smallest eigenvalue is {evals[0] / np.abs(evals).max():.3g} times its largest"
        raise ValueError(f"{label} is not positive semidefinite within 1e-10: {cause}")
    return m


@dataclass(frozen=True, eq=False)
class ChannelInstance:
    """One or more (input, output) Hermitian positive semidefinite state pairs.

    The pairs are checked once and cannot change afterwards: ``pairs`` is a
    tuple of frozen private copies (``matkit._freeze``), never the caller's arrays.
    """

    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("instance needs at least one state pair")
        checked = []
        n = None
        for k, (rho, sigma) in enumerate(self.pairs):
            rho = _validated_state(rho, f"rho[{k}]")
            sigma = _validated_state(sigma, f"sigma[{k}]")
            if rho.shape != sigma.shape:
                raise ValueError(f"pair {k}: rho is {rho.shape} but sigma is {sigma.shape}")
            if n is None:
                n = rho.shape[0]
            elif rho.shape[0] != n:
                raise ValueError(f"pair {k} has dimension {rho.shape[0]}, expected {n}")
            checked.append((_freeze(rho), _freeze(sigma)))
        object.__setattr__(self, "pairs", tuple(checked))

    @property
    def n(self) -> int:
        return self.pairs[0][0].shape[0]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap and objective threshold of the fixed-point solver, which
    starts at the identity and also stops when its update norm stalls below 1e-13."""

    max_iters: int = 5000
    # objective threshold at unit trace; solve rescales the objective by the pairs' trace
    tol: float = 1e-24

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        _check_tolerance(self.tol, "tol", positive=True)


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Per-iteration objective, update norm ||U_new - U||_F, and critical-point residual."""

    objective: np.ndarray
    step_norm: np.ndarray
    residual: np.ndarray

    def __len__(self) -> int:
        return int(self.objective.size)

    def monotone_violations(self) -> int:
        """Number of consecutive objective pairs that increase by more than 1e-12."""
        return int(np.count_nonzero(np.diff(self.objective) > 1e-12))


@dataclass(frozen=True, eq=False)
class SolveResult:
    u_hat: np.ndarray
    trace: IterationTrace
    status: str
    singular_steps: int = 0


def _as_instance(pairs) -> ChannelInstance:
    """pairs itself if a ChannelInstance, else one built from (so checked on) its raw pairs."""
    return pairs if isinstance(pairs, ChannelInstance) else ChannelInstance(list(pairs))


def _checked_pairs(u, pairs):
    """U as a square matrix, finite with no entry a unitary cannot have,
    checked before any product, and the pairs of ``_as_instance(pairs)``, of
    U's dimension. An instance's frozen pairs are taken as already checked."""
    u = _check_unitary(square(u), "U", exact=False)
    instance = _as_instance(pairs)
    if instance.n != u.shape[0]:
        raise ValueError(f"dimension mismatch between U {u.shape} and state pair 0")
    return u, instance.pairs


def _grad_objective(u, pairs) -> tuple[np.ndarray, float]:
    """Summed negative gradient sum_i 2 sigma_i U rho_i and summed objective
    sum_i 0.5 ||sigma_i - U rho_i U*||_F^2, sharing U rho_i between them.

    Three n x n products per pair, written into three n x n buffers that are
    allocated once per call and reused across the pairs, so a multi-pair call
    allocates nothing per pair. The products, their association and the pair
    order are those of the plain expressions u @ rho, sigma @ ur and
    sigma - ur @ uh, so the sums are bit for bit theirs. The objective is formed from the residual matrix
    sigma_i - (U rho_i) U*, never from the gradient as const - Re tr(U* m)/2,
    whose cancellation would leave ~1e-16 absolute accuracy against
    tolerances of 1e-24 and below.
    """
    uh = u.conj().T
    m = np.zeros_like(u)
    # C order whatever U's layout, as the plain products' own results: a
    # buffer in a Fortran-ordered U's layout changes the BLAS call and the bits
    ur = np.empty(u.shape, dtype=np.complex128)
    su, d = np.empty_like(ur), np.empty_like(ur)
    total = 0.0
    for rho, sigma in pairs:
        np.matmul(u, rho, out=ur)
        m += np.matmul(sigma, ur, out=su)
        np.subtract(sigma, np.matmul(ur, uh, out=d), out=d)
        total += 0.5 * np.vdot(d, d).real
    return np.multiply(2.0, m, out=m), float(total)


def _residual(u, m) -> float:
    """||skew(U* m)||_F for the summed negative gradient m at U."""
    return frob_norm(skew_part(u.conj().T @ m))


def objective(u, pair) -> float:
    """Misfit 0.5 ||sigma - U rho U*||_F^2 for a single (rho, sigma) pair."""
    return _grad_objective(*_checked_pairs(u, [pair]))[1]


def neg_gradient(u, pair) -> np.ndarray:
    """Negative Euclidean gradient of the pair objective: 2 sigma U rho."""
    return _grad_objective(*_checked_pairs(u, [pair]))[0]


def residual(u, pairs) -> float:
    """Norm of the tangent part of the pulled-back gradient: ||skew(U* sum_i grad_i)||_F.

    Zero exactly when U is a first-order critical point of the summed objective
    on the unitary group.
    """
    u, pairs = _checked_pairs(u, pairs)
    return _residual(u, _grad_objective(u, pairs)[0])


def step(u, pairs) -> np.ndarray:
    """One fixed-point update: the unitary polar factor of sum_i 2 sigma_i U rho_i."""
    return poldec(_grad_objective(*_checked_pairs(u, pairs))[0]).unitary


def solve(instance, config: SolverConfig | None = None) -> SolveResult:
    """Iterate the polar fixed-point update from the identity until the
    objective drops below tol * 4^k, the update norm stalls below _STALL_TOL
    (1e-13, absolute), or max_iters updates are done.

    2^k is the power of two nearest (on a log scale) the mean trace of the
    pairs' states, k = 0 when that mean is 0. The objective is homogeneous of
    degree 2 in the states and the update ignores a positive scale, so the
    objective stop is scale-free, and at unit trace tol is the plain threshold.
    The trace records the true objective at the start point (iteration 0 with
    step norm 0) and every subsequent iterate.
    """
    instance = _as_instance(instance)
    cfg = config if config is not None else SolverConfig()
    pairs = instance.pairs
    traces = [np.trace(m).real for pair in pairs for m in pair]
    mean_trace = sum(traces) / len(traces)
    k = round(math.log2(mean_trace)) if mean_trace > 0 else 0

    u = np.eye(instance.n, dtype=np.complex128)
    objs, steps, residuals = [], [], []
    dnorm = 0.0
    singular = 0
    status = STATUS_MAX_ITERS
    for it in range(cfg.max_iters + 1):  # one trace row per pass, row 0 at the start point
        if it:
            polar = poldec(m)
            svals = polar.singular_values
            singular += bool(svals[-1] <= svals[0] * _SINGULAR_RTOL)
            dnorm = frob_norm(polar.unitary - u)
            u = polar.unitary
        m, obj = _grad_objective(u, pairs)  # m is reused for the residual and the next update
        objs.append(obj)
        steps.append(dnorm)
        residuals.append(_residual(u, m))
        if math.ldexp(obj, -2 * k) < cfg.tol:
            status = STATUS_CONVERGED_TOL
            break
        if it and dnorm < _STALL_TOL:
            status = STATUS_CONVERGED_STALL
            break

    trace = IterationTrace(
        objective=np.asarray(objs, dtype=np.float64),
        step_norm=np.asarray(steps, dtype=np.float64),
        residual=np.asarray(residuals, dtype=np.float64),
    )
    return SolveResult(u_hat=u, trace=trace, status=status, singular_steps=singular)
