"""Channel-search objective, its gradient, and the polar fixed-point solver.

The solver repeatedly replaces the current unitary with the polar factor of
the summed negative gradient, which is the closest unitary to that matrix
and never increases the single-pair objective.

One iteration costs one n x n SVD (the polar factor), three n x n products
per pair (the gradient and the objective share U rho_i), and two more
products: U* m for the residual and W V* for the polar factor.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .matkit import (
    _check_hermitian,
    _check_tolerance,
    _entry_scale,
    frob_norm,
    herm_part,
    poldec,
    random_unitary,
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

# Largest accepted n * entry scale of a state. sqrt(2) times it bounds the
# state's Frobenius norm, so a pair's objective and gradient stay below ~4e300
# and the solver's squared norms cannot overflow.
_STATE_SCALE_LIMIT = 1e150


def _validated_state(m, label: str) -> np.ndarray:
    m = square(m)
    _check_hermitian(m, label)
    bound = m.shape[0] * _entry_scale(m)
    if bound > _STATE_SCALE_LIMIT:
        raise ValueError(
            f"{label} is too large: n * max entry = {bound:.1e} exceeds {_STATE_SCALE_LIMIT:.0e}"
        )
    evals = np.linalg.eigvalsh(herm_part(m))
    if evals[0] <= -1e-10 * max(abs(evals[-1]), 1e-300):
        raise ValueError(f"{label} is not positive semidefinite within 1e-10")
    return m


@dataclass
class ChannelInstance:
    """One or more (input, output) Hermitian positive semidefinite state pairs."""

    pairs: list[tuple[np.ndarray, np.ndarray]]

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
            checked.append((rho, sigma))
        self.pairs = checked

    @property
    def n(self) -> int:
        return self.pairs[0][0].shape[0]


@dataclass(frozen=True)
class SolverConfig:
    """Termination and initialization knobs for the fixed-point solver."""

    max_iters: int = 5000
    tol: float = 1e-24
    stall_tol: float = 1e-13
    init: str = "identity"
    init_seed: int = 0

    def __post_init__(self):
        for name in ("max_iters", "init_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.init_seed < 0:
            raise ValueError(f"init_seed must be nonnegative, got {self.init_seed}")
        _check_tolerance(self.tol, "tol", positive=True)
        _check_tolerance(self.stall_tol, "stall_tol")
        if self.init not in ("identity", "random"):
            raise ValueError(f"init must be 'identity' or 'random', got {self.init!r}")


@dataclass(frozen=True)
class IterationTrace:
    """Per-iteration objective, update norm ||U_new - U||_F, and critical-point residual."""

    objective: np.ndarray
    step_norm: np.ndarray
    residual: np.ndarray

    def __len__(self) -> int:
        return int(self.objective.size)

    def monotone_violations(self, slack: float = 1e-12) -> int:
        """Number of consecutive objective pairs that increase by more than slack."""
        _check_tolerance(slack, "slack")
        return int(np.count_nonzero(np.diff(self.objective) > slack))


@dataclass(frozen=True)
class SolveResult:
    u_hat: np.ndarray
    trace: IterationTrace
    status: str
    singular_steps: int = 0


def _checked_pairs(u, pairs):
    """U and its state pairs (a ChannelInstance or (rho, sigma) tuples) as
    square matrices, every state checked against U's dimension."""
    u = square(u)
    if isinstance(pairs, ChannelInstance):
        pairs = pairs.pairs
    checked = [(square(rho), square(sigma)) for rho, sigma in pairs]
    for k, (rho, sigma) in enumerate(checked):
        if rho.shape != u.shape or sigma.shape != u.shape:
            raise ValueError(f"dimension mismatch between U {u.shape} and state pair {k}")
    return u, checked


def _grad_objective(u, pairs) -> tuple[np.ndarray, float]:
    """Summed negative gradient sum_i 2 sigma_i U rho_i and summed objective
    sum_i 0.5 ||sigma_i - U rho_i U*||_F^2, sharing U rho_i between them.

    Three n x n products per pair. The objective is formed from the residual
    matrix sigma_i - (U rho_i) U*, never from the gradient as
    const - Re tr(U* m)/2, whose cancellation would leave ~1e-16 absolute
    accuracy against tolerances of 1e-24 and below.
    """
    uh = u.conj().T
    m = np.zeros_like(u)
    total = 0.0
    for rho, sigma in pairs:
        ur = u @ rho
        m += sigma @ ur
        d = sigma - ur @ uh
        total += 0.5 * np.real(np.vdot(d, d))
    return 2.0 * m, float(total)


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
    """Iterate the polar fixed-point update until the objective drops below tol,
    the update norm stalls below stall_tol, or max_iters is exhausted.

    The trace records the start point (iteration 0 with step norm 0) and every
    subsequent iterate.
    """
    if not isinstance(instance, ChannelInstance):
        instance = ChannelInstance(list(instance))
    cfg = config if config is not None else SolverConfig()
    pairs = instance.pairs
    n = instance.n

    if cfg.init == "identity":
        u = np.eye(n, dtype=np.complex128)
    else:
        u = random_unitary(n, cfg.init_seed)

    m, obj = _grad_objective(u, pairs)
    objs = [obj]
    steps = [0.0]
    residuals = [_residual(u, m)]
    singular = 0

    status = STATUS_MAX_ITERS
    if obj < cfg.tol:
        status = STATUS_CONVERGED_TOL
    else:
        for _ in range(cfg.max_iters):
            polar = poldec(m)
            svals = polar.singular_values
            singular += bool(svals[0] == 0.0 or svals[-1] <= svals[0] * _SINGULAR_RTOL)
            dnorm = frob_norm(polar.unitary - u)
            u = polar.unitary
            m, obj = _grad_objective(u, pairs)  # m is reused for the residual and the next update
            objs.append(obj)
            steps.append(dnorm)
            residuals.append(_residual(u, m))
            if obj < cfg.tol:
                status = STATUS_CONVERGED_TOL
                break
            if dnorm < cfg.stall_tol:
                status = STATUS_CONVERGED_STALL
                break

    trace = IterationTrace(
        objective=np.asarray(objs, dtype=np.float64),
        step_norm=np.asarray(steps, dtype=np.float64),
        residual=np.asarray(residuals, dtype=np.float64),
    )
    return SolveResult(u_hat=u, trace=trace, status=status, singular_steps=singular)
