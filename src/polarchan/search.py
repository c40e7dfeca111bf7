"""Channel-search objective, its gradient, and the polar fixed-point solver.

The solver repeatedly replaces the current unitary with the polar factor of
the summed negative gradient, which is the closest unitary to that matrix
and never increases the single-pair objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkit import _check_hermitian, frob_norm, poldec, random_unitary, skew_part, square

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


def _validated_state(m, label: str) -> np.ndarray:
    m = square(m)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{label} has non-finite entries")
    _check_hermitian(m, label)
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    if evals[0] <= -1e-10 * max(abs(evals[-1]), 1e-300):
        raise ValueError(f"{label} is not positive definite within 1e-10")
    return m


@dataclass
class ChannelInstance:
    """One or more (input, output) Hermitian positive definite state pairs."""

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


@dataclass
class SolverConfig:
    """Termination and initialization knobs for the fixed-point solver."""

    max_iters: int = 5000
    tol: float = 1e-24
    stall_tol: float = 1e-13
    init: str = "identity"
    init_seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.stall_tol < 0:
            raise ValueError("stall_tol must be nonnegative")
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
        return int(np.count_nonzero(np.diff(self.objective) > slack))


@dataclass(frozen=True)
class SolveResult:
    u_hat: np.ndarray
    trace: IterationTrace
    status: str
    singular_steps: int = 0


def _pair_list(pairs):
    if isinstance(pairs, ChannelInstance):
        return pairs.pairs
    return [(square(r), square(s)) for r, s in pairs]


def _checked_pair(u, pair):
    u = square(u)
    rho, sigma = pair
    rho = square(rho)
    sigma = square(sigma)
    if rho.shape != u.shape or sigma.shape != u.shape:
        raise ValueError("dimension mismatch between U and the state pair")
    return u, [(rho, sigma)]


def _grad_sum(u, pairs) -> np.ndarray:
    m = np.zeros_like(u)
    for rho, sigma in pairs:
        m += sigma @ u @ rho
    return 2.0 * m


def _total_objective(u, pairs) -> float:
    uh = u.conj().T
    total = 0.0
    for rho, sigma in pairs:
        d = sigma - u @ rho @ uh
        total += 0.5 * np.real(np.vdot(d, d))
    return float(total)


def _residual(u, m) -> float:
    """||skew(U* m)||_F for the summed negative gradient m at U."""
    return frob_norm(skew_part(u.conj().T @ m))


def objective(u, pair) -> float:
    """Misfit 0.5 ||sigma - U rho U*||_F^2 for a single (rho, sigma) pair."""
    return _total_objective(*_checked_pair(u, pair))


def neg_gradient(u, pair) -> np.ndarray:
    """Negative Euclidean gradient of the pair objective: 2 sigma U rho."""
    return _grad_sum(*_checked_pair(u, pair))


def residual(u, pairs) -> float:
    """Norm of the tangent part of the pulled-back gradient: ||skew(U* sum_i grad_i)||_F.

    Zero exactly when U is a first-order critical point of the summed objective
    on the unitary group.
    """
    u = square(u)
    return _residual(u, _grad_sum(u, _pair_list(pairs)))


def step(u, pairs) -> np.ndarray:
    """One fixed-point update: the unitary polar factor of sum_i 2 sigma_i U rho_i."""
    u = square(u)
    return poldec(_grad_sum(u, _pair_list(pairs))).unitary


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

    m = _grad_sum(u, pairs)
    obj = _total_objective(u, pairs)
    objs = [obj]
    steps = [0.0]
    residuals = [_residual(u, m)]
    singular = 0

    status = STATUS_MAX_ITERS
    if obj < cfg.tol:
        status = STATUS_CONVERGED_TOL
    else:
        for _ in range(cfg.max_iters):
            w, svals, vh = np.linalg.svd(m)
            if svals[0] == 0.0 or svals[-1] <= svals[0] * _SINGULAR_RTOL:
                singular += 1
            u_next = w @ vh
            dnorm = frob_norm(u_next - u)
            u = u_next
            m = _grad_sum(u, pairs)  # reused for the residual and the next update
            obj = _total_objective(u, pairs)
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
