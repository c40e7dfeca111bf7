"""Simulated measurement layer and the budgeted channel reconstruction pipeline.

The oracle hides a unitary U and answers expectation queries
Re tr(Phi(state) observable) against the channel Phi(rho) = U rho U*,
counting every query. A full reconstruction spends n^2+n queries on state
tomography of one output state plus 2(n-1) queries on diagonal-phase
extraction, staying under the n^2+3n ceiling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .matkit import frob_norm, hermitian_eig, random_density, square, unitarity_defect
from .search import STATUS_MAX_ITERS, ChannelInstance, SolverConfig, SolveResult, solve

__all__ = [
    "ChannelOracle",
    "Observable",
    "ReconstructionReport",
    "DegenerateStateError",
    "ReconstructionError",
    "basis_observables",
    "measure",
    "state_tomography",
    "probe_states",
    "extract_phase_product",
    "reconstruct",
]

# Probe states below this relative eigengap give a numerically unreliable eigenbasis.
EIGENGAP_FLOOR = 1e-8
# Extracted phase products must be unimodular to this tolerance.
ALPHA_UNIT_TOL = 1e-3


class DegenerateStateError(ValueError):
    """Probe state has (numerically) repeated eigenvalues; its eigenbasis is unreliable."""


class ReconstructionError(RuntimeError):
    """Channel reconstruction failed (solver did not converge, or phases inconsistent)."""


class ChannelOracle:
    """rho -> U rho U* for a hidden unitary U, with a monotone measurement counter.

    ``apply`` evaluates the channel directly (used for verification, never
    counted); ``expectation`` is the only measurement primitive and increments
    the counter by exactly one per call, atomically.
    """

    def __init__(self, hidden_u):
        u = square(hidden_u)
        if unitarity_defect(u) > 1e-10:
            raise ValueError("hidden channel matrix is not unitary within 1e-10")
        self._u = u.copy()
        self._queries = 0
        self._lock = threading.Lock()

    @property
    def dim(self) -> int:
        return self._u.shape[0]

    @property
    def queries(self) -> int:
        return self._queries

    def apply(self, state) -> np.ndarray:
        """Evaluate Phi(state) = U state U* (not a measurement)."""
        s = square(state)
        if s.shape != self._u.shape:
            raise ValueError(f"state is {s.shape}, channel dimension is {self.dim}")
        return self._u @ s @ self._u.conj().T

    def expectation(self, state, observable) -> float:
        """One measurement: Re tr(Phi(state) observable)."""
        out = self.apply(state)
        obs = square(observable)
        if obs.shape != out.shape:
            raise ValueError(f"observable is {obs.shape}, channel dimension is {self.dim}")
        with self._lock:
            self._queries += 1
        return float(np.real(np.trace(out @ obs)))


@dataclass(frozen=True)
class Observable:
    """Hermitian measurement operator with a bookkeeping label."""

    matrix: np.ndarray
    label: str


def _e_plus(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, j] += 0.5
    m[j, i] += 0.5
    return m


def _e_minus(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.complex128)
    if i != j:
        m[i, j] = -0.5j
        m[j, i] = 0.5j
    return m


def basis_observables(n: int) -> list[Observable]:
    """The n^2+n state-tomography observables.

    For every index pair i <= j in row-major order: first all symmetric
    combinations (e_i e_j^T + e_j e_i^T)/2, then all antisymmetric ones
    (e_i e_j^T - e_j e_i^T)/2i. The diagonal antisymmetric operators are zero
    matrices; they are kept so the list length matches the n^2+n measurement
    count of the per-entry protocol.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    out = []
    for i in range(n):
        for j in range(i, n):
            out.append(Observable(_e_plus(n, i, j), f"E+_{i}_{j}"))
    for i in range(n):
        for j in range(i, n):
            out.append(Observable(_e_minus(n, i, j), f"E-_{i}_{j}"))
    return out


def measure(oracle: ChannelOracle, input_state, obs: Observable) -> float:
    """Expectation of one observable on the channel output for input_state.

    Real because both the output state and the observable are Hermitian;
    costs exactly one budget unit.
    """
    return oracle.expectation(input_state, obs.matrix)


def state_tomography(oracle: ChannelOracle, input_state) -> np.ndarray:
    """Reconstruct Phi(input_state) entrywise from exactly n^2+n measurements.

    For each pair i <= j the symmetric observable yields Re(out_ij) and the
    antisymmetric one yields -Im(out_ij); the diagonal antisymmetric queries
    carry no information but are performed to match the standard operator
    count. The output is Hermitian by construction.
    """
    n = oracle.dim
    out = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i, n):
            mp = measure(oracle, input_state, Observable(_e_plus(n, i, j), f"E+_{i}_{j}"))
            mm = measure(oracle, input_state, Observable(_e_minus(n, i, j), f"E-_{i}_{j}"))
            if i == j:
                out[i, i] = mp
            else:
                out[i, j] = mp - 1j * mm
                out[j, i] = mp + 1j * mm
    return out


def probe_states(v, p: int, q: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchored phase probes built from columns of v:

        plus  = v_r v_r* + (v_p v_q* + v_q v_p*)/2
        minus = v_r v_r* + (v_p v_q* - v_q v_p*)/2i

    Both are Hermitian with unit trace (the cross terms are traceless). They
    are not positive semidefinite: the cross block has eigenvalues +-1/2,
    which is harmless because the simulated channel is linear on Hermitian
    matrices.
    """
    v = square(v)
    n = v.shape[0]
    if len({p, q, r}) != 3:
        raise ValueError(f"probe indices must be pairwise distinct, got ({p}, {q}, {r})")
    for idx in (p, q, r):
        if not 0 <= idx < n:
            raise ValueError(f"probe index {idx} out of range for dimension {n}")
    return _probes(v, p, q, r)


def _probes(v, p: int, q: int, r: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The probe_states pair, anchored on column r unless r is None."""
    cross = np.outer(v[:, p], v[:, q].conj())
    plus = 0.5 * (cross + cross.conj().T)
    minus = (cross - cross.conj().T) / 2j
    if r is None:
        return plus, minus
    anchor = np.outer(v[:, r], v[:, r].conj())
    return anchor + plus, anchor + minus


def extract_phase_product(oracle: ChannelOracle, u0, v, p: int, q: int, r: int | None = None) -> complex:
    """Recover alpha = d_p conj(d_q) of the hidden diagonal phases in two queries.

    When u0 solves the single-pair problem for a state with eigenbasis V, the
    hidden unitary factors as U = u0 V diag(d) V*, so the channel maps
    v_p v_q* to d_p conj(d_q) (u0 v_p)(u0 v_q)*. Projecting the channel output
    of the two probes onto w = u0 (v_p + v_q)/sqrt(2) reads off Re(alpha)/2
    and Im(alpha)/2. The anchor column v_r (r distinct from p and q, smallest
    such index by default) keeps the probes unit-trace and contributes nothing
    to either expectation; at n == 2 no third index exists and the anchor is
    dropped, which leaves the extracted value unchanged.
    """
    u0 = square(u0)
    v = square(v)
    n = v.shape[0]
    if u0.shape != v.shape:
        raise ValueError("u0 and v must have the same shape")
    if p == q:
        raise ValueError("phase-product indices must differ")
    for idx in (p, q):
        if not 0 <= idx < n:
            raise ValueError(f"index {idx} out of range for dimension {n}")
    if n >= 3:
        if r is None:
            r = min(k for k in range(n) if k not in (p, q))
        plus, minus = probe_states(v, p, q, r)
    else:
        plus, minus = _probes(v, p, q, None)
    w = (u0 @ (v[:, p] + v[:, q])) / np.sqrt(2.0)
    proj = Observable(np.outer(w, w.conj()), "probe")
    m_plus = measure(oracle, plus, proj)
    m_minus = measure(oracle, minus, proj)
    alpha = complex(2.0 * (m_plus + 1j * m_minus))
    if abs(abs(alpha) - 1.0) > ALPHA_UNIT_TOL:
        raise ReconstructionError(
            f"phase product for pair ({p}, {q}) has modulus {abs(alpha):.6f}; "
            "u0 is inconsistent with the channel (unconverged solve or degenerate probe state)"
        )
    return alpha


@dataclass(frozen=True)
class ReconstructionReport:
    """Everything a full channel recovery produces, including its query budget
    and the single-pair solve (status, iteration trace, singular steps)."""

    u0: np.ndarray
    v: np.ndarray
    d: np.ndarray
    u_recovered: np.ndarray
    budget_used: int
    eigengap: float
    residual_on_tests: float
    solve: SolveResult


def reconstruct(
    oracle: ChannelOracle,
    rho0,
    solver_config: SolverConfig | None = None,
    check_seed: int = 0,
) -> ReconstructionReport:
    """Recover the hidden unitary from one non-degenerate probe state.

    Pipeline: tomograph sigma0 = Phi(rho0) (n^2+n queries), solve the
    single-pair problem to get u0, then fix d_0 = 1 and extract the remaining
    diagonal phases against the eigenbasis of rho0 (2 queries per phase,
    2(n-1) total). The recovered matrix u0 V diag(d) V* equals the hidden
    unitary up to a global phase and is checked against the channel on five
    random test states via direct evaluation (not counted).

    ``solver_config`` defaults to a tighter tolerance than the solver's own
    default so phase extraction retains roughly four digits of headroom.
    """
    n = oracle.dim
    rho0 = square(rho0)
    if rho0.shape[0] != n:
        raise ValueError(f"rho0 is {rho0.shape}, channel dimension is {n}")
    eig = hermitian_eig(rho0)
    w = eig.eigenvalues
    if w[-1] <= 0:
        raise ValueError("rho0 must be positive definite")
    if n >= 2:
        span = float(w[0] - w[-1])
        min_gap = float(np.min(-np.diff(w)))
        if span <= 0 or min_gap <= EIGENGAP_FLOOR * span:
            raise DegenerateStateError(
                f"degenerate state: relative eigengap {0.0 if span <= 0 else min_gap / span:.2e} "
                f"is below {EIGENGAP_FLOOR:.0e}"
            )
        eigengap = min_gap / span
    else:
        eigengap = float("inf")
    v = eig.eigenvectors

    start = oracle.queries
    sigma0 = state_tomography(oracle, rho0)
    cfg = solver_config if solver_config is not None else SolverConfig(tol=1e-28)
    result = solve(ChannelInstance([(rho0, sigma0)]), cfg)
    if result.status == STATUS_MAX_ITERS:
        raise ReconstructionError(
            f"solver hit the iteration cap with objective {result.trace.objective[-1]:.3e}"
        )
    u0 = result.u_hat

    d = np.ones(n, dtype=np.complex128)
    for q in range(1, n):
        d[q] = np.conjugate(extract_phase_product(oracle, u0, v, 0, q))
    u_recovered = u0 @ (v * d[np.newaxis, :]) @ v.conj().T
    budget_used = oracle.queries - start

    worst = 0.0
    for s in np.random.SeedSequence(check_seed).generate_state(5):
        rho_t = random_density(n, int(s))
        resid = frob_norm(oracle.apply(rho_t) - u_recovered @ rho_t @ u_recovered.conj().T)
        worst = max(worst, resid)

    return ReconstructionReport(
        u0=u0,
        v=v,
        d=d,
        u_recovered=u_recovered,
        budget_used=budget_used,
        eigengap=float(eigengap),
        residual_on_tests=float(worst),
        solve=result,
    )
