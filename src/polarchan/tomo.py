"""Simulated measurement layer and the budgeted channel reconstruction pipeline.

The oracle hides a unitary U and answers expectation queries
Re tr(Phi(state) observable) against the channel Phi(rho) = U rho U*,
counting every query. ``ChannelOracle.expectation`` is the only measurement
primitive: state tomography and phase extraction both call it directly.
An observable goes in as a dense matrix or as its nonzero entries
(rows, cols, weights); tomography sends each of its E+/E- observables as
its two entries, so a query reads two entries of the channel output, and
phase extraction reads one probe state per phase through two dense
projectors, one channel evaluation per phase. A full reconstruction spends
n^2+n queries on state tomography of one output state plus 2(n-1) queries
on diagonal-phase extraction, staying under the n^2+3n ceiling.

A query on the state just evaluated still costs O(n^2): the oracle
serialises the state, compares it byte for byte with its previous input, and
copies the stored output.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .matkit import (
    _child_seeds,
    _entry_scale,
    _relative_eigengap,
    frob_norm,
    hermitian_eig,
    random_density,
    square,
    unitarity_defect,
)
from .search import STATUS_MAX_ITERS, ChannelInstance, SolverConfig, SolveResult, solve

__all__ = [
    "ChannelOracle",
    "ReconstructionReport",
    "DegenerateStateError",
    "ReconstructionError",
    "state_tomography",
    "probe_state",
    "extract_phase_product",
    "reconstruct",
]

# Probe states below this relative eigengap give a numerically unreliable eigenbasis.
EIGENGAP_FLOOR = 1e-8
# Extracted phase products must be unimodular to this tolerance.
ALPHA_UNIT_TOL = 1e-3
# reconstruct's solver tolerance: ~4 digits of phase headroom below the solve default.
RECONSTRUCT_TOL = 1e-28
# Seed of the five random test states reconstruct checks its result on.
CHECK_SEED = 0


class DegenerateStateError(ValueError):
    """Probe state has (numerically) repeated eigenvalues; its eigenbasis is unreliable."""


class ReconstructionError(RuntimeError):
    """Channel reconstruction failed (solver did not converge, or phases inconsistent)."""


def _check_indices(indices, n: int) -> None:
    """Raise ValueError naming the first index that is not an integer (bools
    excluded: numpy reads them as masks) in range(n)."""
    try:
        for k in indices:
            if type(k) is bool or not 0 <= operator.index(k) < n:
                break
        else:
            return
    except TypeError:
        pass
    raise ValueError(f"index {k!r} is not an integer in range({n})")


class ChannelOracle:
    """rho -> U rho U* for a hidden unitary U, with a monotone measurement counter.

    ``apply`` evaluates the channel directly (used for verification, never
    counted); ``expectation`` is the only measurement primitive and increments
    the counter by exactly one per successful call. The oracle is for use from
    one thread.

    ``apply`` reuses its latest evaluation: when the input matches the
    previous one byte for byte it returns a copy of the stored output, so a
    repeated query on one state costs O(n^2) after the first: serialising and
    comparing the key, and copying the output. Counting does not depend on it:
    each ``expectation`` calls ``apply`` and adds exactly one.
    """

    def __init__(self, hidden_u):
        u = square(hidden_u)
        # a unitary has no entry beyond 1 + 1e-10: checking that first keeps
        # U*U from overflowing
        if not (
            np.isfinite(u).all() and _entry_scale(u) <= 1 + 1e-10 and unitarity_defect(u) <= 1e-10
        ):
            raise ValueError("hidden channel matrix is not unitary within 1e-10")
        self._u = u.copy()
        self._uh = self._u.conj().T
        self._queries = 0
        # (input bytes, output) of the latest evaluation; read once, replaced whole.
        self._last: tuple[bytes, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self._u.shape[0]

    @property
    def queries(self) -> int:
        return self._queries

    def apply(self, state) -> np.ndarray:
        """Evaluate Phi(state) = U state U* (not a measurement); always a fresh array."""
        s = square(state)
        if s.shape != self._u.shape:
            raise ValueError(f"state is {s.shape}, channel dimension is {self.dim}")
        key = s.tobytes()
        last = self._last
        if last is not None and last[0] == key:
            return last[1].copy()
        out = self._u @ s @ self._uh
        self._last = (key, out)
        return out.copy()

    def expectation(self, state, observable=None, *, entries=None) -> float:
        """One measurement: Re tr(Phi(state) observable).

        Give the observable either as a matrix or as its nonzero entries,
        ``entries=(rows, cols, weights)`` with observable[rows[k], cols[k]] =
        weights[k] (repeated positions add); the entries form reads only
        those entries of Phi(state). Exactly one of the two forms is allowed;
        entry indices are integers (not bools) in range. A call that raises
        is not counted.
        """
        if (observable is None) == (entries is None):
            raise ValueError("give exactly one of observable and entries")
        if entries is None:
            out = self.apply(state)
            obs = square(observable)
            if obs.shape != out.shape:
                raise ValueError(f"observable is {obs.shape}, channel dimension is {self.dim}")
            # sum_ij out_ij obs_ji, without forming the product
            value = np.vdot(obs.T.conj(), out)
        else:
            rows, cols, weights = entries
            if not len(rows) == len(cols) == len(weights):
                raise ValueError("entries need rows, cols and weights of equal length")
            _check_indices((*rows, *cols), self._u.shape[0])
            out = self.apply(state)
            value = 0
            for r, c, w in zip(rows, cols, weights):
                value = value + out[c, r] * w
        value = float(value.real)
        self._queries += 1
        return value


def state_tomography(oracle: ChannelOracle, input_state) -> np.ndarray:
    """Reconstruct Phi(input_state) entrywise from exactly n^2+n measurements.

    For each pair i <= j the symmetric observable yields Re(out_ij) and the
    antisymmetric one yields -Im(out_ij); the diagonal antisymmetric queries
    carry no information but are performed to match the standard operator
    count. The output is Hermitian by construction.
    """
    n = oracle.dim
    out = np.zeros((n, n), dtype=np.complex128)
    expectation = oracle.expectation
    for i in range(n):
        for j in range(i, n):
            mp = expectation(input_state, entries=((i, j), (j, i), (0.5, 0.5)))
            mm = expectation(input_state, entries=((i, j), (j, i), (-0.5j, 0.5j)))
            if i == j:
                out[i, i] = mp
            else:
                out[i, j] = mp - 1j * mm
                out[j, i] = mp + 1j * mm
    return out


def probe_state(v, p: int, q: int) -> np.ndarray:
    """The phase probe for columns p and q of v, anchored on column r:

        v_r v_r* + (v_p v_q* + v_q v_p*)/2

    with r the smallest index other than p and q. The indices p and q must be
    distinct columns of v. At n >= 3 the probe is Hermitian with unit trace
    (the cross term is traceless); at n == 2 no anchor exists and the probe is
    the bare, traceless cross term. It is not positive semidefinite: the cross
    term has eigenvalues +-1/2, which is harmless because the simulated
    channel is linear on Hermitian matrices.
    """
    v = square(v)
    n = v.shape[0]
    _check_indices((p, q), n)
    if p == q:
        raise ValueError(f"probe indices must be distinct columns, got {(p, q)}")
    cross = np.outer(v[:, p], v[:, q].conj())
    plus = 0.5 * (cross + cross.conj().T)
    if n == 2:
        return plus
    r = min(k for k in range(n) if k not in (p, q))
    return np.outer(v[:, r], v[:, r].conj()) + plus


def extract_phase_product(oracle: ChannelOracle, u0, v, p: int, q: int) -> complex:
    """Recover alpha = d_p conj(d_q) of the hidden diagonal phases in two queries.

    When u0 solves the single-pair problem for a state with eigenbasis V, the
    hidden unitary factors as U = u0 V diag(d) V*, so the channel maps
    v_p v_q* to d_p conj(d_q) (u0 v_p)(u0 v_q)*. Both queries measure the one
    ``probe_state``: projecting its channel output onto w = u0 (v_p + v_q)/sqrt(2)
    reads Re(alpha)/2, and onto w' = u0 (v_p + i v_q)/sqrt(2) reads -Im(alpha)/2.
    The anchor column contributes nothing to either expectation. The second
    query repeats the first one's input, so the oracle evaluates the channel
    once per call.
    """
    u0 = square(u0)
    v = square(v)
    if u0.shape != v.shape:
        raise ValueError("u0 and v must have the same shape")
    probe = probe_state(v, p, q)
    w = u0 @ (v[:, p] + v[:, q]) / np.sqrt(2.0)
    w_i = u0 @ (v[:, p] + 1j * v[:, q]) / np.sqrt(2.0)
    m_re = oracle.expectation(probe, np.outer(w, w.conj()))
    m_im = oracle.expectation(probe, np.outer(w_i, w_i.conj()))
    alpha = complex(2.0 * (m_re - 1j * m_im))
    if abs(abs(alpha) - 1.0) > ALPHA_UNIT_TOL:
        raise ReconstructionError(
            f"phase product for pair ({p}, {q}) has modulus {abs(alpha):.6f}; "
            "u0 is inconsistent with the channel (unconverged solve or degenerate probe state)"
        )
    return alpha


@dataclass(frozen=True)
class ReconstructionReport:
    """Everything a full channel recovery produces, including its query budget
    (in total and per stage: tomography, phases) and the single-pair solve
    (status, iteration trace, singular steps)."""

    u0: np.ndarray
    v: np.ndarray
    d: np.ndarray
    u_recovered: np.ndarray
    budget_used: int
    tomography_queries: int
    phase_queries: int
    eigengap: float
    residual_on_tests: float
    solve: SolveResult


def reconstruct(
    oracle: ChannelOracle,
    rho0,
    solver_config: SolverConfig | None = None,
) -> ReconstructionReport:
    """Recover the hidden unitary from one non-degenerate probe state.

    Pipeline: tomograph sigma0 = Phi(rho0) (n^2+n queries), solve the
    single-pair problem to get u0, then fix d_0 = 1 and extract the remaining
    diagonal phases against the eigenbasis of rho0 (one probe, 2 queries per
    phase, 2(n-1) total). The recovered matrix u0 V diag(d) V* equals the hidden
    unitary up to a global phase and is checked against the channel on five
    random test states via direct evaluation (not counted).

    ``solver_config`` defaults to ``SolverConfig(tol=RECONSTRUCT_TOL)``, a
    tighter tolerance than the solver's own default so phase extraction
    retains roughly four digits of headroom.
    """
    n = oracle.dim
    rho0 = square(rho0)
    if rho0.shape[0] != n:
        raise ValueError(f"rho0 is {rho0.shape}, channel dimension is {n}")
    eig = hermitian_eig(rho0)
    if eig.eigenvalues[-1] <= 0:
        raise ValueError("rho0 must be positive definite")
    eigengap = _relative_eigengap(eig.eigenvalues)
    if eigengap <= EIGENGAP_FLOOR:
        raise DegenerateStateError(
            f"degenerate state: relative eigengap {eigengap:.2e} is below {EIGENGAP_FLOOR:.0e}"
        )
    v = eig.eigenvectors

    start = oracle.queries
    sigma0 = state_tomography(oracle, rho0)
    tomography_queries = oracle.queries - start
    cfg = solver_config if solver_config is not None else SolverConfig(tol=RECONSTRUCT_TOL)
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
    for s in _child_seeds(CHECK_SEED, 5):
        rho_t = random_density(n, s)
        resid = frob_norm(oracle.apply(rho_t) - u_recovered @ rho_t @ u_recovered.conj().T)
        worst = max(worst, resid)

    return ReconstructionReport(
        u0=u0,
        v=v,
        d=d,
        u_recovered=u_recovered,
        budget_used=budget_used,
        tomography_queries=tomography_queries,
        phase_queries=budget_used - tomography_queries,
        eigengap=float(eigengap),
        residual_on_tests=float(worst),
        solve=result,
    )
