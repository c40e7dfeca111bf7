"""Simulated measurement layer and the budgeted channel reconstruction pipeline.

The oracle hides a unitary U and answers expectation queries
Re tr(Phi(state) observable) against the channel Phi(rho) = U rho U*,
counting every query. ``ChannelOracle.expectation`` is the only measurement
primitive: state tomography and phase extraction both call it directly.
An observable goes in as its nonzero entries (rows, cols, weights) or as a
vector w standing for the rank-1 projector w w*. Tomography sends each of
its E+/E- observables as its two entries, so a query reads two entries of
the channel output. Phase extraction makes two rank-1 reads, Re w* Phi(s) w,
of one channel evaluation per phase. Its probe s is the traceless
(v_p v_q* + v_q v_p*)/2, and it reaches the oracle as its two vectors, a
``PhaseProbe``: the oracle evaluates Phi(s) = (x y* + y x*)/2, with x = U v_p
and y = U v_q, in O(n^2). Phase extraction builds no n x n probe and no
n x n projector. A full reconstruction spends n^2+n queries on state
tomography of one output state plus 2(n-1) queries on diagonal-phase
extraction, staying under the n^2+3n ceiling.

The oracle keeps its latest evaluation of a frozen state (``matkit._freeze``:
read-only down its whole ``.base`` chain, which ends in a ``bytes`` object,
so its entries can never change) or of a ``PhaseProbe``, whose vectors are
frozen. A repeat query on that same object reads the oracle's frozen output
without copying or coercing anything. Tomography freezes its input once and
phase extraction sends one probe for both of its queries. Any other state is
evaluated afresh.

A tomography query is therefore O(1) and costs only interpreter work: the
index check, two scalar entry reads and the counter, about 2 us at any n
(n=64, Python 3.11 on one core of a 2-core x86-64 VM). The queries go in a
fixed order, E+ then E- for each pair i <= j, pairs row-major.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .matkit import (
    _check_finite,
    _check_unitary,
    _child_seeds,
    _freeze,
    _is_frozen,
    _relative_eigengap,
    frob_norm,
    herm_part,
    hermitian_eig,
    random_density,
    square,
)
from .search import STATUS_MAX_ITERS, ChannelInstance, SolverConfig, SolveResult, _validated_state, solve

__all__ = [
    "ChannelOracle",
    "PhaseProbe",
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
# expectation's message when it is given other than one observable form.
_ONE_FORM = "give exactly one of entries and vector"
# Largest accepted entry scale L of a vector (an observable's or a probe's).
# Its squared norm is at most 2 n L^2, finite for every n below ~9e7. That
# bounds a probe's output entries, and a read Re w* Phi(s) w up to the
# state's norm, so neither overflows at any n the oracle can hold.
_VECTOR_SCALE_LIMIT = 1e150


class DegenerateStateError(ValueError):
    """Probe state has (numerically) repeated eigenvalues; its eigenbasis is unreliable."""


class ReconstructionError(RuntimeError):
    """Channel reconstruction failed (tomography output not a state, solver did
    not converge, or phases inconsistent)."""


def _check_indices(indices, n: int) -> None:
    """Raise ValueError naming the first index that is not an integer (bools
    excluded: numpy reads them as masks) in range(n)."""
    try:
        for k in indices:
            # plain ints in range pass at once; anything else meets the full rule
            if type(k) is not int or not 0 <= k < n:
                if isinstance(k, (bool, np.bool_)) or not 0 <= operator.index(k) < n:
                    break
        else:
            return
    except TypeError:
        pass
    raise ValueError(f"index {k!r} is not an integer in range({n})")


def _check_probe_indices(p, q, n: int) -> None:
    """The phase probe's index rule: p and q are distinct integers (not
    bools) in range(n)."""
    _check_indices((p, q), n)
    if p == q:
        raise ValueError(f"probe indices must be distinct columns, got {(p, q)}")


def _checked_vector(w, n: int, label: str) -> np.ndarray:
    """w as a complex128 vector under the one vector rule: length n, finite,
    and entry scale within _VECTOR_SCALE_LIMIT. It forms no product, so it
    runs before any product with w could overflow."""
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (n,):
        raise ValueError(f"{label} is {w.shape}, channel dimension is {n}")
    # one pass over the 2n real parts: a NaN propagates through the max, and
    # an infinity exceeds the limit
    scale = np.abs(np.ascontiguousarray(w).view(np.float64)).max()
    if not scale <= _VECTOR_SCALE_LIMIT:
        _check_finite(w, label)
        raise ValueError(f"{label} is too large: max entry {scale:.1e} exceeds {_VECTOR_SCALE_LIMIT:.0e}")
    return w


def _dense_probe(v_p: np.ndarray, v_q: np.ndarray) -> np.ndarray:
    """(v_p v_q* + v_q v_p*)/2 as an n x n matrix."""
    return herm_part(np.outer(v_p, v_q.conj()))


@dataclass(frozen=True, eq=False, init=False)
class PhaseProbe:
    """The phase probe (v_p v_q* + v_q v_p*)/2 of distinct columns p and q of
    v, held as frozen copies of its two vectors ``v_p`` and ``v_q``.

    It is checked once, where it is made: the index rule of ``probe_state``
    and the vector rule of ``ChannelOracle.expectation``. It is immutable, so
    the oracle can key its stored evaluation on the object.
    ``ChannelOracle.apply`` evaluates it in O(n^2) from its vectors; any
    other reader gets its dense form through ``np.asarray``, which equals
    ``probe_state(v, p, q)`` byte for byte.
    """

    v_p: np.ndarray
    v_q: np.ndarray

    def __init__(self, v, p: int, q: int):
        v = square(v)
        n = v.shape[0]
        _check_probe_indices(p, q, n)
        for name, k in (("v_p", p), ("v_q", q)):
            object.__setattr__(self, name, _freeze(_checked_vector(v[:, k], n, "probe vector")))

    def __array__(self, dtype=None, copy=None):
        dense = _dense_probe(self.v_p, self.v_q)
        return dense if dtype is None else dense.astype(dtype, copy=False)


def _weight(w) -> complex:
    """An entry weight as a Python complex. The conversion is exact for every
    Python and numpy number, so a float32 or complex64 weight widens to
    complex128 and never narrows the product. Strings are refused."""
    if isinstance(w, str):
        raise TypeError(f"weight {w!r} is not a number")
    return complex(w)


class ChannelOracle:
    """rho -> U rho U* for a hidden unitary U, with a monotone measurement counter.

    ``apply`` evaluates the channel directly (used for verification, never
    counted); ``expectation`` is the only measurement primitive, takes its
    observable as ``entries`` or as a rank-1 ``vector``, and increments the
    counter by exactly one per successful call. The oracle is for use from
    one thread.

    ``apply`` keeps its latest evaluation of a frozen input or a
    ``PhaseProbe`` (see the module docstring): a repeat query on that same
    object gets the stored frozen output itself, in O(1). Any other input is
    evaluated afresh. Counting does not depend on it: each ``expectation``
    calls ``apply`` and adds exactly one. A subclass that overrides ``apply``
    or ``expectation`` receives phase extraction's ``PhaseProbe`` as its
    state; ``np.asarray`` gives its dense form.
    """

    def __init__(self, hidden_u):
        u = _check_unitary(square(hidden_u), "hidden channel matrix", exact=True)
        self._u = u.copy()
        self._uh = self._u.conj().T
        self._queries = 0
        # (frozen input, frozen output) of the latest evaluation of a frozen
        # state; read once, replaced whole.
        self._last: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self._u.shape[0]

    @property
    def queries(self) -> int:
        return self._queries

    def apply(self, state) -> np.ndarray:
        """Evaluate Phi(state) = U state U* (not a measurement): a fresh array, or
        for a frozen state or a ``PhaseProbe`` the oracle's frozen output. A
        non-finite state raises before it is evaluated or stored.

        A ``PhaseProbe`` is evaluated from its vectors in O(n^2): two matvecs
        x = U v_p and y = U v_q, then (x y* + y x*)/2 as one product of two
        n x 2 matrices. No n x n probe is formed."""
        last = self._last
        # only a frozen or PhaseProbe input, checked and of the channel's
        # shape, is stored, so the same object is unchanged and needs no
        # coercion
        if last is not None and state is last[0]:
            return last[1]
        if isinstance(state, PhaseProbe):
            n = state.v_p.shape[0]
            if n != self.dim:
                raise ValueError(f"state is {(n, n)}, channel dimension is {self.dim}")
            pair = np.empty((n, 2), dtype=np.complex128)
            pair[:, 0] = self._u @ state.v_p
            pair[:, 1] = self._u @ state.v_q
            # P Q* with P = [x y] and Q = [y x]: x y* + y x*, halved exactly
            swapped = np.ascontiguousarray(pair[:, ::-1])
            out = pair @ swapped.conj().T
            out = _freeze(np.multiply(0.5, out, out=out))
            self._last = (state, out)
            return out
        s = square(state)
        if s.shape != self._u.shape:
            raise ValueError(f"state is {s.shape}, channel dimension is {self.dim}")
        _check_finite(s, "state")
        out = self._u @ s @ self._uh
        if _is_frozen(s):
            out = _freeze(out)
            self._last = (s, out)
        return out

    def expectation(self, state, *, entries=None, vector=None) -> float:
        """One measurement: Re tr(Phi(state) observable).

        The observable comes in exactly one of two forms, each by keyword:

        - ``entries=(rows, cols, weights)``, its nonzero entries, with
          observable[rows[k], cols[k]] = weights[k] (repeated positions add).
          Only those entries of Phi(state) are read. Entry indices are
          integers (not bools) in range. Each weight is taken as an exact
          complex128 value whatever its type (a float32 or complex64 weight
          widens, so the product is never narrowed) and the value sums
          Re(Phi(state)[col, row] * weight) in complex128 arithmetic; a
          non-numeric weight raises TypeError;
        - ``vector=w``, a length-n vector standing for the rank-1 projector
          w w*: the value is Re w* Phi(state) w, one O(n^2) product with no
          n x n observable built. w must have finite entries with no real or
          imaginary part beyond 1e150 in size, the same rule as a
          ``PhaseProbe``'s vectors, so its squared norm cannot overflow.

        The state is a matrix or a ``PhaseProbe``, which phase extraction
        sends for both of its reads and the oracle evaluates in O(n^2).
        A non-finite state or expectation value raises. A call that raises
        is not counted; a bad ``entries`` or ``vector`` raises before the
        channel is evaluated.
        """
        if entries is not None:
            # tomography's path: the form check costs it one identity test
            if vector is not None:
                raise ValueError(_ONE_FORM)
            rows, cols, weights = entries
            if not len(rows) == len(cols) == len(weights):
                raise ValueError("entries need rows, cols and weights of equal length")
            n = self._u.shape[0]
            _check_indices(rows, n)
            _check_indices(cols, n)
            out = self.apply(state)
            value = 0.0
            for r, c, w in zip(rows, cols, weights):
                if type(w) is not complex:
                    w = _weight(w)
                value += (out.item(c, r) * w).real
        elif vector is None:
            raise ValueError(_ONE_FORM)
        else:
            w = _checked_vector(vector, self.dim, "vector")
            out = self.apply(state)
            value = float(np.vdot(w, out @ w).real)
        if not math.isfinite(value):
            raise ValueError(f"expectation value is {value}, not finite")
        self._queries += 1
        return value


def state_tomography(oracle: ChannelOracle, input_state) -> np.ndarray:
    """Reconstruct Phi(input_state) entrywise from exactly n^2+n measurements.

    For each pair i <= j the symmetric observable yields Re(out_ij) and the
    antisymmetric one yields -Im(out_ij); the diagonal antisymmetric queries
    carry no information but are performed to match the standard operator
    count. The queries go in a fixed order: E+ then E- of each pair, pairs
    row-major. Each is one ``expectation`` call that reads two entries of the
    oracle's stored output, O(1) at any n (see the module docstring). The
    output is Hermitian under any oracle: the diagonal takes E+ alone.
    """
    n = oracle.dim
    expectation = oracle.expectation
    # one frozen copy for every query, so each repeat costs O(1) in the oracle
    state = _freeze(input_state)
    # complex weights take the oracle's exact fast path
    plus, minus = (0.5 + 0j, 0.5 + 0j), (-0.5j, 0.5j)
    plan = (((i, j), (j, i), w) for i in range(n) for j in range(i, n) for w in (plus, minus))
    readings = np.fromiter((expectation(state, entries=e) for e in plan), dtype=np.float64)
    mp, mm = readings[0::2], readings[1::2]
    rows, cols = np.triu_indices(n)
    out = np.zeros((n, n), dtype=np.complex128)
    out[rows, cols] = mp - 1j * mm
    out[cols, rows] = mp + 1j * mm
    np.fill_diagonal(out.imag, 0.0)
    return out


def probe_state(v, p: int, q: int) -> np.ndarray:
    """The phase probe for distinct columns p and q of v: the Hermitian part
    of their cross term,

        (v_p v_q* + v_q v_p*)/2.

    It is traceless with eigenvalues +-1/2 and n-2 zeros, so it is not a
    state; that is harmless because the simulated channel is linear on
    Hermitian matrices. This is the dense definition; phase extraction sends
    the same probe as a ``PhaseProbe``, whose dense form equals it byte for
    byte.
    """
    v = square(v)
    _check_probe_indices(p, q, v.shape[0])
    return _dense_probe(v[:, p], v[:, q])


def extract_phase_product(oracle: ChannelOracle, u0, v, p: int, q: int) -> complex:
    """Recover alpha = d_p conj(d_q) of the hidden diagonal phases in two queries.

    When u0 solves the single-pair problem for a state with eigenbasis V, the
    hidden unitary factors as U = u0 V diag(d) V*, so the channel maps
    v_p v_q* to d_p conj(d_q) (u0 v_p)(u0 v_q)*. Both queries measure the one
    probe of ``probe_state``, sent as a ``PhaseProbe`` of its two vectors, as
    a rank-1 read: projecting its channel output onto
    w = u0 (v_p + v_q)/sqrt(2) reads Re(alpha)/2, and onto
    w' = u0 (v_p + i v_q)/sqrt(2) reads -Im(alpha)/2. Each read is
    Re w* Phi(probe) w, so no n x n probe or projector is built. The second
    query repeats the first one's input, so the oracle evaluates the channel
    once per call, in O(n^2).
    """
    u0 = square(u0)
    v = square(v)
    if u0.shape != v.shape:
        raise ValueError("u0 and v must have the same shape")
    probe = PhaseProbe(v, p, q)
    w = u0 @ (v[:, p] + v[:, q]) / np.sqrt(2.0)
    w_i = u0 @ (v[:, p] + 1j * v[:, q]) / np.sqrt(2.0)
    m_re = oracle.expectation(probe, vector=w)
    m_im = oracle.expectation(probe, vector=w_i)
    alpha = complex(2.0 * (m_re - 1j * m_im))
    if abs(abs(alpha) - 1.0) > ALPHA_UNIT_TOL:
        raise ReconstructionError(
            f"phase product for pair ({p}, {q}) has modulus {abs(alpha):.6f}; "
            "u0 is inconsistent with the channel (unconverged solve or degenerate probe state)"
        )
    return alpha


@dataclass(frozen=True, eq=False)
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

    rho0 is checked before any query, by ``ChannelInstance``'s state rule
    plus unit trace within 1e-10 and distinct eigenvalues; a rank-deficient
    probe passes.

    Pipeline: tomograph sigma0 = Phi(rho0) (n^2+n queries), solve the
    single-pair problem to get u0, then fix d_0 = 1 and extract the remaining
    diagonal phases against the eigenbasis of rho0 (one probe, 2 queries per
    phase, 2(n-1) total). The recovered matrix u0 V diag(d) V* equals the hidden
    unitary up to a global phase and is checked against the channel on five
    random test states via direct evaluation (not counted). A tomography
    output that fails the state rule (only an inexact oracle can return one)
    raises ``ReconstructionError``.

    ``solver_config`` defaults to ``SolverConfig(tol=RECONSTRUCT_TOL)``, a
    tighter tolerance than the solver's own default so phase extraction
    retains roughly four digits of headroom.
    """
    n = oracle.dim
    rho0 = _validated_state(rho0, "rho0")
    if rho0.shape[0] != n:
        raise ValueError(f"rho0 is {rho0.shape}, channel dimension is {n}")
    if abs(np.trace(rho0) - 1) > 1e-10:
        raise ValueError(f"rho0 has trace {np.trace(rho0).real:.6g}, not 1 within 1e-10")
    eig = hermitian_eig(rho0)
    eigengap = _relative_eigengap(eig.eigenvalues)
    if eigengap <= EIGENGAP_FLOOR:
        raise DegenerateStateError(
            f"degenerate state: relative eigengap {eigengap:.2e} is below {EIGENGAP_FLOOR:.0e}"
        )
    v = eig.eigenvectors

    start = oracle.queries
    sigma0 = state_tomography(oracle, rho0)
    tomography_queries = oracle.queries - start
    try:
        instance = ChannelInstance([(rho0, sigma0)])
    except ValueError as exc:
        # rho0 passed this rule above, so the tomography output failed it
        raise ReconstructionError(f"tomography output Phi(rho0) fails the state rule: {exc}") from exc
    cfg = solver_config if solver_config is not None else SolverConfig(tol=RECONSTRUCT_TOL)
    result = solve(instance, cfg)
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
