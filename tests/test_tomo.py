import re
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polarchan.equiv import normalized_diff
from polarchan.harness import EX2_SOLVER, build_example2_circuit
from polarchan.matkit import (
    _freeze,
    _is_frozen,
    frob_norm,
    herm_part,
    hermitian_eig,
    random_density,
    random_unitary,
    unitarity_defect,
)
from polarchan.search import ChannelInstance, SolverConfig
from polarchan.tomo import (
    ALPHA_UNIT_TOL,
    ChannelOracle,
    DegenerateStateError,
    PhaseProbe,
    ReconstructionError,
    extract_phase_product,
    probe_state,
    reconstruct,
    state_tomography,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def class_member(u, v, d):
    return u @ (v * d[np.newaxis, :]) @ v.conj().T


def dense_e_pm(n, i, j):
    """Tomography's observables for entry (i, j) as dense matrices:
    E+ = (E_ij + E_ji)/2 and E- = (E_ij - E_ji)/2i, which is zero on the diagonal."""
    unit = np.zeros((n, n), dtype=np.complex128)
    unit[i, j] = 1.0
    return (unit + unit.T) / 2, (unit - unit.T) / 2j


def densify(n, entries):
    rows, cols, weights = entries
    m = np.zeros((n, n), dtype=np.complex128)
    np.add.at(m, (list(rows), list(cols)), weights)
    return m


def projector(w):
    return np.outer(w, np.conj(w))


def dense_reading(oracle, state, observable):
    """Re tr(Phi(state) observable) for a dense observable, from the uncounted
    ``apply`` and in the oracle's own reduction: sum_ij out_ij obs_ji."""
    obs = np.asarray(observable, dtype=np.complex128)
    return float(np.vdot(obs.T.conj(), oracle.apply(state)).real)


def all_entries(observable):
    """Every entry of a dense observable in ``entries=`` form, row-major."""
    rows, cols = np.indices(observable.shape)
    return tuple(rows.ravel()), tuple(cols.ravel()), tuple(np.ravel(observable))


class Sized:
    """Has a length but cannot be iterated."""

    def __len__(self):
        return 1


class Half:
    """Has a length of 2, yields the valid index 0, then fails to iterate."""

    def __len__(self):
        return 2

    def __getitem__(self, k):
        if k:
            raise TypeError("no second item")
        return 0


def _rand_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class RecordingOracle(ChannelOracle):
    """A ChannelOracle that keeps a copy of every state and a dense copy of
    every observable it is queried with."""

    def __init__(self, hidden_u):
        super().__init__(hidden_u)
        self.states = []
        self.observables = []

    def expectation(self, state, *, entries=None, vector=None):
        self.states.append(np.array(state, dtype=np.complex128))
        if vector is not None:
            dense = projector(np.asarray(vector, dtype=np.complex128))
        else:
            dense = densify(self.dim, entries)
        self.observables.append(dense)
        return super().expectation(state, entries=entries, vector=vector)


class EvaluationCountingOracle(ChannelOracle):
    """A ChannelOracle that counts the calls to ``apply`` whose input differs
    byte for byte from the previous call's: the channel evaluations a run
    needs when only the latest one can be reused."""

    def __init__(self, hidden_u):
        super().__init__(hidden_u)
        self.evaluations = 0
        self._previous = None

    def apply(self, state):
        key = np.asarray(state, dtype=np.complex128).tobytes()
        if key != self._previous:
            self.evaluations += 1
            self._previous = key
        return super().apply(state)


class NoisyOracle(ChannelOracle):
    """A ChannelOracle that adds seeded Gaussian noise of standard deviation
    eps to every expectation, whatever the observable's form."""

    def __init__(self, hidden_u, eps, seed):
        super().__init__(hidden_u)
        self._eps = eps
        self._rng = np.random.default_rng(seed)

    def expectation(self, state, *, entries=None, vector=None):
        value = super().expectation(state, entries=entries, vector=vector)
        return value + self._eps * self._rng.standard_normal()


def two_probe_phase_product(oracle, u0, v, p, q):
    """Reference route for extract_phase_product: a second probe with the
    antisymmetric cross term (v_p v_q* - v_q v_p*)/2i, read through the same
    projector w = u0 (v_p + v_q)/sqrt(2), gives Im(alpha)/2. The symmetric
    probe goes in factored, as extract_phase_product sends it."""
    cross = np.outer(v[:, p], v[:, q].conj())
    plus = PhaseProbe(v, p, q)
    minus = (cross - cross.conj().T) / 2j
    w = (u0 @ (v[:, p] + v[:, q])) / np.sqrt(2.0)
    m_plus = oracle.expectation(plus, vector=w)
    m_minus = oracle.expectation(minus, vector=w)
    return complex(2.0 * (m_plus + 1j * m_minus))


def dense_phase_product(oracle, u0, v, p, q):
    """extract_phase_product's one-probe route read through dense projectors."""
    probe = probe_state(v, p, q)
    w = u0 @ (v[:, p] + v[:, q]) / np.sqrt(2.0)
    w_i = u0 @ (v[:, p] + 1j * v[:, q]) / np.sqrt(2.0)
    m_re = dense_reading(oracle, probe, projector(w))
    m_im = dense_reading(oracle, probe, projector(w_i))
    return complex(2.0 * (m_re - 1j * m_im))


class TestChannelOracle:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            ChannelOracle(np.diag([1.0, 2.0]))
        # an entry of 1e200 would overflow U*U: a unitary has no entry beyond
        # 1 + 1e-10, so the oracle rejects it before forming the product
        with pytest.raises(ValueError, match="not unitary within 1e-10"):
            ChannelOracle(np.diag([1e200, 1.0]))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="nonempty"):
            ChannelOracle(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_hidden_matrix(self, bad):
        u = np.eye(3, dtype=complex)
        u[1, 2] = bad
        with pytest.raises(ValueError, match="not unitary"):
            ChannelOracle(u)

    def test_apply_matches_direct(self):
        u = random_unitary(4, 0)
        oracle = ChannelOracle(u)
        rho = random_density(4, 1)
        assert_allclose(oracle.apply(rho), u @ rho @ u.conj().T, atol=1e-15)
        assert oracle.queries == 0  # apply is not a measurement

    def test_linearity(self):
        u = random_unitary(3, 2)
        oracle = ChannelOracle(u)
        a = herm_part(random_density(3, 3))
        b = herm_part(random_density(3, 4))
        lhs = oracle.apply(0.3 * a - 1.7 * b)
        rhs = 0.3 * oracle.apply(a) - 1.7 * oracle.apply(b)
        assert frob_norm(lhs - rhs) < 1e-14

    def test_counter_increments_per_expectation(self):
        oracle = ChannelOracle(np.eye(3))
        rho = random_density(3, 5)
        entries = all_entries(herm_part(random_density(3, 6)))
        counts = []
        for k in range(4):
            oracle.apply(rho)  # never counted, even when its output is reused
            counts.append(oracle.queries)
            if k % 2:
                oracle.expectation(rho, vector=np.ones(3))
            else:
                oracle.expectation(rho, entries=entries)
            counts.append(oracle.queries)
        assert counts == [0, 1, 1, 2, 2, 3, 3, 4]

    def test_dense_observable_is_refused_before_counting(self):
        oracle = ChannelOracle(random_unitary(3, 4))
        rho = random_density(3, 5)
        obs = herm_part(random_density(3, 6))
        with pytest.raises(TypeError):
            oracle.expectation(rho, obs)
        with pytest.raises(TypeError):
            oracle.expectation(rho, observable=obs)
        with pytest.raises(ValueError, match="^give exactly one of entries and vector$"):
            oracle.expectation(rho)
        assert oracle.queries == 0

    def test_expectation_matches_outside_computation(self):
        u = random_unitary(4, 7)
        oracle = ChannelOracle(u)
        rho = random_density(4, 8)
        obs = herm_part(random_density(4, 9))
        direct = np.real(np.trace(u @ rho @ u.conj().T @ obs))
        assert_allclose(oracle.expectation(rho, entries=all_entries(obs)), direct, atol=1e-14)
        w = np.array([1.0, -0.5j, 0.25, 2.0 + 1j])
        direct = np.real(np.trace(u @ rho @ u.conj().T @ projector(w)))
        assert_allclose(oracle.expectation(rho, vector=w), direct, atol=1e-14)

    def test_expectation_on_non_hermitian_inputs(self):
        rng = np.random.default_rng(10)
        u = random_unitary(5, 11)
        oracle = ChannelOracle(u)
        s = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        obs = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        direct = np.real(np.trace(u @ s @ u.conj().T @ obs))
        assert abs(oracle.expectation(s, entries=all_entries(obs)) - direct) < 1e-14
        frozen = _freeze(s)
        for _ in range(2):  # a fresh evaluation, then the stored one
            assert abs(oracle.expectation(frozen, entries=all_entries(obs)) - direct) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 5, 32])
    def test_entries_match_dense_bitwise(self, n):
        oracle = ChannelOracle(random_unitary(n, 30 + n))
        rho = random_density(n, 31 + n)
        via_entries, via_dense = [], []
        for i in range(n):
            for j in range(n):
                e_plus, e_minus = dense_e_pm(n, i, j)
                via_entries.append(oracle.expectation(rho, entries=((i, j), (j, i), (0.5, 0.5))))
                via_entries.append(oracle.expectation(rho, entries=((i, j), (j, i), (-0.5j, 0.5j))))
                via_dense.append(dense_reading(oracle, rho, e_plus))
                via_dense.append(dense_reading(oracle, rho, e_minus))
        assert np.array(via_entries).tobytes() == np.array(via_dense).tobytes()
        assert oracle.queries == 2 * n * n

    def test_entries_repeated_positions_add(self):
        u = random_unitary(3, 32)
        oracle = ChannelOracle(u)
        rho = random_density(3, 33)
        obs = np.zeros((3, 3), dtype=np.complex128)
        obs[1, 2] = 0.75 - 0.25j
        value = oracle.expectation(rho, entries=((1, 1), (2, 2), (1.0, -0.25 - 0.25j)))
        assert_allclose(value, np.real(np.trace(u @ rho @ u.conj().T @ obs)), atol=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"entries": ((-1,), (0,), (1.0,))},  # would wrap to the last row
            {"entries": ((0,), (-3,), (1.0,))},
            {"entries": ((0,), (3,), (1.0,))},
            {"entries": ((3, 0), (0, 0), (0.5, 0.5))},
            {"entries": ((0, 1), (1,), (0.5, 0.5))},
            {"entries": ((0, 1), (1, 0), (0.5,))},
            {"entries": ((0,), (0,), (1.0,)), "vector": np.ones(3)},
            {},
            {"entries": ((True, 0), (2, 1), (0.5, 0.5))},  # numpy would read True as a mask
            {"entries": ((2, 1), (False, 0), (0.5, 0.5))},
            {"entries": ((1.0,), (1,), (1.0,))},
            {"entries": ((np.True_, 0), (2, 1), (0.5, 0.5))},
            {"entries": ((2, 1), (0, np.True_), (0.5, 0.5))},
            {"entries": (Sized(), (0,), (1.0,))},  # has a length, cannot be iterated
            {"entries": (Half(), (0, 0), (1.0, 1.0))},  # fails after a valid index
        ],
        ids=["negative-row", "negative-col", "col-too-large", "row-too-large",
             "short-cols", "short-weights", "both-forms", "neither-form",
             "bool-row", "bool-col", "float-row", "numpy-bool-row", "numpy-bool-col",
             "sized-rows", "partly-iterable-rows"],
    )
    def test_bad_entries_rejected_before_counting(self, kwargs):
        oracle = ChannelOracle(random_unitary(3, 34))
        with pytest.raises(ValueError) as err:
            oracle.expectation(random_density(3, 35), **kwargs)
        assert oracle.queries == 0
        # a message that names an index names a bad one
        assert not re.search(r"index [012] is", str(err.value)), err.value

    def test_empty_entries_read_zero_and_count_once(self):
        oracle = ChannelOracle(random_unitary(3, 36))
        value = oracle.expectation(random_density(3, 37), entries=((), (), ()))
        assert type(value) is float and value == 0.0
        assert oracle.queries == 1

    def test_numpy_integer_indices_match_int_bitwise(self):
        oracle = ChannelOracle(random_unitary(4, 38))
        rho = random_density(4, 39)
        for weights in [(0.5, 0.5), (-0.5j, 0.5j)]:
            via_int = oracle.expectation(rho, entries=((1, 3), (3, 1), weights))
            via_np = oracle.expectation(
                rho, entries=((np.int64(1), np.int64(3)), (np.int64(3), np.int64(1)), weights)
            )
            assert np.float64(via_np).tobytes() == np.float64(via_int).tobytes()
        assert oracle.queries == 4

    @pytest.mark.parametrize(
        "weight, same",
        [
            (np.float32(0.5), 0.5),
            (np.complex64(-0.5j), -0.5j),
            (np.float64(-0.75), -0.75),
            (np.complex128(0.25 - 0.5j), 0.25 - 0.5j),
        ],
        ids=["float32", "complex64", "float64", "complex128"],
    )
    def test_numpy_weights_match_python_bitwise(self, weight, same):
        # a narrowed product would lose the output's low bits
        oracle = ChannelOracle(random_unitary(4, 42))
        rho = random_density(4, 43)
        for rows, cols in [((1, 3), (3, 1)), ((2,), (2,)), ((0, 3, 1), (2, 0, 1))]:
            via_np = oracle.expectation(rho, entries=(rows, cols, (weight,) * len(rows)))
            via_py = oracle.expectation(rho, entries=(rows, cols, (same,) * len(rows)))
            assert np.float64(via_np).tobytes() == np.float64(via_py).tobytes()
        assert oracle.queries == 6

    @pytest.mark.parametrize("weight", ["0.5", None, b"1"])
    def test_non_numeric_weight_rejected_before_counting(self, weight):
        oracle = ChannelOracle(random_unitary(3, 44))
        with pytest.raises(TypeError):
            oracle.expectation(random_density(3, 45), entries=((0, 1), (1, 0), (0.5, weight)))
        assert oracle.queries == 0

    def test_apply_is_bitwise_the_direct_product(self):
        u = random_unitary(8, 40)
        oracle = ChannelOracle(u)
        s = random_density(8, 41)
        expected = (u @ s @ u.conj().T).tobytes()
        assert oracle.apply(s).tobytes() == expected  # fresh evaluation
        assert oracle.apply(s).tobytes() == expected  # reused output

    def test_apply_sees_input_mutated_in_place(self):
        u = random_unitary(4, 12)
        oracle = ChannelOracle(u)
        a = random_density(4, 13)
        oracle.apply(a)
        a[0, 1] += 0.25
        a[1, 0] += 0.25
        assert frob_norm(oracle.apply(a) - u @ a @ u.conj().T) < 1e-14

    def test_writing_into_returned_output_does_not_leak(self):
        u = random_unitary(4, 14)
        oracle = ChannelOracle(u)
        a = random_density(4, 15)
        expected = u @ a @ u.conj().T
        for _ in range(3):  # a fresh evaluation, then two reused ones
            out = oracle.apply(a)
            assert frob_norm(out - expected) < 1e-14
            out[:] = 7.0

    def test_alternating_states_get_their_own_outputs(self):
        u = random_unitary(4, 16)
        oracle = ChannelOracle(u)
        a, b = random_density(4, 17), random_density(4, 18)
        out_a, out_b, out_a2 = oracle.apply(a), oracle.apply(b), oracle.apply(a)
        assert frob_norm(out_a - u @ a @ u.conj().T) < 1e-14
        assert frob_norm(out_b - u @ b @ u.conj().T) < 1e-14
        assert np.array_equal(out_a2, out_a)

    def test_frozen_state_gets_the_stored_frozen_output(self):
        u = random_unitary(6, 19)
        oracle = ChannelOracle(u)
        a = random_density(6, 20)
        expected = (u @ a @ u.conj().T).tobytes()
        first = oracle.apply(a)  # a writable state gets its own fresh array
        assert first.flags.writeable and first.tobytes() == expected
        frozen = _freeze(a)
        out = oracle.apply(frozen)
        assert not out.flags.writeable and out.tobytes() == expected
        assert oracle.apply(frozen) is out  # a repeat on the same object, no copy
        fresh = oracle.apply(a.copy())  # the same bytes, writable: fresh again
        assert fresh.flags.writeable and fresh.tobytes() == expected
        fresh[:] = 7.0
        assert oracle.apply(frozen) is out  # a writable query keeps the stored one
        assert out.tobytes() == expected
        assert oracle.apply(_freeze(a)) is not out  # another frozen object is a miss
        assert oracle.apply(_freeze(a)).tobytes() == expected


class TestRankOneObservable:
    @pytest.mark.parametrize("n", [1, 2, 5, 32, 64])
    @pytest.mark.parametrize("frozen", [False, True], ids=["writable", "frozen"])
    def test_matches_the_dense_projector(self, n, frozen):
        rng = np.random.default_rng(80 + n)
        oracle = ChannelOracle(random_unitary(n, 81 + n))
        states = [random_density(n, 82 + n), herm_part(_rand_complex(rng, n)), _rand_complex(rng, n)]
        for s in states:
            s = _freeze(s) if frozen else s
            for scale in (1.0, 1e-3, 40.0):
                w = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                before = oracle.queries
                rank_one = oracle.expectation(s, vector=w)
                dense = dense_reading(oracle, s, projector(w))
                assert type(rank_one) is float and oracle.queries - before == 1
                bound = 1e-14 * np.vdot(w, w).real * frob_norm(s)
                assert abs(rank_one - dense) <= bound, (rank_one, dense, bound)

    def test_vector_coerces_like_complex128(self):
        oracle = ChannelOracle(random_unitary(3, 90))
        s = random_density(3, 91)
        as_list = oracle.expectation(s, vector=[1, 0.5, -2])
        as_complex = oracle.expectation(s, vector=np.array([1, 0.5, -2], dtype=np.complex128))
        assert np.float64(as_list).tobytes() == np.float64(as_complex).tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vector": np.ones(2)},
            {"vector": np.ones(4)},
            {"vector": np.ones((3, 1))},
            {"vector": np.eye(3)},
            {"vector": np.ones(())},
            {"vector": np.array([1.0, np.nan, 0.0])},
            {"vector": np.array([1.0, 0.0, np.inf])},
            {"vector": np.array([-np.inf * 1j, 0.0, 0.0])},
            # an observable with no entries is still given
            {"vector": np.ones(3), "entries": ((), (), ())},
            {"vector": np.ones(3), "entries": ((0,), (0,), (1.0,))},
            # so is the zero vector: both forms, each of them valid alone
            {"vector": np.zeros(3), "entries": ((0, 1), (1, 0), (0.5, 0.5))},
            {},
        ],
        ids=["short", "long", "column", "matrix", "scalar", "nan", "inf", "-inf-imag",
             "with-observable", "with-entries", "all-three", "no-form"],
    )
    def test_bad_vector_rejected_before_evaluating(self, kwargs):
        u = random_unitary(3, 92)
        oracle = ChannelOracle(u)
        kept = _freeze(random_density(3, 93))
        oracle.expectation(kept, vector=np.ones(3))
        stored = oracle.apply(kept)
        other = _freeze(random_density(3, 94))
        with pytest.raises(ValueError):
            oracle.expectation(other, **kwargs)
        assert oracle.queries == 1
        # the rejected query never reached the channel, so the stored evaluation stays
        assert oracle.apply(kept) is stored
        assert stored.tobytes() == (u @ kept @ u.conj().T).tobytes()


def _at_01(m, value):
    m = np.array(m, dtype=np.complex128)
    m[0, 1] = value
    return m


_BAD_STATE = r"^state has non-finite entries$"
_BAD_VECTOR = r"^vector has non-finite entries$"
_NAN_VALUE = r"^expectation value is nan, not finite$"
_HUGE_STATE = r"^state is too large: n \* max entry = 1\.6e\+300 exceeds 1e\+75$"


@pytest.mark.parametrize(
    "call, match",
    [
        # the whole state is checked, not only the entries read
        (
            lambda o: o.expectation(
                _at_01(random_density(3, 52), complex(0.0, np.nan)), entries=((0,), (0,), (1.0,))
            ),
            _BAD_STATE,
        ),
        (
            lambda o: o.expectation(
                _at_01(random_density(3, 52), np.nan), entries=((0,), (1,), (1.0,))
            ),
            _BAD_STATE,
        ),
        (lambda o: o.expectation(random_density(3, 53), entries=((0, 1), (1, 0), (0.5, np.nan))),
         _NAN_VALUE),
        (lambda o: o.expectation(_at_01(random_density(3, 52), np.nan), vector=np.ones(3)),
         _BAD_STATE),
        (lambda o: o.expectation(random_density(3, 53), vector=np.array([1.0, np.nan, 0.0])),
         _BAD_VECTOR),
        (lambda o: o.expectation(random_density(3, 53), vector=np.array([1.0, 0.0, np.inf])),
         _BAD_VECTOR),
        (lambda o: o.expectation(random_density(3, 53), vector=np.array([-np.inf, 0.0, 0.0])),
         _BAD_VECTOR),
        (lambda o: o.apply(_at_01(random_density(3, 52), np.nan)), _BAD_STATE),
        (lambda o: o.apply(_at_01(random_density(3, 52), np.inf)), _BAD_STATE),
        (lambda o: o.apply(_at_01(random_density(3, 52), -np.inf)), _BAD_STATE),
        # finite queries whose products overflowed: a state over the state
        # rule's scale, and vectors over the vector rule's
        (lambda o: o.expectation(1e300 * random_density(3, 0), vector=1e10 * np.ones(3)), _HUGE_STATE),
        (lambda o: o.expectation(1e300 * random_density(3, 0), entries=((0,), (0,), (1e10,))),
         _HUGE_STATE),
        (lambda o: o.expectation(PhaseProbe(1e150 * np.eye(3), 0, 1), vector=1e150 * np.ones(3)),
         r"^probe vector is too large: max entry 1\.0e\+150 exceeds 1e\+70$"),
        (lambda o: o.expectation(1e70 * random_density(3, 0), vector=1e150 * np.ones(3)),
         r"^vector is too large: max entry 1\.0e\+150 exceeds 1e\+70$"),
    ],
    ids=["nan-state", "nan-state-entries", "nan-weight", "nan-state-vector",
         "nan-vector", "inf-vector", "-inf-vector", "nan-state-apply", "inf-state-apply",
         "-inf-state-apply", "1e300-state-vector", "1e300-state-entries", "1e150-probe",
         "1e150-vector"],
)
def test_non_finite_query_rejected_before_counting(call, match):
    u = random_unitary(3, 54)
    oracle = ChannelOracle(u)
    good = _freeze(random_density(3, 55))
    w = np.array([0.5, 1.0 - 0.25j, -1.0])
    oracle.expectation(good, vector=w)
    stored = oracle.apply(good)
    with pytest.raises(ValueError, match=match):
        call(oracle)
    assert oracle.queries == 1
    # the rejected state never replaces the stored evaluation
    assert oracle.apply(good) is stored
    expected = np.vdot(w, u @ good @ u.conj().T @ w).real
    assert oracle.expectation(good, vector=w) == pytest.approx(expected, abs=1e-14)
    assert oracle.queries == 2


@pytest.mark.parametrize(
    "vector, match",
    [
        (1e70 * np.ones(3), None),
        (-1e70j * np.ones(3), None),
        (1e150 * np.ones(3), r"^vector is too large: max entry 1\.0e\+150 exceeds 1e\+70$"),
        (-1e150j * np.ones(3), r"^vector is too large: max entry 1\.0e\+150 exceeds 1e\+70$"),
        (1e160 * np.ones(3), r"^vector is too large: max entry 1\.0e\+160 exceeds 1e\+70$"),
        (np.array([1.0, -1e71j, 0.0]), r"^vector is too large: max entry 1\.0e\+71 exceeds 1e\+70$"),
        (np.array([1.0, -1e151j, 0.0]), r"^vector is too large: max entry 1\.0e\+151 exceeds 1e\+70$"),
    ],
    ids=["1e70", "-1e70j", "1e150", "-1e150j", "1e160", "1e71j-entry", "1e151j-entry"],
)
@pytest.mark.parametrize("form", ["matrix", "probe"])
def test_oversized_vector_rejected_before_counting(vector, match, form):
    # the read of a 1e160 vector overflowed to a NaN value; the vector rule
    # refuses it by its scale before any product. It refuses 1e150 too: such
    # a vector overflows reads of larger states and probes (the 1e150 rows
    # of test_non_finite_query_rejected_before_counting)
    oracle = ChannelOracle(random_unitary(3, 56))
    v = hermitian_eig(random_density(3, 57)).eigenvectors
    state = random_density(3, 58) if form == "matrix" else PhaseProbe(v, 0, 2)
    if match is None:
        value = oracle.expectation(state, vector=vector)
        expected = np.vdot(vector, oracle.apply(state) @ vector).real
        assert np.isfinite(value) and value == pytest.approx(expected, rel=1e-12)
        assert oracle.queries == 1
    else:
        with pytest.raises(ValueError, match=match):
            oracle.expectation(state, vector=vector)
        assert oracle.queries == 0


@pytest.mark.parametrize("scale", [0.25e75, 0.3e75, 0.5e75, 1e76])
def test_apply_shares_the_scale_half_of_the_state_rule(scale):
    state = scale * np.diag([1.0, 0.5, 0.25])
    oracle = ChannelOracle(random_unitary(3, 3))
    messages = []
    for check in (lambda: ChannelInstance([(state, state)]), lambda: oracle.apply(state)):
        try:
            check()
            messages.append(None)
        except ValueError as exc:
            messages.append(str(exc).replace("rho[0]", "state"))
    assert messages[0] == messages[1]
    assert (messages[0] is None) == (3 * scale <= 1e75)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda o: o.apply(np.eye(4)), r"state is \(4, 4\), channel dimension is 3"),
        (
            lambda o: extract_phase_product(o, np.eye(3), np.eye(4), 0, 1),
            "u0 and v must have the same shape",
        ),
        (lambda o: reconstruct(o, random_density(4, 0)), r"rho0 is \(4, 4\), channel dimension is 3"),
    ],
)
def test_shape_mismatch_rejected_before_counting(call, match):
    oracle = ChannelOracle(random_unitary(3, 6))
    with pytest.raises(ValueError, match=match):
        call(oracle)
    assert oracle.queries == 0


class TestStateTomography:
    def test_identity_channel(self):
        oracle = ChannelOracle(np.eye(2))
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert_allclose(state_tomography(oracle, rho), rho, atol=1e-12)

    def test_hadamard_channel(self):
        oracle = ChannelOracle(HADAMARD)
        rho = np.diag([0.75, 0.25]).astype(complex)
        expected = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
        assert_allclose(state_tomography(oracle, rho), expected, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 32])
    def test_budget_and_exactness(self, n):
        u = random_unitary(n, n)
        oracle = ChannelOracle(u)
        rho = random_density(n, n + 1)
        before = oracle.queries
        out = state_tomography(oracle, rho)
        assert oracle.queries - before == n * n + n
        assert np.abs(out - u @ rho @ u.conj().T).max() < 1e-12
        assert frob_norm(out - out.conj().T) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_noisy_readings_give_a_hermitian_state(self, n):
        # the diagonal E- readings are pure noise here: sigma must not take them
        rho = random_density(n, 73 + n)
        oracle = NoisyOracle(random_unitary(n, 74 + n), eps=1e-9, seed=75 + n)
        sigma = state_tomography(oracle, rho)
        assert np.array_equal(sigma, sigma.conj().T)
        assert not sigma.diagonal().imag.any()
        assert oracle.queries == n * n + n
        assert ChannelInstance([(rho, sigma)]).n == n

    @pytest.mark.parametrize("n", [1, 2, 5, 32, 64])
    def test_matches_dense_reference(self, n):
        u = random_unitary(n, 40 + n)
        rho = random_density(n, 41 + n)
        oracle, reference_oracle = ChannelOracle(u), ChannelOracle(u)
        expected = np.zeros((n, n), dtype=np.complex128)
        for i in range(n):
            for j in range(i, n):
                e_plus, e_minus = dense_e_pm(n, i, j)
                mp = dense_reading(reference_oracle, rho, e_plus)
                mm = dense_reading(reference_oracle, rho, e_minus)
                if i == j:
                    expected[i, i] = mp
                else:
                    expected[i, j] = mp - 1j * mm
                    expected[j, i] = mp + 1j * mm
        assert state_tomography(oracle, rho).tobytes() == expected.tobytes()
        assert oracle.queries == n * n + n

    @pytest.mark.parametrize("n", [1, 2, 5, 32, 128])
    def test_frozen_and_writable_inputs_agree_bitwise(self, n):
        u = random_unitary(n, 60 + n)
        rho = random_density(n, 61 + n)
        snapshot = rho.tobytes()
        outputs, deltas = [], []
        for state in (_freeze(rho), rho):
            oracle = EvaluationCountingOracle(u)
            outputs.append(state_tomography(oracle, state).tobytes())
            deltas.append(oracle.queries)
            assert oracle.evaluations == 1
        assert outputs[0] == outputs[1]
        assert deltas == [n * n + n] * 2
        # the caller's array is neither written nor kept
        assert rho.tobytes() == snapshot
        ref = weakref.ref(rho)
        del rho, state
        assert ref() is None

    def test_tomography_and_phase_queries_send_one_frozen_copy(self):
        seen = []

        class SeeingOracle(ChannelOracle):
            def apply(self, state):
                seen.append(state)
                return super().apply(state)

        n = 4
        hidden = random_unitary(n, 70)
        oracle = SeeingOracle(hidden)
        rho = random_density(n, 71)
        state_tomography(oracle, rho)
        assert len(seen) == n * n + n and all(s is seen[0] for s in seen)
        assert _is_frozen(seen[0]) and not np.shares_memory(seen[0], rho)
        seen.clear()
        v = hermitian_eig(rho).eigenvectors
        assert extract_phase_product(oracle, hidden, v, 0, 1) == pytest.approx(1.0, abs=1e-12)
        # the phase sends one immutable probe object that holds frozen vectors
        probe = seen[0]
        assert len(seen) == 2 and seen[1] is probe and isinstance(probe, PhaseProbe)
        assert _is_frozen(probe.v_p) and _is_frozen(probe.v_q)
        with pytest.raises(AttributeError):
            probe.v_p = probe.v_q

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_observables_sent(self, n):
        oracle = RecordingOracle(random_unitary(n, 50 + n))
        state_tomography(oracle, random_density(n, 51 + n))
        sent = oracle.observables
        assert len(sent) == oracle.queries == n * n + n
        assert all(np.array_equal(m, m.conj().T) for m in sent)
        # the diagonal antisymmetric observables are zero but still counted
        assert sum(not m.any() for m in sent) == n

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_query_order(self, n):
        # query k is E+ (k even) or E- (k odd) of the (k // 2)-th pair i <= j, row-major
        oracle = RecordingOracle(random_unitary(n, 52 + n))
        state_tomography(oracle, random_density(n, 53 + n))
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        assert len(oracle.observables) == 2 * len(pairs)
        for k, sent in enumerate(oracle.observables):
            expected = dense_e_pm(n, *pairs[k // 2])[k % 2]
            assert np.array_equal(sent, expected), (k, pairs[k // 2])

    def test_probe_linearity(self):
        # oracle expectation on a probe equals the same functional on the
        # tomographic reconstruction of the probe output
        u = random_unitary(4, 20)
        oracle = ChannelOracle(u)
        v = hermitian_eig(random_density(4, 21)).eigenvectors
        probe = probe_state(v, 1, 2)
        obs = herm_part(random_density(4, 22))
        via_oracle = oracle.expectation(probe, entries=all_entries(obs))
        recon = state_tomography(oracle, probe)
        via_tomo = np.real(np.trace(recon @ obs))
        assert_allclose(via_oracle, via_tomo, atol=1e-10)


class TestProbeStates:
    @pytest.mark.parametrize("n, p, q", [(2, 1, 0), (3, 0, 2), (5, 3, 1), (8, 0, 7)])
    def test_hermitian_part_of_cross_term(self, n, p, q):
        v = random_unitary(n, 23 + n)
        probe = probe_state(v, p, q)
        cross = np.outer(v[:, p], v[:, q].conj())
        assert probe.tobytes() == (0.5 * (cross + cross.conj().T)).tobytes()
        assert np.array_equal(probe, probe.conj().T)
        assert abs(np.trace(probe)) < 1e-15
        expected = np.zeros(n)
        expected[[0, -1]] = -0.5, 0.5
        assert_allclose(np.sort(np.linalg.eigvalsh(probe)), expected, atol=1e-15)

    def test_index_collisions(self):
        v = np.eye(4)
        for bad in [(0, 0), (3, 3), (0, 4), (4, 1), (-1, 2), (1, -4), (True, 2), (1.0, 2)]:
            with pytest.raises(ValueError):
                probe_state(v, *bad)


class TestPhaseProbe:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 64])
    def test_factored_evaluation_matches_the_dense_probe(self, n):
        u = random_unitary(n, 110 + n)
        v = hermitian_eig(random_density(n, 111 + n)).eigenvectors
        oracle = ChannelOracle(u)
        for p, q in {(0, n - 1), (n - 1, 0), (1, 0), (n // 2, (n // 2 + 1) % n)}:
            probe = PhaseProbe(v, p, q)
            dense = probe_state(v, p, q)
            assert np.asarray(probe).tobytes() == dense.tobytes()
            factored = oracle.apply(probe)
            expected = oracle.apply(dense)
            assert frob_norm(factored - expected) <= 1e-15 * frob_norm(expected), (p, q)
            assert _is_frozen(factored) and oracle.apply(probe) is factored
            assert oracle.queries == 0

    def test_vectors_are_frozen_copies(self):
        v = hermitian_eig(random_density(4, 112)).eigenvectors
        snapshot = v.copy()
        probe = PhaseProbe(v, 2, 1)
        assert probe.v_p.tobytes() == snapshot[:, 2].tobytes()
        assert probe.v_q.tobytes() == snapshot[:, 1].tobytes()
        assert _is_frozen(probe.v_p) and _is_frozen(probe.v_q)
        v[:] = 0.0  # the caller's later writes do not reach the probe
        assert np.asarray(probe).tobytes() == probe_state(snapshot, 2, 1).tobytes()
        for name in ("v_p", "v_q", "other"):
            with pytest.raises(AttributeError):
                setattr(probe, name, snapshot[:, 0])
        with pytest.raises(AttributeError):
            del probe.v_p

    @pytest.mark.parametrize("p, q", [(0, 0), (3, 3), (0, 4), (4, 1), (-1, 2), (1, -4), (True, 2),
                                      (1, np.bool_(False)), (1.0, 2), ("0", 1)])
    def test_shares_the_index_rule_of_probe_state(self, p, q):
        v = np.eye(4)
        messages = []
        for make in (PhaseProbe, probe_state):
            with pytest.raises(ValueError) as info:
                make(v, p, q)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "v, match",
        [
            (_at_01(np.eye(3), np.nan), r"^probe vector has non-finite entries$"),
            (_at_01(np.eye(3), complex(0.0, np.inf)), r"^probe vector has non-finite entries$"),
            (_at_01(np.eye(3), 1e160), r"^probe vector is too large: max entry 1\.0e\+160 exceeds 1e\+70$"),
        ],
        ids=["nan", "inf-imag", "1e160"],
    )
    def test_bad_vectors_rejected_where_made(self, v, match):
        messages = []
        for make in (PhaseProbe, probe_state):
            with pytest.raises(ValueError, match=match) as info:
                make(v, 0, 1)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        # a bad column the probe does not hold is not read
        assert np.asarray(PhaseProbe(v, 0, 2)).tobytes() == probe_state(v, 0, 2).tobytes()

    def test_wrong_length_rejected_before_counting(self):
        oracle = ChannelOracle(random_unitary(3, 113))
        probe = PhaseProbe(np.eye(4), 0, 1)
        for call in (
            lambda: oracle.apply(probe),
            lambda: oracle.expectation(probe, entries=((0,), (1,), (1.0,))),
            lambda: oracle.expectation(probe, vector=np.ones(3)),
        ):
            with pytest.raises(ValueError, match=r"^state is \(4, 4\), channel dimension is 3$"):
                call()
        assert oracle.queries == 0


class TestExtractPhaseProduct:
    def test_trivial_class_member(self):
        u0 = random_unitary(4, 25)
        v = hermitian_eig(random_density(4, 26)).eigenvectors
        oracle = ChannelOracle(u0)  # hidden U equals u0, so d = 1
        alpha = extract_phase_product(oracle, u0, v, 0, 2)
        assert_allclose(alpha, 1.0, atol=1e-12)

    def test_constructed_phases(self):
        rng = np.random.default_rng(27)
        u0 = random_unitary(5, 28)
        v = hermitian_eig(random_density(5, 29)).eigenvectors
        d = np.exp(1j * rng.uniform(-np.pi, np.pi, size=5))
        oracle = ChannelOracle(class_member(u0, v, d))
        for p, q in [(1, 2), (0, 3), (4, 1)]:
            alpha = extract_phase_product(oracle, u0, v, p, q)
            assert_allclose(alpha, d[p] * np.conj(d[q]), atol=1e-10)

    def test_budget_is_two_per_call(self):
        u0 = random_unitary(3, 30)
        v = hermitian_eig(random_density(3, 31)).eigenvectors
        oracle = ChannelOracle(u0)
        before = oracle.queries
        extract_phase_product(oracle, u0, v, 0, 1)
        assert oracle.queries - before == 2

    def test_chain_consistency(self):
        rng = np.random.default_rng(32)
        u0 = random_unitary(5, 33)
        v = hermitian_eig(random_density(5, 34)).eigenvectors
        d = np.exp(1j * rng.uniform(-np.pi, np.pi, size=5))
        oracle = ChannelOracle(class_member(u0, v, d))
        a1q = extract_phase_product(oracle, u0, v, 0, 2)
        a1qp = extract_phase_product(oracle, u0, v, 0, 3)
        direct = extract_phase_product(oracle, u0, v, 3, 2)
        assert_allclose(a1q * np.conj(a1qp), direct, atol=1e-8)

    def test_n2_anchorless_probe(self):
        rng = np.random.default_rng(35)
        u0 = random_unitary(2, 36)
        v = hermitian_eig(random_density(2, 37)).eigenvectors
        d = np.exp(1j * rng.uniform(-np.pi, np.pi, size=2))
        oracle = ChannelOracle(class_member(u0, v, d))
        alpha = extract_phase_product(oracle, u0, v, 0, 1)
        assert_allclose(alpha, d[0] * np.conj(d[1]), atol=1e-12)

    def test_inconsistent_u0_rejected(self):
        v = hermitian_eig(random_density(4, 38)).eigenvectors
        oracle = ChannelOracle(random_unitary(4, 39))
        with pytest.raises(ReconstructionError):
            extract_phase_product(oracle, random_unitary(4, 40), v, 0, 1)

    @pytest.mark.parametrize("n, p, q", [(3, 0, 3), (3, -1, 1), (3, True, 2), (3, 1.0, 2)])
    def test_bad_indices_rejected(self, n, p, q):
        oracle = ChannelOracle(np.eye(n))
        with pytest.raises(ValueError):
            extract_phase_product(oracle, np.eye(n), np.eye(n), p, q)
        assert oracle.queries == 0

    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_matches_two_probe_route(self, n):
        rng = np.random.default_rng(60 + n)
        u0 = random_unitary(n, 61 + n)
        v = hermitian_eig(random_density(n, 62 + n)).eigenvectors
        d = np.exp(1j * rng.uniform(-np.pi, np.pi, size=n))
        hidden = class_member(u0, v, d)
        oracle, reference_oracle = ChannelOracle(hidden), ChannelOracle(hidden)
        dense_oracle = ChannelOracle(hidden)
        for q in range(1, n):
            alpha = extract_phase_product(oracle, u0, v, 0, q)
            expected = two_probe_phase_product(reference_oracle, u0, v, 0, q)
            assert abs(alpha - expected) < 1e-12
            assert np.float64(alpha.real).tobytes() == np.float64(expected.real).tobytes()
            assert abs(alpha - dense_phase_product(dense_oracle, u0, v, 0, q)) < 1e-12
        assert oracle.queries == reference_oracle.queries == 2 * (n - 1)

    def test_both_queries_send_one_probe(self):
        u0 = random_unitary(5, 63)
        v = hermitian_eig(random_density(5, 64)).eigenvectors
        oracle = RecordingOracle(u0)
        extract_phase_product(oracle, u0, v, 3, 1)
        first, second = oracle.states
        assert first.tobytes() == second.tobytes()
        assert first.tobytes() == probe_state(v, 3, 1).tobytes()
        w = u0 @ (v[:, 3] + v[:, 1]) / np.sqrt(2.0)
        w_i = u0 @ (v[:, 3] + 1j * v[:, 1]) / np.sqrt(2.0)
        assert_allclose(oracle.observables, [np.outer(w, w.conj()), np.outer(w_i, w_i.conj())], atol=0)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_one_channel_evaluation_per_probe(self, n):
        u0 = random_unitary(n, 66 + n)
        v = hermitian_eig(random_density(n, 67 + n)).eigenvectors
        oracle = EvaluationCountingOracle(u0)
        for q in range(1, n):
            assert extract_phase_product(oracle, u0, v, 0, q) == pytest.approx(1.0, abs=1e-12)
            assert oracle.evaluations == q
        assert oracle.queries == 2 * (n - 1)

    def test_equal_indices_rejected(self):
        v = np.eye(3)
        oracle = ChannelOracle(np.eye(3))
        with pytest.raises(ValueError):
            extract_phase_product(oracle, np.eye(3), v, 1, 1)

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_two_queries_and_one_factored_evaluation_per_probe(self, n):
        outputs = []

        class OutputOracle(ChannelOracle):
            def apply(self, state):
                out = super().apply(state)
                if not outputs or out is not outputs[-1]:
                    outputs.append(out)
                return out

        u0 = random_unitary(n, 114 + n)
        v = hermitian_eig(random_density(n, 115 + n)).eigenvectors
        oracle = OutputOracle(u0)
        for q in range(1, n):
            assert extract_phase_product(oracle, u0, v, 0, q) == pytest.approx(1.0, abs=1e-12)
            assert oracle.queries == 2 * q and len(outputs) == q
        assert all(_is_frozen(out) for out in outputs)

    @pytest.mark.parametrize(
        "u0, v, p, q, match",
        [
            # out-of-range, negative, bool and float indices: test_bad_indices_rejected
            (np.eye(3), np.eye(3), 1, 1, r"^probe indices must be distinct columns, got \(1, 1\)$"),
            (np.eye(3), _at_01(np.eye(3), np.nan), 0, 1, r"^probe vector has non-finite entries$"),
            (np.eye(3), _at_01(np.eye(3), -np.inf), 1, 0, r"^probe vector has non-finite entries$"),
            (np.eye(3), _at_01(np.eye(3), 1e160), 0, 1, r"^probe vector is too large"),
            (np.eye(4), np.eye(4), 0, 1, r"^vector is \(4,\), channel dimension is 3$"),
        ],
        ids=["equal", "nan", "-inf", "1e160", "wrong-length"],
    )
    def test_bad_probe_rejected_before_any_query(self, u0, v, p, q, match):
        oracle = ChannelOracle(np.eye(3))
        with pytest.raises(ValueError, match=match):
            extract_phase_product(oracle, u0, v, p, q)
        assert oracle.queries == 0


class TestReconstruct:
    def test_identity_channel(self):
        oracle = ChannelOracle(np.eye(5))
        rep = reconstruct(oracle, random_density(5, 41))
        assert normalized_diff(rep.u_recovered, np.eye(5)) < 1e-10

    def test_report_invariants(self):
        n = 6
        hidden = random_unitary(n, 42)
        oracle = ChannelOracle(hidden)
        rep = reconstruct(oracle, random_density(n, 43))
        assert rep.d[0] == 1.0
        assert np.abs(np.abs(rep.d) - 1.0).max() < 1e-6
        assert unitarity_defect(rep.u_recovered) < 1e-8
        assert rep.budget_used == n * n + n + 2 * (n - 1)
        assert rep.budget_used <= n * n + 3 * n
        assert rep.residual_on_tests < 1e-8
        assert rep.eigengap > 1e-8

    @pytest.mark.parametrize("n", [2, 5])
    def test_query_counts_per_stage(self, n):
        oracle = ChannelOracle(random_unitary(n, 46 + n))
        rep = reconstruct(oracle, random_density(n, 47 + n))
        assert rep.tomography_queries == n * n + n
        assert rep.phase_queries == 2 * (n - 1)
        assert rep.tomography_queries + rep.phase_queries == rep.budget_used

    @pytest.mark.parametrize("n", [2, 4])
    def test_recovers_hidden_unitary(self, n):
        hidden = random_unitary(n, 44 + n)
        oracle = ChannelOracle(hidden)
        rep = reconstruct(oracle, random_density(n, 45 + n))
        assert normalized_diff(rep.u_recovered, hidden, pivot="max-modulus-entry") < 1e-8

    def test_degenerate_rho0_rejected(self):
        oracle = ChannelOracle(np.eye(4))
        with pytest.raises(DegenerateStateError):
            reconstruct(oracle, np.eye(4) / 4)

    def test_non_positive_rho0_rejected(self):
        oracle = ChannelOracle(np.eye(3))
        with pytest.raises(ValueError):
            reconstruct(oracle, np.diag([0.9, 0.3, -0.2]))

    def test_non_finite_rho0_rejected_before_any_query(self):
        oracle = ChannelOracle(np.eye(3))
        rho0 = random_density(3, 4)
        rho0[0, 1] = np.nan
        with pytest.raises(ValueError, match="has non-finite entries"):
            reconstruct(oracle, rho0)
        assert oracle.queries == 0

    @pytest.mark.parametrize(
        "rho0, match",
        [
            (1e200 * random_density(6, 2), "rho0 is too large"),
            (np.triu(random_density(6, 2)), "rho0 is not Hermitian"),
            (1e-10 * random_density(6, 2), "rho0 has trace 1e-10, not 1 within 1e-10"),
            (1e-13 * random_density(6, 2), "rho0 has trace 1e-13, not 1 within 1e-10"),
            (3 * random_density(6, 2), "rho0 has trace 3, not 1 within 1e-10"),
        ],
        ids=["over-scale", "non-hermitian", "trace-1e-10", "trace-1e-13", "trace-3"],
    )
    def test_bad_rho0_rejected_before_any_query(self, rho0, match):
        oracle = ChannelOracle(random_unitary(6, 1))
        with pytest.raises(ValueError, match=match):
            reconstruct(oracle, rho0)
        assert oracle.queries == 0

    def test_rank_deficient_probes_reconstruct(self):
        # a zero eigenvalue is no obstacle: only distinct eigenvalues matter
        n, spectrum = 5, np.array([0.4, 0.3, 0.2, 0.1, 0.0])
        for k in range(40):
            q = random_unitary(n, 100 + k)
            hidden = random_unitary(n, 200 + k)
            rep = reconstruct(ChannelOracle(hidden), (q * spectrum) @ q.conj().T)
            assert rep.budget_used == n * n + n + 2 * (n - 1)
            assert normalized_diff(rep.u_recovered, hidden, pivot="max-modulus-entry") < 1e-10

    def test_solver_cap_raises(self):
        hidden = random_unitary(6, 50)
        oracle = ChannelOracle(hidden)
        with pytest.raises(ReconstructionError):
            reconstruct(oracle, random_density(6, 51), SolverConfig(max_iters=3, tol=1e-28))

    @pytest.mark.parametrize(
        "misread, rho0, cause",
        [
            # 1e-6 low on the E+ query of entry (3, 3)
            (
                lambda entries, value: value - 1e-6 if entries == ((3, 3), (3, 3), (0.5, 0.5)) else value,
                np.diag([0.5, 0.3, 0.2, 0.0]),
                r"sigma\[0\] is not positive semidefinite within 1e-10: "
                r"its smallest eigenvalue is -2e-06 times its largest$",
            ),
            # every reading 1e150 times too large
            (
                lambda entries, value: 1e150 * value,
                np.diag([0.4, 0.3, 0.2, 0.1]),
                r"sigma\[0\] is too large",
            ),
        ],
        ids=["not-semidefinite", "over-scale"],
    )
    def test_tomography_output_failing_the_state_rule_is_a_reconstruction_error(
        self, misread, rho0, cause
    ):
        class InexactOracle(ChannelOracle):
            def expectation(self, state, *, entries=None):
                return misread(entries, super().expectation(state, entries=entries))

        n = 4
        oracle = InexactOracle(np.eye(n))
        with pytest.raises(ReconstructionError) as info:
            reconstruct(oracle, rho0)
        assert re.match(r"tomography output Phi\(rho0\) fails the state rule: " + cause, str(info.value))
        assert oracle.queries == n * n + n

    def test_channel_evaluations_per_stage(self):
        # one for tomography, one per phase, five for verification
        n = 8
        oracle = EvaluationCountingOracle(random_unitary(n, 65))
        rep = reconstruct(oracle, random_density(n, 66))
        assert rep.budget_used == n * n + n + 2 * (n - 1)
        assert oracle.evaluations == 1 + (n - 1) + 5

    def test_global_phase_of_the_hidden_unitary_leaves_the_report_bitwise(self):
        # -U, iU and -iU implement the channel of U, and multiplying by one of
        # them is exact in floating point, so every query reads the same bits
        cases = [
            (build_example2_circuit(), random_density(8, 5), EX2_SOLVER),
            # converges in 2652 iterations under the default config
            (random_unitary(16, 1), random_density(16, 5), None),
        ]
        for hidden, rho0, solver in cases:
            n = hidden.shape[0]
            base = reconstruct(ChannelOracle(hidden), rho0, solver)
            for phase in (-1, 1j, -1j):
                rep = reconstruct(ChannelOracle(phase * hidden), rho0, solver)
                for name in ("u0", "v", "d", "u_recovered"):
                    assert np.array_equal(getattr(rep, name), getattr(base, name)), (n, phase, name)
                for name in ("budget_used", "tomography_queries", "phase_queries", "eigengap",
                             "residual_on_tests"):
                    assert getattr(rep, name) == getattr(base, name), (n, phase, name)
                assert rep.solve.status == base.solve.status
                assert rep.solve.singular_steps == base.solve.singular_steps
                for name in ("objective", "step_norm", "residual"):
                    assert np.array_equal(getattr(rep.solve.trace, name), getattr(base.solve.trace, name))

    def test_budget_ceiling_across_sizes(self):
        for n in (2, 3, 5):
            oracle = ChannelOracle(random_unitary(n, 60 + n))
            rep = reconstruct(oracle, random_density(n, 70 + n))
            assert rep.budget_used <= n * n + 3 * n


def _rotated(spectrum, seed):
    q = random_unitary(len(spectrum), seed)
    return (q * np.asarray(spectrum)) @ q.conj().T


def _perturbed(m, i, j, delta):
    m = np.array(m, dtype=np.complex128)
    m[i, j] += delta
    return m


@pytest.mark.parametrize(
    "m, accepted",
    [
        (random_density(4, 80), True),
        (np.diag([0.5, 0.3, 0.2, 0.0]), True),
        (_rotated([0.4, 0.3, 0.2, 0.1, 0.0], 81), True),
        (np.diag([0.6, 0.4 + 1e-12, -1e-12]), True),  # negative within tolerance
        (np.diag([0.9, 0.3, -0.2]), False),
        (_perturbed(random_density(3, 82), 0, 1, 0.1), False),
        (_perturbed(random_density(3, 82), 0, 1, np.nan), False),
        (1e200 * random_density(3, 82), False),
    ],
    ids=["positive-definite", "rank-deficient", "rotated-rank-deficient", "within-tolerance",
         "indefinite", "non-hermitian", "non-finite", "over-scale"],
)
def test_instance_and_reconstruct_share_one_state_rule(m, accepted):
    n = m.shape[0]
    outcomes = []
    for check in (
        lambda: ChannelInstance([(m, m)]),
        lambda: reconstruct(ChannelOracle(np.eye(n)), m),
    ):
        try:
            check()
            outcomes.append(True)
        except ValueError:
            outcomes.append(False)
    assert outcomes == [accepted, accepted]


def test_alpha_unit_tolerance_exported():
    assert ALPHA_UNIT_TOL == 1e-3
