import numpy as np
import pytest
from numpy.testing import assert_allclose

from polarchan.equiv import normalized_diff
from polarchan.matkit import (
    frob_norm,
    herm_part,
    hermitian_eig,
    random_density,
    random_unitary,
    unitarity_defect,
)
from polarchan.search import SolverConfig
from polarchan.tomo import (
    ALPHA_UNIT_TOL,
    ChannelOracle,
    DegenerateStateError,
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


class RecordingOracle(ChannelOracle):
    """A ChannelOracle that keeps a copy of every state and a dense copy of
    every observable it is queried with."""

    def __init__(self, hidden_u):
        super().__init__(hidden_u)
        self.states = []
        self.observables = []

    def expectation(self, state, observable=None, *, entries=None):
        self.states.append(np.array(state, dtype=np.complex128))
        self.observables.append(np.array(observable) if entries is None else densify(self.dim, entries))
        return super().expectation(state, observable, entries=entries)


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


def two_probe_phase_product(oracle, u0, v, p, q):
    """Reference route for extract_phase_product: a second probe with the
    antisymmetric cross term (v_p v_q* - v_q v_p*)/2i, read through the same
    projector w = u0 (v_p + v_q)/sqrt(2), gives Im(alpha)/2."""
    n = v.shape[0]
    cross = np.outer(v[:, p], v[:, q].conj())
    plus = 0.5 * (cross + cross.conj().T)
    minus = (cross - cross.conj().T) / 2j
    if n > 2:
        r = min(k for k in range(n) if k not in (p, q))
        anchor = np.outer(v[:, r], v[:, r].conj())
        plus, minus = anchor + plus, anchor + minus
    w = (u0 @ (v[:, p] + v[:, q])) / np.sqrt(2.0)
    proj = np.outer(w, w.conj())
    return complex(2.0 * (oracle.expectation(plus, proj) + 1j * oracle.expectation(minus, proj)))


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
        obs = herm_part(random_density(3, 6))
        counts = []
        for _ in range(4):
            oracle.apply(rho)  # never counted, even when its output is reused
            counts.append(oracle.queries)
            oracle.expectation(rho, obs)
            counts.append(oracle.queries)
        assert counts == [0, 1, 1, 2, 2, 3, 3, 4]

    def test_expectation_matches_outside_computation(self):
        u = random_unitary(4, 7)
        oracle = ChannelOracle(u)
        rho = random_density(4, 8)
        obs = herm_part(random_density(4, 9))
        direct = np.real(np.trace(u @ rho @ u.conj().T @ obs))
        assert_allclose(oracle.expectation(rho, obs), direct, atol=1e-14)

    def test_expectation_on_non_hermitian_inputs(self):
        rng = np.random.default_rng(10)
        u = random_unitary(5, 11)
        oracle = ChannelOracle(u)
        s = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        obs = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        direct = np.real(np.trace(u @ s @ u.conj().T @ obs))
        assert abs(oracle.expectation(s, obs) - direct) < 1e-14
        assert abs(oracle.expectation(s, obs) - direct) < 1e-14  # reused output

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
                via_dense.append(oracle.expectation(rho, e_plus))
                via_dense.append(oracle.expectation(rho, e_minus))
        assert np.array(via_entries).tobytes() == np.array(via_dense).tobytes()
        assert oracle.queries == 4 * n * n

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
            {"observable": np.eye(3), "entries": ((0,), (0,), (1.0,))},
            {},
            {"entries": ((True, 0), (2, 1), (0.5, 0.5))},  # numpy would read True as a mask
            {"entries": ((2, 1), (False, 0), (0.5, 0.5))},
            {"entries": ((1.0,), (1,), (1.0,))},
        ],
        ids=["negative-row", "negative-col", "col-too-large", "row-too-large",
             "short-cols", "short-weights", "both-forms", "neither-form",
             "bool-row", "bool-col", "float-row"],
    )
    def test_bad_entries_rejected_before_counting(self, kwargs):
        oracle = ChannelOracle(random_unitary(3, 34))
        with pytest.raises(ValueError):
            oracle.expectation(random_density(3, 35), **kwargs)
        assert oracle.queries == 0

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


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda o: o.apply(np.eye(4)), r"state is \(4, 4\), channel dimension is 3"),
        (lambda o: o.expectation(np.eye(3) / 3, np.eye(2)), r"observable is \(2, 2\)"),
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

    @pytest.mark.parametrize("n", [1, 2, 5, 32, 64])
    def test_matches_dense_reference(self, n):
        u = random_unitary(n, 40 + n)
        rho = random_density(n, 41 + n)
        oracle, reference_oracle = ChannelOracle(u), ChannelOracle(u)
        expected = np.zeros((n, n), dtype=np.complex128)
        for i in range(n):
            for j in range(i, n):
                e_plus, e_minus = dense_e_pm(n, i, j)
                mp = reference_oracle.expectation(rho, e_plus)
                mm = reference_oracle.expectation(rho, e_minus)
                if i == j:
                    expected[i, i] = mp
                else:
                    expected[i, j] = mp - 1j * mm
                    expected[j, i] = mp + 1j * mm
        assert state_tomography(oracle, rho).tobytes() == expected.tobytes()
        assert oracle.queries == reference_oracle.queries == n * n + n

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_observables_sent(self, n):
        oracle = RecordingOracle(random_unitary(n, 50 + n))
        state_tomography(oracle, random_density(n, 51 + n))
        sent = oracle.observables
        assert len(sent) == oracle.queries == n * n + n
        assert all(np.array_equal(m, m.conj().T) for m in sent)
        # the diagonal antisymmetric observables are zero but still counted
        assert sum(not m.any() for m in sent) == n

    def test_probe_linearity(self):
        # oracle expectation on a probe equals the same functional on the
        # tomographic reconstruction of the probe output
        u = random_unitary(4, 20)
        oracle = ChannelOracle(u)
        v = hermitian_eig(random_density(4, 21)).eigenvectors
        probe = probe_state(v, 1, 2)
        obs = herm_part(random_density(4, 22))
        via_oracle = oracle.expectation(probe, obs)
        recon = state_tomography(oracle, probe)
        via_tomo = np.real(np.trace(recon @ obs))
        assert_allclose(via_oracle, via_tomo, atol=1e-10)


class TestProbeStates:
    def test_unit_traces(self):
        for n, p, q in [(3, 0, 2), (5, 3, 1), (8, 0, 7)]:
            probe = probe_state(random_unitary(n, 23 + n), p, q)
            assert_allclose(np.trace(probe), 1.0, atol=1e-13)
            assert frob_norm(probe - probe.conj().T) < 1e-14

    def test_identity_basis_instantiation(self):
        e = np.eye(4)
        for (p, q), r in [((1, 2), 0), ((0, 2), 1), ((1, 0), 2)]:
            expected = np.outer(e[:, r], e[:, r]) + 0.5 * (
                np.outer(e[:, p], e[:, q]) + np.outer(e[:, q], e[:, p])
            )
            assert_allclose(probe_state(e, p, q), expected, atol=0)

    def test_plus_spectrum(self):
        v = random_unitary(6, 24)
        evals = np.sort(np.linalg.eigvalsh(probe_state(v, 2, 4)))
        assert_allclose(evals[-1], 1.0, atol=1e-13)
        assert_allclose(evals[-2], 0.5, atol=1e-13)
        assert_allclose(evals[0], -0.5, atol=1e-13)
        assert_allclose(evals[1:-2], 0.0, atol=1e-13)

    def test_traceless_cross_term_at_n2(self):
        v = random_unitary(2, 25)
        probe = probe_state(v, 1, 0)
        cross = np.outer(v[:, 1], v[:, 0].conj())
        assert_allclose(probe, 0.5 * (cross + cross.conj().T), atol=0)
        assert abs(np.trace(probe)) < 1e-15
        assert_allclose(np.sort(np.linalg.eigvalsh(probe)), [-0.5, 0.5], atol=1e-15)

    def test_index_collisions(self):
        v = np.eye(4)
        for bad in [(0, 0), (3, 3), (0, 4), (4, 1), (-1, 2), (1, -4), (True, 2), (1.0, 2)]:
            with pytest.raises(ValueError):
                probe_state(v, *bad)


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
        for q in range(1, n):
            alpha = extract_phase_product(oracle, u0, v, 0, q)
            expected = two_probe_phase_product(reference_oracle, u0, v, 0, q)
            assert abs(alpha - expected) < 1e-12
            assert np.float64(alpha.real).tobytes() == np.float64(expected.real).tobytes()
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

    def test_equal_indices_rejected(self):
        v = np.eye(3)
        oracle = ChannelOracle(np.eye(3))
        with pytest.raises(ValueError):
            extract_phase_product(oracle, np.eye(3), v, 1, 1)


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

    def test_solver_cap_raises(self):
        hidden = random_unitary(6, 50)
        oracle = ChannelOracle(hidden)
        with pytest.raises(ReconstructionError):
            reconstruct(oracle, random_density(6, 51), SolverConfig(max_iters=3, tol=1e-28))

    def test_channel_evaluations_per_stage(self):
        # one for tomography, one per phase, five for verification
        n = 8
        oracle = EvaluationCountingOracle(random_unitary(n, 65))
        rep = reconstruct(oracle, random_density(n, 66))
        assert rep.budget_used == n * n + n + 2 * (n - 1)
        assert oracle.evaluations == 1 + (n - 1) + 5

    def test_budget_ceiling_across_sizes(self):
        for n in (2, 3, 5):
            oracle = ChannelOracle(random_unitary(n, 60 + n))
            rep = reconstruct(oracle, random_density(n, 70 + n))
            assert rep.budget_used <= n * n + 3 * n


def test_alpha_unit_tolerance_exported():
    assert ALPHA_UNIT_TOL == 1e-3
