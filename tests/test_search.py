import numpy as np
import pytest
from numpy.testing import assert_allclose

from polarchan.matkit import (
    frob_norm,
    herm_part,
    poldec,
    random_density,
    random_unitary,
    skew_part,
    unitarity_defect,
)
from polarchan.search import (
    STATUS_CONVERGED_STALL,
    STATUS_CONVERGED_TOL,
    STATUS_MAX_ITERS,
    ChannelInstance,
    SolverConfig,
    neg_gradient,
    objective,
    residual,
    solve,
    step,
)


def exact_instance(n, seed, n_pairs=1):
    """Hidden unitary and consistent pairs sigma = U rho U*."""
    hidden = random_unitary(n, seed)
    pairs = []
    for k in range(n_pairs):
        rho = random_density(n, 100 * seed + k + 1)
        pairs.append((rho, hidden @ rho @ hidden.conj().T))
    return hidden, ChannelInstance(pairs)


def expanded_objective(u, rho, sigma):
    # independent route: 0.5 (||sigma||^2 + ||rho||^2 - 2 Re<sigma, U rho U*>)
    cross = np.real(np.vdot(sigma, u @ rho @ u.conj().T))
    return 0.5 * (frob_norm(sigma) ** 2 + frob_norm(rho) ** 2 - 2.0 * cross)


class TestChannelInstance:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChannelInstance([])

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.4], [0.1, 0.5]])
        with pytest.raises(ValueError):
            ChannelInstance([(bad, np.eye(2) / 2)])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            ChannelInstance([(np.diag([1.0, -0.5]), np.eye(2) / 2)])

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            ChannelInstance([
                (np.eye(2) / 2, np.eye(2) / 2),
                (np.eye(3) / 3, np.eye(3) / 3),
            ])

    def test_n(self):
        inst = ChannelInstance([(np.eye(4) / 4, np.eye(4) / 4)])
        assert inst.n == 4


class TestObjective:
    def test_zero_for_commuting_pair(self):
        rho = np.eye(2) / 2
        for seed in range(3):
            u = random_unitary(2, seed)
            assert objective(u, (rho, rho)) < 1e-30

    def test_diagonal_swap_pair(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        sigma = np.diag([0.25, 0.75]).astype(complex)
        assert_allclose(objective(np.eye(2), (rho, sigma)), 0.25, atol=1e-15)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert objective(swap, (rho, sigma)) < 1e-30

    def test_matches_expanded_form(self):
        rng = np.random.default_rng(0)
        for k in range(10):
            rho = random_density(5, 2 * k)
            sigma = random_density(5, 2 * k + 1)
            u = random_unitary(5, k)
            direct = objective(u, (rho, sigma))
            assert_allclose(direct, expanded_objective(u, rho, sigma), rtol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective(np.eye(3), (np.eye(2) / 2, np.eye(2) / 2))


class TestNegGradient:
    def test_identity_case(self):
        assert_allclose(neg_gradient(np.eye(2), (np.eye(2), np.eye(2))), 2.0 * np.eye(2), atol=0)

    def test_finite_difference(self):
        # FD of the expanded objective in arbitrary complex directions
        rng = np.random.default_rng(1)
        h = 1e-6
        for k in range(10):
            rho = random_density(4, 10 + 2 * k)
            sigma = random_density(4, 11 + 2 * k)
            u = random_unitary(4, k)
            du = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            du /= frob_norm(du)
            fd = (
                expanded_objective(u + h * du, rho, sigma)
                - expanded_objective(u - h * du, rho, sigma)
            ) / (2 * h)
            analytic = -np.real(np.vdot(neg_gradient(u, (rho, sigma)), du))
            assert_allclose(fd, analytic, rtol=1e-6)

    def test_hermitian_pullback_at_solution(self):
        hidden, inst = exact_instance(4, 7)
        rho, sigma = inst.pairs[0]
        g = neg_gradient(hidden, (rho, sigma))
        pulled = hidden.conj().T @ g
        assert_allclose(pulled, 2.0 * rho @ rho, atol=1e-13)
        assert frob_norm(skew_part(pulled)) < 1e-13


class TestResidual:
    def test_zero_at_global_minimizer(self):
        hidden, inst = exact_instance(5, 3)
        assert residual(hidden, inst) < 1e-10

    def test_positive_in_generic_position(self):
        _, inst = exact_instance(5, 4)
        u = random_unitary(5, 99)
        assert residual(u, inst) > 1e-3

    def test_small_at_converged_tol_exit(self):
        _, inst = exact_instance(6, 5)
        res = solve(inst, SolverConfig(tol=1e-24, max_iters=20000))
        assert res.status == STATUS_CONVERGED_TOL
        assert residual(res.u_hat, inst) < 1e-8


class TestStep:
    def test_maximally_mixed_fixed_point(self):
        rho = np.eye(3) / 3
        u = random_unitary(3, 8)
        assert_allclose(step(u, [(rho, rho)]), u, atol=1e-13)

    def test_matches_poldec_oracle(self):
        rho = random_density(2, 21)
        sigma = random_density(2, 22)
        expected = poldec(2.0 * sigma @ rho).unitary
        assert_allclose(step(np.eye(2), [(rho, sigma)]), expected, atol=1e-14)

    def test_objective_does_not_increase_at_solution(self):
        hidden, inst = exact_instance(4, 9)
        pair = inst.pairs[0]
        u_next = step(hidden, inst)
        assert objective(u_next, pair) <= objective(hidden, pair) + 1e-12


class TestSolve:
    def test_trivial_instance_converges_at_iteration_zero(self):
        rho = random_density(4, 30)
        res = solve(ChannelInstance([(rho, rho)]))
        assert res.status == STATUS_CONVERGED_TOL
        assert len(res.trace) == 1
        assert res.trace.objective[0] == 0.0

    def test_exact_n10_instance(self):
        _, inst = exact_instance(10, 42)
        res = solve(inst, SolverConfig(max_iters=2000, tol=1e-24))
        assert res.status == STATUS_CONVERGED_TOL
        assert res.trace.objective[-1] < 1e-20

    def test_20_pair_consistent_instance(self):
        _, inst = exact_instance(10, 6, n_pairs=20)
        res = solve(inst, SolverConfig(max_iters=2000, tol=1e-24))
        assert res.trace.objective[-1] < 1e-18
        assert res.trace.monotone_violations() == 0

    def test_monotone_over_random_instances(self):
        for n in (2, 4, 8):
            for seed in range(5):
                _, inst = exact_instance(n, 50 + seed)
                res = solve(inst, SolverConfig(max_iters=200))
                assert res.trace.monotone_violations(1e-12) == 0

    def test_vanishing_steps(self):
        _, inst = exact_instance(6, 17)
        res = solve(inst, SolverConfig(max_iters=20000, tol=1e-26))
        assert res.status != STATUS_MAX_ITERS
        assert res.trace.step_norm[-1] < 1e-8

    def test_iterates_stay_unitary(self):
        _, inst = exact_instance(5, 18)
        u = np.eye(5, dtype=complex)
        for _ in range(50):
            u = step(u, inst)
            assert unitarity_defect(u) < 1e-10
        assert unitarity_defect(solve(inst, SolverConfig(max_iters=300)).u_hat) < 1e-10

    def test_fixed_point_consistency_at_tol_exit(self):
        _, inst = exact_instance(6, 19)
        res = solve(inst, SolverConfig(tol=1e-24, max_iters=20000))
        assert res.status == STATUS_CONVERGED_TOL
        u = res.u_hat
        m = np.zeros_like(u)
        for rho, sigma in inst.pairs:
            m += 2.0 * sigma @ u @ rho
        fac = poldec(m)
        assert frob_norm(fac.unitary @ fac.psd - m) < 1e-8 * frob_norm(m)

    def test_inconsistent_instance_exits_via_stall_or_cap(self):
        # spectra differ, so no unitary can reach objective zero
        rho = random_density(4, 60)
        sigma = random_density(4, 61)
        res = solve(ChannelInstance([(rho, sigma)]), SolverConfig(max_iters=3000, tol=1e-24))
        assert res.status in (STATUS_CONVERGED_STALL, STATUS_MAX_ITERS)
        assert res.trace.objective[-1] > 1e-12

    def test_random_init_is_seeded(self):
        _, inst = exact_instance(4, 33)
        cfg = SolverConfig(max_iters=50, init="random", init_seed=5)
        a = solve(inst, cfg)
        b = solve(inst, cfg)
        assert np.array_equal(a.u_hat, b.u_hat)


class TestSolverConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(stall_tol=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(init="cayley")
