import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polarchan import search
from polarchan.matkit import (
    frob_norm,
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

    def test_accepts_rank_deficient_state(self):
        rho = np.diag([0.7, 0.3, 0.0])
        inst = ChannelInstance([(rho, rho)])
        assert inst.n == 3

    def test_rejects_negative_eigenvalue_naming_the_rule(self):
        bad = np.diag([0.7, 0.3, -0.01])
        with pytest.raises(ValueError, match=r"rho\[0\] is not positive semidefinite"):
            ChannelInstance([(bad, np.diag([0.7, 0.3, 0.0]))])

    def test_rejects_non_finite_state(self):
        rho = np.eye(2) / 2
        for bad in (np.nan, np.inf):
            sigma = np.array([[0.5, bad], [0.0, 0.5]])
            with pytest.raises(ValueError, match=r"sigma\[0\] has non-finite entries"):
                ChannelInstance([(rho, sigma)])

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            ChannelInstance([
                (np.eye(2) / 2, np.eye(2) / 2),
                (np.eye(3) / 3, np.eye(3) / 3),
            ])

    def test_n(self):
        inst = ChannelInstance([(np.eye(4) / 4, np.eye(4) / 4)])
        assert inst.n == 4

    @pytest.mark.parametrize(
        "pairs, match",
        [
            ([(np.eye(2) / 2, np.eye(3) / 3)], r"pair 0: rho is \(2, 2\) but sigma is \(3, 3\)"),
            # n * max entry above 1e150 would overflow the objective's squares
            ([(np.diag([1e160, 5e159]), np.diag([5e159, 1e160]))], r"rho\[0\] is too large"),
            ([(np.eye(2), np.diag([1.0, 1e150]))], r"sigma\[0\] is too large"),
        ],
    )
    def test_rejects_bad_pairs(self, pairs, match):
        with pytest.raises(ValueError, match=match):
            ChannelInstance(pairs)

    def test_largest_accepted_scale_solves_without_overflow(self):
        # n * max entry = 2e140: the solve runs with every trace entry finite
        rho, sigma = np.diag([1e140, 5e139]), np.diag([5e139, 1e140])
        trace = solve(ChannelInstance([(rho, sigma)]), SolverConfig(max_iters=3)).trace
        assert np.isfinite(trace.objective).all() and np.isfinite(trace.residual).all()


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

    def test_dimension_mismatch(self):
        rho3 = random_density(3, 1)
        with pytest.raises(ValueError, match=r"dimension mismatch between U \(4, 4\) and state pair 1"):
            residual(np.eye(4), [(np.eye(4) / 4, np.eye(4) / 4), (rho3, rho3)])


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

    def test_dimension_mismatch(self):
        _, inst = exact_instance(3, 2)
        with pytest.raises(ValueError, match=r"dimension mismatch between U \(4, 4\) and state pair 0"):
            step(np.eye(4), inst)


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
        assert_allclose(poldec(m).unitary, u, rtol=0, atol=1e-8)

    def test_inconsistent_instance_exits_via_stall_or_cap(self):
        # spectra differ, so no unitary can reach objective zero
        rho = random_density(4, 60)
        sigma = random_density(4, 61)
        res = solve(ChannelInstance([(rho, sigma)]), SolverConfig(max_iters=3000, tol=1e-24))
        assert res.status in (STATUS_CONVERGED_STALL, STATUS_MAX_ITERS)
        assert res.trace.objective[-1] > 1e-12

    def test_rank_deficient_probe_counts_every_step_singular(self):
        # rho is PSD with a zero eigenvalue, so every gradient sum 2 sigma U rho is singular
        hidden = random_unitary(3, 7)
        rho = np.diag([0.7, 0.3, 0.0]).astype(complex)
        inst = ChannelInstance([(rho, hidden @ rho @ hidden.conj().T)])
        res = solve(inst, SolverConfig(max_iters=20))
        assert len(res.trace) == 21
        assert res.singular_steps == 20

    def test_positive_definite_instance_has_no_singular_steps(self):
        _, inst = exact_instance(6, 19)
        res = solve(inst, SolverConfig(max_iters=200))
        assert len(res.trace) > 1
        assert res.singular_steps == 0

    def test_plain_pair_list_matches_instance_bitwise(self):
        _, inst = exact_instance(5, 17, n_pairs=3)
        from_list = solve(list(inst.pairs))
        from_instance = solve(inst)
        assert np.array_equal(from_list.u_hat, from_instance.u_hat)
        a, b = from_list.trace, from_instance.trace
        for name in ("objective", "step_norm", "residual"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert from_list.status == from_instance.status

    @pytest.mark.parametrize("slack", [float("nan"), -1e-12, float("inf"), True, "0"])
    def test_monotone_violations_rejects_bad_slack(self, slack):
        trace = solve(exact_instance(3, 2)[1]).trace
        with pytest.raises(ValueError, match="slack must be a finite nonnegative number"):
            trace.monotone_violations(slack)

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
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError):
                SolverConfig(tol=float(bad))
            with pytest.raises(ValueError):
                SolverConfig(stall_tol=float(bad))
        with pytest.raises(ValueError):
            SolverConfig(init="cayley")
        for name in ("tol", "stall_tol"):
            for bad in (True, False, "1e-3", None, 1j):
                with pytest.raises(ValueError, match=f"{name} must be a finite"):
                    SolverConfig(**{name: bad})

    def test_is_frozen(self):
        cfg = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tol = 1.0
        assert cfg == SolverConfig(max_iters=5000, tol=1e-24, stall_tol=1e-13)

    def test_rejects_non_integer_counts(self):
        for name in ("max_iters", "init_seed"):
            for bad in (10.0, np.float64(3.0), True, False, "10"):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    SolverConfig(**{name: bad})
        cfg = SolverConfig(max_iters=np.int64(3), init_seed=np.int64(2))
        assert len(solve(exact_instance(3, 1)[1], cfg).trace) <= 4

    def test_rejects_negative_init_seed(self):
        with pytest.raises(ValueError, match="init_seed must be nonnegative, got -1"):
            SolverConfig(init="random", init_seed=-1)


class TestGradObjective:
    def test_matches_the_per_pair_formulas(self):
        # objective: sum_i 0.5 ||sigma_i - (U rho_i) U*||^2 in pair order, bit for bit;
        # gradient: sum_i 2 (sigma_i U) rho_i, which associates differently, to rounding
        for n_pairs in (1, 3, 20):
            _, inst = exact_instance(7, 40 + n_pairs, n_pairs=n_pairs)
            u = random_unitary(7, n_pairs)
            uh = u.conj().T
            expected_obj = 0.0
            expected_grad = np.zeros_like(u)
            for rho, sigma in inst.pairs:
                d = sigma - u @ rho @ uh
                expected_obj += 0.5 * np.real(np.vdot(d, d))
                expected_grad += 2.0 * (sigma @ u) @ rho
            m, obj = search._grad_objective(u, inst.pairs)
            assert obj == float(expected_obj), n_pairs
            assert frob_norm(m - expected_grad) <= 1e-13 * frob_norm(expected_grad), n_pairs

    def test_solve_evaluates_it_once_per_trace_row(self, monkeypatch):
        calls = []
        kernel = search._grad_objective

        def counting(u, pairs):
            calls.append(1)
            return kernel(u, pairs)

        monkeypatch.setattr(search, "_grad_objective", counting)
        for n, n_pairs in ((6, 1), (10, 20)):
            calls.clear()
            _, inst = exact_instance(n, 19, n_pairs=n_pairs)
            res = solve(inst, SolverConfig(max_iters=200))
            assert len(res.trace) > 1
            assert len(calls) == len(res.trace), (n, n_pairs)

    def test_objective_at_the_floor_matches_extended_precision(self):
        # Solves run past convergence to the rounding floor (objective ~1e-30), where
        # sigma - U rho U* is ~1e-16 per entry and the float64 objective keeps only a
        # few digits. Against a clongdouble evaluation at the same U, single iterates
        # scatter (up to ~9e-2 relative at n=8), so the median over five solves is
        # compared: measured 9.5e-3 here, and 2.3e-1 for the objective formed as
        # 0.5 ||sigma U - U rho||^2, which shares sigma U instead of U rho.
        errors = []
        for n, seed, iters in ((8, 3, 1500), (8, 5, 1500), (8, 13, 1500), (16, 89, 2600), (16, 99, 2800)):
            _, inst = exact_instance(n, seed)
            res = solve(inst, SolverConfig(tol=1e-300, stall_tol=0.0, max_iters=iters))
            assert res.trace.objective[-1] < 1e-28, (n, seed)
            rho, sigma = (a.astype(np.clongdouble) for a in inst.pairs[0])
            u = res.u_hat.astype(np.clongdouble)
            d = sigma - u @ rho @ u.conj().T
            exact = float(0.5 * np.sum(d.real**2 + d.imag**2))
            errors.append(abs(res.trace.objective[-1] - exact) / exact)
        assert np.median(errors) < 4e-2, errors
