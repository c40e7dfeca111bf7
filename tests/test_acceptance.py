"""Acceptance suite: one test per release criterion, each printing a pass/fail
line, then second-order tests of the solver's answers. Run with
``pytest tests/test_acceptance.py -s`` to see the lines live.
"""

import itertools
import json
import time

import numpy as np
import pytest

from polarchan.equiv import PivotError, is_equiv_under, normalized_diff, relation_matrix
from polarchan.harness import main as cli_main
from polarchan.matkit import (
    frob_norm,
    hermitian_eig,
    poldec,
    random_density,
    random_unitary,
)
from polarchan.search import (
    STATUS_CONVERGED_TOL,
    STATUS_MAX_ITERS,
    ChannelInstance,
    SolverConfig,
    neg_gradient,
    objective,
    residual,
    solve,
)
from polarchan.tomo import ChannelOracle, reconstruct, state_tomography


def report(num, desc, ok, detail=""):
    line = f"[criterion {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def child_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def exact_instance(n, seed, n_pairs=1):
    hidden = random_unitary(n, 7 * seed + 1)
    pairs = []
    for k in range(n_pairs):
        rho = random_density(n, 7 * seed + 2 + k)
        pairs.append((rho, hidden @ rho @ hidden.conj().T))
    return hidden, ChannelInstance(pairs)


@pytest.fixture(scope="module")
def monotone_sweep():
    """100 seeded single-pair solves across n in {2, 4, 8, 16}."""
    results = []
    for n in (2, 4, 8, 16):
        for s in child_seeds(900 + n, 25):
            _, inst = exact_instance(n, s)
            results.append((inst, solve(inst, SolverConfig(max_iters=300))))
    return results


@pytest.fixture(scope="module")
def example1_run():
    """n=10 exact instance from the identity start, capped at 2000 iterations."""
    _, inst = exact_instance(10, 42)
    return inst, solve(inst, SolverConfig(max_iters=2000, tol=1e-24))


@pytest.fixture(scope="module")
def reconstruction_batch():
    """20 seeded reconstructions at each of n = 2, 4, 8 against random hidden unitaries."""
    batch = []
    for n in (2, 4, 8):
        for s in child_seeds(555 + n, 20):
            sub = child_seeds(s, 2)
            hidden = random_unitary(n, sub[0])
            oracle = ChannelOracle(hidden)
            rho0 = random_density(n, sub[1])
            rep = reconstruct(oracle, rho0, SolverConfig(max_iters=50000, tol=1e-28))
            batch.append((n, hidden, rep))
    return batch


def test_criterion_01_monotone_decrease(monotone_sweep):
    violations = sum(r.trace.monotone_violations() for _, r in monotone_sweep)
    report(
        1,
        "objective non-increasing over 100 single-pair instances, n in {2,4,8,16}",
        violations == 0,
        f"{len(monotone_sweep)} instances, {violations} violations",
    )


def test_criterion_02_example1_convergence(example1_run):
    _, res = example1_run
    final = res.trace.objective[-1]
    iters = len(res.trace) - 1
    report(
        2,
        "n=10 exact instance reaches objective < 1e-20 within 2000 iterations",
        final < 1e-20 and iters <= 2000,
        f"objective {final:.3e} at iteration {iters}",
    )


def test_criterion_03_vanishing_steps(example1_run):
    _, res = example1_run
    steps = res.trace.step_norm
    final_ok = steps[-1] < 1e-8
    above = np.where(steps[1:] >= 1e-6)[0]
    settles = above.size == 0 or above.max() + 1 < steps.size - 1
    report(
        3,
        "step norms vanish: final < 1e-8 and sequence settles below 1e-6",
        final_ok and settles,
        f"final step {steps[-1]:.3e}",
    )


def test_criterion_04_residual_at_tol_exits(monotone_sweep, example1_run):
    checked = 0
    worst = 0.0
    runs = list(monotone_sweep) + [example1_run]
    for inst, res in runs:
        if res.status == STATUS_CONVERGED_TOL:
            checked += 1
            worst = max(worst, residual(res.u_hat, inst))
    report(
        4,
        "critical-point residual < 1e-8 at every converged-tol exit",
        checked > 0 and worst < 1e-8,
        f"{checked} converged-tol runs, worst residual {worst:.3e}",
    )


def test_criterion_05_gradient_matches_finite_differences():
    # independent oracle: central differences of the expanded objective
    # 0.5 (||sigma||^2 + ||rho||^2 - 2 Re<sigma, X rho X*>) in arbitrary directions
    def expanded(x, rho, sigma):
        cross = np.real(np.vdot(sigma, x @ rho @ x.conj().T))
        return 0.5 * (frob_norm(sigma) ** 2 + frob_norm(rho) ** 2 - 2.0 * cross)

    rng = np.random.default_rng(1234)
    h = 1e-6
    worst = 0.0
    for k in range(50):
        rho = random_density(4, 3 * k)
        sigma = random_density(4, 3 * k + 1)
        u = random_unitary(4, 3 * k + 2)
        du = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        du /= frob_norm(du)
        fd = (expanded(u + h * du, rho, sigma) - expanded(u - h * du, rho, sigma)) / (2 * h)
        grad = -neg_gradient(u, (rho, sigma))
        analytic = float(np.real(np.vdot(grad, du)))
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic))
        worst = max(worst, rel)
    report(
        5,
        "gradient matches central finite differences on 50 random 4x4 probes",
        worst < 1e-6,
        f"worst relative error {worst:.3e}",
    )


def test_criterion_06_polar_optimality():
    rng = np.random.default_rng(777)
    worst_margin = -np.inf
    count = 0
    for k in range(200):
        n = (2, 3, 5, 8)[k % 4]
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        d_polar = frob_norm(a - poldec(a).unitary)
        for j in range(50):
            z = random_unitary(n, 100000 + 50 * k + j)
            worst_margin = max(worst_margin, d_polar - frob_norm(a - z))
            count += 1
    report(
        6,
        "polar factor is never beaten by sampled unitaries (200 x 50)",
        worst_margin <= 1e-10,
        f"{count} comparisons, worst margin {worst_margin:.3e}",
    )


def test_criterion_07_equivalence_class():
    _, inst = exact_instance(8, 31337)
    rho0 = inst.pairs[0][0]
    v = hermitian_eig(rho0).eigenvectors
    cfg = SolverConfig(tol=1e-28, max_iters=50000)
    r1 = solve(inst, cfg)
    # the second run starts at q: q* polar(sigma q W rho) = polar(q* sigma q W rho), so
    # solving (rho, q* sigma q) from the identity and mapping back as q W is that run
    q = random_unitary(8, 9)
    rotated = ChannelInstance([(rho, q.conj().T @ sigma @ q) for rho, sigma in inst.pairs])
    u2 = q @ solve(rotated, cfg).u_hat
    solver_ok = is_equiv_under(r1.u_hat, u2, v, 1e-6)
    rel = relation_matrix(r1.u_hat, u2, v)

    rng = np.random.default_rng(31338)
    constructed_ok = True
    for _ in range(10):
        d = np.exp(1j * rng.uniform(-np.pi, np.pi, size=8))
        member = r1.u_hat @ (v * d[np.newaxis, :]) @ v.conj().T
        constructed_ok &= is_equiv_under(member, r1.u_hat, v, 1e-10)
    report(
        7,
        "two solver runs are diagonal-phase equivalent (1e-6); constructed members pass at 1e-10",
        solver_ok and constructed_ok,
        f"solver offdiag mass {rel.offdiag_mass:.3e}",
    )


def test_criterion_08_global_phase_on_reconstruction(reconstruction_batch):
    worst = 0.0
    for n, hidden, rep in reconstruction_batch:
        try:
            d = normalized_diff(rep.u_recovered, hidden)
        except PivotError:
            d = normalized_diff(rep.u_recovered, hidden, pivot="max-modulus-entry")
        worst = max(worst, d)
    report(
        8,
        "recovered unitary matches hidden up to global phase: diff < 1e-8, n in {2,4,8}, 20 seeds each",
        worst < 1e-8,
        f"{len(reconstruction_batch)} reconstructions, worst diff {worst:.3e}",
    )


def test_criterion_09_example2_reproduction(tmp_path):
    t0 = time.perf_counter()
    code = cli_main(["repro-ex2", "--seed", "123", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    summary = json.loads((tmp_path / "ex2_summary.json").read_text())
    max_diff = summary["max_normalized_diff"]
    objs_ok = all(o < 1e-18 for o in summary["final_objectives"])
    iters_ok = all(i <= 2000 for i in summary["iterations"])
    report(
        9,
        "20 circuit reconstructions: max normalized diff < 1e-9, objectives < 1e-18 within 2000 iters",
        code == 0 and max_diff < 1e-9 and objs_ok and iters_ok and elapsed < 60.0,
        f"max diff {max_diff:.3e}, {elapsed:.1f}s",
    )


def test_criterion_10_budget(reconstruction_batch):
    exact_ok = all(
        rep.budget_used == n * n + n + 2 * (n - 1) for n, _, rep in reconstruction_batch
    )
    ceiling_ok = all(rep.budget_used <= n * n + 3 * n for n, _, rep in reconstruction_batch)
    report(
        10,
        "every reconstruction uses exactly n^2+n+2(n-1) queries, within the n^2+3n ceiling",
        exact_ok and ceiling_ok,
        f"{len(reconstruction_batch)} reconstructions checked",
    )


def test_end_to_end_channel_residuals(reconstruction_batch):
    # module invariant (not a numbered criterion): every recovered channel
    # reproduces the hidden one on random test states
    worst = max(rep.residual_on_tests for _, _, rep in reconstruction_batch)
    print(f"[invariant] end-to-end channel residual < 1e-8: "
          f"{'PASS' if worst < 1e-8 else 'FAIL'}  (worst {worst:.3e})")
    assert worst < 1e-8


def test_criterion_11_tomography_exactness():
    worst_entry = 0.0
    budgets_ok = True
    cases = 0
    for k in range(50):
        n = (2, 3, 5, 8)[k % 4]
        hidden = random_unitary(n, 4000 + k)
        oracle = ChannelOracle(hidden)
        rho = random_density(n, 5000 + k)
        before = oracle.queries
        out = state_tomography(oracle, rho)
        budgets_ok &= oracle.queries - before == n * n + n
        worst_entry = max(worst_entry, float(np.abs(out - oracle.apply(rho)).max()))
        cases += 1
    report(
        11,
        "state tomography equals direct channel output to 1e-12 using exactly n^2+n queries",
        worst_entry < 1e-12 and budgets_ok,
        f"{cases} cases, worst entry error {worst_entry:.3e}",
    )


# ---------------------------------------------------------------------------
# second order: the Riemannian Hessian certifies the paper's three claims
# ---------------------------------------------------------------------------

def skew_basis(n):
    """Orthonormal basis, under Re<X, Y>, of the n x n skew-Hermitian matrices."""
    basis = []
    for j in range(n):
        for k in range(j, n):
            for value in (1j,) if j == k else (1.0, 1j):
                e = np.zeros((n, n), complex)
                e[j, k], e[k, j] = value, -np.conj(value)
                basis.append(e if j == k else e / np.sqrt(2.0))
    return np.array(basis)


def hessian(u, pairs):
    """n^2 x n^2 matrix over skew_basis of the quadratic form
    q(Y) = sum_i ||[Y, A_i]||^2 - Re<sigma_i - A_i, [Y, [Y, A_i]]>, A_i = U rho_i U*:
    the second derivative of the summed objective along U exp(tX), Y = U X U*."""
    n = u.shape[0]
    ys = skew_basis(n)
    h = np.zeros((n * n, n * n))
    for rho, sigma in pairs:
        a = u @ rho @ u.conj().T
        s = sigma - a
        c = (ys @ a - a @ ys).reshape(n * n, -1)  # rows [Y_k, A]
        g = (s @ ys - ys @ s).transpose(0, 2, 1).reshape(n * n, -1)  # rows [S, Y_k]^T
        # Re<S, [Y, C]> = Re tr([S, Y] C), symmetrized over the two basis elements
        m = np.real(g @ c.T)
        h += np.real(c.conj() @ c.T) - 0.5 * (m + m.T)
    return h


def expm_skew(x):
    """exp(X) for skew-Hermitian X, from eigh of the Hermitian iX."""
    w, v = np.linalg.eigh(1j * x)
    return (v * np.exp(-1j * w)) @ v.conj().T


def second_order(desc, ok, detail):
    line = f"[second order] {desc}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line)
    assert ok, line


def null_count(w, rel=1e-10):
    return int(np.count_nonzero(np.abs(w) <= rel * w[-1]))


def test_hessian_matches_second_finite_difference():
    # fourth-order central second difference of the summed objective along U exp(tX)
    rng = np.random.default_rng(2024)
    h = 1e-3
    worst = 0.0
    for k in range(4):
        n = 3 + k
        seed = 50 * k
        pairs = [(random_density(n, seed + j), random_density(n, seed + j + 10)) for j in range(3)]
        u = random_unitary(n, seed + 20)
        hess = hessian(u, pairs)
        coords = rng.standard_normal(n * n)
        x = u.conj().T @ np.tensordot(coords, skew_basis(n), axes=1) @ u

        def f(t):
            v = u @ expm_skew(t * x)
            return sum(objective(v, pair) for pair in pairs)

        fd = (-f(2 * h) + 16 * f(h) - 30 * f(0.0) + 16 * f(-h) - f(-2 * h)) / (12 * h * h)
        q = coords @ hess @ coords
        worst = max(worst, abs(fd - q) / abs(q))
    second_order(
        "Hessian quadratic form matches a second finite difference along U exp(tX), n in 3..6",
        worst < 1e-6,
        f"worst relative error {worst:.3e}",
    )


def test_single_pair_hessian_spectrum_closed_form():
    # at the answer of an exact single pair the Hessian is the Gram matrix of
    # [Y, sigma]: eigenvalues (l_j - l_k)^2 twice per j < k, plus n zeros (the class)
    ok = True
    worst = 0.0
    for n in (4, 8, 12):
        hidden, inst = exact_instance(n, 600 + n)
        w = np.linalg.eigvalsh(hessian(hidden, inst.pairs))
        lam = np.linalg.eigvalsh(inst.pairs[0][0])
        diffs = np.subtract.outer(lam, lam)[np.triu_indices(n, 1)] ** 2
        expected = np.sort(np.concatenate([np.zeros(n), diffs, diffs]))
        smallest = w[null_count(w)]
        ok &= null_count(w) == n and np.allclose(w, expected, rtol=0, atol=1e-12 * w[-1])
        worst = max(worst, abs(smallest / np.min(np.diff(lam)) ** 2 - 1.0))
    second_order(
        "exact single pair: n null eigenvalues, smallest nonzero = (min eigengap)^2, n in {4,8,12}",
        ok and worst < 1e-8,
        f"worst relative error of the smallest nonzero eigenvalue {worst:.3e}",
    )


def test_single_pair_critical_points_are_the_permuted_matchings():
    # Brockett's cost: the critical points of one exact pair are the tori
    # U = W Pi D V*, one per permutation Pi, with W and V the eigenbases of sigma
    # and rho. With a = l o pi, the Hessian has n zeros and (a_j - a_k)(l_j - l_k)
    # twice per j < k, so its index is 2 x inversions(Pi): the identity matching
    # is the only local minimum, and each other critical point a strict saddle
    worst_res = worst_obj = worst_spec = 0.0
    index_ok = True
    points = 0
    for n in (3, 4, 5):
        hidden, inst = exact_instance(n, 800 + n)
        lam, v = np.linalg.eigh(inst.pairs[0][0])
        w = hidden @ v
        rng = np.random.default_rng(800 + n)
        j, k = np.triu_indices(n, 1)
        for perm in map(list, itertools.permutations(range(n))):
            d = np.exp(1j * rng.uniform(-np.pi, np.pi, n))
            u = w @ np.eye(n)[perm] @ np.diag(d) @ v.conj().T
            a = lam[perm]
            pairs_jk = (a[j] - a[k]) * (lam[j] - lam[k])
            expected = np.sort(np.concatenate([np.zeros(n), pairs_jk, pairs_jk]))
            spectrum = np.linalg.eigvalsh(hessian(u, inst.pairs))
            scale = np.abs(spectrum).max()
            inversions = sum(perm[x] > perm[y] for x, y in zip(j, k))
            worst_res = max(worst_res, residual(u, inst.pairs))
            worst_obj = max(worst_obj, abs(objective(u, inst.pairs[0]) - 0.5 * np.sum((lam - a) ** 2)))
            worst_spec = max(worst_spec, np.abs(spectrum - expected).max() / scale)
            index_ok &= np.count_nonzero(spectrum < -1e-10 * scale) == 2 * inversions
            points += 1
    second_order(
        "exact single pair: the n! tori W Pi D V* are critical, with index 2 x inversions(Pi), n in {3,4,5}",
        points == 150 and worst_res <= 1e-13 and worst_obj <= 1e-14 and worst_spec <= 1e-12 and index_ok,
        f"{points} critical points; worst residual {worst_res:.1e}, objective error {worst_obj:.1e}, "
        f"spectrum error {worst_spec:.1e} of the largest",
    )


def test_multi_pair_hessian_has_one_null_eigenvalue():
    # exact pairs at the hidden unitary, and mixed-noise pairs at the solve's answer
    hidden, inst = exact_instance(6, 700, n_pairs=2)
    w_exact = np.linalg.eigvalsh(hessian(hidden, inst.pairs))
    hidden, inst = exact_instance(8, 701, n_pairs=3)
    noisy = ChannelInstance([
        (rho, 0.999 * sigma + 0.001 * random_density(8, 710 + k))
        for k, (rho, sigma) in enumerate(inst.pairs)
    ])
    res = solve(noisy, SolverConfig(max_iters=5000))
    w_noisy = np.linalg.eigvalsh(hessian(res.u_hat, noisy.pairs))
    second_order(
        "generic multi-pair instance: one null eigenvalue (the global phase), exact and noisy",
        null_count(w_exact) == 1 and null_count(w_noisy) == 1
        and res.status != STATUS_MAX_ITERS and w_noisy[0] >= -1e-10 * w_noisy[-1],
        f"exact n=6 P=2 second eigenvalue {w_exact[1]:.3e}; noisy n=8 P=3 {res.status}, "
        f"second eigenvalue {w_noisy[1]:.3e}",
    )


def test_converged_solves_are_local_minima(monotone_sweep, example1_run):
    runs = [run for run in [*monotone_sweep, example1_run] if run[1].status != STATUS_MAX_ITERS]
    worst = 0.0
    for inst, res in runs:
        w = np.linalg.eigvalsh(hessian(res.u_hat, inst.pairs))
        worst = min(worst, w[0] / w[-1])
    second_order(
        "converged solves of criterion 01's sweep and example 1: no eigenvalue below -1e-10 max",
        len(runs) > 1 and worst >= -1e-10,
        f"{len(runs)} converged solves, worst min/max eigenvalue ratio {worst:.3e}",
    )
