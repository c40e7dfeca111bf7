"""The four benchmark workloads: seeded inputs, one timed op each, warm-up,
and the correctness gate every op must pass.

Inputs come only from the workload seed and reach the program only through
public names (``polarchan.*`` exports and ``polarchan.harness.main``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import polarchan
from polarchan import (
    ChannelOracle,
    DegenerateStateError,
    PivotError,
    ReconstructionError,
    SolverConfig,
    harness,
    is_equiv_under,
    normalized_diff,
    random_density,
    random_unitary,
)

# recon alternates these sizes; its runs end on a whole round so both sizes
# always contribute the same number of ops to the median.
RECON_SIZES = (16, 32)
PHASE_N = 64
PAIRS_ARGV = ["solve", "--n", "32", "--pairs", "20"]
EX2_RUNS = 20
EX2_BUDGET = 8 * 8 + 8 + 2 * (8 - 1)

# Inputs generated in set-up; a run cycles through them if it outlasts the pool.
POOL_SIZE = {"ex2": 4096, "recon": 64, "phase64": 32, "pairs": 4096}
# Fixed op count of a traced run, so its counts repeat exactly for a seed.
TRACE_OPS = {"ex2": 6, "recon": 8, "phase64": 12, "pairs": 60}
ROUND = {"recon": len(RECON_SIZES)}
# Every input of a timed run is executed once per pass and timed by its
# fastest execution. The passes run one after another, so a stretch of
# contention from other work on the host has to recur at the same point of
# every pass to slow an input. A pass holds at least 22 ops, so slower ops
# get fewer passes: ex2 ops take ~2 s, recon 0.5-2 s, phase64 ~0.55 s and
# pairs ~0.1 s.
PASSES = {"ex2": 1, "recon": 2, "phase64": 2, "pairs": 8}
# Seed tag of warm-up inputs; op k of the pool uses tag k, which never gets this high.
WARM_TAG = 1 << 40

# Typed errors the library documents; an op raising one counts as failed.
EXPECTED_ERRORS = (ReconstructionError, DegenerateStateError)

# Gate thresholds, from the acceptance criteria.
RECON_DIFF_MAX = 1e-8
RECON_RESIDUAL_MAX = 1e-8
RECON_EQUIV_TOL = 1e-6
EX2_DIFF_MAX = 1e-9
EX2_OBJECTIVE_MAX = 1e-18


@dataclass(frozen=True)
class OpInput:
    """One op's input: CLI arguments (ex2, pairs) or a hidden unitary and probe."""

    seed: int
    argv: tuple[str, ...] = ()
    hidden: np.ndarray | None = None
    rho0: np.ndarray | None = None


def _child_seeds(seed: int, tag: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(count)]


def _phase_input(seed: int) -> OpInput:
    """U = Q D Q* with random phases D; probe Q L Q* with distinct eigenvalues L.

    The hidden channel commutes with the probe, so the solver starts at its
    fixed point and the op's time goes to the measurement layer.
    """
    q_seed, rest = np.random.SeedSequence(seed).generate_state(2)
    q = random_unitary(PHASE_N, int(q_seed))
    rng = np.random.default_rng(int(rest))
    d = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, PHASE_N))
    # unit spacing plus jitter keeps every eigengap above 1/2 before normalising
    lam = 1.0 + np.arange(PHASE_N) + rng.uniform(0.0, 0.5, PHASE_N)
    rng.shuffle(lam)
    lam /= lam.sum()
    qh = q.conj().T
    rho0 = (q * lam) @ qh
    return OpInput(seed=seed, hidden=(q * d) @ qh, rho0=(rho0 + rho0.conj().T) / 2.0)


def make_input(workload: str, seed: int, k: int) -> OpInput:
    """Input k of a workload, a pure function of (seed, k)."""
    s = _child_seeds(seed, k, 1)[0]
    if workload == "ex2":
        return OpInput(seed=s, argv=("repro-ex2", "--seed", str(s)))
    if workload == "pairs":
        return OpInput(seed=s, argv=(*PAIRS_ARGV, "--seed", str(s)))
    if workload == "recon":
        n = RECON_SIZES[k % len(RECON_SIZES)]
        a, b = np.random.SeedSequence(s).generate_state(2)
        return OpInput(seed=s, hidden=random_unitary(n, int(a)), rho0=random_density(n, int(b)))
    if workload == "phase64":
        return _phase_input(s)
    raise ValueError(f"unknown workload {workload!r}")


def make_inputs(workload: str, seed: int) -> list[OpInput]:
    return [make_input(workload, seed, k) for k in range(POOL_SIZE[workload])]


def inputs_digest(inputs: list[OpInput]) -> str:
    h = hashlib.sha256()
    for inp in inputs:
        h.update(str(inp.seed).encode())
        h.update("\0".join(inp.argv).encode())
        for m in (inp.hidden, inp.rho0):
            if m is not None:
                h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()


def run_op(inp: OpInput, out_dir: Path):
    """One timed op through the public API. Returns the CLI exit code or the report."""
    if inp.argv:
        return harness.main([*inp.argv, "--out", str(out_dir)])
    return polarchan.reconstruct(ChannelOracle(inp.hidden), inp.rho0)


def warm_up(workload: str, seed: int, out_dir: Path) -> None:
    """Exercise the workload's code paths once on inputs outside the timed pool."""
    if workload == "recon":
        for n in RECON_SIZES:
            s = _child_seeds(seed, WARM_TAG + n, 2)
            try:
                polarchan.reconstruct(
                    ChannelOracle(random_unitary(n, s[0])),
                    random_density(n, s[1]),
                    SolverConfig(tol=1e-28, max_iters=50),
                )
            except ReconstructionError:
                pass  # the short cap is expected to stop it
        return
    s = _child_seeds(seed, WARM_TAG, 1)[0]
    if workload == "ex2":
        # one reconstruction of the same circuit through the CLI, not all 20
        inp = OpInput(seed=s, argv=("reconstruct", "--circuit", "example2", "--seed", str(s)))
    elif workload == "pairs":
        inp = OpInput(seed=s, argv=(*PAIRS_ARGV, "--seed", str(s)))
    else:
        inp = _phase_input(s)
    run_op(inp, out_dir)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def phase_invariant_diff(u, hidden) -> float:
    try:
        return normalized_diff(u, hidden, pivot="entry11")
    except PivotError:
        return normalized_diff(u, hidden, pivot="max-modulus-entry")


def check_reconstruction(report, hidden) -> list[str]:
    """Violated conditions of one reconstruct op; empty when it passes."""
    n = hidden.shape[0]
    problems = []
    budget = n * n + n + 2 * (n - 1)
    if report.budget_used != budget:
        problems.append(f"budget_used {report.budget_used} != {budget}")
    diff = phase_invariant_diff(report.u_recovered, hidden)
    if not diff < RECON_DIFF_MAX:
        problems.append(f"normalized_diff {diff:.3e} >= {RECON_DIFF_MAX:.0e}")
    if not report.residual_on_tests < RECON_RESIDUAL_MAX:
        problems.append(f"residual_on_tests {report.residual_on_tests:.3e} >= {RECON_RESIDUAL_MAX:.0e}")
    if not is_equiv_under(report.u0, hidden, report.v, RECON_EQUIV_TOL):
        problems.append("u0 is not diagonal-phase equivalent to the hidden unitary")
    return problems


def check_ex2(summary: dict) -> list[str]:
    problems = []
    budgets = summary.get("budget_used", [])
    if len(budgets) != EX2_RUNS or any(b != EX2_BUDGET for b in budgets):
        problems.append(f"budget_used {budgets} is not {EX2_RUNS} x {EX2_BUDGET}")
    if not summary.get("max_normalized_diff", math.inf) < EX2_DIFF_MAX:
        problems.append(f"max_normalized_diff {summary.get('max_normalized_diff')} >= {EX2_DIFF_MAX:.0e}")
    objectives = summary.get("final_objectives", [])
    if len(objectives) != EX2_RUNS or not all(o < EX2_OBJECTIVE_MAX for o in objectives):
        problems.append(f"final_objectives not all below {EX2_OBJECTIVE_MAX:.0e}")
    return problems


def check_pairs(summary: dict) -> list[str]:
    if summary.get("monotone_violations") != 0:
        return [f"monotone_violations {summary.get('monotone_violations')} != 0"]
    return []


def gate(workload: str, inp: OpInput, result, out_dir: Path) -> list[str]:
    """Check the answer of one op that returned normally; empty when it passes."""
    if workload in ("recon", "phase64"):
        return check_reconstruction(result, inp.hidden)
    if workload == "ex2":
        return check_ex2(json.loads((out_dir / "ex2_summary.json").read_text()))
    return check_pairs(json.loads((out_dir / "summary.json").read_text()))


def classify(workload: str, inp: OpInput, result, out_dir: Path) -> tuple[str, list[str]]:
    """'ok', 'error' (a documented typed error or a non-zero CLI exit) or
    'rejected' (an answer the gate refuses). ``result`` is what ``run_op``
    returned, or the expected error it raised."""
    if isinstance(result, EXPECTED_ERRORS):
        return "error", [f"{type(result).__name__}: {result}"]
    if inp.argv and result != 0:
        return "error", [f"exit code {result}"]
    problems = gate(workload, inp, result, out_dir)
    return ("rejected" if problems else "ok"), problems
