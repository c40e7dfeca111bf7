"""Command-line interface: instance generation, solver and reconstruction runs,
and reproduction of the two canned experiments.

File formats (all JSON numbers are plain doubles, no complex literals):
  matrix file   {"n": N, "re": [[..]], "im": [[..]]}
  instance file {"pairs": [{"rho": <matrix>, "sigma": <matrix>}, ...]}
  trace CSV     header ``iter,objective,step_norm,residual``, one row per iteration
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .equiv import PivotError, normalized_diff
from .matkit import random_density, random_unitary, square, unitarity_defect
from .search import STATUS_MAX_ITERS, ChannelInstance, IterationTrace, SolverConfig, solve
from .tomo import ChannelOracle, ReconstructionError, reconstruct

TRACE_HEADER = "iter,objective,step_norm,residual"

# repro-ex2 skips candidate probe states whose relative eigengap is below this;
# tighter spectra make the recovered phases disproportionately noisy.
EX2_GAP_FLOOR = 5e-3
EX2_RUNS = 20


# ---------------------------------------------------------------------------
# circuit and gates
# ---------------------------------------------------------------------------

def gate_library() -> dict[str, np.ndarray]:
    """Hadamard, CNOT, and the 2x2 identity as complex matrices."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    )
    return {"H": h, "CNOT": cnot, "I": np.eye(2, dtype=np.complex128)}


def build_example2_circuit() -> np.ndarray:
    """The 8x8 three-qubit benchmark circuit; every entry is 0 or +-1/2."""
    rows = [
        [1, 0, 1, 0, 1, 0, 1, 0],
        [0, 1, 0, 1, 0, 1, 0, 1],
        [0, 1, 0, -1, 0, 1, 0, -1],
        [1, 0, -1, 0, 1, 0, -1, 0],
        [1, 0, 1, 0, -1, 0, -1, 0],
        [0, 1, 0, 1, 0, -1, 0, -1],
        [0, -1, 0, 1, 0, 1, 0, -1],
        [-1, 0, 1, 0, 1, 0, -1, 0],
    ]
    return 0.5 * np.array(rows, dtype=np.complex128)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def matrix_to_obj(m) -> dict:
    m = square(m)
    return {"n": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"n", "re", "im"} <= set(obj):
        raise ValueError("matrix object needs fields n, re, im")
    n = int(obj["n"])
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"matrix re/im fields must be rectangular numeric arrays: {exc}")
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"matrix arrays must be {n}x{n}, got {re.shape} and {im.shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return re + 1j * im


def write_matrix_file(path, m) -> None:
    Path(path).write_text(json.dumps(matrix_to_obj(m), indent=2) + "\n")


def read_matrix_file(path) -> np.ndarray:
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")
    return matrix_from_obj(obj)


def write_instance_file(path, pairs) -> None:
    doc = {"pairs": [{"rho": matrix_to_obj(r), "sigma": matrix_to_obj(s)} for r, s in pairs]}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_instance_file(path) -> list[tuple[np.ndarray, np.ndarray]]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or "pairs" not in doc or not isinstance(doc["pairs"], list):
        raise ValueError(f"{path}: instance file needs a top-level 'pairs' list")
    pairs = []
    for k, entry in enumerate(doc["pairs"]):
        if not isinstance(entry, dict) or "rho" not in entry or "sigma" not in entry:
            raise ValueError(f"{path}: pair {k} needs 'rho' and 'sigma' matrix objects")
        pairs.append((matrix_from_obj(entry["rho"]), matrix_from_obj(entry["sigma"])))
    return pairs


# ---------------------------------------------------------------------------
# run plumbing
# ---------------------------------------------------------------------------

@dataclass
class RunSpec:
    """Everything one command invocation needs."""

    command: str
    n: int = 10
    seed: int = 0
    pairs: int = 1
    solver: SolverConfig = field(default_factory=SolverConfig)
    input_path: str | None = None
    out_dir: str = "."
    circuit: str | None = None
    force_degenerate: bool = False


def resolve_seed(flag_value: int | None) -> int:
    """Flag beats the POLARCHAN_SEED environment variable beats 0."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get("POLARCHAN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"POLARCHAN_SEED must be an integer, got {env!r}")
    return 0


def _child_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def generate_exact_instance(n: int, n_pairs: int, seed: int):
    """Hidden random unitary plus consistent (rho, U rho U*) pairs, all from one seed."""
    seeds = _child_seeds(seed, n_pairs + 1)
    hidden = random_unitary(n, seeds[0])
    pairs = []
    for k in range(n_pairs):
        rho = random_density(n, seeds[k + 1])
        pairs.append((rho, hidden @ rho @ hidden.conj().T))
    return hidden, ChannelInstance(pairs)


def density_candidates(n: int, base_seed: int, min_rel_gap: float, max_tries: int = 256):
    """Yield seeded random densities whose relative eigengap clears the floor."""
    for attempt in range(max_tries):
        s = int(np.random.SeedSequence([base_seed, attempt]).generate_state(1)[0])
        rho = random_density(n, s)
        w = np.linalg.eigvalsh(rho)
        span = float(w[-1] - w[0])
        gap = float(np.min(np.diff(w)))
        if span > 0 and gap >= min_rel_gap * span:
            yield rho, s


def _write_trace(path, trace: IterationTrace) -> None:
    cols = zip(trace.objective.tolist(), trace.step_norm.tolist(), trace.residual.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for it, (obj, step_norm, res) in enumerate(cols):
            fh.write(f"{it},{obj!r},{step_norm!r},{res!r}\n")


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _phase_invariant_diff(u, uprime) -> float:
    try:
        return normalized_diff(u, uprime, pivot="entry11")
    except PivotError:
        return normalized_diff(u, uprime, pivot="max-modulus-entry")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(spec: RunSpec) -> int:
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if spec.input_path:
            instance = ChannelInstance(read_instance_file(spec.input_path))
        else:
            _, instance = generate_exact_instance(spec.n, spec.pairs, spec.seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    result = solve(instance, spec.solver)
    wall = time.perf_counter() - t0
    _write_trace(out / "trace.csv", result.trace)

    summary = {
        "status": result.status,
        "iterations": len(result.trace) - 1,
        "final_objective": float(result.trace.objective[-1]),
        "final_step_norm": float(result.trace.step_norm[-1]),
        "final_residual": float(result.trace.residual[-1]),
        "monotone_violations": result.trace.monotone_violations(),
        "singular_steps": result.singular_steps,
        "wall_time_s": wall,
    }
    _write_json(out / "summary.json", summary)
    print(
        f"solve: {result.status} after {summary['iterations']} iterations, "
        f"objective {summary['final_objective']:.3e}, residual {summary['final_residual']:.3e}"
    )
    return 0 if result.status != STATUS_MAX_ITERS else 2


def _reconstruct_once(hidden, rho0, solver):
    oracle = ChannelOracle(hidden)
    report = reconstruct(oracle, rho0, solver)
    diff = _phase_invariant_diff(report.u_recovered, hidden)
    return report, diff


def cmd_reconstruct(spec: RunSpec) -> int:
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if spec.circuit == "example2":
            hidden = build_example2_circuit()
        elif spec.input_path:
            hidden = read_matrix_file(spec.input_path)
            if unitarity_defect(hidden) > 1e-10:
                raise ValueError("hidden channel matrix is not unitary within 1e-10")
        else:
            raise ValueError("reconstruct needs --in <matrix.json> or --circuit example2")
        n = hidden.shape[0]
        if spec.force_degenerate:
            rho0 = np.eye(n, dtype=np.complex128) / n
        else:
            rho0 = random_density(n, spec.seed)
        report, diff = _reconstruct_once(hidden, rho0, spec.solver)
    except (OSError, ValueError, ReconstructionError, RuntimeError) as exc:
        # DegenerateStateError lands here too; its message carries the diagnostic
        print(f"error: {exc}", file=sys.stderr)
        return 1

    doc = {
        "u0": matrix_to_obj(report.u0),
        "v": matrix_to_obj(report.v),
        "d": {"re": report.d.real.tolist(), "im": report.d.imag.tolist()},
        "u_recovered": matrix_to_obj(report.u_recovered),
        "budget_used": report.budget_used,
        "eigengap": report.eigengap if math.isfinite(report.eigengap) else None,
        "residual_on_tests": report.residual_on_tests,
        "normalized_diff": diff,
    }
    _write_json(out / "report.json", doc)
    print(
        f"reconstruct: budget {report.budget_used} (<= {n * n + 3 * n}), "
        f"normalized diff vs hidden {diff:.3e}"
    )
    return 0


def cmd_repro_ex1(spec: RunSpec) -> int:
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = _child_seeds(spec.seed, 2)
    summary = {}
    try:
        for name, n_pairs, child in (("single", 1, seeds[0]), ("multi", 20, seeds[1])):
            _, instance = generate_exact_instance(10, n_pairs, child)
            result = solve(instance, spec.solver)
            _write_trace(out / f"ex1_{name}_trace.csv", result.trace)
            summary[name] = {
                "pairs": n_pairs,
                "status": result.status,
                "iterations": len(result.trace) - 1,
                "final_objective": float(result.trace.objective[-1]),
                "final_step_norm": float(result.trace.step_norm[-1]),
                "monotone_violations": result.trace.monotone_violations(),
            }
            print(
                f"repro-ex1 {name}: {result.status}, final objective "
                f"{summary[name]['final_objective']:.3e}, "
                f"monotone violations {summary[name]['monotone_violations']}"
            )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_json(out / "ex1_summary.json", summary)
    return 0


def _ex2_run(k: int, base_seed: int, solver: SolverConfig):
    # The identity-start iteration occasionally passes near a saddle and needs
    # far more than the canned iteration budget; such probe states are skipped
    # and the next candidate seed is tried (every used seed is reported).
    hidden = build_example2_circuit()
    last_exc = None
    for rho0, used_seed in density_candidates(8, base_seed, EX2_GAP_FLOOR, max_tries=64):
        try:
            report, diff = _reconstruct_once(hidden, rho0, solver)
        except ReconstructionError as exc:
            last_exc = exc
            continue
        trace = report.solve.trace
        return {
            "seed": used_seed,
            "normalized_diff": diff,
            "budget_used": report.budget_used,
            "residual_on_tests": report.residual_on_tests,
            "iterations": len(trace) - 1,
            "final_objective": float(trace.objective[-1]),
            "trace": trace,
        }
    raise ReconstructionError(f"run {k}: no candidate probe state converged: {last_exc}")


def cmd_repro_ex2(spec: RunSpec) -> int:
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_seeds = _child_seeds(spec.seed, EX2_RUNS)
    try:
        results = [_ex2_run(k, run_seeds[k], spec.solver) for k in range(EX2_RUNS)]
    except (ValueError, ReconstructionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    with open(out / "ex2_diffs.csv", "w", encoding="utf-8") as fh:
        fh.write("run,seed,normalized_diff\n")
        for k, r in enumerate(results):
            fh.write(f"{k},{r['seed']},{r['normalized_diff']!r}\n")
    _write_trace(out / "ex2_run000_trace.csv", results[0]["trace"])
    summary = {
        "runs": EX2_RUNS,
        "max_normalized_diff": max(r["normalized_diff"] for r in results),
        "seeds": [r["seed"] for r in results],
        "normalized_diffs": [r["normalized_diff"] for r in results],
        "budget_used": [r["budget_used"] for r in results],
        "residual_on_tests": [r["residual_on_tests"] for r in results],
        "iterations": [r["iterations"] for r in results],
        "final_objectives": [r["final_objective"] for r in results],
    }
    _write_json(out / "ex2_summary.json", summary)
    print(
        f"repro-ex2: {EX2_RUNS} reconstructions, max normalized diff "
        f"{summary['max_normalized_diff']:.3e}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_solver_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--max-iters", type=int, default=None, help="iteration cap")
    sp.add_argument("--tol", type=float, default=None, help="objective termination threshold")
    sp.add_argument("--stall-tol", type=float, default=None, help="update-norm stall threshold")
    sp.add_argument(
        "--init", choices=("identity", "random"), default=None, help="solver start point"
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polarchan",
        description=(
            "Identify and reconstruct unitary channels from input/output state "
            "pairs via a polar-decomposition fixed-point iteration."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the fixed-point solver on one instance")
    sp.add_argument("--n", type=int, default=10, help="matrix dimension for generated instances")
    sp.add_argument("--seed", type=int, default=None, help="seed (default: POLARCHAN_SEED or 0)")
    sp.add_argument("--pairs", type=int, default=1, help="number of generated state pairs")
    sp.add_argument("--in", dest="input_path", default=None, help="instance JSON file")
    sp.add_argument("--out", default=".", help="output directory")
    _add_solver_flags(sp)

    sp = sub.add_parser("reconstruct", help="recover a hidden channel within the query budget")
    sp.add_argument("--seed", type=int, default=None, help="seed for the probe state")
    sp.add_argument("--in", dest="input_path", default=None, help="hidden unitary matrix JSON file")
    sp.add_argument("--circuit", choices=("example2",), default=None, help="built-in hidden circuit")
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument(
        "--force-degenerate",
        action="store_true",
        help="probe with a fully degenerate state (error-path check)",
    )
    _add_solver_flags(sp)

    sp = sub.add_parser("repro-ex1", help="single-pair and 20-pair n=10 solver traces")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=".")
    _add_solver_flags(sp)

    sp = sub.add_parser("repro-ex2", help="20 reconstructions of the 8x8 benchmark circuit")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=".")
    _add_solver_flags(sp)

    return p


_SOLVER_BASES = {
    "solve": {},
    # reconstruction keeps ~4 digits of phase headroom below the solve default
    "reconstruct": {"tol": 1e-28},
    # canned experiment setups: fixed iteration caps, tol well below the caps' reach
    "repro-ex1": {"max_iters": 1000, "tol": 1e-30},
    "repro-ex2": {"tol": 1e-28, "max_iters": 2000},
}


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    base = dict(_SOLVER_BASES[args.command])
    for key, attr in (("max_iters", "max_iters"), ("tol", "tol"), ("stall_tol", "stall_tol"), ("init", "init")):
        value = getattr(args, attr, None)
        if value is not None:
            base[key] = value
    solver = SolverConfig(**base)
    return RunSpec(
        command=args.command,
        n=getattr(args, "n", 10),
        seed=resolve_seed(getattr(args, "seed", None)),
        pairs=getattr(args, "pairs", 1),
        solver=solver,
        input_path=getattr(args, "input_path", None),
        out_dir=getattr(args, "out", "."),
        circuit=getattr(args, "circuit", None),
        force_degenerate=getattr(args, "force_degenerate", False),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    dispatch = {
        "solve": cmd_solve,
        "reconstruct": cmd_reconstruct,
        "repro-ex1": cmd_repro_ex1,
        "repro-ex2": cmd_repro_ex2,
    }
    return dispatch[spec.command](spec)


if __name__ == "__main__":
    sys.exit(main())
