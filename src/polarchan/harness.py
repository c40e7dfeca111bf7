"""Command-line interface: instance generation, solver and reconstruction runs,
and reproduction of the two canned experiments.

File formats (all JSON numbers are plain doubles, no complex literals):
  matrix file   {"n": N, "re": [[..]], "im": [[..]]}
  instance file {"pairs": [{"rho": <matrix>, "sigma": <matrix>}, ...]}
  trace CSV     header ``iter,objective,step_norm,residual``, one row per iteration

Exit codes: 0 on success (``--help`` included); 2 when ``solve`` stops at
``max-iters``; 1 for invalid input (usage errors included), an unusable
``--out``, or a typed library error (``DegenerateStateError``,
``ReconstructionError``), with one ``error:`` line on stderr and no
traceback. ``main`` is the only place that turns an error into an exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .equiv import normalized_diff
from .matkit import _child_seeds, _relative_eigengap, random_density, random_unitary, square
from .search import STATUS_MAX_ITERS, ChannelInstance, IterationTrace, SolverConfig, solve
from .tomo import RECONSTRUCT_TOL, ChannelOracle, ReconstructionError, reconstruct

TRACE_HEADER = "iter,objective,step_norm,residual"

# repro-ex2 skips candidate probe states whose relative eigengap is below this;
# tighter spectra make the recovered phases disproportionately noisy.
EX2_GAP_FLOOR = 5e-3
EX2_RUNS = 20

# the canned experiments' fixed solver setups: iteration caps, tol well below the caps' reach
EX1_SOLVER = SolverConfig(max_iters=1000, tol=1e-30)
EX2_SOLVER = SolverConfig(max_iters=2000, tol=RECONSTRUCT_TOL)


# ---------------------------------------------------------------------------
# circuit
# ---------------------------------------------------------------------------

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

def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}")


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def matrix_to_obj(m) -> dict:
    m = square(m)
    return {"n": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or not {"n", "re", "im"} <= set(obj):
        raise ValueError("matrix object needs fields n, re, im")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"matrix field n must be an integer, got {n!r}")
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
    _write_json(path, matrix_to_obj(m))


def read_matrix_file(path) -> np.ndarray:
    return matrix_from_obj(_read_json(path))


def write_instance_file(path, pairs) -> None:
    doc = {"pairs": [{"rho": matrix_to_obj(r), "sigma": matrix_to_obj(s)} for r, s in pairs]}
    _write_json(path, doc)


def read_instance_file(path) -> list[tuple[np.ndarray, np.ndarray]]:
    doc = _read_json(path)
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

def generate_exact_instance(n: int, n_pairs: int, seed: int):
    """Hidden random unitary plus consistent (rho, U rho U*) pairs, all from one seed."""
    seeds = _child_seeds(seed, n_pairs + 1)
    hidden = random_unitary(n, seeds[0])
    pairs = []
    for k in range(n_pairs):
        rho = random_density(n, seeds[k + 1])
        pairs.append((rho, hidden @ rho @ hidden.conj().T))
    return hidden, ChannelInstance(pairs)


def _write_trace(path, trace: IterationTrace) -> None:
    cols = zip(trace.objective.tolist(), trace.step_norm.tolist(), trace.residual.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for it, (obj, step_norm, res) in enumerate(cols):
            fh.write(f"{it},{obj!r},{step_norm!r},{res!r}\n")


def _solve_record(result) -> dict:
    """How one solve ended: the fields every output that reports a solve shares."""
    trace = result.trace
    return {
        "status": result.status,
        "iterations": len(trace) - 1,
        "final_objective": float(trace.objective[-1]),
        "final_step_norm": float(trace.step_norm[-1]),
        "final_residual": float(trace.residual[-1]),
        "monotone_violations": trace.monotone_violations(),
        "singular_steps": result.singular_steps,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(args: argparse.Namespace, out: Path) -> int:
    solver = SolverConfig(max_iters=args.max_iters, tol=args.tol, stall_tol=args.stall_tol)
    if args.input_path is not None:
        if args.n is not None or args.pairs is not None:
            raise ValueError("solve takes either --in <instance.json> or --n/--pairs, not both")
        instance = ChannelInstance(read_instance_file(args.input_path))
    else:
        n = 10 if args.n is None else args.n
        n_pairs = 1 if args.pairs is None else args.pairs
        _, instance = generate_exact_instance(n, n_pairs, args.seed)

    t0 = time.perf_counter()
    result = solve(instance, solver)
    wall = time.perf_counter() - t0
    _write_trace(out / "trace.csv", result.trace)
    record = _solve_record(result)
    _write_json(out / "summary.json", {**record, "wall_time_s": wall})
    print(
        f"solve: {result.status} after {record['iterations']} iterations, "
        f"objective {record['final_objective']:.3e}, residual {record['final_residual']:.3e}"
    )
    return 0 if result.status != STATUS_MAX_ITERS else 2


def _reconstruct_once(hidden, rho0, solver=None):
    oracle = ChannelOracle(hidden)
    report = reconstruct(oracle, rho0, solver)
    diff = normalized_diff(report.u_recovered, hidden)
    return report, diff


def cmd_reconstruct(args: argparse.Namespace, out: Path) -> int:
    if args.circuit == "example2":
        hidden = build_example2_circuit()
    else:
        hidden = read_matrix_file(args.input_path)
    n = hidden.shape[0]
    report, diff = _reconstruct_once(hidden, random_density(n, args.seed))

    doc = {
        "u0": matrix_to_obj(report.u0),
        "v": matrix_to_obj(report.v),
        "d": {"re": report.d.real.tolist(), "im": report.d.imag.tolist()},
        "u_recovered": matrix_to_obj(report.u_recovered),
        "budget_used": report.budget_used,
        "tomography_queries": report.tomography_queries,
        "phase_queries": report.phase_queries,
        "eigengap": report.eigengap if math.isfinite(report.eigengap) else None,
        "residual_on_tests": report.residual_on_tests,
        "normalized_diff": diff,
        "solve": _solve_record(report.solve),
    }
    _write_json(out / "report.json", doc)
    print(
        f"reconstruct: budget {report.budget_used} (<= {n * n + 3 * n}), "
        f"normalized diff vs hidden {diff:.3e}"
    )
    return 0


def cmd_repro_ex1(args: argparse.Namespace, out: Path) -> int:
    seeds = _child_seeds(args.seed, 2)
    summary = {}
    for name, n_pairs, child in (("single", 1, seeds[0]), ("multi", 20, seeds[1])):
        _, instance = generate_exact_instance(10, n_pairs, child)
        result = solve(instance, EX1_SOLVER)
        _write_trace(out / f"ex1_{name}_trace.csv", result.trace)
        summary[name] = {"pairs": n_pairs, **_solve_record(result)}
        print(
            f"repro-ex1 {name}: {result.status}, final objective "
            f"{summary[name]['final_objective']:.3e}, "
            f"monotone violations {summary[name]['monotone_violations']}"
        )
    _write_json(out / "ex1_summary.json", summary)
    return 0


def _ex2_run(k: int, base_seed: int):
    """(probe seed, report, normalized diff) of the first of 64 seeded probe
    states whose eigengap clears EX2_GAP_FLOOR and whose reconstruction succeeds.
    A probe that clears the floor can still hit the iteration cap: two close
    eigenvalues slow the identity-start solve's linear rate past the cap, or
    hold it on the plateau by the saddle that swaps them."""
    hidden = build_example2_circuit()
    last_exc = None
    for attempt in range(64):
        seed = _child_seeds([base_seed, attempt], 1)[0]
        rho0 = random_density(8, seed)
        if _relative_eigengap(np.linalg.eigvalsh(rho0)) < EX2_GAP_FLOOR:
            continue
        try:
            return (seed, *_reconstruct_once(hidden, rho0, EX2_SOLVER))
        except ReconstructionError as exc:
            last_exc = exc
    raise ReconstructionError(f"run {k}: no candidate probe state converged: {last_exc}")


def cmd_repro_ex2(args: argparse.Namespace, out: Path) -> int:
    run_seeds = _child_seeds(args.seed, EX2_RUNS)
    seeds, reports, diffs = zip(*(_ex2_run(k, run_seeds[k]) for k in range(EX2_RUNS)))
    records = [_solve_record(report.solve) for report in reports]

    with open(out / "ex2_diffs.csv", "w", encoding="utf-8") as fh:
        fh.write("run,seed,normalized_diff\n")
        for k, (seed, diff) in enumerate(zip(seeds, diffs)):
            fh.write(f"{k},{seed},{diff!r}\n")
    _write_trace(out / "ex2_run000_trace.csv", reports[0].solve.trace)
    summary = {
        "runs": EX2_RUNS,
        "max_normalized_diff": max(diffs),
        "seeds": list(seeds),
        "normalized_diffs": list(diffs),
        "budget_used": [report.budget_used for report in reports],
        "residual_on_tests": [report.residual_on_tests for report in reports],
        "iterations": [record["iterations"] for record in records],
        "final_objectives": [record["final_objective"] for record in records],
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

def _add_command(sub, name: str, run, help: str) -> argparse.ArgumentParser:
    """Register one command with the shared flags --seed and --out."""
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--seed", type=int, default=0, help="nonnegative seed (default 0)")
    sp.add_argument("--out", default=".", help="output directory")
    sp.set_defaults(run=run)
    return sp


class _Parser(argparse.ArgumentParser):
    """A usage error raises ValueError: ``main`` reports it as invalid input."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="polarchan",
        description=(
            "Identify and reconstruct unitary channels from input/output state "
            "pairs via a polar-decomposition fixed-point iteration."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = _add_command(sub, "solve", cmd_solve, "run the fixed-point solver on one instance")
    sp.add_argument("--n", type=int, default=None, help="generated matrix dimension (default 10)")
    sp.add_argument("--pairs", type=int, default=None, help="generated state pairs (default 1)")
    sp.add_argument("--in", dest="input_path", default=None, help="instance JSON file")
    sp.add_argument("--max-iters", type=int, default=SolverConfig.max_iters, help="iteration cap")
    sp.add_argument("--tol", type=float, default=SolverConfig.tol, help="objective threshold")
    sp.add_argument("--stall-tol", type=float, default=SolverConfig.stall_tol, help="stall threshold")

    sp = _add_command(
        sub, "reconstruct", cmd_reconstruct, "recover a hidden channel within the query budget"
    )
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="input_path", help="hidden unitary matrix JSON file")
    source.add_argument("--circuit", choices=("example2",), help="built-in hidden circuit")

    _add_command(sub, "repro-ex1", cmd_repro_ex1, "single-pair and 20-pair n=10 solver traces")
    _add_command(sub, "repro-ex2", cmd_repro_ex2, "20 reconstructions of the 8x8 benchmark circuit")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.run(args, out)
    except (OSError, ValueError, RuntimeError) as exc:
        # typed library errors land here too: DegenerateStateError is a
        # ValueError and ReconstructionError a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
