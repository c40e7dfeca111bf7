#!/usr/bin/env python3
"""polarchan benchmark.

    python3 perfbench/run.py --workload {ex2,recon,phase64,pairs,all} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each workload runs in its own process: one
caller, a closed loop (each op starts after the previous one returns), BLAS
pinned to one thread. ``--trace 0`` times ops for ``--seconds`` and prints
the end-to-end metrics; ``--trace 1`` runs a fixed list of ops untraced and
then traced, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; human-readable lines
and a results file under ``.perfbench_out/`` come before it. ``--workload
all`` runs every workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated after each pass, so its median does not hang on one
# stretch of host contention; at least this many times in a run.
MIN_SETUPS = 5
# op_tail_s has ten samples beyond it; with 22 inputs it lies at or above the median.
MIN_OPS = 22
# A CPU choice stands for this long before the CPUs are probed again.
PICK_INTERVAL_S = 0.5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import polarchan; print(time.perf_counter() - t)"
)
WORKLOADS = ("ex2", "recon", "phase64", "pairs")


def parse_args(argv):
    p = argparse.ArgumentParser(description="polarchan benchmark")
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine and source metadata
# ---------------------------------------------------------------------------

def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(cpus):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    h = hashlib.sha256()
    for f in sorted((SRC / "polarchan").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": cpus,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "blas_threads_env": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": h.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

def _clear(d: Path) -> None:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)


def _import_seconds() -> float:
    """Import time of polarchan (numpy included) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def setup(workloads, name, seed, work, picker):
    """One set-up: import in a fresh interpreter, input generation and warm-up.
    Returns its time and the inputs."""
    picker.pick()
    t_import = _import_seconds()
    t0 = perf_counter()
    inputs = workloads.make_inputs(name, seed)
    _clear(work)
    with contextlib.redirect_stdout(io.StringIO()):
        workloads.warm_up(name, seed, work)
    return t_import + perf_counter() - t0, inputs


class CpuPicker:
    """Moves this process, between ops, to the usable CPU that runs a fixed
    small kernel fastest at that moment.

    On a shared host each CPU's speed swings by about 1.6x within seconds,
    often on one CPU while another is quiet; the operating system's
    scheduler cannot see that and keeps the process where it is.
    """

    def __init__(self):
        import numpy as np

        self._cpus = sorted(os.sched_getaffinity(0))
        rng = np.random.default_rng(0)
        m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self._kernel = lambda: [np.linalg.svd(m) for _ in range(8)]
        self._last = -PICK_INTERVAL_S

    @property
    def cpus(self) -> list[int]:
        return self._cpus

    def _probe(self) -> float:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            self._kernel()
            best = min(best, perf_counter() - t0)
        return best

    def pick(self) -> None:
        if len(self._cpus) < 2 or perf_counter() - self._last < PICK_INTERVAL_S:
            return
        speeds = []
        for cpu in self._cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append((self._probe(), cpu))
        os.sched_setaffinity(0, {min(speeds)[1]})
        self._last = perf_counter()


def timed_op(workloads, name, inp, work, picker, on_result=None):
    """Run and time one op, then gate it. Returns (seconds, outcome, problems)."""
    picker.pick()
    _clear(work)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        try:
            result = workloads.run_op(inp, work)
        except workloads.EXPECTED_ERRORS as exc:
            result = exc
        except Exception:  # an untyped error is a wrong answer: record it and go on
            dt = perf_counter() - t0
            return dt, "rejected", [traceback.format_exc(limit=3)]
        dt = perf_counter() - t0
    if on_result is not None:
        on_result()
    outcome, problems = workloads.classify(name, inp, result, work)
    return dt, outcome, problems


def tail(times):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    s = sorted(times)
    n = len(s)
    k = max(n - 11, 0)
    return s[k], 100.0 * (k + 1) / n, n


def end_to_end(workloads, name, seed, work, seconds, picker):
    """Set-up, then passes over one window of inputs, together about
    ``seconds`` long, with a set-up repeated after each pass. Returns the
    median set-up time, the inputs, each input's fastest time, every
    execution's outcome and the problems found."""
    round_len = workloads.ROUND.get(name, 1)
    passes = workloads.PASSES[name]
    setup_s, inputs = setup(workloads, name, seed, work, picker)
    setups = [setup_s]
    runs = [[]]
    start = perf_counter()
    while True:
        runs[0].append(timed_op(workloads, name, inputs[len(runs[0]) % len(inputs)], work, picker))
        k = len(runs[0])
        if k % round_len == 0 and k >= MIN_OPS and perf_counter() - start >= seconds / passes:
            break
    setups.append(setup(workloads, name, seed, work, picker)[0])
    for _ in range(passes - 1):
        runs.append([timed_op(workloads, name, inputs[j % len(inputs)], work, picker)
                     for j in range(k)])
        setups.append(setup(workloads, name, seed, work, picker)[0])
    while len(setups) < MIN_SETUPS:
        setups.append(setup(workloads, name, seed, work, picker)[0])
    times = [min(run[j][0] for run in runs) for j in range(k)]
    outcomes = [run[j][1] for run in runs for j in range(k)]
    problems = [{"op": j, "pass": p, "outcome": run[j][1], "why": run[j][2]}
                for p, run in enumerate(runs) for j in range(k) if run[j][2]]
    return statistics.median(setups), inputs, times, outcomes, problems


def traced(workloads, tracing, name, inputs, work, picker):
    """Each op of the fixed list untraced and traced, in alternating order so
    drift in machine speed hits both sides; returns per-layer metrics and outcomes."""
    tracer = tracing.Tracer()
    outcomes, files, problems, ratios = [], [], [], []
    for k, inp in enumerate(inputs[: workloads.TRACE_OPS[name]]):
        written = []

        def count_files():
            written.append(_files_written(work))
            tracer.gate = True

        def traced_op():
            tracer.op = k
            with tracer.installed():
                out = timed_op(workloads, name, inp, work, picker, on_result=count_files)
            tracer.gate = False
            tracer.replay_solves()
            return out

        def plain_op():
            return timed_op(workloads, name, inp, work, picker)[0]

        if k % 2:
            dt, outcome, why = traced_op()
            plain = plain_op()
        else:
            plain = plain_op()
            dt, outcome, why = traced_op()
        ratios.append(dt / plain)
        outcomes.append(outcome)
        files.append(written[0] if written else (0, 0))
        if why:
            problems.append({"op": k, "outcome": outcome, "why": why})
    metrics = tracing.layer_metrics(tracer, len(outcomes), files)
    metrics["trace.overhead"] = statistics.median(ratios)
    return metrics, tracer, outcomes, problems


def _files_written(d: Path) -> tuple[int, int]:
    files = [f for f in d.rglob("*") if f.is_file()]
    rows = 0
    for f in files:
        if "trace" in f.name and f.suffix == ".csv":
            with open(f, encoding="utf-8") as fh:
                rows += sum(1 for _ in fh) - 1
    return sum(f.stat().st_size for f in files), rows


def run_one(args) -> int:
    if not (SRC / "polarchan" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: run from a polarchan checkout; {SRC / 'polarchan'} or {SPEC_PATH} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import polarchan
    import workloads

    if Path(polarchan.__file__).resolve().parent != (SRC / "polarchan").resolve():
        print(f"error: imported polarchan from {polarchan.__file__}, not {SRC}", file=sys.stderr)
        return 2

    name = args.workload
    work = OUT / "work" / name
    picker = CpuPicker()
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        import tracing

        inputs = setup(workloads, name, args.seed, work, picker)[1]
        metrics, tracer, outcomes, problems = traced(workloads, tracing, name, inputs, work, picker)
        missing = tracing.missing_spans(tracer, name)
        declared = [m["name"] for m in spec["per_layer"]]
        tracer.write(OUT / f"spans-{name}-seed{args.seed}.jsonl")
        record.update(op_seeds=[inp.seed for inp in inputs[: len(outcomes)]], missing_spans=missing)
    else:
        setup_s, inputs, times, outcomes, problems = end_to_end(workloads, name, args.seed, work, args.seconds, picker)
        p50 = statistics.median(times)
        tail_s, tail_pct, tail_n = tail(times)
        ok = outcomes.count("ok")
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": p50,
            "op_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = [m["name"] for m in spec["end_to_end"]]
        missing = []
        record.update(
            op_seeds=[inputs[k % len(inputs)].seed for k in range(len(times))],
            op_times_s=times, op_outcomes=outcomes, passes=workloads.PASSES[name],
            op_tail_percentile=tail_pct, op_tail_samples=tail_n,
            ok_per_s=ok / workloads.PASSES[name] / sum(times), fail_frac=(len(outcomes) - ok) / len(outcomes),
        )
    if sorted(metrics) != sorted(declared):
        raise RuntimeError(f"computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")

    record.update(inputs_sha256=workloads.inputs_digest(inputs), machine=metadata(picker.cpus))
    attempted = len(outcomes)
    failed = attempted - outcomes.count("ok")
    rejected = outcomes.count("rejected")
    record.update(metrics=metrics, attempted=attempted, failed=failed, rejected=rejected,
                  problems=problems)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{name}: seed {args.seed}, inputs sha256 {record['inputs_sha256'][:16]}, "
          f"gate: {outcomes.count('ok')} passed, {failed - rejected} typed errors, {rejected} rejected "
          f"of {attempted} ops")
    for key in declared:
        extra = ""
        if key == "op_tail_s":
            extra = f"  (p{record['op_tail_percentile']:.1f} of {record['op_tail_samples']} ops)"
        print(f"  {key:26s} {metrics[key]:.6g} {units[key]}{extra}")
    if not args.trace:
        print(f"  {'ok_per_s':26s} {record['ok_per_s']:.6g} 1/s")
        print(f"  {'fail_frac':26s} {record['fail_frac']:.6g} 1")
    for span in missing:
        print(f"  missing span: {span} (expected on {name}, never fired)")
    for p in problems:
        if p["outcome"] == "rejected":
            print(f"  rejected op {p['op']}: {p['why']}", file=sys.stderr)
    print(json.dumps({
        "correct": rejected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in declared},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's lines, then a table."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"error: workload {name} exited {out.returncode}", file=sys.stderr)
            return out.returncode
        rows[name] = json.loads(out.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print()
    print(f"{'metric':26s}" + "".join(f"{w:>14s}" for w in rows))
    for key in names:
        unit = next(iter(rows.values()))["metrics"][key]["unit"]
        print(f"{key + ' [' + unit + ']':26s}" + "".join(f"{r['metrics'][key]['value']:14.6g}" for r in rows.values()))
    for field in ("attempted", "failed"):
        print(f"{field:26s}" + "".join(f"{r[field]:14d}" for r in rows.values()))
    print(f"{'correct':26s}" + "".join(f"{str(r['correct']):>14s}" for r in rows.values()))
    print(json.dumps(rows))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
