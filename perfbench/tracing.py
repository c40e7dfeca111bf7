"""Traced run: spans around every call from one polarchan module into another,
kept in memory, written out at the end and reduced to per-layer metrics.

Spans wrap the binding sites, the names one module imported from another
(``harness.solve``, ``tomo.hermitian_eig``, ...), plus the oracle's
``apply``/``expectation`` methods and the two stages inside ``reconstruct``.
Nothing is wrapped inside the solver's iteration loop; the per-iteration
split of the solver comes from replays of its public kernels at each
solve's final iterate, taken after the op and outside its timing.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


import polarchan
import workloads
from polarchan import STATUS_MAX_ITERS, equiv, frob_norm, harness, neg_gradient, objective, poldec, skew_part, tomo

# (owner, attribute, span name); the layer is the span name's first part.
BINDINGS = (
    (harness, "main", "harness.main"),
    (polarchan, "reconstruct", "tomo.reconstruct"),
    (harness, "reconstruct", "tomo.reconstruct"),
    (harness, "solve", "search.solve"),
    (harness, "normalized_diff", "equiv.normalized_diff"),
    (harness, "random_density", "matkit.random_density"),
    (harness, "random_unitary", "matkit.random_unitary"),
    (tomo, "solve", "search.solve"),
    (tomo, "hermitian_eig", "matkit.hermitian_eig"),
    (tomo, "random_density", "matkit.random_density"),
    (tomo, "state_tomography", "tomo.state_tomography"),
    (tomo, "extract_phase_product", "tomo.extract_phase_product"),
    (tomo.ChannelOracle, "apply", "tomo.oracle.apply"),
    (tomo.ChannelOracle, "expectation", "tomo.oracle.expectation"),
    (workloads, "normalized_diff", "equiv.normalized_diff"),
    (workloads, "is_equiv_under", "equiv.is_equiv_under"),
    (equiv, "relation_matrix", "equiv.relation_matrix"),
)

_RECON_SPANS = (
    "tomo.reconstruct", "search.solve", "tomo.state_tomography", "tomo.extract_phase_product",
    "tomo.oracle.expectation", "tomo.oracle.apply", "matkit.hermitian_eig",
    "matkit.random_density", "equiv.normalized_diff", "equiv.is_equiv_under",
    "equiv.relation_matrix",
)
# Spans each workload should fire; one that never fires is reported by name.
EXPECTED_SPANS = {
    "ex2": ("harness.main", *_RECON_SPANS[:9]),
    "recon": _RECON_SPANS,
    "phase64": _RECON_SPANS,
    "pairs": ("harness.main", "search.solve", "matkit.random_unitary", "matkit.random_density"),
}

REPLAY_REPS = 15


class Span:
    __slots__ = ("id", "parent", "op", "name", "gate", "t0", "t1", "cb_s", "err", "value")

    def __init__(self, sid, parent, op, name, gate):
        self.id, self.parent, self.op, self.name, self.gate = sid, parent, op, name, gate
        self.t0 = self.t1 = self.cb_s = 0.0
        self.err = self.value = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Span recorder. Set ``op`` before each op and ``gate`` around its check."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self.gate = False
        self._stack: list[Span] = []
        self._solves: list[tuple] = []
        self.replays: list[tuple[int, float, float, float, float]] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                        self.op, name, self.gate)
            self.spans.append(span)
            self._stack.append(span)
            if name == "search.solve" and kwargs.get("on_iteration") is not None:
                kwargs["on_iteration"] = _timed_callback(span, kwargs["on_iteration"])
            span.t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.err = type(exc).__name__
                raise
            finally:
                span.t1 = perf_counter()
                self._stack.pop()
            if name == "search.solve":
                span.value = (len(out.trace), out.status == STATUS_MAX_ITERS, out.singular_steps)
                self._solves.append((args[0].pairs, out.u_hat, len(out.trace)))
            elif name == "equiv.normalized_diff":
                span.value = out
            elif name == "equiv.relation_matrix":
                span.value = out.offdiag_mass
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding site for the duration of the block."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in BINDINGS]
        try:
            for owner, attr, name in BINDINGS:
                setattr(owner, attr, self._wrap(name, vars(owner)[attr]))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def replay_solves(self) -> None:
        """Time the solver's kernels at the final iterate of each solve since the last call.

        The residual is replayed as the solver computes it, from the summed
        gradient; the public ``residual()`` recomputes that gradient, which
        the gradient replay already counts.
        """
        for pairs, u, rows in self._solves:
            m = _grad_total(u, pairs)
            self.replays.append((
                rows,
                _median_us(lambda: poldec(m)),
                _median_us(lambda: _grad_total(u, pairs)),
                _median_us(lambda: sum(objective(u, p) for p in pairs)),
                _median_us(lambda: frob_norm(skew_part(u.conj().T @ m))),
            ))
        self._solves.clear()

    def write(self, path) -> None:
        base = self.spans[0].t0 if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name, "gate": s.gate,
                    "t0": s.t0 - base, "t1": s.t1 - base, "cb_s": s.cb_s, "err": s.err,
                }) + "\n")


def _timed_callback(span: Span, cb):
    def timed(*row):
        t0 = perf_counter()
        try:
            return cb(*row)
        finally:
            span.cb_s += perf_counter() - t0

    return timed


def _grad_total(u, pairs):
    m = neg_gradient(u, pairs[0])
    for p in pairs[1:]:
        m = m + neg_gradient(u, p)
    return m


def _median_us(fn) -> float:
    times = []
    for _ in range(REPLAY_REPS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int, files: list[tuple[int, int]]) -> dict[str, float]:
    """Per-op per-layer metrics of a traced pass of ``n_ops`` ops.

    ``files`` holds (bytes written, trace rows written) per op. A ratio whose
    base never occurred reads 0; ``missing_spans`` names the spans behind it.
    """
    spans = tracer.spans
    child_s = defaultdict(float)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.dur
            children[s.parent].append(s)
    name_of = {s.id: s.name for s in spans}

    def self_s(s: Span) -> float:
        return s.dur - child_s[s.id] - s.cb_s

    prog = defaultdict(list)
    for s in spans:
        if not s.gate:
            prog[s.name].append(s)

    solves = [s for s in prog["search.solve"] if s.value is not None]
    rows = sum(s.value[0] for s in solves)
    solve_self = sum(self_s(s) for s in solves)
    us_per_iter = _ratio(solve_self, rows) * 1e6
    weight = sum(r[0] for r in tracer.replays)
    kernels = [_ratio(sum(r[0] * r[k] for r in tracer.replays), weight) for k in range(1, 5)]

    queries = prog["tomo.oracle.expectation"]
    recons = prog["tomo.reconstruct"]
    fails = defaultdict(int)
    for s in recons:
        if s.err == "DegenerateStateError":
            fails["degenerate"] += 1
        elif s.err == "ReconstructionError":
            phase = any(c.name == "tomo.extract_phase_product" and c.err for c in children[s.id])
            fails["phase" if phase else "cap"] += 1
    cli_recons = [s for s in recons if name_of.get(s.parent) == "harness.main"]

    def total(name: str) -> float:
        return sum(s.dur for s in prog[name])

    per_op = {
        "search.iters": sum(s.value[0] - 1 for s in solves),
        "search.cap_hits": sum(s.value[1] for s in solves),
        "search.singular_steps": sum(s.value[2] for s in solves),
        "search.solve_s": solve_self,
        "tomo.tomography_s": total("tomo.state_tomography"),
        "tomo.tomography_queries": sum(name_of.get(s.parent) == "tomo.state_tomography" for s in queries),
        "tomo.phase_queries": sum(name_of.get(s.parent) == "tomo.extract_phase_product" for s in queries),
        "tomo.phases_s": total("tomo.extract_phase_product"),
        "tomo.recon_self_s": sum(self_s(s) for s in recons),
        "tomo.self_s": sum(self_s(s) for name, group in prog.items() if name.startswith("tomo.") for s in group),
        "tomo.fail.cap": fails["cap"],
        "tomo.fail.phase": fails["phase"],
        "tomo.fail.degenerate": fails["degenerate"],
        "harness.self_s": sum(self_s(s) for s in prog["harness.main"]) + sum(s.cb_s for s in solves),
        "harness.bytes_written": sum(f[0] for f in files),
        "harness.trace_rows": sum(f[1] for f in files),
        "harness.generate_s": sum(
            s.dur for name in ("matkit.random_density", "matkit.random_unitary")
            for s in prog[name] if name_of.get(s.parent) == "harness.main"
        ),
        "harness.recon_attempts": len(cli_recons),
        "matkit.eig_s": total("matkit.hermitian_eig"),
        "matkit.random_density_s": total("matkit.random_density"),
        "equiv.check_s": sum(
            s.dur for s in spans
            if s.name.startswith("equiv.") and not name_of.get(s.parent, "").startswith("equiv.")
        ),
    }
    metrics = {name: value / n_ops for name, value in per_op.items()}
    metrics.update({
        "search.us_per_iter": us_per_iter,
        "search.svd_us": kernels[0],
        "search.grad_us": kernels[1],
        "search.obj_us": kernels[2],
        "search.residual_us": kernels[3],
        "search.loop_us": us_per_iter - sum(kernels),
        "tomo.us_per_query": _ratio(sum(s.dur for s in queries), len(queries)) * 1e6,
        "tomo.applies_per_query": _ratio(
            sum(name_of.get(s.parent) == "tomo.oracle.expectation" for s in prog["tomo.oracle.apply"]),
            len(queries),
        ),
        "harness.recon_yield": _ratio(sum(s.err is None for s in cli_recons), len(cli_recons)),
        "equiv.max_diff": max((s.value for s in spans if s.name == "equiv.normalized_diff"
                               and s.value is not None), default=0.0),
        "equiv.offdiag_mass": max((s.value for s in spans if s.name == "equiv.relation_matrix"
                                   and s.value is not None), default=0.0),
    })
    return metrics


def missing_spans(tracer: Tracer, workload: str) -> list[str]:
    fired = {s.name for s in tracer.spans}
    return [name for name in EXPECTED_SPANS[workload] if name not in fired]
