"""Tests of the benchmark's own machinery: the correctness gate, input
determinism and the tracer's exact counts.

    python3 -m pytest perfbench -q
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import polarchan  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def phase_op():
    inp = workloads.make_input("phase64", 7, 0)
    return inp, workloads.run_op(inp, Path("."))


def test_gate_accepts_phase64_op(phase_op):
    inp, report = phase_op
    assert workloads.gate("phase64", inp, report, Path(".")) == []


def test_gate_rejects_non_scalar_diagonal_phase(phase_op):
    inp, report = phase_op
    n = inp.hidden.shape[0]
    phases = np.exp(1j * np.linspace(0.0, 0.3, n))
    bad = dataclasses.replace(report, u_recovered=report.u_recovered * phases[np.newaxis, :])
    problems = workloads.check_reconstruction(bad, inp.hidden)
    assert len(problems) == 1 and problems[0].startswith("normalized_diff")


def test_gate_accepts_global_phase(phase_op):
    inp, report = phase_op
    rotated = dataclasses.replace(report, u_recovered=np.exp(0.7j) * report.u_recovered)
    assert workloads.check_reconstruction(rotated, inp.hidden) == []


@pytest.mark.parametrize(
    "change, prefix",
    [
        ({"budget_used": 4285}, "budget_used"),
        ({"residual_on_tests": 1e-6}, "residual_on_tests"),
    ],
)
def test_gate_rejects_report_fields(phase_op, change, prefix):
    inp, report = phase_op
    problems = workloads.check_reconstruction(dataclasses.replace(report, **change), inp.hidden)
    assert [p.split()[0] for p in problems] == [prefix]


def test_gate_rejects_inequivalent_u0(phase_op):
    inp, report = phase_op
    bad = dataclasses.replace(report, u0=polarchan.random_unitary(inp.hidden.shape[0], 3))
    assert workloads.check_reconstruction(bad, inp.hidden) == [
        "u0 is not diagonal-phase equivalent to the hidden unitary"
    ]


def _ex2_summary(**change):
    summary = {
        "budget_used": [86] * 20,
        "max_normalized_diff": 1e-11,
        "final_objectives": [1e-29] * 20,
    }
    summary.update(change)
    return summary


def test_ex2_gate():
    assert workloads.check_ex2(_ex2_summary()) == []
    assert workloads.check_ex2(_ex2_summary(budget_used=[86] * 19 + [85]))
    assert workloads.check_ex2(_ex2_summary(budget_used=[86] * 19))
    assert workloads.check_ex2(_ex2_summary(max_normalized_diff=2e-9))
    assert workloads.check_ex2(_ex2_summary(final_objectives=[1e-29] * 19 + [1e-17]))


def test_pairs_gate():
    assert workloads.check_pairs({"monotone_violations": 0}) == []
    assert workloads.check_pairs({"monotone_violations": 1})
    assert workloads.check_pairs({})


def test_classify_typed_errors_and_exit_codes():
    recon = workloads.make_input("recon", 1, 0)
    err = polarchan.ReconstructionError("cap")
    assert workloads.classify("recon", recon, err, Path("."))[0] == "error"
    pairs = workloads.make_input("pairs", 1, 0)
    assert workloads.classify("pairs", pairs, 2, Path("."))[0] == "error"


def test_inputs_are_a_function_of_the_seed():
    a = workloads.inputs_digest(workloads.make_inputs("recon", 5))
    assert a == workloads.inputs_digest(workloads.make_inputs("recon", 5))
    assert a != workloads.inputs_digest(workloads.make_inputs("recon", 6))
    sizes = [workloads.make_input("recon", 5, k).hidden.shape[0] for k in range(4)]
    assert sizes == [16, 32, 16, 32]


def test_tracer_counts_queries_exactly_and_names_missing_spans():
    n = 4
    hidden = polarchan.random_unitary(n, 11)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.op = 0
        report = polarchan.reconstruct(polarchan.ChannelOracle(hidden), polarchan.random_density(n, 12))
    tracer.replay_solves()
    assert report.budget_used == n * n + n + 2 * (n - 1)
    metrics = tracing.layer_metrics(tracer, 1, [(0, 0)])
    assert metrics["tomo.tomography_queries"] == n * n + n
    assert metrics["tomo.phase_queries"] == 2 * (n - 1)
    assert metrics["tomo.applies_per_query"] == 1.0
    assert metrics["search.iters"] > 0
    assert tracing.missing_spans(tracer, "pairs") == ["harness.main", "matkit.random_unitary"]
    # the binding sites are restored afterwards
    assert polarchan.reconstruct is polarchan.tomo.reconstruct
