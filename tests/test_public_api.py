"""The package's public surface: what ``polarchan`` re-exports is what each module exports."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import polarchan

MODULES = ("matkit", "search", "equiv", "tomo")

# Every name ``polarchan/__init__.py`` re-exports. A name leaves (or joins) the
# public surface only by editing this list, with a CHANGES.md note.
PUBLIC_NAMES = {
    "matkit": [
        "HermitianEigen",
        "PolarFactors",
        "frob_norm",
        "herm_part",
        "hermitian_eig",
        "poldec",
        "random_density",
        "random_unitary",
        "skew_part",
        "unitarity_defect",
    ],
    "search": [
        "STATUS_CONVERGED_STALL",
        "STATUS_CONVERGED_TOL",
        "STATUS_MAX_ITERS",
        "ChannelInstance",
        "IterationTrace",
        "SolveResult",
        "SolverConfig",
        "neg_gradient",
        "objective",
        "residual",
        "solve",
        "step",
    ],
    "equiv": [
        "DiagonalRelation",
        "PivotError",
        "is_equiv_under",
        "normalized_diff",
        "relation_matrix",
    ],
    "tomo": [
        "ChannelOracle",
        "DegenerateStateError",
        "ReconstructionError",
        "ReconstructionReport",
        "extract_phase_product",
        "probe_state",
        "reconstruct",
        "state_tomography",
    ],
}


def _reexports() -> dict[str, list[str]]:
    """The names ``polarchan/__init__.py`` imports, keyed by source module."""
    tree = ast.parse(Path(polarchan.__file__).read_text())
    out: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("module", MODULES)
def test_reexports_are_in_module_all(module):
    reexports = _reexports()
    assert set(reexports) <= set(MODULES)
    namespace: dict = {}
    exec(f"from polarchan.{module} import *", namespace)  # a stale __all__ entry raises here
    for name in reexports[module]:
        assert name in namespace, f"polarchan re-exports {name!r}, which is not in {module}.__all__"
        assert getattr(polarchan, name) is namespace[name]


def test_reexports_match_pinned_list():
    reexports = _reexports()
    assert {m: sorted(names) for m, names in reexports.items()} == {
        m: sorted(names) for m, names in PUBLIC_NAMES.items()
    }


def _trace():
    return polarchan.IterationTrace(np.array([1.0, 0.5]), np.array([0.0, 0.1]), np.array([0.2, 0.0]))


def _report():
    return polarchan.ReconstructionReport(
        u0=np.eye(2), v=np.eye(2), d=np.ones(2), u_recovered=np.eye(2), budget_used=8,
        tomography_queries=6, phase_queries=2, eigengap=0.4, residual_on_tests=0.0,
        solve=polarchan.SolveResult(np.eye(2), _trace(), polarchan.STATUS_CONVERGED_TOL),
    )


# one factory per public dataclass that holds arrays; each call builds equal content
ARRAY_DATACLASSES = {
    "ChannelInstance": lambda: polarchan.ChannelInstance([(np.eye(2) / 2, np.eye(2) / 2)]),
    "IterationTrace": _trace,
    "SolveResult": lambda: polarchan.SolveResult(np.eye(2), _trace(), polarchan.STATUS_CONVERGED_TOL),
    "ReconstructionReport": _report,
    "HermitianEigen": lambda: polarchan.hermitian_eig(np.eye(2) / 2),
    "PolarFactors": lambda: polarchan.poldec(np.eye(2)),
    "DiagonalRelation": lambda: polarchan.relation_matrix(np.eye(2), np.eye(2), np.eye(2)),
}


@pytest.mark.parametrize("name", ARRAY_DATACLASSES)
def test_array_dataclasses_compare_by_identity(name):
    a, b = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
    assert type(a).__name__ == name
    assert not a == b and a != b  # no elementwise array comparison, so nothing raises
    assert a == a
    assert hash(a) == hash(a) and len({a, b}) == 2
    c = dataclasses.replace(a)
    assert c is not a and type(c) is type(a) and repr(c) == repr(a)


def test_solver_config_keeps_value_equality():
    assert polarchan.SolverConfig(tol=1e-20) == polarchan.SolverConfig(tol=1e-20)
    assert hash(polarchan.SolverConfig()) == hash(polarchan.SolverConfig())
