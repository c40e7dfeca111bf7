"""The package's public surface: what ``polarchan`` re-exports is what each module exports."""

import ast
from pathlib import Path

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
