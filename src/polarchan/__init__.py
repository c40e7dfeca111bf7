"""polarchan: unitary-channel identification from input/output state pairs.

Modules:
    matkit   -- complex linear algebra and the polar decomposition
    search   -- objective, gradient, and the polar fixed-point solver
    equiv    -- phase-equivalence verifiers and normalized error metrics
    tomo     -- simulated measurements and budgeted channel reconstruction
    harness  -- command-line interface and file formats
"""

from .equiv import (
    DiagonalRelation,
    PivotError,
    is_equiv_under,
    normalized_diff,
    relation_matrix,
)
from .matkit import (
    HermitianEigen,
    PolarFactors,
    frob_norm,
    herm_part,
    hermitian_eig,
    poldec,
    random_density,
    random_unitary,
    skew_part,
    unitarity_defect,
)
from .search import (
    STATUS_CONVERGED_STALL,
    STATUS_CONVERGED_TOL,
    STATUS_MAX_ITERS,
    ChannelInstance,
    IterationTrace,
    SolveResult,
    SolverConfig,
    neg_gradient,
    objective,
    residual,
    solve,
    step,
)
from .tomo import (
    ChannelOracle,
    DegenerateStateError,
    ReconstructionError,
    ReconstructionReport,
    extract_phase_product,
    probe_state,
    reconstruct,
    state_tomography,
)

__version__ = "0.1.0"
