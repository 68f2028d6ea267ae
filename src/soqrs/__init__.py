"""Representations of the q-deformed algebra so'_q(r,s).

Construction of compact class-1 and degenerate principal series generator
matrices, numerical verification of the deformed commutation relations and
adjoint conditions, and exact classification of the spectral parameter
(irreducibility, *-series, irreducible constituents).
"""

from .qarith import (
    IDENTICAL,
    EQUIVALENT_FLIP,
    InexactSpectralError,
    QParam,
    SpectralParam,
    normalize_spectral,
)
from .gtbasis import (
    TruncatedSpace,
    class1_dim,
)
from .compactrep import (
    GeneratorMatrix,
    R_coeff,
    build_class1,
    build_so3,
    d_coeff,
)
from .degenrep import (
    DegenerateRep,
    K_coeff,
    PrimedBasisUndefined,
    PrimedTransform,
    RepSpec,
    build_degenerate,
    build_degenerate_primed,
    primed_transform,
)
from .verify import (
    FOUND,
    INDEFINITE,
    NONE,
    IntertwinerSolution,
    MetricSolution,
    ResidualReport,
    check_relations,
    check_star,
    solve_intertwiner,
    solve_metric,
)
from .classify import (
    Classification,
    Constituent,
    CrossCheck,
    Region,
    ScanResult,
    classify_irreducible,
    classify_star,
    cross_check,
    predict_constituents,
    scan_lattice,
)

__version__ = "0.1.0"

__all__ = [
    "QParam", "SpectralParam", "InexactSpectralError",
    "normalize_spectral", "IDENTICAL", "EQUIVALENT_FLIP",
    "TruncatedSpace", "class1_dim",
    "GeneratorMatrix", "d_coeff", "R_coeff", "build_so3", "build_class1",
    "RepSpec", "DegenerateRep", "K_coeff", "build_degenerate",
    "build_degenerate_primed", "primed_transform", "PrimedTransform",
    "PrimedBasisUndefined",
    "check_relations", "check_star", "solve_metric", "solve_intertwiner",
    "ResidualReport", "MetricSolution",
    "IntertwinerSolution", "FOUND", "NONE", "INDEFINITE",
    "Classification", "Constituent", "Region", "ScanResult", "CrossCheck",
    "classify_irreducible", "classify_star",
    "predict_constituents", "scan_lattice", "cross_check",
]
