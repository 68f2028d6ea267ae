"""Representations of the q-deformed algebra so'_q(r,s).

Construction of compact class-1 and degenerate principal series generator
matrices, numerical verification of the deformed commutation relations and
adjoint conditions, and exact classification of the spectral parameter
(irreducibility, *-series, irreducible constituents).

Each public name is imported from its module on first access (PEP 562), so
`import soqrs` loads no submodule, and exact classification loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "qarith": ("QParam", "SpectralParam", "normalize_spectral", "IDENTICAL",
               "EQUIVALENT_FLIP"),
    "gtbasis": ("TruncatedSpace", "class1_dim"),
    "compactrep": ("GeneratorMatrix", "d_coeff", "build_so3", "build_class1"),
    "degenrep": ("RepSpec", "DegenerateRep", "build_degenerate", "build_degenerate_primed",
                 "primed_transform", "PrimedTransform", "PrimedBasisUndefined"),
    "verify": ("check_relations", "check_star", "solve_metric", "solve_intertwiner",
               "ResidualReport", "MetricSolution", "IntertwinerSolution", "FOUND", "NONE",
               "INDEFINITE"),
    "classify": ("Classification", "Constituent", "Region", "ScanResult", "CrossCheck",
                 "classify_irreducible", "classify_star", "predict_constituents",
                 "scan_lattice", "cross_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
