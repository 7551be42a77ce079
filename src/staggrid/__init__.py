"""Center/edge variable transforms on periodically staggered 1-D grids,
applied axis-wise to N-dimensional fields, with exact solvability
classification and an independent dense-arithmetic oracle.

The transforms need only :mod:`.grid` and :mod:`.ndfield`.  The field-file
format (:mod:`.fieldio`), the dense oracle (:mod:`.exact`) and the self-audit
(:mod:`.audit`) are not needed to transform an array, so their public names
are imported on first use.
"""

from .errors import (
    FieldFormatError,
    InconsistentDataError,
    ParityError,
    StagGridError,
)
from .grid import (
    DEFAULT_TOLERANCE,
    CenterField1D,
    EdgeField1D,
    Family,
    Inconsistent,
    PeriodicStagger1D,
    SolvabilityReport,
    SolveOutcome,
    Unique,
    alternating_residual,
    centers_from_edges,
    complete_min_norm,
    complete_pinned,
    edges_from_centers,
    solvability_report,
)
from .ndfield import FieldND, TransformSummary, to_centers_along, to_edges_along

#: The module of each name imported on first use, by :func:`__getattr__`.
_LAZY = {
    **dict.fromkeys(("MAX_ORACLE_UNKNOWNS", "DenseSystem", "EchelonResult", "build_system",
                     "determinant_exact", "row_echelon", "solve_dense"), "exact"),
    **dict.fromkeys(("AuditRecord", "AuditReport", "build_audit_report", "render_json",
                     "render_text"), "audit"),
    **dict.fromkeys(("read_field", "write_field"), "fieldio"),
}


def __getattr__(name):
    """A name of the field files, the oracle or the audit, imported and kept here (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "AuditRecord",
    "AuditReport",
    "CenterField1D",
    "DEFAULT_TOLERANCE",
    "DenseSystem",
    "EchelonResult",
    "EdgeField1D",
    "Family",
    "FieldFormatError",
    "FieldND",
    "Inconsistent",
    "InconsistentDataError",
    "MAX_ORACLE_UNKNOWNS",
    "ParityError",
    "PeriodicStagger1D",
    "SolvabilityReport",
    "SolveOutcome",
    "StagGridError",
    "TransformSummary",
    "Unique",
    "alternating_residual",
    "build_audit_report",
    "build_system",
    "centers_from_edges",
    "complete_min_norm",
    "complete_pinned",
    "determinant_exact",
    "edges_from_centers",
    "read_field",
    "render_json",
    "render_text",
    "row_echelon",
    "solvability_report",
    "solve_dense",
    "to_centers_along",
    "to_edges_along",
    "write_field",
    "__version__",
]
