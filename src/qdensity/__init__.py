"""Verification workbench for density consistency of relativistic wave equations.

Subpackages by concern: exact dimension algebra (:mod:`qdensity.dims`),
symbolic Lagrangian derivations (:mod:`qdensity.symexpr`), quadrature and
well modes (:mod:`qdensity.numerics`), numeric field operations
(:mod:`qdensity.fieldops`), the orthogonality-destruction experiment
(:mod:`qdensity.experiment`) and the command-line front end
(:mod:`qdensity.cli`).
"""

from . import dims, experiment, fieldops, numerics, symexpr

__all__ = ["dims", "experiment", "fieldops", "numerics", "symexpr"]
__version__ = "0.1.0"
