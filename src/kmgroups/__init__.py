"""Exact combinatorial invariants of Kac-Moody groups over finite fields.

Everything is derived from a validated generalized Cartan matrix with exact
integer arithmetic: Coxeter data and spherical subsets, Weyl group elements
as root-lattice matrices, bounded real-root enumeration, standard-parabolic
combinatorics, and the verdict layer used by the `km` command line tool.

Importing the package runs no engine module: each public name is looked up
in ``_EXPORTS`` and its module is imported on first access (PEP 562).  The
errors behind `km`'s exit codes 2 and 3, and the default element budget,
are defined here, so the command line reaches them without an engine.
"""

import importlib

__version__ = "0.1.0"


class BadInputError(ValueError):
    """Input that the tool rejects as invalid; `km` exits 2 on it.

    ``message(base)`` is the text with its index lists counted from
    ``base``.  The subclasses whose text holds index sets override it, and
    their ``str()`` is ``message(0)``, as the library counts; `km` prints
    ``message(1)``, the form its options use.
    """

    def message(self, base: int) -> str:
        return str(self)


DEFAULT_BUDGET = 1_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration grew past its configured element budget; `km` exits 3."""

    def __init__(self, what: str, budget: int):
        self.what = what
        self.budget = budget
        super().__init__(f"{what} exceeded the element budget of {budget}")


# module -> the public names it defines
_EXPORTS = {
    "gcm": (
        "AFFINE", "FINITE", "INDEFINITE", "DiagonalNotTwoError", "GcmScalars",
        "GcmTypeVerdict", "GcmValidationError", "GeneralizedCartanMatrix",
        "NotSquareError", "PositiveOffDiagonalError", "ZeroAsymmetryError",
        "classify", "scalars",
    ),
    "coxeter": (
        "INFINITE", "CoxeterDiagram", "FiniteTypeInfo", "Nerve", "NotSphericalError",
        "StrongConnectivity", "SubsetDecomposition", "coxeter_matrix",
        "graph_strong_connectivity", "nerve_strong_connectivity",
    ),
    "weyl": ("WeylElement", "WeylGroup"),
    "roots": (
        "MissingWitnessError", "RealRoot", "periodic_roots", "positive_real_roots",
        "reflection_of", "split_by_support",
    ),
    "parabolics": (
        "ClosureCertificate", "Comparison", "ComponentNotSphericalError",
        "ConjugacyWitness", "DeodharMove", "EssentialPoset", "JRegularCertificate",
        "MoveVerificationError", "NotEssentialError", "compare_commensurability",
        "deodhar_move", "essential_subsets", "find_j_regular", "normalizer_factors",
        "parabolic_closure_search", "standard_conjugacy",
    ),
    "analysis": (
        "CriterionFailure", "EndsVerdict", "IndecomposabilityVerdict",
        "NotPrimePowerError", "OpenSubgroupClass", "OpenSubgroupReport",
        "SandwichRecord", "StructureReport", "ends_verdict",
        "indecomposability_verdict", "locally_normal_report", "open_subgroup_report",
        "prime_power",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "DEFAULT_BUDGET", "BudgetExceededError", "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
