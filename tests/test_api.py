"""The public API of the lazy package, and the value semantics of its records."""

import importlib
import sys
from functools import cached_property

import pytest

import kmgroups
from kmgroups import (
    CoxeterDiagram,
    CriterionFailure,
    EssentialPoset,
    GcmScalars,
    GeneralizedCartanMatrix,
    WeylGroup,
    classify,
    coxeter_matrix,
    deodhar_move,
    ends_verdict,
    find_j_regular,
    graph_strong_connectivity,
    indecomposability_verdict,
    locally_normal_report,
    open_subgroup_report,
    parabolic_closure_search,
    positive_real_roots,
    scalars,
    standard_conjugacy,
)
from kmgroups.cli import COMMANDS

PUBLIC = [
    "AFFINE", "BudgetExceededError", "ClosureCertificate", "Comparison",
    "ComponentNotSphericalError", "ConjugacyWitness", "CoxeterDiagram",
    "CriterionFailure", "DEFAULT_BUDGET", "DeodharMove", "DiagonalNotTwoError",
    "EndsVerdict", "EssentialPoset", "FINITE", "FiniteTypeInfo", "GcmScalars",
    "GcmTypeVerdict", "GcmValidationError", "GeneralizedCartanMatrix", "INDEFINITE",
    "INFINITE", "IndecomposabilityVerdict", "JRegularCertificate",
    "MissingWitnessError", "MoveVerificationError", "Nerve", "NotEssentialError",
    "NotPrimePowerError", "NotSphericalError", "NotSquareError",
    "OpenSubgroupClass", "OpenSubgroupReport", "PositiveOffDiagonalError",
    "RealRoot", "SandwichRecord", "StrongConnectivity", "StructureReport",
    "SubsetDecomposition", "WeylElement", "WeylGroup", "ZeroAsymmetryError",
    "__version__", "classify", "compare_commensurability", "coxeter_matrix",
    "deodhar_move", "ends_verdict", "essential_subsets", "find_j_regular",
    "graph_strong_connectivity", "indecomposability_verdict",
    "locally_normal_report", "nerve_strong_connectivity", "normalizer_factors",
    "open_subgroup_report", "parabolic_closure_search", "periodic_roots",
    "positive_real_roots", "prime_power", "reflection_of", "scalars",
    "split_by_support", "standard_conjugacy",
]

# the exported names that carry no __module__ of their own
CONSTANTS = {"AFFINE": "gcm", "FINITE": "gcm", "INDEFINITE": "gcm",
             "INFINITE": "coxeter", "DEFAULT_BUDGET": "weyl"}


class TestPublicNames:
    def test_all_is_unchanged(self):
        assert sorted(kmgroups.__all__) == PUBLIC

    @pytest.mark.parametrize("name", [n for n in PUBLIC if n != "__version__"])
    def test_name_is_the_defining_modules_object(self, name):
        value = getattr(kmgroups, name)
        module = (f"kmgroups.{CONSTANTS[name]}" if name in CONSTANTS
                  else value.__module__)
        assert getattr(importlib.import_module(module), name) is value

    def test_star_import(self):
        namespace = {}
        exec("from kmgroups import *", namespace)
        assert set(PUBLIC) <= set(namespace)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            kmgroups.no_such_name
        assert not hasattr(kmgroups, "no_such_name")

    def test_dir_lists_every_public_name(self):
        assert set(PUBLIC) <= set(dir(kmgroups))

    def test_engines_raise_the_packages_budget_error(self):
        from kmgroups import roots, weyl

        assert weyl.BudgetExceededError is roots.BudgetExceededError \
            is kmgroups.BudgetExceededError

    def test_submodules_still_import_by_name(self):
        from kmgroups import catalog

        assert catalog is sys.modules["kmgroups.catalog"]


def all_records():
    """One instance of every record type, each from a real computation."""
    a2 = GeneralizedCartanMatrix.from_rows([[2, -1], [-1, 2]])
    a1t = GeneralizedCartanMatrix.from_rows([[2, -2], [-2, 2]])
    diagram = coxeter_matrix(a1t)
    wa2, wa1t = WeylGroup(a2), WeylGroup(a1t)
    report = open_subgroup_report(a1t)
    structure = locally_normal_report(a1t)
    found = [
        a1t, classify(a1t), scalars(a1t), diagram, diagram.spherical_type({0}),
        diagram.decompose({0}), diagram.nerve(), graph_strong_connectivity(diagram),
        positive_real_roots(wa1t, 2)[0], EssentialPoset.build(diagram),
        deodhar_move(wa2, {0}, 1), standard_conjugacy(wa2, {0}, {1}),
        parabolic_closure_search(wa1t, wa1t.generator(0), 1),
        find_j_regular(wa1t, {0, 1}, 2, 2, 2, 1), ends_verdict(a1t),
        CriterionFailure("criterion_i", ("one_ended",)),
        indecomposability_verdict(a1t, 2), report.classes[0], report,
        structure.sandwiches[0], structure, COMMANDS[0],
    ]
    return {type(r).__name__: r for r in found}


RECORDS = all_records()


def field_values(record):
    return [getattr(record, f) for f in record._fields]


class TestRecords:
    def test_every_record_type_is_covered(self):
        assert len(RECORDS) == 22

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_every_record_is_a_tuple_with_fields(self, name):
        # value semantics come from the tuple, for the caching records too
        record = RECORDS[name]
        assert isinstance(record, tuple) and type(record)._fields == record._fields

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_assignment_is_rejected(self, name):
        record = RECORDS[name]
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is not None

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_equality_hash_and_repr(self, name):
        record = RECORDS[name]
        values = field_values(record)
        copy = type(record)(*values)
        assert copy == record and not copy != record
        try:
            hashed = hash(record)
        except TypeError:  # a dict field, unhashable as before
            assert any(isinstance(v, dict) for v in values)
        else:
            assert hash(copy) == hashed
        if name != "RealRoot":
            inside = ", ".join(f"{f}={v!r}" for f, v in zip(record._fields, values))
            assert repr(record) == f"{name}({inside})"

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_a_changed_field_compares_unequal(self, name):
        record = RECORDS[name]
        values = field_values(record)
        values[0] = "changed"
        assert type(record)(*values) != record

    def test_pinned_reprs(self):
        assert repr(GcmScalars(2, True)) == (
            "GcmScalars(max_abs_offdiag=2, two_spherical=True)")
        assert repr(CoxeterDiagram.from_orders([[1, 3], [3, 1]])) == (
            "CoxeterDiagram(orders=((1, 3), (3, 1)), labels=('1', '2'))")

    def test_named_tuples_convert_to_dicts(self):
        assert scalars(GeneralizedCartanMatrix.from_rows([[2, -3], [-1, 2]]))._asdict() \
            == {"max_abs_offdiag": 3, "two_spherical": True}

    def test_cached_properties_survive_the_frozen_classes(self):
        diagram = coxeter_matrix(GeneralizedCartanMatrix.from_rows([[2, -1], [-1, 2]]))
        assert isinstance(vars(CoxeterDiagram)["_spherical_subsets"], cached_property)
        assert isinstance(vars(EssentialPoset)["build"], classmethod)
        nerve = diagram.nerve()
        assert diagram.nerve() == nerve and {0, 1} in nerve
        assert hash(diagram) == hash((diagram.orders, diagram.labels))

