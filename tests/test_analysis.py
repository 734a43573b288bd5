"""Verdict layer: ends, local indecomposability, structure reports."""

import itertools
import math
import random

import pytest

import oracles
from kmgroups import (
    BadInputError,
    CriterionFailure,
    GeneralizedCartanMatrix,
    NotPrimePowerError,
    ends_verdict,
    indecomposability_verdict,
    locally_normal_report,
    open_subgroup_report,
    prime_power,
)
from test_gcm import BOND_PAIRS

A2 = [[2, -1], [-1, 2]]
AFF1 = [[2, -2], [-2, 2]]
AFF2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
MIXED = [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]
BLOCKS = [[2, -2, 0], [-2, 2, 0], [0, 0, 2]]


def gcm(rows):
    return GeneralizedCartanMatrix.from_rows(rows)


class TestPrimePower:
    @pytest.mark.parametrize(
        "q,expected",
        [(2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (8, (2, 3)), (9, (3, 2)),
         (25, (5, 2)), (27, (3, 3)), (121, (11, 2)), (13, (13, 1))],
    )
    def test_recognized(self, q, expected):
        assert prime_power(q) == expected

    @pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 100, -4])
    def test_rejected(self, q):
        with pytest.raises(NotPrimePowerError) as exc:
            prime_power(q)
        assert exc.value.q == q

    def test_matches_naive_trial_division(self):
        def naive(q):
            # the least divisor of q is prime; none up to sqrt(q) means q is prime
            p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
            e, rest = 0, q
            while rest % p == 0:
                rest //= p
                e += 1
            return (p, e) if rest == 1 else None

        for q in range(2, 20001):
            expected = naive(q)
            if expected is None:
                with pytest.raises(NotPrimePowerError):
                    prime_power(q)
            else:
                assert prime_power(q) == expected, q

    @pytest.mark.parametrize("q,expected", [
        (10**18 + 3, (10**18 + 3, 1)), ((10**18 + 3) ** 2, (10**18 + 3, 2)),
        (2**89, (2, 89)), (3**200, (3, 200)), ((2**61 - 1) ** 3, (2**61 - 1, 3)),
    ])
    def test_large_prime_powers(self, q, expected):
        assert prime_power(q) == expected

    @pytest.mark.parametrize("q", [(10**18 + 3) * (10**9 + 7), 2**89 * 3, 3215031751,
                                   3825123056546413051, 318665857834031151167461])
    def test_large_composites(self, q):
        # the last three are strong pseudoprimes to the first 4, 9 and 12 bases
        with pytest.raises(NotPrimePowerError):
            prime_power(q)

    @pytest.mark.parametrize("q", [2**89 - 1, 3317044064679887385961981])
    def test_a_root_too_large_to_prove_prime_is_refused(self, q):
        # the prime 2^89 - 1 and the composite psi_13 both pass all 13 bases
        with pytest.raises(BadInputError, match="cannot decide") as exc:
            prime_power(q)
        assert not isinstance(exc.value, NotPrimePowerError)


class TestEndsVerdict:
    def test_finite_type_is_not_one_ended(self):
        v = ends_verdict(gcm(A2))
        assert not v.weyl_infinite
        assert not v.one_ended
        assert v.witness is None
        # the connectivity checks still run and agree
        assert v.graph_strongly_connected and v.nerve_strongly_connected

    def test_affine_triangle_is_one_ended(self):
        v = ends_verdict(gcm(AFF2))
        assert v.weyl_infinite and v.one_ended
        assert v.nerve_agreement
        assert v.witness is None

    def test_infinite_dihedral_has_many_ends(self):
        v = ends_verdict(gcm(AFF1))
        assert v.weyl_infinite and not v.one_ended
        # the finite-order graph is disconnected outright
        assert v.witness == frozenset()
        assert v.nerve_agreement

    def test_mixed_witness_is_a_separating_subset(self):
        v = ends_verdict(gcm(MIXED))
        assert v.weyl_infinite and not v.one_ended
        assert v.witness == frozenset({2})
        assert not v.graph_strongly_connected
        assert not v.nerve_strongly_connected
        assert v.nerve_agreement


class TestIndecomposability:
    def test_finite_type_route(self):
        v = indecomposability_verdict(gcm(A2), 9)
        assert v.applicable
        assert v.outcome == "locally_indecomposable"
        assert v.by == "finite_type"
        assert v.reasons == ()
        assert (v.q, v.p, v.exponent) == (9, 3, 2)

    def test_criterion_i_route(self):
        v = indecomposability_verdict(gcm(AFF2), 4)
        assert v.outcome == "locally_indecomposable"
        assert v.by == "criterion_i"
        assert v.checklist["one_ended"]
        assert v.checklist["p_gt_max_abs_offdiag"]

    def test_criterion_ii_route(self):
        # affine C2 pattern: one-ended, but max |a_ij| = 2 kills the first
        # route at p = 2; the 2-spherical route still applies once q >= 3
        c2 = [[2, -1, 0], [-2, 2, -2], [0, -1, 2]]
        v = indecomposability_verdict(gcm(c2), 4)
        assert v.outcome == "locally_indecomposable"
        assert v.by == "criterion_ii"
        assert not v.checklist["p_gt_max_abs_offdiag"]
        # at q = 2 the q-bound fails too and the verdict degrades honestly
        v2 = indecomposability_verdict(gcm(c2), 2)
        assert v2.outcome == "inconclusive"
        reasons = {r.criterion: r.failed for r in v2.reasons}
        assert reasons["criterion_i"] == ("p_gt_max_abs_offdiag",)
        assert reasons["criterion_ii"] == ("q_bound_ok",)

    def test_inconclusive_carries_both_failures(self):
        v = indecomposability_verdict(gcm(AFF1), 2)
        assert v.outcome == "inconclusive"
        assert v.by is None
        reasons = {r.criterion: r.failed for r in v.reasons}
        assert reasons["criterion_i"] == ("one_ended", "p_gt_max_abs_offdiag")
        assert reasons["criterion_ii"] == ("two_spherical", "q_bound_ok")

    def test_decomposable_is_flagged_not_analyzed(self):
        v = indecomposability_verdict(gcm(BLOCKS), 4)
        assert not v.applicable
        assert v.outcome == "inconclusive"
        assert v.reasons == (
            CriterionFailure("applicability", ("indecomposable",)),
        )

    def test_p_monotonicity_on_criterion_i(self):
        # for the affine triangle (max |a_ij| = 1) every prime power works
        for q in (2, 3, 4, 5, 7, 8, 9, 11):
            v = indecomposability_verdict(gcm(AFF2), q)
            assert v.outcome == "locally_indecomposable", q

    def test_invalid_q_raises(self):
        with pytest.raises(NotPrimePowerError):
            indecomposability_verdict(gcm(A2), 6)

    def test_one_ended_matches_ends_verdict(self):
        cases = [[[2, a, b], [c, 2, d], [e, f, 2]]
                 for (a, c), (b, e), (d, f) in itertools.product(BOND_PAIRS, repeat=3)]
        rng = random.Random(8)
        cases += [oracles.random_gcm(rng, rng.randint(2, 6), density=0.5, deepest=3)
                  for _ in range(200)]
        seen = set()
        for rows in cases:
            g = gcm(rows)
            one_ended = ends_verdict(g).one_ended
            assert indecomposability_verdict(g, 2).checklist["one_ended"] == one_ended, rows
            seen.add(one_ended)
        assert seen == {False, True}


class TestOpenSubgroupReport:
    def test_classes_match_essential_subsets(self, catalog_gcms):
        from kmgroups import coxeter_matrix, essential_subsets

        for name, g in catalog_gcms.items():
            report = open_subgroup_report(g)
            subsets = essential_subsets(coxeter_matrix(g))
            assert tuple(c.set for c in report.classes) == subsets, name

    def test_affine_triangle_descriptions(self):
        report = open_subgroup_report(gcm(AFF2))
        assert [c.representative for c in report.classes] == ["B", "G"]
        assert report.classes[0].description == "compact open subgroups"
        assert (
            report.classes[1].description
            == "open subgroups of finite index in G"
        )
        assert len(report.semantics) == 3

    def test_intermediate_class_description(self):
        report = open_subgroup_report(gcm(MIXED))
        middle = report.classes[1]
        assert middle.representative == "P_{1,2}"
        assert middle.description.endswith("conjugate of P_{1,2}")
        assert middle.class_label == "[W_{1,2}]"


class TestLocallyNormalReport:
    def test_affine_triangle_single_sandwich(self):
        report = locally_normal_report(gcm(AFF2))
        assert report.compact_or_open
        assert len(report.sandwiches) == 1
        rec = report.sandwiches[0]
        assert rec.essential == {0, 1, 2}
        assert rec.spherical_extra == frozenset()
        assert rec.parabolic == "G"
        assert rec.statement == (
            "some conjugate gHg^-1 satisfies Res(G) <= gHg^-1 <= G"
        )
        assert rec.refined_lower_bound == "L+_{1,2,3} U_{1,2,3} <= Res(G)"

    def test_blocks_matrix_has_two_sandwiches(self):
        report = locally_normal_report(gcm(BLOCKS))
        assert len(report.sandwiches) == 2
        first, second = report.sandwiches
        assert first.essential == {0, 1}
        assert first.spherical_extra == frozenset()
        assert first.parabolic == "P_{1,2}"
        assert second.essential == {0, 1}
        assert second.spherical_extra == {2}
        assert second.parabolic == "G"
        # generator 3 commutes with the block, so the perp is spherical
        assert report.compact_or_open

    def test_mixed_perp_is_empty(self):
        report = locally_normal_report(gcm(MIXED))
        assert report.compact_or_open
        assert {rec.essential for rec in report.sandwiches} == {
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
        }
        # {0,1} has empty perp here: no spherical padding available
        recs = [r for r in report.sandwiches if r.essential == {0, 1}]
        assert len(recs) == 1 and recs[0].spherical_extra == frozenset()

    def test_symbols_legend(self):
        report = locally_normal_report(gcm(AFF1))
        assert set(report.symbols) == {"Res(O)", "L+_J", "U_X", "G-dagger"}
        assert all(isinstance(v, str) and v for v in report.symbols.values())

    def test_finite_type_has_no_sandwiches(self):
        report = locally_normal_report(gcm(A2))
        assert report.sandwiches == ()
        assert report.compact_or_open


class TestReportsAgainstOracles:
    """Both reports against ``oracles.open_subgroup_classes`` and
    ``oracles.sandwiches``, which scan every subset, take each perp by its
    definition and write every name from ``label_set``."""

    @staticmethod
    def assert_matches(rows):
        from kmgroups import coxeter_matrix

        g = gcm(rows)
        d = coxeter_matrix(g)
        assert open_subgroup_report(g).classes == tuple(oracles.open_subgroup_classes(d)), rows
        records, compact_or_open = oracles.sandwiches(d)
        report = locally_normal_report(g)
        assert report.sandwiches == tuple(records), rows
        assert report.compact_or_open == compact_or_open, rows
        return report

    def test_subset_sweep(self, catalog_gcms):
        from test_coxeter import subset_sweep

        padded = 0
        for rows in subset_sweep(catalog_gcms):
            report = self.assert_matches(rows)
            padded += any(r.spherical_extra for r in report.sandwiches)
        assert padded > 50  # many inputs pad J with a nonempty J'

    def test_sums_of_infinite_blocks(self):
        rng = random.Random(20261031)
        sums = [
            oracles.direct_sum(AFF2, AFF1),
            oracles.direct_sum(MIXED, A2, AFF1),
            oracles.direct_sum(AFF1, AFF1, AFF1),
            oracles.direct_sum(AFF2, [[2]], oracles.random_gcm(rng, 3, 0.8, 3)),
        ]
        for rows in sums:
            perm = list(range(len(rows)))
            rng.shuffle(perm)
            assert not self.assert_matches(rows).compact_or_open
            self.assert_matches(oracles.permuted(rows, perm))

    def test_random_matrices(self):
        rng = random.Random(20261032)
        outcomes = set()
        for _ in range(300):
            rows = oracles.random_gcm(rng, rng.randint(2, 7),
                                      density=rng.choice([0.2, 0.4, 0.7]), deepest=3)
            outcomes.add(self.assert_matches(rows).compact_or_open)
        assert outcomes == {False, True}
