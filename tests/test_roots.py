"""Real-root enumeration, witnesses, reflections and bounded periodicity."""

import pytest

import oracles
from kmgroups import (
    BudgetExceededError,
    GeneralizedCartanMatrix,
    MissingWitnessError,
    RealRoot,
    WeylGroup,
    periodic_roots,
    positive_real_roots,
    reflection_of,
    split_by_support,
)

A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
AFF1 = [[2, -2], [-2, 2]]
AFF2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def group(rows):
    return WeylGroup(GeneralizedCartanMatrix.from_rows(rows))


class TestRealRoot:
    def test_properties(self):
        r = RealRoot((1, 0, 2))
        assert r.height == 3
        assert r.support == {0, 2}
        assert repr(r) == "RealRoot((1, 0, 2))"

    def test_equality_ignores_witness(self):
        W = group(A2)
        a = RealRoot((1, 1), (W.identity, 0))
        b = RealRoot((1, 1), None)
        c = RealRoot((1, 1), (W.generator(0), 1))
        assert a == b == c
        assert not a != b and not b != c
        assert hash(a) == hash(b) == hash(c) and len({a, b, c}) == 1
        assert a != RealRoot((1, 0)) and a != RealRoot((1, 0), (W.identity, 0))


class TestEnumeration:
    def test_a2_all_roots(self):
        W = group(A2)
        roots = positive_real_roots(W, 10)
        assert {r.coords for r in roots} == {(1, 0), (0, 1), (1, 1)}

    def test_a3_root_count(self):
        # A3 has 6 positive roots, all of height <= 3
        W = group(A3)
        roots = positive_real_roots(W, 3)
        assert len(roots) == 6
        assert len(positive_real_roots(W, 50)) == 6

    @pytest.mark.parametrize("rows,height,radius", [
        (A2, 2, 5),
        (A3, 3, 7),
        (AFF1, 9, 19),
        (AFF2, 6, 13),
    ])
    def test_matches_orbit_oracle(self, rows, height, radius):
        W = group(rows)
        mine = {r.coords for r in positive_real_roots(W, height)}
        theirs = oracles.orbit_positive_roots(rows, radius, height)
        assert mine == theirs

    def test_affine_rank2_counts(self):
        # heights alternate k, k+1 in the two coordinates: 2 roots per level
        W = group(AFF1)
        for k in range(1, 6):
            roots = positive_real_roots(W, 2 * k + 1)
            assert len(roots) == 2 * (k + 1)

    def test_discovery_order_is_by_height(self):
        W = group(AFF2)
        heights = [r.height for r in positive_real_roots(W, 5)]
        assert heights == sorted(heights)

    def test_witnesses_reproduce_roots(self):
        W = group(AFF2)
        for root in positive_real_roots(W, 5):
            w, i = root.witness
            assert w.apply([int(j == i) for j in range(W.rank)]) == root.coords

    def test_zero_height_is_empty(self):
        assert positive_real_roots(group(A2), 0) == []

    def test_budget(self):
        W = group(AFF2)
        with pytest.raises(BudgetExceededError):
            positive_real_roots(W, 50, budget=10)

    @pytest.mark.parametrize("rows,height,size", [(A3, 1, 3), (A3, 3, 6), (AFF2, 4, 9)])
    def test_budget_counts_every_root_returned(self, rows, height, size):
        # the simple roots count too: s roots pass at budget s, raise at s - 1
        W = group(rows)
        assert len(positive_real_roots(W, height, budget=size)) == size
        for budget in (size - 1, 0):
            with pytest.raises(BudgetExceededError):
                positive_real_roots(W, height, budget=budget)

    def test_witnesses_match_dense_oracle(self):
        # coordinates, order, witness matrices and witness words, against a
        # breadth-first walk that builds each witness by a dense left product
        for rows in oracles.kernel_gcms(seed=20):
            height = 6 if len(rows) <= 5 else 4
            mine = positive_real_roots(group(rows), height, budget=5_000)
            expected = oracles.witnessed_roots(rows, height)
            assert [(r.coords, r.witness[0].rows, r.witness[1]) for r in mine] == expected
            for r in mine:
                w = r.witness[0]
                assert w.word == oracles.peel_word(rows, w.rows), (rows, r.coords)

    def test_no_matrix_products(self, count_products):
        roots = positive_real_roots(group(AFF2), 8)
        assert [r.witness[0].word for r in roots]
        assert count_products == []


class TestSplitBySupport:
    def test_split(self):
        W = group(A3)
        roots = positive_real_roots(W, 3)
        inside, outside = split_by_support(roots, {0, 1})
        assert {r.coords for r in inside} == {
            (1, 0, 0), (0, 1, 0), (1, 1, 0),
        }
        assert len(outside) == 3
        # original discovery order survives the split
        assert [r.coords for r in inside + outside] != []
        order = {r.coords: k for k, r in enumerate(roots)}
        assert [order[r.coords] for r in inside] == sorted(
            order[r.coords] for r in inside
        )


class TestReflections:
    def test_simple_reflection(self):
        W = group(A2)
        roots = positive_real_roots(W, 1)
        assert reflection_of(roots[0]) == W.generator(0)

    def test_highest_root_reflection_a2(self):
        W = group(A2)
        (high,) = [r for r in positive_real_roots(W, 2) if r.height == 2]
        refl = reflection_of(high)
        assert refl.word == (0, 1, 0)

    def test_all_reflections_are_involutions(self):
        W = group(AFF1)
        for root in positive_real_roots(W, 8):
            refl = reflection_of(root)
            assert (refl * refl).is_identity
            assert refl.apply(root.coords) == tuple(-c for c in root.coords)
            # a reflection fixes the root's reflection hyperplane pointwise in
            # the sense of odd length
            assert refl.length % 2 == 1

    def test_reflections_match_dense_oracle(self):
        for rows in oracles.kernel_gcms(seed=21)[::3]:
            for root in positive_real_roots(group(rows), 3, budget=500):
                w, i = root.witness
                word = list(w.word) + [i] + list(reversed(w.word))
                assert reflection_of(root).rows == oracles.to_key(
                    oracles.word_matrix(rows, word))

    def test_missing_witness(self):
        with pytest.raises(MissingWitnessError):
            reflection_of(RealRoot((1, 0)))


class TestPeriodicity:
    def test_translation_has_no_periodic_roots(self):
        W = group(AFF1)
        t = W.from_word([0, 1])
        roots = positive_real_roots(W, 11)
        assert periodic_roots(t, roots, 10) == []

    def test_torsion_fixes_everything_eventually(self):
        W = group(A2)
        rot = W.from_word([0, 1])  # order 3
        roots = positive_real_roots(W, 2)
        recs = periodic_roots(rot, roots, 3)
        assert len(recs) == 3
        assert all(n == 3 for _, n in recs)

    def test_least_period_is_recorded(self):
        W = group(A2)
        s1 = W.generator(0)
        recs = dict(
            (r.coords, n) for r, n in periodic_roots(s1, positive_real_roots(W, 2), 4)
        )
        # an involution fixes every root vector at its square, never before:
        # s1 negates alpha_1 and swaps the other two roots
        assert recs == {(1, 0): 2, (0, 1): 2, (1, 1): 2}

    def test_glide_like_element_fixes_roots_at_period_two(self):
        # the Coxeter element of the affine triangle is not translation-like:
        # it fixes root directions at period 2 within a modest height window
        W = group(AFF2)
        cox = W.from_word([0, 1, 2])
        roots = positive_real_roots(W, 12)
        recs = periodic_roots(cox, roots, 6)
        assert recs != []
        assert {n for _, n in recs} == {2}
        assert len(recs) == 8

    def test_bounded_check_is_a_certificate_only(self):
        W = group(A2)
        rot = W.from_word([0, 1])
        roots = positive_real_roots(W, 2)
        # with n_max below the true period nothing is reported
        assert periodic_roots(rot, roots, 2) == []
