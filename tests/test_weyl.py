"""Weyl group engine: words, descents, balls, longest elements, orders."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kmgroups import (
    BudgetExceededError,
    GeneralizedCartanMatrix,
    WeylGroup,
    weyl,
)

A2 = [[2, -1], [-1, 2]]
B2 = [[2, -2], [-1, 2]]
AFF1 = [[2, -2], [-2, 2]]
AFF2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def group(rows):
    return WeylGroup(GeneralizedCartanMatrix.from_rows(rows))


def image(w, i):
    """w(alpha_i): column i of w's matrix."""
    return tuple(row[i] for row in w.rows)


def right_descents(w):
    """The i with w(alpha_i) < 0, which are the i with length(w s_i) < length(w)."""
    return tuple(i for i in range(w.group.rank) if weyl.root_sign(image(w, i)) < 0)


def finite_a(n):
    """Rows of the Cartan matrix of finite type A_n."""
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)]


def affine_a(r):
    """Rows of the Cartan matrix of affine type A_r (rank r + 1, r >= 1)."""
    if r == 1:
        return AFF1
    rows = finite_a(r + 1)
    rows[0][r] = rows[r][0] = -1
    return rows


def assert_order_matches_oracle(w):
    """order() agrees with naive powering up to the whole group's bound."""
    cap = w.group.diagram.max_finite_order(range(w.group.rank))
    expected = oracles.matrix_order([list(r) for r in w.rows], cap=cap)
    assert w.order() == expected, (w.group.gcm.entries, w.word)
    return expected


A_SUM = oracles.direct_sum(*(finite_a(n) for n in (1, 2, 4, 6, 10)))


def baby_steps(w):
    """The b of order()'s baby-step giant-step search for w."""
    cap = w.group.diagram.max_finite_order(w.support)
    return min(math.isqrt(cap - 1) + 1, 1024)


def power_products(n):
    """Products that left-to-right square-and-multiply spends on w**n."""
    return n.bit_length() + bin(n).count("1") - 2 if n else 0


class TestBasics:
    def test_generator_action(self):
        W = group(A2)
        s1 = W.generator(0)
        assert s1.apply((1, 0)) == (-1, 0)
        assert s1.apply((0, 1)) == (1, 1)
        assert image(s1, 1) == (1, 1)

    def test_affine_generator_action(self):
        W = group(AFF1)
        assert W.generator(0).apply((0, 1)) == (2, 1)

    def test_generators_are_involutions(self):
        W = group(AFF2)
        for s in map(W.generator, range(W.rank)):
            assert not s.is_identity
            assert (s * s).is_identity
            assert s.order() == 2

    def test_generator_index_out_of_range_raises(self):
        # as from_word and ball do: -1 is not read as the last generator
        W = group(A2)
        for i in (-1, W.rank):
            with pytest.raises(IndexError, match=f"generator index {i} out of range"):
                W.generator(i)

    def test_from_word_and_identity(self):
        W = group(A2)
        assert W.from_word([]).is_identity
        assert W.from_word([0, 1, 0]) == W.from_word([1, 0, 1])
        with pytest.raises(IndexError):
            W.from_word([2])

    def test_equality_and_hash(self):
        W = group(A2)
        a = W.from_word([0, 1])
        b = W.generator(0) * W.generator(1)
        assert a == b and hash(a) == hash(b)
        assert a != W.from_word([1, 0])
        assert a != "not an element"

    def test_matrix_matches_oracle_products(self):
        W = group(AFF2)
        word = [0, 1, 2, 0, 1]
        w = W.from_word(word)
        expected = oracles.eye(3)
        for k in word:
            # right multiplication: append each generator on the right
            expected = oracles.mul(expected, oracles.generator_matrix(AFF2, k))
        assert [list(r) for r in w.rows] == expected

    def test_pow_and_inverse(self):
        W = group(AFF1)
        t = W.from_word([0, 1])
        assert (t**3) == W.from_word([0, 1] * 3)
        assert (t**0).is_identity
        assert (t**-2) == (t.inverse()) ** 2
        assert (t * t.inverse()).is_identity
        assert t.inverse().word == (1, 0)

    def test_repr_mentions_word(self):
        W = group(A2)
        assert repr(W.from_word([0, 1])) == "<WeylElement s1*s2>"
        assert repr(W.identity) == "<WeylElement e>"


class TestWordsAndDescents:
    def test_canonical_word_a2(self):
        W = group(A2)
        w0 = W.from_word([1, 0, 1])
        assert w0.word == (0, 1, 0)
        assert w0.length == 3
        assert w0.support == {0, 1}

    def test_descent_set(self):
        W = group(A2)
        assert right_descents(W.from_word([0])) == (0,)
        assert right_descents(W.from_word([0, 1])) == (1,)
        assert right_descents(W.from_word([0, 1, 0])) == (0, 1)
        assert right_descents(W.identity) == ()

    def test_word_laws_on_balls(self):
        # for every element of a ball: the canonical word reduces correctly,
        # peeling by the largest descent gives the same length and support,
        # and appending any generator changes length by exactly 1
        for rows, radius in [(A2, 6), (AFF1, 6), (AFF2, 4)]:
            W = group(rows)
            for w in W.ball(radius):
                assert W.from_word(w.word) == w
                other = oracles.peel_word(rows, w.rows, pick=max)
                assert len(other) == w.length
                assert frozenset(other) == w.support
                assert W.from_word(other) == w
                for i in range(W.rank):
                    delta = (w * W.generator(i)).length - w.length
                    assert delta in (-1, 1)
                    assert (delta < 0) == (weyl.root_sign(image(w, i)) < 0)

    def test_length_is_bfs_depth(self):
        W = group(AFF2)
        ball = W.ball(5)
        # BFS order: lengths are nondecreasing and equal the word length
        lengths = [w.length for w in ball]
        assert lengths == sorted(lengths)
        assert all(w.length <= 5 for w in ball)


class TestBalls:
    def test_finite_group_ball_closes(self):
        W = group(A2)
        ball = W.ball(10)
        assert len(ball) == 6
        halted, count = oracles.enumerate_group(A2, 100)
        assert halted and count == len(ball)

    def test_ball_sizes_affine_rank2(self):
        W = group(AFF1)
        # infinite dihedral: 2 new elements per radius step
        assert [len(W.ball(r)) for r in range(5)] == [1, 3, 5, 7, 9]

    def test_ball_against_oracle_matrices(self):
        for rows, radius in [(B2, 8), (AFF2, 4)]:
            W = group(rows)
            mine = {w.rows for w in W.ball(radius)}
            theirs = oracles.ball_matrices(rows, radius)
            assert mine == theirs

    def test_subgroup_ball(self):
        W = group(A3)
        sub = W.ball(10, generators=[0, 1])
        assert len(sub) == 6
        assert all(w.support <= {0, 1} for w in sub)

    def test_ball_budget(self):
        W = group(AFF2)
        with pytest.raises(BudgetExceededError) as exc:
            W.ball(50, budget=20)
        assert exc.value.budget == 20

    def test_ball_budget_boundary(self):
        # the budget counts every element returned, the identity included:
        # a ball of s elements passes at budget s and raises at s - 1
        W = group(A2)
        assert len(W.ball(10, budget=6)) == 6
        with pytest.raises(BudgetExceededError):
            W.ball(10, budget=5)
        assert W.ball(0, budget=1) == [W.identity]
        with pytest.raises(BudgetExceededError):
            W.ball(0, budget=0)
        with pytest.raises(BudgetExceededError):
            W.ball(0, generators=[], budget=0)

    def test_radius_zero_is_identity(self):
        for rows in (A2, AFF2):
            W = group(rows)
            assert W.ball(0) == [W.identity]
            assert W.ball(0, generators=[1]) == [W.identity]

    def test_ball_sorted_order(self):
        W = group(A2)
        words = [w.word for w in W.ball(10)]
        assert words == [
            (),
            (0,),
            (1,),
            (0, 1),
            (1, 0),
            (0, 1, 0),
        ]

    def test_out_of_range_generators_raise(self):
        W = group(A3)
        for gens in ([3], [-1, 0], [0, 1, 5]):
            with pytest.raises(IndexError):
                W.ball(2, generators=gens)

    def test_generator_order_and_repeats_do_not_matter(self):
        W = group(affine_a(3))
        expected = [(w.rows, w.word) for w in W.ball(4, generators=[0, 1, 3])]
        for gens in ([3, 1, 0], [1, 3, 0, 3, 1], (k for k in [0, 0, 1, 3])):
            assert [(w.rows, w.word) for w in W.ball(4, generators=gens)] == expected

    def test_ball_elements_carry_their_words(self, monkeypatch):
        W = group(AFF2)
        ball = W.ball(4, generators=[0, 2])

        def no_peeling(self):
            raise AssertionError("ball element peeled its word")

        monkeypatch.setattr(weyl.WeylElement, "reduced_word", no_peeling)
        for w in ball:
            assert W.from_word(w.word) == w
            assert w.length == len(w.word) and w.support == frozenset(w.word)
            assert (w * w.inverse()).is_identity

    def test_ball_against_sorted_oracle(self):
        # the old route (seen-set search, then a sort by peeled words) as oracle
        rng = random.Random(8)
        raised = 0
        for case in range(400):
            n = rng.randint(2, 5)
            rows = oracles.random_gcm(rng, n, density=0.5, deepest=rng.choice([1, 2, 3]))
            radius = rng.randint(0, 5)
            gens = None
            if case % 2:
                gens = [rng.randrange(n) for _ in range(rng.randint(1, n + 1))]
            W = group(rows)
            expected = oracles.sorted_ball(rows, radius, gens)
            mine = W.ball(radius, generators=gens)
            assert [(w.word, w.rows) for w in mine] == expected, (rows, radius, gens)
            assert all(w.word == w.reduced_word() for w in mine)
            budget = rng.randint(1, len(expected) + 2)
            if budget < len(expected):
                raised += 1
                with pytest.raises(BudgetExceededError):
                    W.ball(radius, generators=gens, budget=budget)
            else:
                assert len(W.ball(radius, generators=gens, budget=budget)) == len(expected)
        assert raised > 100


class TestLongestElement:
    def test_a2_longest(self):
        W = group(A2)
        w0 = W.longest_element({0, 1})
        assert w0.word == (0, 1, 0)
        assert (w0 * w0).is_identity

    def test_all_spherical_subsets_of_catalog(self, catalog_gcms):
        for name, g in catalog_gcms.items():
            W = WeylGroup(g)
            for subset in W.diagram._spherical_subsets:
                w0 = W.longest_element(subset)
                order, positive = W.diagram.finite_group_order(subset)
                assert w0.length == positive, (name, sorted(subset))
                assert (w0 * w0).is_identity
                assert w0.support == subset
                # w0 maps the subset's simple roots to negatives of themselves
                for i in subset:
                    img = image(w0, i)
                    assert all(x <= 0 for x in img)

    def test_longest_element_rejects_non_spherical(self):
        from kmgroups import NotSphericalError

        W = group(AFF1)
        with pytest.raises(NotSphericalError):
            W.longest_element({0, 1})


class TestOrder:
    def test_orders_match_oracle_on_ball(self):
        W = group(AFF2)
        for w in W.ball(4):
            assert_order_matches_oracle(w)

    def test_orders_match_oracle_on_random_words(self):
        rng = random.Random(20261018)
        verdicts = {"finite": 0, "infinite": 0}
        for _ in range(600):
            n = rng.randint(2, 6)
            rows = oracles.random_gcm(rng, n, density=0.6, deepest=rng.choice([2, 3]))
            word = [rng.randrange(n) for _ in range(rng.randint(0, 10))]
            order = assert_order_matches_oracle(group(rows).from_word(word))
            verdicts["infinite" if order is None else "finite"] += 1
        assert verdicts == {"finite": 424, "infinite": 176}

    @pytest.mark.parametrize("r", range(1, 7))
    def test_affine_a_coxeter_element_is_infinite(self, r):
        W = group(affine_a(r))
        assert W.diagram.max_finite_order(range(r + 1)) == math.factorial(r + 1)
        assert assert_order_matches_oracle(W.from_word(range(r + 1))) is None

    @pytest.mark.parametrize("n", range(1, 7))
    def test_finite_a_coxeter_number(self, n):
        W = group(finite_a(n))
        assert assert_order_matches_oracle(W.from_word(range(n))) == n + 1

    def test_orders_match_oracle_on_catalog(self, catalog_gcms):
        for g in catalog_gcms.values():
            for w in WeylGroup(g).ball(4):
                assert_order_matches_oracle(w)

    @pytest.mark.parametrize(
        "blocks, word, expected",
        [
            ((A2, B2), [0, 1, 2, 3], 12),  # lcm(3, 4)
            ((A3, A2, B2), [0, 1, 2, 3, 5, 6], 4),  # lcm(4, 2, 4)
            ((A3, A2, B2), [0, 1, 2, 3, 4, 5, 6], 12),  # lcm(4, 3, 4)
            ((B2, AFF1), [0, 1, 2], 4),  # the affine part is a reflection
            ((A2, AFF1), [0, 1, 2, 3], None),
            ((AFF2, A3), [3, 0, 4, 1, 2], None),
        ],
    )
    def test_orders_match_oracle_on_direct_sums(self, blocks, word, expected):
        rows = oracles.direct_sum(*blocks)
        W = group(rows)
        assert assert_order_matches_oracle(W.from_word(word)) == expected
        perm = list(range(len(rows)))
        random.Random(len(word)).shuffle(perm)
        W = group(oracles.permuted(rows, perm))
        shuffled = W.from_word(perm[k] for k in word)
        assert assert_order_matches_oracle(shuffled) == expected

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        bonds=st.lists(st.sampled_from([(0, 0), (-1, -1), (-1, -2), (-2, -1),
                                        (-1, -3), (-2, -2), (-1, -4), (-3, -2)]),
                       min_size=6, max_size=6),
        n=st.integers(2, 4),
        word=st.lists(st.integers(0, 3), max_size=8),
    )
    def test_order_property_against_oracle(self, bonds, n, word):
        rows = [[2] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for (i, j), (a, b) in zip(pairs, bonds):
            rows[i][j], rows[j][i] = a, b
        assert_order_matches_oracle(group(rows).from_word(k % n for k in word))

    def test_product_count(self, count_products):
        # an order found in the baby phase costs its recheck; the giant phase
        # first forms w^b; infinite order costs w^b alone
        cases = [(AFF1, [0, 1]), (affine_a(4), range(5)), (A3, [0, 1, 2]),
                 (B2, [0, 1]), (A2, [0]), (A2, []), (finite_a(10), range(10)),
                 (A_SUM, range(23))]
        phases = []
        for rows, word in cases:
            w = group(rows).from_word(word)
            b = baby_steps(w)
            count_products.clear()
            order = w.order()
            if order is None:
                phases.append("infinite")
                expected = power_products(b)
            elif order < b:
                phases.append("baby")
                expected = power_products(order)
            else:
                phases.append("giant")
                expected = power_products(b) + power_products(order)
            assert len(count_products) == expected, (rows, order, b)
        # a reflection has cap 2, so b = 2 and its order is met by a giant step
        assert phases == ["infinite", "infinite", "baby", "giant", "giant", "giant",
                          "baby", "giant"]

    def test_orders_with_the_full_table(self):
        # A1 + A2 + A4 + A6 + A10: the cap is |W|, so b = 1024, and the
        # Coxeter element has order lcm(2, 3, 5, 7, 11) = 2310 > b, met by a
        # giant step; A10's Coxeter element, of order 11, by a baby step
        w = group(A_SUM).from_word(range(23))
        assert baby_steps(w) == 1024
        assert w.order() == 2310
        assert (w**2310).is_identity
        for p in (2, 3, 5, 7, 11):
            assert not (w ** (2310 // p)).is_identity, p
        w = group(finite_a(10)).from_word(range(10))
        assert baby_steps(w) == 1024
        assert w.order() == 11

    def test_power_product_count(self, count_products):
        w = group(AFF2).from_word([0, 1, 2])
        for n in range(71):
            count_products.clear()
            power = w**n
            assert len(count_products) == power_products(n), n
            assert power == w.group.from_word([0, 1, 2] * n)

    def test_recheck_refuses_a_false_hit(self, monkeypatch):
        # the scan's hit is only accepted once w^k is computed to be e
        w = group(A2).from_word([0, 1])
        monkeypatch.setattr(weyl.WeylElement, "is_identity", property(lambda s: False))
        with pytest.raises(RuntimeError, match="all heights 1"):
            w.order()

    def test_infinite_order_is_none(self):
        W = group(AFF1)
        assert W.from_word([0, 1]).order() is None

    def test_max_finite_order(self):
        for rows, bound in ((A2, 6), (AFF1, 2), (AFF2, 6), (A3, 24)):
            assert group(rows).diagram.max_finite_order(range(len(rows))) == bound

    def test_order_and_support_do_not_peel(self, monkeypatch):
        peels = []
        peel = weyl.WeylElement.reduced_word

        def counting(self):
            peels.append(1)
            return peel(self)

        monkeypatch.setattr(weyl.WeylElement, "reduced_word", counting)
        cases = [(finite_a(40), [0], 2), (finite_a(20), [0, 1], 3),
                 (AFF2, [0, 1, 2], None), (A3, [], 1), (B2, [0, 1], 4)]
        for rows, word, order in cases:
            w = group(rows).from_word(word)
            assert w.support == frozenset(word)
            assert w.order() == order
        assert peels == []

    def test_cap_comes_from_the_support(self, monkeypatch):
        # a reflection of A_40 scans up to |W_{s}| = 2, not (40 + 1)!
        bases = []
        cap = weyl.CoxeterDiagram.max_finite_order

        def recording(self, base):
            bases.append(frozenset(base))
            return cap(self, base)

        monkeypatch.setattr(weyl.CoxeterDiagram, "max_finite_order", recording)
        W = group(finite_a(40))
        assert W.generator(5).order() == 2
        assert W.from_word([3, 4, 3, 7]).order() == 2
        assert bases == [{5}, {3, 4, 7}]


class TestStraightness:
    def test_translation_is_straight(self):
        W = group(AFF1)
        assert W.from_word([0, 1]).is_straight(10)

    def test_torsion_is_not_straight(self):
        W = group(A2)
        assert not W.from_word([0, 1]).is_straight(3)
        # involutions fail at n = 2
        assert not W.generator(0).is_straight(2)

    def test_identity_is_trivially_straight(self):
        W = group(A2)
        assert W.identity.is_straight(5)

    def test_power_lengths_grow_linearly(self):
        W = group(AFF2)
        t = W.from_word([0, 1, 0, 2])  # translation-like element
        assert t.is_straight(4)
        assert (t**3).length == 3 * t.length

    def test_power_lengths_are_lazy_and_budgeted(self):
        W = group(AFF1)
        w = W.from_word([0, 1])
        assert list(w.power_lengths(5, budget=5)) == [2, 4, 6, 8, 10]
        assert list(W.generator(0).power_lengths(3)) == [1, 0, 1]
        # charged before any product: a huge bound never allocates
        for n in (6, 10**20):
            with pytest.raises(BudgetExceededError, match="power steps"):
                w.power_lengths(n, budget=5)
            with pytest.raises(BudgetExceededError, match="power steps"):
                W.generator(0).is_straight(n, budget=5)

    def test_is_straight_stops_at_the_first_failing_power(self, monkeypatch):
        # one product decides an involution, however large n_max is: the
        # recheck of w^2, the first non-straight power.  This is
        # find_j_regular's cost per rejected candidate
        products = []
        mul = weyl.WeylElement.__mul__

        def counting(a, b):
            products.append((a, b))
            return mul(a, b)

        monkeypatch.setattr(weyl.WeylElement, "__mul__", counting)
        s = group(AFF1).generator(0)
        for n in (2, 50, 10**6):
            products.clear()
            assert not s.is_straight(n)
            assert len(products) == 1 == power_products(2), n
        # a full read also rechecks the last power
        products.clear()
        assert list(s.power_lengths(50)) == [1, 0] * 25
        assert len(products) == power_products(2) + power_products(50)

    def test_power_lengths_form_no_power_but_the_recheck(self, count_products):
        t = group(AFF2).from_word([0, 1, 0, 2])
        assert list(t.power_lengths(20)) == [4 * k for k in range(1, 21)]
        assert len(count_products) == power_products(20)

    def test_power_lengths_recheck_refuses_a_wrong_length(self, monkeypatch):
        w = group(AFF1).from_word([0, 1])
        assert w.word == (0, 1)  # peeled before the peel is broken
        monkeypatch.setattr(weyl.WeylElement, "reduced_word", lambda self: ())
        lengths = w.power_lengths(3)
        assert next(lengths) == 2 and next(lengths) == 4
        with pytest.raises(RuntimeError, match="length of w\\^3 is not 6"):
            next(lengths)


KERNEL_GCMS = oracles.kernel_gcms(seed=10)


def random_word(rng, n, longest):
    return [rng.randrange(n) for _ in range(rng.randint(0, longest))]


class TestSparseKernel:
    """The sparse generator steps and peel against the dense oracles."""

    def test_kernel_cases_cover_the_intended_shapes(self):
        ranks = {len(rows) for rows in KERNEL_GCMS}
        assert set(range(2, 10)) <= ranks
        assert any(rows[i][j] != rows[j][i] for rows in KERNEL_GCMS
                   for i in range(len(rows)) for j in range(len(rows)))

    def test_steps_match_dense_products(self):
        rng = random.Random(11)
        for rows in KERNEL_GCMS:
            W, n = group(rows), len(rows)
            gens = [oracles.generator_matrix(rows, k) for k in range(n)]
            for _ in range(4):
                w = W.from_word(random_word(rng, n, 8))
                for k in range(n):
                    assert W._right_mul_gen(w.rows, k) == oracles.to_key(
                        oracles.mul(w.rows, gens[k])), (rows, w.word, k)
                    assert W._left_mul_gen(k, w.rows) == oracles.to_key(
                        oracles.mul(gens[k], w.rows)), (rows, w.word, k)

    def test_from_word_and_peeling_match_oracle(self):
        rng = random.Random(12)
        for rows in KERNEL_GCMS:
            W, n = group(rows), len(rows)
            for _ in range(6):
                word = random_word(rng, n, 12)
                w = W.from_word(word)
                assert w.rows == oracles.to_key(oracles.word_matrix(rows, word))
                assert w.reduced_word() == oracles.peel_word(rows, w.rows), (rows, word)
                # the support, read off the rows, is the letter set of each peel
                largest = oracles.peel_word(rows, w.rows, pick=max)
                assert len(largest) == w.length, (rows, word)
                assert w.support == frozenset(w.word) == frozenset(largest), (rows, word)

    def test_ball_rows_match_sorted_oracle(self):
        rng = random.Random(13)
        for rows in KERNEL_GCMS:
            n = len(rows)
            radius = 3 if n <= 5 else 2
            gens = None if rng.random() < 0.5 else rng.sample(range(n), rng.randint(1, n))
            mine = group(rows).ball(radius, generators=gens)
            expected = oracles.sorted_ball(rows, radius, gens)
            assert [(w.word, w.rows) for w in mine] == expected, (rows, radius, gens)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        bonds=st.lists(st.sampled_from([(0, 0), (-1, -1), (-1, -2), (-3, -1),
                                        (-2, -2), (-1, -4), (-3, -2)]),
                       min_size=10, max_size=10),
        n=st.integers(2, 5),
        word=st.lists(st.integers(0, 4), max_size=14),
    )
    def test_peeling_property_against_oracle(self, bonds, n, word):
        rows = [[2] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for (i, j), (a, b) in zip(pairs, bonds):
            rows[i][j], rows[j][i] = a, b
        word = [k % n for k in word]
        w = group(rows).from_word(word)
        assert w.rows == oracles.to_key(oracles.word_matrix(rows, word))
        peeled = w.reduced_word()
        assert peeled == oracles.peel_word(rows, w.rows)
        assert group(rows).from_word(peeled) == w
        largest = oracles.peel_word(rows, w.rows, pick=max)
        assert len(largest) == w.length and frozenset(largest) == w.support
        assert w.support == frozenset(w.word) == frozenset(peeled)

    def test_peeling_rechecks_every_touched_column(self):
        W = group(A3)
        mixed = weyl.WeylElement(W, ((1, 0, 0), (0, -1, 0), (0, 1, 1)))
        with pytest.raises(RuntimeError, match="sign dichotomy"):
            mixed.reduced_word()
        # every column positive, yet not the identity: no descent to peel
        stuck = weyl.WeylElement(W, ((1, 1, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(RuntimeError, match="no descent"):
            stuck.reduced_word()

    def test_no_matrix_products(self, count_products):
        W = group(affine_a(5))
        w = W.from_word([0, 1, 2, 3, 4, 5] * 3)
        assert w.reduced_word() and w.support == set(range(6))
        assert len(W.ball(4)) > 1 and len(W.ball(4, generators=[0, 2, 3])) > 1
        assert W.longest_element({1, 2, 3}).length == 6
        assert count_products == []


def complete(n, a):
    return [[2 if i == j else a for j in range(n)] for i in range(n)]


POWER_GCMS = KERNEL_GCMS + [complete(n, -2) for n in (3, 4, 5)] + [A2, B2, A3, finite_a(4)]


class TestPowerRoutinesAgainstOracles:
    """order() and power_lengths() against the one-step-a-power oracles."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_order_property_against_height_scan(self, data):
        rows = data.draw(st.sampled_from(KERNEL_GCMS))
        word = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=12))
        w = group(rows).from_word(word)
        cap = w.group.diagram.max_finite_order(w.support)
        assert w.order() == oracles.height_scan_order(w.rows, cap), (rows, word)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_power_lengths_property_against_products(self, data):
        rows = data.draw(st.sampled_from(POWER_GCMS))
        word = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=8))
        n = data.draw(st.integers(0, 8))
        w = group(rows).from_word(word)
        expected = oracles.product_power_lengths(rows, w.rows, n)
        assert list(w.power_lengths(n)) == expected, (rows, word, n)

    def test_orders_reach_both_phases(self):
        rng = random.Random(25)
        phases = {"baby": 0, "giant": 0, "infinite": 0}
        for rows in KERNEL_GCMS:
            for _ in range(12):
                w = group(rows).from_word(random_word(rng, len(rows), 10))
                cap = w.group.diagram.max_finite_order(w.support)
                order = w.order()
                assert order == oracles.height_scan_order(w.rows, cap), (rows, w.word)
                phase = ("infinite" if order is None
                         else "baby" if order < baby_steps(w) else "giant")
                phases[phase] += 1
        assert phases == {"baby": 28, "giant": 140, "infinite": 96}

    def test_power_lengths_cover_every_kind_of_word(self):
        rng = random.Random(26)
        kinds = {"finite": 0, "straight": 0, "not straight": 0, "complete": 0}
        for rows in POWER_GCMS:
            for _ in range(6):
                w = group(rows).from_word(random_word(rng, len(rows), 8))
                n = rng.randint(2, 8)
                lengths = list(w.power_lengths(n))
                assert lengths == oracles.product_power_lengths(rows, w.rows, n), (rows, w.word)
                if all(x == -2 for r in rows for x in r if x != 2):
                    kinds["complete"] += 1
                if w.order() is not None:
                    kinds["finite"] += 1
                elif weyl._straight(lengths):
                    kinds["straight"] += 1
                else:
                    kinds["not straight"] += 1
        assert kinds == {"finite": 123, "straight": 39, "not straight": 12, "complete": 18}
