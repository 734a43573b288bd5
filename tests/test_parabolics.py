"""Essential poset, conjugating moves, closure search, regular elements."""

import itertools
import math
import random

import pytest

import oracles
from oracles import Comparison, compare_commensurability
from kmgroups import parabolics
from kmgroups import (
    BudgetExceededError,
    ClosureCertificate,
    ComponentNotSphericalError,
    EssentialPoset,
    GeneralizedCartanMatrix,
    MoveVerificationError,
    NotEssentialError,
    WeylElement,
    WeylGroup,
    coxeter_matrix,
    deodhar_move,
    essential_subsets,
    find_j_regular,
    normalizer_factors,
    parabolic_closure_search,
    standard_conjugacy,
)
from kmgroups.parabolics import _conjugate_generator_set
from test_coxeter import subset_sweep
from test_gcm import BOND_PAIRS
from test_weyl import KERNEL_GCMS, random_word

A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
AFF1 = [[2, -2], [-2, 2]]
AFF2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
MIXED = [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]
TWO_BLOCKS = [
    [2, -2, 0, 0],
    [-2, 2, 0, 0],
    [0, 0, 2, -2],
    [0, 0, -2, 2],
]


def symmetric(n, bonds):
    """Rows of the rank-n GCM with a_ij = a_ji = a for each (i, j, a) in
    ``bonds``, and 0 off them."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j, a in bonds:
        rows[i][j] = rows[j][i] = a
    return rows


# the chain 0-1-...-7 with node 8 joined to node 5
AFF_E8 = symmetric(9, [(i, i + 1, -1) for i in range(7)] + [(5, 8, -1)])


def diagram(rows):
    return coxeter_matrix(GeneralizedCartanMatrix.from_rows(rows))


def group(rows):
    return WeylGroup(GeneralizedCartanMatrix.from_rows(rows))


def dense_closure(rows, word, depth, generators=None):
    """The closure search the dense way: for each v of the sorted ball,
    v^{-1} w v by an inverse word and two matrix products; its support is
    the rows that are not the identity's, and its essential part the union
    of the support's infinite components.  The first least (essential size,
    support size) in ball order wins.

    Returns (conjugator word, conjugate matrix key, support, essential
    support).
    """
    n, ident = len(rows), oracles.eye(len(rows))
    w = oracles.word_matrix(rows, word)
    essential = {}  # support -> essential part: finite_type is exponential
    best = None
    for v_word, v in oracles.sorted_ball(rows, depth, generators):
        v_inv = oracles.word_matrix(rows, reversed(v_word))
        conj = oracles.mul(oracles.mul(v_inv, w), v)
        supp = frozenset(i for i in range(n) if conj[i] != ident[i])
        if supp not in essential:
            infinite = [c for c in oracles.coxeter_components(rows, supp)
                        if not oracles.finite_type(rows, c)]
            essential[supp] = frozenset().union(*infinite)
        ess = essential[supp]
        if best is None or (len(ess), len(supp)) < best[0]:
            best = (len(ess), len(supp)), (v_word, oracles.to_key(conj), supp, ess)
    return best[1]


def closure_fields(cert):
    """The four fields of a closure certificate that ``dense_closure`` gives."""
    return (cert.conjugator.word, cert.conjugate.rows, cert.support,
            cert.essential_support)


class TestEssentialSubsets:
    def test_finite_type_has_only_the_empty_set(self):
        assert essential_subsets(diagram(A3)) == (frozenset(),)

    def test_affine_rank2(self):
        assert essential_subsets(diagram(AFF1)) == (frozenset(), frozenset({0, 1}))

    def test_mixed(self):
        assert essential_subsets(diagram(MIXED)) == (
            frozenset(),
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
        )

    def test_two_blocks(self):
        subsets = essential_subsets(diagram(TWO_BLOCKS))
        assert subsets == (
            frozenset(),
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({0, 1, 2, 3}),
        )

    def test_restricted_scan_matches_full_filter(self, catalog_gcms):
        restricted = 0
        for rows in subset_sweep(catalog_gcms):
            d = diagram(rows)
            expected = tuple(
                s for s in oracles.all_subsets(d.index_set)
                if d.decompose(s).essential_part == s
            )
            assert essential_subsets(d) == expected, rows
            restricted += any(d.is_spherical(c) for c in d.components())
        assert restricted > 50  # many inputs have a spherical component to skip


class TestCompare:
    def test_equal_up_to_spherical_padding(self):
        d = diagram(TWO_BLOCKS)
        assert (
            compare_commensurability(d, {0, 1}, {0, 1})
            is Comparison.EQUAL
        )
        d2 = diagram(MIXED)
        # {0,1,2} in MIXED is essential; padding {0,1} with the spherical
        # generator 2 changes the class
        assert compare_commensurability(d2, {0, 1}, {0, 1, 2}) is Comparison.LESS
        assert compare_commensurability(d2, {0, 1, 2}, {0, 1}) is Comparison.GREATER

    def test_spherical_sets_compare_equal_to_empty(self):
        d = diagram(A3)
        assert compare_commensurability(d, {0, 1}, set()) is Comparison.EQUAL

    def test_incomparable(self):
        d = diagram(TWO_BLOCKS)
        assert (
            compare_commensurability(d, {0, 1}, {2, 3})
            is Comparison.INCOMPARABLE
        )

    def test_padding_with_spherical_part_is_equal(self):
        d = diagram(TWO_BLOCKS)
        # {2} is spherical: adding it to {0,1} leaves the class unchanged
        assert compare_commensurability(d, {0, 1}, {0, 1, 2}) is Comparison.EQUAL


class TestEssentialPoset:
    def test_affine_triangle(self):
        d = diagram(AFF2)
        poset = EssentialPoset.build(d)
        assert poset.elements == (frozenset(), frozenset({0, 1, 2}))
        assert poset.hasse == ((0, 1),)
        assert d.label_set(poset.elements[0]) == "{}"
        assert d.parabolic_name(poset.elements[0]) == "B"
        assert d.parabolic_name(poset.elements[-1]) == "G"
        assert poset.elements[-1] == frozenset({0, 1, 2})

    def test_mixed_chain(self):
        d = diagram(MIXED)
        poset = EssentialPoset.build(d)
        assert poset.elements == (
            frozenset(),
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
        )
        # covers only: {} -> {0,1} -> {0,1,2}
        assert poset.hasse == ((0, 1), (1, 2))
        assert d.parabolic_name(poset.elements[1]) == "P_{1,2}"

    def test_two_blocks_diamond(self):
        poset = EssentialPoset.build(diagram(TWO_BLOCKS))
        assert poset.hasse == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_finite_type_poset_is_a_point(self):
        poset = EssentialPoset.build(diagram(A2))
        assert poset.elements == (frozenset(),)
        assert poset.hasse == ()
        assert poset.elements[-1] == frozenset()


def complete(n, c):
    """Rows of the rank-n GCM with every off-diagonal entry -c."""
    return [[2 if i == j else -c for j in range(n)] for i in range(n)]


class TestHasseCovers:
    def test_matches_triple_loop_oracle(self, catalog_gcms):
        rng = random.Random(20261020)
        matrices = [g.entries for g in catalog_gcms.values()]
        for bonds in itertools.product(BOND_PAIRS, repeat=3):
            (a, c), (b, e), (d, f) = bonds
            matrices.append([[2, a, b], [c, 2, d], [e, f, 2]])
        matrices += [
            oracles.random_gcm(rng, rng.randint(4, 8), density=0.5, deepest=3)
            for _ in range(40)
        ]
        matrices += [complete(n, c) for c in (2, 3) for n in range(2, 8)]
        longest = 0
        for rows in matrices:
            poset = EssentialPoset.build(diagram(rows))
            assert list(poset.hasse) == oracles.hasse_covers(poset.elements), rows
            longest = max(longest, len(poset.hasse))
        assert longest > 100  # the sweep reaches posets with many covers

    @pytest.mark.parametrize("c", [2, 3])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_complete_matrix_closed_form(self, n, c):
        # every set of two or more generators is essential; singletons are not
        poset = EssentialPoset.build(diagram(complete(n, c)))
        assert len(poset.elements) == 2**n - n
        assert len(poset.hasse) == math.comb(n, 2) + sum(
            k * math.comb(n, k) for k in range(3, n + 1)
        )


class TestCoverWalk:
    """The breadth-first walk along covers against the 2^k scan and the
    bitmask cover loop of ``oracles``."""

    @staticmethod
    def assert_matches_scan(rows):
        d = diagram(rows)
        poset = EssentialPoset.build(d)
        expected = oracles.essential_scan(d)
        assert poset.elements == expected, rows
        assert list(poset.hasse) == oracles.bitmask_covers(expected), rows
        return poset

    def test_matches_the_scan_on_the_subset_sweep(self, catalog_gcms):
        # the catalog, the rank-3 BOND_PAIRS sweep, random matrices and
        # direct sums with a finite part, plain and permuted
        for rows in subset_sweep(catalog_gcms):
            self.assert_matches_scan(rows)

    def test_matches_the_scan_on_sums_of_infinite_blocks(self):
        rng = random.Random(20261023)
        sums = [
            oracles.direct_sum(AFF2, complete(3, 2)),
            oracles.direct_sum(MIXED, A2, AFF1),
            oracles.direct_sum(AFF1, AFF1, AFF1),
            oracles.direct_sum(complete(3, 3), A3, oracles.random_gcm(rng, 3, 0.8, 3)),
        ]
        for rows in sums:
            perm = list(range(len(rows)))
            rng.shuffle(perm)
            self.assert_matches_scan(rows)
            self.assert_matches_scan(oracles.permuted(rows, perm))

    def test_matches_the_scan_on_random_matrices(self):
        rng = random.Random(20261024)
        sizes = []
        for _ in range(1500):
            rows = oracles.random_gcm(rng, rng.randint(2, 8),
                                      density=rng.choice([0.2, 0.4, 0.7]), deepest=3)
            sizes.append(len(self.assert_matches_scan(rows).elements))
        assert sum(k > 1 for k in sizes) > 900 and max(sizes) > 100

    def test_covers_of_the_empty_set_are_the_minimal_non_spherical_sets(self):
        # N(empty) is empty, so the rule's other covers are exactly M
        rng = random.Random(20261025)
        for _ in range(500):
            rows = oracles.random_gcm(rng, rng.randint(2, 8),
                                      density=rng.choice([0.3, 0.6, 0.9]), deepest=2)
            d = diagram(rows)
            poset = EssentialPoset.build(d)
            covers = [poset.elements[b] for a, b in poset.hasse if a == 0]
            assert covers == oracles.minimal_non_spherical(d), rows


class TestDeodharMove:
    def test_a3_shift(self):
        W = group(A3)
        move = deodhar_move(W, {0}, 1)
        assert move.component == {0, 1}
        assert move.nu.word == (1, 0)
        assert move.target == {1}

    def test_commuting_generator_fixes_source(self):
        W = group(A3)
        move = deodhar_move(W, {0}, 2)
        assert move.component == {2}
        assert move.nu.word == (2,)
        assert move.target == {0}

    def test_move_verifies_by_conjugation(self):
        W = group(A3)
        move = deodhar_move(W, {0, 1}, 2)
        inv = move.nu.inverse()
        images = {
            k
            for j in move.source
            for k in range(3)
            if inv * W.generator(j) * move.nu == W.generator(k)
        }
        assert images == move.target

    def test_rejects_member_generator(self):
        with pytest.raises(ValueError):
            deodhar_move(group(A3), {0, 1}, 1)

    def test_rejects_infinite_component(self):
        W = group(MIXED)
        with pytest.raises(ComponentNotSphericalError) as exc:
            deodhar_move(W, {0}, 1)
        assert exc.value.component == {0, 1}
        assert exc.value.s == 1


class TestStandardConjugacy:
    def test_identity_case(self):
        W = group(A3)
        witness = standard_conjugacy(W, {0, 1}, {0, 1})
        assert witness.element.is_identity
        assert witness.moves == ()

    def test_a3_singleton_chain(self):
        W = group(A3)
        witness = standard_conjugacy(W, {0}, {2})
        assert witness is not None
        # each hop is an elementary move; the chain walks {0} -> ... -> {2}
        assert witness.moves[0].source == {0}
        assert witness.moves[-1].target == {2}
        inv = witness.element.inverse()
        assert inv * W.generator(0) * witness.element == W.generator(2)

    def test_non_conjugate_same_size(self):
        W = group(A3)
        # {0,1} spans A2, {0,2} spans A1 x A1: never conjugate
        assert standard_conjugacy(W, {0, 1}, {0, 2}) is None

    def test_affine_blocks_moves(self):
        W = group(MIXED)
        assert standard_conjugacy(W, {0}, {1}) is None

    def test_bond_orders_answer_before_any_move(self, monkeypatch):
        # J = {0, 1, 2, 6} and K = {3, 4, 5, 6} each have a rank-3
        # component of no finite type and an A1, but the rank-3 ones have
        # bond orders (2, 3, inf) and (2, inf, inf): no diagram isomorphism
        rows = symmetric(7, [(0, 1, -2), (1, 2, -1), (3, 4, -2), (4, 5, -2)])
        calls = []
        move = parabolics.deodhar_move

        def counting(*args):
            calls.append(args)
            return move(*args)

        monkeypatch.setattr(parabolics, "deodhar_move", counting)
        assert standard_conjugacy(group(rows), {0, 1, 2, 6}, {3, 4, 5, 6}) is None
        assert calls == []

    def test_each_move_is_built_once_per_component_and_generator(self, monkeypatch):
        # the walk from {1,3,5,7} to {10,12,14,16} in A_16 crosses 8,565
        # edges; each spherical (K, s) on them is built once, as the move
        # of K - {s}, so every call is a connected set and a neighbour
        calls = []
        move = parabolics.deodhar_move

        def counting(W, source, s):
            calls.append((frozenset(source), s))
            return move(W, source, s)

        monkeypatch.setattr(parabolics, "deodhar_move", counting)
        rows = symmetric(16, [(i, i + 1, -1) for i in range(15)])
        W = group(rows)
        witness = standard_conjugacy(W, {0, 2, 4, 6}, {9, 11, 13, 15})
        assert len(witness.moves) == 36 and witness.element.length == 72
        assert len(calls) == len(set(calls)) == 60
        assert all(len(W.diagram.components(k | {s})) == 1 for k, s in calls)

    def test_all_singletons_conjugate_in_affine_triangle(self):
        W = group(AFF2)
        for target in ({1}, {2}):
            witness = standard_conjugacy(W, {0}, set(target))
            assert witness is not None
            inv = witness.element.inverse()
            t = next(iter(target))
            assert inv * W.generator(0) * witness.element == W.generator(t)


class TestDenseRoute:
    """Moves and witnesses against the dense route of ``oracles``: each
    w^{-1} s_j w by two matrix products, compared with every generator."""

    @staticmethod
    def assert_moves_match(rows, sources):
        """Every move out of each source equals the dense route's."""
        W = group(rows)
        for source in sources:
            for s in sorted(set(range(len(rows))) - source):
                component, nu, target = oracles.dense_move(rows, source, s)
                if nu is None:
                    with pytest.raises(ComponentNotSphericalError):
                        deodhar_move(W, source, s)
                    continue
                move = deodhar_move(W, source, s)
                assert move.component == component, (rows, source, s)
                assert move.target == target, (rows, source, s)
                assert move.nu.rows == oracles.to_key(nu), (rows, source, s)

    @staticmethod
    def assert_witnesses_match(rows, sources):
        """The witness of every subset a source's move graph reaches equals
        the dense route's; about four other subsets of its size, spread
        over the sorted list, are not conjugate to it."""
        W = group(rows)
        for source in sources:
            orbit = oracles.dense_orbit(rows, source)
            for target, (chain, element) in orbit.items():
                witness = standard_conjugacy(W, source, target)
                where = (rows, source, target)
                assert witness.element.rows == oracles.to_key(element), where
                walk = [m.source for m in witness.moves[:1]] + [m.target for m in witness.moves]
                assert tuple(walk) == (chain if target != source else ()), where
            same_size = itertools.combinations(range(len(rows)), len(source))
            others = [t for t in map(frozenset, same_size) if t not in orbit]
            for target in others[:: len(others) // 4 + 1]:
                assert standard_conjugacy(W, source, target) is None, (rows, source, target)

    def test_moves_on_the_rank3_bond_sweep(self):
        # every move out of a nonempty set, on all 1,728 rank-3 matrices
        sources = oracles.all_subsets(range(3))[1:]
        for (a, c), (b, e), (d, f) in itertools.product(BOND_PAIRS, repeat=3):
            self.assert_moves_match([[2, a, b], [c, 2, d], [e, f, 2]], sources)

    def test_on_the_subset_sweep(self, catalog_gcms):
        # the rank-3 sweep again (its moves are all checked above), random
        # matrices of rank 4-8 and direct sums: two seeded sources of one to
        # rank - 1 generators each
        rng = random.Random(20261026)
        for rows in subset_sweep(catalog_gcms):
            subsets = [s for s in oracles.all_subsets(range(len(rows)))
                       if 0 < len(s) < len(rows)]
            sources = rng.sample(subsets, min(2, len(subsets)))
            if len(rows) > 3:
                self.assert_moves_match(rows, sources)
            self.assert_witnesses_match(rows, sources)

    def test_on_random_matrices_of_rank_2_to_6(self):
        rng = random.Random(20261027)
        for _ in range(40):
            rows = oracles.random_gcm(rng, rng.randint(2, 6),
                                      density=rng.choice([0.3, 0.6, 0.9]), deepest=3)
            sources = oracles.all_subsets(range(len(rows)))
            self.assert_moves_match(rows, sources)
            self.assert_witnesses_match(rows, sources)

    def test_a_unit_column_alone_does_not_verify(self):
        # column 1 is alpha_1, but this is no Weyl element: s_1 w != w s_1
        W = group(A2)
        fake = WeylElement(W, ((1, 5), (0, 1)))
        with pytest.raises(MoveVerificationError):
            _conjugate_generator_set(W, fake, {0})
        assert _conjugate_generator_set(W, W.identity, {0}) == {0}

    def test_a_conjugate_off_the_generators_is_refused(self):
        # (s_1 s_2)^{-1} s_1 (s_1 s_2) = s_2 s_1 s_2, a reflection but no generator
        W = group(A3)
        with pytest.raises(MoveVerificationError):
            _conjugate_generator_set(W, W.from_word([0, 1]), {0})
        assert _conjugate_generator_set(W, W.from_word([0, 1]), {1}) == {0}

    def test_conjugacy_makes_no_matrix_product(self, count_products):
        W = group(oracles.direct_sum(A3, A3, AFF2))
        assert standard_conjugacy(W, {0, 1}, {4, 5}) is None
        witness = standard_conjugacy(W, {0, 3}, {2, 5})
        assert witness is not None and witness.element.length > 0
        assert count_products == []


class TestNormalizerFactors:
    def test_affine_triangle(self):
        d = diagram(AFF2)
        assert normalizer_factors(d, {0, 1, 2}) == (
            frozenset({0, 1, 2}),
            frozenset(),
        )

    def test_block_with_perp(self):
        d = diagram(TWO_BLOCKS)
        assert normalizer_factors(d, {0, 1}) == (
            frozenset({0, 1}),
            frozenset({2, 3}),
        )

    def test_rejects_non_essential(self):
        d = diagram(A3)
        with pytest.raises(NotEssentialError):
            normalizer_factors(d, {0})
        with pytest.raises(NotEssentialError):
            normalizer_factors(d, set())


class TestClosureSearch:
    def test_reflection_conjugates_to_a_generator(self):
        W = group(A2)
        cert = parabolic_closure_search(W, W.from_word([0, 1, 0]), depth=1)
        assert cert.conjugator.word == (0,)
        assert cert.conjugate.word == (1,)
        assert cert.support == {1}
        assert cert.essential_support == frozenset()
        assert cert.depth == 1

    def test_certificate_is_internally_consistent(self):
        W = group(AFF2)
        w = W.from_word([0, 1, 2, 1])
        cert = parabolic_closure_search(W, w, depth=2)
        assert cert.element == w
        assert (
            cert.conjugator.inverse() * w * cert.conjugator == cert.conjugate
        )
        assert cert.conjugate.support == cert.support
        assert (
            W.diagram.decompose(cert.support).essential_part
            == cert.essential_support
        )

    def test_depth_zero_keeps_the_element(self):
        W = group(A2)
        w = W.from_word([0, 1, 0])
        cert = parabolic_closure_search(W, w, depth=0)
        assert cert.conjugator.is_identity
        assert cert.support == {0, 1}

    def test_identity_has_empty_support(self):
        W = group(A2)
        cert = parabolic_closure_search(W, W.identity, depth=1)
        assert cert.support == frozenset()

    def test_translation_support_cannot_shrink(self):
        W = group(AFF1)
        cert = parabolic_closure_search(W, W.from_word([0, 1]), depth=3)
        assert cert.support == {0, 1}
        assert cert.essential_support == {0, 1}

    def test_closure_search_makes_no_matrix_product(self, count_products):
        W = group(AFF_E8)
        cert = parabolic_closure_search(W, W.from_word(range(9)), depth=4)
        assert cert.support == frozenset(range(9))  # a Coxeter element's cannot shrink
        assert count_products == []


class TestDenseClosure:
    """Closure certificates against ``dense_closure``: each candidate built
    from its parent's conjugate by two generator steps, against an inverse
    and two products."""

    @staticmethod
    def assert_matches(rows, word, depth, generators=None):
        W = group(rows)
        ball = W.ball(depth, generators=generators)
        cert = parabolics._closure_over(ball, W.from_word(word), depth)
        expected = dense_closure(rows, word, depth, generators)
        assert closure_fields(cert) == expected, (rows, word, depth, generators)
        return cert

    def test_on_the_kernel_cases(self):
        rng = random.Random(20261029)
        for rows in KERNEL_GCMS:
            n = len(rows)
            for depth in range(4 if n <= 5 else 3):
                self.assert_matches(rows, random_word(rng, n, 8), depth)

    def test_on_random_words_in_whole_groups_and_standard_subgroups(self):
        # half over W, half over a W_J ball with a word in W_J, as
        # find_j_regular builds them
        rng = random.Random(20261030)
        moved = 0
        for case in range(240):
            n = rng.randint(2, 6)
            rows = oracles.random_gcm(rng, n, density=rng.choice([0.3, 0.6, 0.9]), deepest=3)
            gens = None
            if case % 2:
                gens = sorted(rng.sample(range(n), rng.randint(1, n)))
            # x c x^{-1}: a conjugate of a short word, so the best
            # conjugator is often a word of several letters
            x, core = ([rng.choice(gens or range(n)) for _ in range(rng.randint(*span))]
                       for span in ((1, 3), (0, 4)))
            word = x + core + x[::-1]
            cert = self.assert_matches(rows, word, case % 4, gens)
            moved += cert.conjugator.length > 1
        assert moved > 5  # some conjugators are words, not one letter

    def test_find_j_regular_certifies_the_same_with_the_dense_route(self, monkeypatch):
        rng = random.Random(20261031)
        cases = [(AFF1, {0, 1}, 2, 10, 11, 2), (AFF2, {0, 1, 2}, 4, 6, 12, 3)]
        while len(cases) < 12:
            rows = oracles.random_gcm(rng, rng.randint(3, 5), density=0.7, deepest=2)
            subsets = essential_subsets(diagram(rows))[1:]
            if subsets:
                cases.append((rows, set(rng.choice(subsets)), 3, 4, 4, rng.randint(1, 3)))
        found = 0
        for rows, subset, max_len, n, height, depth in cases:
            W = group(rows)
            expected = find_j_regular(W, subset, max_len, n, height, depth)

            def dense(ball, element, depth):
                v_word, conj, supp, ess = dense_closure(rows, element.word, depth, sorted(subset))
                return ClosureCertificate(element, W.from_word(v_word), WeylElement(W, conj),
                                          supp, ess, depth)

            with monkeypatch.context() as patch:
                patch.setattr(parabolics, "_closure_over", dense)
                assert find_j_regular(W, subset, max_len, n, height, depth) == expected, rows
            if expected is not None:  # the identity wins the closure tie
                closure = expected.closure
                assert closure.conjugator.is_identity, rows
                assert closure.conjugate == expected.element, rows
                assert closure.support == closure.essential_support == subset, rows
            found += expected is not None
        assert found >= 4


class TestFindJRegular:
    def test_rejects_non_essential_subset(self):
        W = group(A2)
        with pytest.raises(NotEssentialError):
            find_j_regular(W, {0, 1}, 2, 4, 6, 1)

    def test_infinite_dihedral_translation(self):
        W = group(AFF1)
        cert = find_j_regular(W, {0, 1}, 2, 10, 11, 2)
        assert cert is not None
        assert cert.element.word == (0, 1)
        assert cert.subset == {0, 1}
        assert cert.torsion_bound == 2
        assert cert.power_bound == 10
        assert cert.root_height == 11
        assert cert.roots_checked == 12
        assert cert.closure.support == {0, 1}

    def test_affine_triangle_needs_length_four(self):
        W = group(AFF2)
        # every length-3 candidate is glide-like and fixes root directions,
        # so the scan must go one level deeper
        assert find_j_regular(W, {0, 1, 2}, 3, 6, 12, 2) is None
        cert = find_j_regular(W, {0, 1, 2}, 4, 6, 12, 2)
        assert cert is not None
        assert cert.element.word == (0, 1, 0, 2)
        assert cert.roots_checked == 24
        assert cert.closure.support == {0, 1, 2}

    def test_power_steps_count_against_the_budget(self):
        # the roots (2) and the candidate ball (5) fit in 6; six powers do not
        W = group(AFF1)
        assert find_j_regular(W, {0, 1}, 2, 6, 2, 1, budget=6) is not None
        with pytest.raises(BudgetExceededError, match="power steps"):
            find_j_regular(W, {0, 1}, 2, 7, 2, 1, budget=6)

    def test_power_steps_are_charged_when_no_candidate_is_tested(self):
        # both candidates of length 1 are involutions, which the scan skips
        # before any power is formed; the bound is still past the budget
        W = group(AFF1)
        assert find_j_regular(W, {0, 1}, 1, 6, 2, 1, budget=6) is None
        with pytest.raises(BudgetExceededError, match="power steps"):
            find_j_regular(W, {0, 1}, 1, 7, 2, 1, budget=6)
        with pytest.raises(BudgetExceededError, match="power steps"):
            find_j_regular(W, {0, 1}, 1, 10**20, 2, 1)

    def test_closure_ball_is_charged_when_no_candidate_is_tested(self):
        # both candidates of length 1 are involutions, so none reaches the
        # closure check; its ball of radius 30 (61 elements) is still built
        W = group(AFF1)
        assert find_j_regular(W, {0, 1}, 1, 2, 1, 30, budget=61) is None
        with pytest.raises(BudgetExceededError, match="element ball"):
            find_j_regular(W, {0, 1}, 1, 2, 1, 30, budget=20)

    def test_search_builds_each_ball_once(self, monkeypatch):
        # the candidate ball and one closure ball, however many candidates
        # reach the closure check (seven here)
        calls = []
        ball = WeylGroup.ball

        def counting(self, *args, **kwargs):
            calls.append(args)
            return ball(self, *args, **kwargs)

        monkeypatch.setattr(WeylGroup, "ball", counting)
        W = group([[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]])
        cert = find_j_regular(W, {0, 1, 2}, 4, 6, 6, 3)
        assert cert.element.word == (0, 1, 0, 2)
        assert cert.closure.depth == 3
        assert calls == [(4,), (3,)]

    def test_certificate_power_stability(self):
        W = group(AFF1)
        cert = find_j_regular(W, {0, 1}, 2, 10, 11, 2)
        t = cert.element
        # closure support of proper powers stays the full subset
        for n in (2, 3):
            again = parabolic_closure_search(W, t**n, depth=2)
            assert again.support == {0, 1}
