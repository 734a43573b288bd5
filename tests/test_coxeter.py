"""Coxeter diagrams: bond orders, finite-type recognition, nerve, connectivity."""

import itertools
import math
import random
import time

import pytest

import oracles
from kmgroups import (
    GeneralizedCartanMatrix,
    INFINITE,
    NotSphericalError,
    coxeter_matrix,
    graph_strong_connectivity,
    nerve_strong_connectivity,
)
from test_gcm import BOND_PAIRS


def gcm(rows):
    return GeneralizedCartanMatrix.from_rows(rows)


def diagram(rows):
    return coxeter_matrix(gcm(rows))


# a Cartan pair (a_ij, a_ji) of each crystallographic bond order
CARTAN_PAIR = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INFINITE: (-2, -2)}


def orders_diagram(orders):
    """The Coxeter diagram of a GCM whose bond orders are ``orders``."""
    n = len(orders)
    rows = [[2] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j], rows[j][i] = CARTAN_PAIR[orders[i][j]]
    d = diagram(rows)
    assert d.orders == tuple(map(tuple, orders))
    return d


def path_diagram(ms):
    """Coxeter diagram of a path with the given consecutive orders."""
    n = len(ms) + 1
    rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for k, m in enumerate(ms):
        rows[k][k + 1] = rows[k + 1][k] = m
    return orders_diagram(rows)


def finite_a(n):
    """Rows of the Cartan matrix of finite type A_n."""
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)]


AFFINE_A2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def subset_sweep(catalog_gcms):
    """Inputs for the differential tests of the subset routines: the catalog,
    the 1,728 rank-3 matrices over ``BOND_PAIRS``, seeded random matrices of
    rank 4-8, and direct sums with a finite part, also with shuffled indices."""
    rng = random.Random(20261021)
    matrices = [[list(r) for r in g.entries] for g in catalog_gcms.values()]
    for (a, c), (b, e), (d, f) in itertools.product(BOND_PAIRS, repeat=3):
        matrices.append([[2, a, b], [c, 2, d], [e, f, 2]])
    matrices += [
        oracles.random_gcm(rng, rng.randint(4, 8), density=rng.choice([0.3, 0.6]),
                           deepest=3)
        for _ in range(60)
    ]
    sums = [
        oracles.direct_sum(finite_a(5), AFFINE_A2),
        oracles.direct_sum(AFFINE_A2, finite_a(3), [[2, -2], [-2, 2]]),
        oracles.direct_sum(finite_a(2), [[2, -3], [-3, 2]], finite_a(1)),
        oracles.direct_sum(finite_a(4), oracles.random_gcm(rng, 4, 0.7, 3)),
    ]
    for rows in sums:
        matrices.append(rows)
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        matrices.append(oracles.permuted(rows, perm))
    return matrices


class TestBondOrders:
    def test_order_table_exhaustive(self):
        # compare against the independently derived table for every product
        # reachable with off-diagonal entries down to -5
        for a, b in itertools.product(range(0, 6), repeat=2):
            if (a == 0) != (b == 0):
                continue  # zeros must be symmetric
            rows = [[2, -a], [-b, 2]]
            d = diagram(rows)
            assert d.order(0, 1) == oracles.bond_order(-a, -b), (a, b)
            assert d.order(0, 1) == d.order(1, 0)
            assert d.order(0, 0) == 1

    def test_edges_of_both_graphs(self):
        d = diagram([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
        assert d.edges() == ((0, 1), (1, 2))
        # commuting pairs (m = 2) do appear in the finite-order graph
        assert d.finite_order_edges() == ((0, 2), (1, 2))

    def test_infinite_is_math_inf(self):
        d = diagram([[2, -2], [-2, 2]])
        assert d.order(0, 1) is INFINITE
        assert math.isinf(d.order(0, 1))


class TestComponents:
    def test_subset_components_use_defining_graph(self):
        d = diagram([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        assert [sorted(c) for c in d.components()] == [[0, 1, 2]]
        assert [sorted(c) for c in d.components({0, 2})] == [[0], [2]]
        assert [sorted(c) for c in d.components({0, 1})] == [[0, 1]]
        assert d.components(set()) == ()


class TestSubsetRoutinesAgainstOracles:
    """The routines on generator sets against the matrix oracles, on the
    subset sweep with seeded random subsets: components of the graph a_ij
    != 0, finiteness by positive principal minors and the perp as the
    generators j outside J with a_ij = 0 for every i in J."""

    def test_match_the_matrix_oracles(self, catalog_gcms):
        rng = random.Random(20261024)
        orders = {}  # submatrix -> its group order, by breadth-first search
        for rows in subset_sweep(catalog_gcms):
            d = diagram(rows)
            n = d.rank
            everything = oracles.coxeter_components(rows, range(n))
            assert list(d.components()) == everything, rows
            subsets = [range(n), ()] + [rng.sample(range(n), rng.randint(1, n)) for _ in range(3)]
            for subset in map(frozenset, subsets):
                comps = oracles.coxeter_components(rows, subset)
                finite = [c for c in comps if oracles.finite_type(rows, c)]
                spherical = frozenset().union(*finite)
                perp = frozenset(j for j in range(n)
                                 if j not in subset and not any(rows[i][j] for i in subset))
                assert d.decompose(subset) == (
                    subset, tuple(comps), spherical, subset - spherical, perp), (rows, subset)
                assert d.components(subset) == tuple(comps)
                assert d.is_spherical(subset) == (len(finite) == len(comps)), (rows, subset)
                assert [d.spherical_type(c) is not None for c in comps] == [
                    c in finite for c in comps]
                if len(comps) != 1:
                    assert d.spherical_type(subset) is None
                if len(finite) < len(comps):
                    with pytest.raises(NotSphericalError) as exc:
                        d.finite_group_order(subset)
                    assert exc.value.subset == subset
                elif len(subset) <= 3:
                    sub = tuple(tuple(rows[a][b] for b in sorted(subset)) for a in sorted(subset))
                    if sub not in orders:
                        halted, orders[sub] = oracles.enumerate_group(sub, cap=100)
                        assert halted, sub
                    assert d.finite_group_order(subset)[0] == orders[sub], (rows, subset)


FINITE_TYPE_CASES = [
    # rows, expected name, expected order, expected positive roots
    ([[2]], "A1", 2, 1),
    ([[2, -1], [-1, 2]], "A2", 6, 3),
    ([[2, -2], [-1, 2]], "B2", 8, 4),
    ([[2, -3], [-1, 2]], "G2", 12, 6),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "A3", 24, 6),
    (
        [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        "A4",
        120,
        10,
    ),
    ([[2, -1, 0], [-1, 2, -2], [0, -1, 2]], "B3", 48, 9),
    (
        [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
        "B4",
        384,
        16,
    ),
    (
        [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
        "D4",
        192,
        12,
    ),
    (
        [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
        "F4",
        1152,
        24,
    ),
]


class TestSphericalType:
    @pytest.mark.parametrize("rows,name,order,npos", FINITE_TYPE_CASES)
    def test_crystallographic_types(self, rows, name, order, npos):
        d = diagram(rows)
        info = d.spherical_type(range(len(rows)))
        assert info is not None
        assert (info.name, info.order, info.positive_roots) == (name, order, npos)
        # independent enumeration confirms the group order
        halted, count = oracles.enumerate_group(rows, cap=2000)
        assert halted and count == order

    def test_e_series(self):
        def branched(total, legs):
            # vertex 0 is the branch point; legs are simple-laced paths
            rows = [[1 if i == j else 2 for j in range(total)] for i in range(total)]
            idx = 1
            for leg in legs:
                prev = 0
                for _ in range(leg):
                    rows[prev][idx] = rows[idx][prev] = 3
                    prev = idx
                    idx += 1
            return orders_diagram(rows)

        e6 = branched(6, [1, 2, 2])
        assert e6.spherical_type(range(6)).name == "E6"
        e7 = branched(7, [1, 2, 3])
        assert e7.spherical_type(range(7)).name == "E7"
        e8 = branched(8, [1, 2, 4])
        assert e8.spherical_type(range(8)).name == "E8"
        d5 = branched(5, [1, 1, 2])
        assert d5.spherical_type(range(5)).name == "D5"
        # one leg longer than E8 allows: affine E8, not finite
        e9 = branched(9, [1, 2, 5])
        assert e9.spherical_type(range(9)) is None

    def test_branched_trees_agree_with_sylvester(self):
        # every simply-laced tree with one branch vertex and legs p <= q <= r,
        # as built and under two seeded renamings, so that a leg need not be
        # a run of consecutive indices.  A symmetric Cartan matrix is of
        # finite type iff it is positive definite: its leading minors decide.
        named = {(1, 2, 2): ("E6", 36), (1, 2, 3): ("E7", 63), (1, 2, 4): ("E8", 120)}
        rng = random.Random(1501)
        finite = 0
        for legs in itertools.combinations_with_replacement(range(1, 8), 3):
            n = sum(legs) + 1
            if n > 10:
                continue
            rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            start = 1
            for leg in legs:  # vertex 0 is the branch point
                path = [0, *range(start, start + leg)]
                for a, b in zip(path, path[1:]):
                    rows[a][b] = rows[b][a] = -1
                start += leg
            for perm in (range(n), rng.sample(range(n), n), rng.sample(range(n), n)):
                m = oracles.permuted(rows, perm)
                info = diagram(m).spherical_type(range(n))
                definite = all(oracles.det_cofactor([r[:k] for r in m[:k]]) > 0
                               for k in range(1, n + 1))
                assert (info is not None) == definite, (legs, perm)
                if info is not None:
                    expected = (f"D{n}", n * (n - 1)) if legs[1] == 1 else named[legs]
                    assert (info.name, info.positive_roots) == expected, (legs, perm)
                    finite += 1
        assert finite == 3 * 10  # D4 ... D10, E6, E7 and E8

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, -2], [-2, 2]],  # infinite bond
            [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # cycle
            [[2, -2, 0], [-2, 2, -1], [0, -1, 2]],  # infinite bond inside a path
        ],
    )
    def test_non_spherical_whole_sets(self, rows):
        d = diagram(rows)
        assert d.spherical_type(range(len(rows))) is None

    def test_rejects_affine_and_wild_shapes(self):
        # interior heavy edge on a length-3 path (affine C2 pattern)
        assert path_diagram([3, 4, 3]).spherical_type(range(4)) is None or \
            path_diagram([3, 4, 3]).spherical_type(range(4)).name == "F4"
        # F4 is exactly the interior-4 path on 4 vertices
        assert path_diagram([3, 4, 3]).spherical_type(range(4)).name == "F4"
        # longer interior-4 path is not finite
        assert path_diagram([3, 4, 3, 3]).spherical_type(range(5)) is None
        # two heavy edges
        assert path_diagram([4, 3, 4]).spherical_type(range(4)) is None
        # order 6 on a rank-3 path (affine G2 pattern)
        assert path_diagram([6, 3]).spherical_type(range(3)) is None
        # degree-4 vertex
        rows = [[1, 3, 3, 3, 3]] + [
            [3 if j == 0 else (1 if j == i else 2) for j in range(5)]
            for i in range(1, 5)
        ]
        assert orders_diagram(rows).spherical_type(range(5)) is None
        # two branch vertices
        rows = [[1 if i == j else 2 for j in range(6)] for i in range(6)]
        for a, b in [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]:
            rows[a][b] = rows[b][a] = 3
        assert orders_diagram(rows).spherical_type(range(6)) is None

    @pytest.mark.parametrize(
        "n, edges, names",
        [
            # a star K_{1,3} on 0-3 and a triangle on 4-6: 6 edges on 7 vertices
            (7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (4, 6)], ["D4", None]),
            # a triangle on 0-2 and an edge on 3-4: 4 edges on 5 vertices
            (5, [(0, 1), (1, 2), (0, 2), (3, 4)], [None, "A2"]),
        ],
    )
    def test_disconnected_set_has_no_type(self, n, edges, names):
        # n - 1 edges, no vertex of degree 4: only connectivity rules it out
        rows = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for a, b in edges:
            rows[a][b] = rows[b][a] = 3
        d = orders_diagram(rows)
        assert d.spherical_type(range(n)) is None
        assert not d.is_spherical(range(n))
        assert [getattr(d.spherical_type(c), "name", None) for c in d.components()] == names

    def test_sphericity_agrees_with_enumeration_rank3(self):
        # every GCM on 3 nodes with entries in {0,-1,-2}: finiteness by
        # classification must match finiteness by brute-force enumeration
        values = (0, -1, -2)
        cap = 500
        for a, b, c, d_, e, f in itertools.product(values, repeat=6):
            rows = [[2, a, b], [c, 2, d_], [e, f, 2]]
            try:
                g = gcm(rows)
            except ValueError:
                continue
            dia = coxeter_matrix(g)
            halted, count = oracles.enumerate_group(rows, cap)
            spherical = dia.is_spherical(range(3))
            if halted:
                assert spherical, rows
                assert dia.finite_group_order(range(3))[0] == count, rows
            else:
                # cap=500 exceeds every finite rank-3 group order (max 48)
                assert not spherical, rows


class TestFiniteGroupOrder:
    def test_product_over_components(self):
        d = diagram([[2, -1, 0], [-1, 2, 0], [0, 0, 2]])
        assert d.finite_group_order({0, 1, 2}) == (12, 4)

    def test_raises_on_non_spherical(self):
        d = diagram([[2, -2], [-2, 2]])
        with pytest.raises(NotSphericalError) as exc:
            d.finite_group_order({0, 1})
        assert exc.value.subset == frozenset({0, 1})

    def test_empty_subset(self):
        d = diagram([[2]])
        assert d.finite_group_order(set()) == (1, 0)


class TestMaxFiniteOrder:
    def test_small_cases(self):
        d = diagram([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
        assert d.max_finite_order({0, 1, 2}) == 6  # A2 on {1, 2}
        assert d.max_finite_order({0, 2}) == 4  # A1 x A1
        assert d.max_finite_order({0, 1}) == 2
        assert d.max_finite_order(()) == 1
        assert diagram(finite_a(4)).max_finite_order(range(4)) == math.factorial(5)

    def test_matches_group_enumeration(self):
        # the largest W_J over the subsets J of a random base whose principal
        # minors are all positive, each group counted by breadth-first search
        rng = random.Random(20261019)
        sizes = {}
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = oracles.random_gcm(rng, n, density=rng.choice([0.3, 0.6]),
                                      deepest=rng.choice([1, 1, 2, 3]))
            base = rng.sample(range(n), rng.randint(0, n))
            best = 1
            for j in oracles.all_subsets(base):
                if j and oracles.finite_type(rows, j):
                    sub = tuple(tuple(rows[a][b] for b in sorted(j)) for a in sorted(j))
                    if sub not in sizes:
                        halted, sizes[sub] = oracles.enumerate_group(sub, cap=10**4)
                        assert halted, sub
                    best = max(best, sizes[sub])
            assert diagram(rows).max_finite_order(base) == best, (rows, base)
        assert max(sizes.values()) >= 720


class TestDecompose:
    def test_mixed_subset(self):
        d = diagram([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
        dec = d.decompose({0, 1, 2})
        assert dec.essential_part == {0, 1, 2}
        assert dec.spherical_part == frozenset()
        assert dec.perp == frozenset()
        assert dec.is_essential and not dec.is_spherical

    def test_spherical_and_perp(self):
        d = diagram([[2, -1, 0], [-1, 2, 0], [0, 0, 2]])
        dec = d.decompose({0, 1})
        assert dec.is_spherical and not dec.is_essential
        assert dec.spherical_part == {0, 1}
        assert dec.perp == {2}

    def test_block_with_essential_and_spherical_parts(self):
        d = diagram([[2, -2, 0], [-2, 2, 0], [0, 0, 2]])
        dec = d.decompose({0, 1, 2})
        assert dec.essential_part == {0, 1}
        assert dec.spherical_part == {2}
        assert not dec.is_spherical and not dec.is_essential
        assert [sorted(c) for c in dec.components] == [[0, 1], [2]]

    def test_empty_subset_decomposes_trivially(self):
        d = diagram([[2, -1], [-1, 2]])
        dec = d.decompose(set())
        assert dec.is_spherical and dec.is_essential
        assert dec.perp == {0, 1}


class TestNerve:
    def test_affine_triangle_nerve(self):
        d = diagram([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        nerve = d.nerve()
        assert [sorted(s) for s in nerve.simplices] == [
            [0], [1], [2], [0, 1], [0, 2], [1, 2],
        ]
        assert nerve.by_dimension() == {0: 3, 1: 3}
        assert [sorted(s) for s in d.maximal_spherical_subsets(range(3))] == [
            [0, 1], [0, 2], [1, 2],
        ]
        assert {0, 1, 2} not in nerve.simplices
        assert {0, 1} in nerve.simplices
        assert nerve.face_hasse_edges() == (
            (0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5),
        )

    def test_downward_closure_and_order(self):
        d = diagram(
            [
                [2, -1, 0, 0],
                [-1, 2, -1, 0],
                [0, -1, 2, -1],
                [0, 0, -1, 2],
            ]
        )
        nerve = d.nerve()
        simplices = set(nerve.simplices)
        # finite type A4: the whole power set minus the empty set
        assert len(simplices) == 2**4 - 1
        for s in simplices:
            for x in s:
                if len(s) > 1:
                    assert s - {x} in simplices
        sizes = [len(s) for s in nerve.simplices]
        assert sizes == sorted(sizes)

    def test_nerve_matches_brute_force_sphericity(self):
        rows = [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]
        d = diagram(rows)
        nerve = d.nerve()
        expected = set()
        for size in range(1, 4):
            for subset in itertools.combinations(range(3), size):
                sub = [[rows[i][j] for j in subset] for i in subset]
                halted, _ = oracles.enumerate_group(sub, cap=200)
                if halted:
                    expected.add(frozenset(subset))
        assert set(nerve.simplices) == expected


class TestSphericalSubsets:
    def test_matches_filtered_power_set(self, catalog_gcms):
        rng = random.Random(20261022)
        for rows in subset_sweep(catalog_gcms):
            d = diagram(rows)
            bases = [range(d.rank), []] + [
                rng.sample(range(d.rank), rng.randint(1, d.rank)) for _ in range(3)
            ]
            for base in bases:
                expected = [
                    s for s in oracles.all_subsets(base) if s and d.is_spherical(s)
                ]
                assert list(d.spherical_subsets(base)) == expected, (rows, base)

    def test_nerve_one_skeleton_is_the_finite_order_graph(self, catalog_gcms):
        # a pair is spherical iff m_ij is finite, so both strong-connectivity
        # tests follow the same graph
        for rows in subset_sweep(catalog_gcms):
            d = diagram(rows)
            pairs = [tuple(sorted(s)) for s in d.nerve().simplices if len(s) == 2]
            assert pairs == list(d.finite_order_edges()), rows


class TestStrongConnectivity:
    def test_affine_triangle_is_strongly_connected(self):
        d = diagram([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        assert graph_strong_connectivity(d).strongly_connected
        assert nerve_strong_connectivity(d.nerve()).strongly_connected
        assert graph_strong_connectivity(d).failing_subset is None

    def test_infinite_bond_rank2_fails_at_empty_set(self):
        d = diagram([[2, -2], [-2, 2]])
        res = graph_strong_connectivity(d)
        assert not res.strongly_connected
        assert res.failing_subset == frozenset()
        res2 = nerve_strong_connectivity(d.nerve())
        assert not res2.strongly_connected
        assert res2.failing_subset == frozenset()

    def test_separating_spherical_subset_is_reported(self):
        d = diagram([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])
        res = graph_strong_connectivity(d)
        assert not res.strongly_connected
        # deleting generator 2 leaves 0,1 with no finite bond
        assert res.failing_subset == frozenset({2})
        res2 = nerve_strong_connectivity(d.nerve())
        assert res2.failing_subset == frozenset({2})

    def test_rank_one_is_strongly_connected(self):
        d = diagram([[2]])
        assert graph_strong_connectivity(d).strongly_connected
        assert nerve_strong_connectivity(d.nerve()).strongly_connected

    def test_two_criteria_agree_on_random_matrices(self):
        rng = random.Random(20260814)
        for _ in range(60):
            rows = oracles.random_gcm(rng, rng.randrange(2, 6), density=0.6, deepest=3)
            d = diagram(rows)
            assert graph_strong_connectivity(d).strongly_connected == (
                nerve_strong_connectivity(d.nerve()).strongly_connected
            ), rows

    def test_nerve_route_matches_all_simplices_oracle(self, catalog_gcms):
        rng = random.Random(20261018)
        matrices = [g.entries for g in catalog_gcms.values()] + [
            oracles.random_gcm(rng, rng.randint(2, 6), density=0.5, deepest=2)
            for _ in range(80)
        ]
        failing = 0
        for rows in matrices:
            nerve = diagram(rows).nerve()
            res = nerve_strong_connectivity(nerve)
            expected = oracles.nerve_connectivity(list(nerve.simplices))
            assert res.failing_subset == expected, rows
            assert res.strongly_connected == (expected is None)
            failing += expected is not None and len(expected) > 0
        assert failing  # some verdicts come from a nonempty J


class TestMaximalSimplices:
    def test_matches_quadratic_filter(self, catalog_gcms):
        rng = random.Random(20261019)
        matrices = [g.entries for g in catalog_gcms.values()] + [
            oracles.random_gcm(rng, rng.randint(1, 7), density=0.4, deepest=2)
            for _ in range(60)
        ]
        for rows in matrices:
            d = diagram(rows)
            assert list(d.maximal_spherical_subsets(d.index_set)) == oracles.maximal_sets(
                d.nerve().simplices
            ), rows


class TestMinimalNonSpherical:
    def test_matches_brute_force(self, catalog_gcms):
        for rows in subset_sweep(catalog_gcms):
            d = diagram(rows)
            assert list(d.minimal_non_spherical) == oracles.minimal_non_spherical(d), rows


def cycle(n):
    """Rows of the Cartan matrix of affine type A of rank n (a cycle)."""
    return [[2 if i == j else -1 if (i - j) % n in (1, n - 1) else 0 for j in range(n)]
            for i in range(n)]


class TestMaximalSphericalSubsets:
    def test_matches_the_enumerating_oracles(self, catalog_gcms):
        # the empty base has one maximal spherical subset, the empty set
        rng = random.Random(20261023)
        for rows in subset_sweep(catalog_gcms):
            d = diagram(rows)
            bases = [range(d.rank), []] + [
                rng.sample(range(d.rank), rng.randint(0, d.rank)) for _ in range(3)
            ]
            for base in bases:
                # a minimal non-spherical set is connected, so those inside
                # the base grow inside it alone
                inside = [m for m in d.minimal_non_spherical if m <= frozenset(base)]
                assert list(d._minimal_inside(sum(1 << i for i in base))) == inside
                expected = oracles.maximal_sets([frozenset(), *d.spherical_subsets(base)])
                assert list(d.maximal_spherical_subsets(base)) == expected, (rows, base)
                assert d.max_finite_order(base) == oracles.max_finite_order(d, base)

    def test_large_families_are_quick(self):
        # antichains of 4,096 and 16,384 maximal sets, 780 minimal sets, and
        # a rank-60 cycle, all in-process
        start = time.perf_counter()
        for k in (12, 14):  # k disjoint infinite pairs
            d = diagram(oracles.direct_sum(*[[[2, -2], [-2, 2]]] * k))
            assert len(d.minimal_non_spherical) == k
            maximal = d.maximal_spherical_subsets(range(2 * k))
            assert len(maximal) == 2**k and {len(s) for s in maximal} == {k}
            assert d.max_finite_order(range(0, 2 * k, 2)) == 2**k
        complete = diagram([[2 if i == j else -2 for j in range(40)] for i in range(40)])
        assert len(complete.minimal_non_spherical) == 780
        assert complete.maximal_spherical_subsets(range(40)) == tuple(
            frozenset([i]) for i in range(40)
        )
        assert complete.max_finite_order(range(40)) == 2
        ring = diagram(cycle(60))
        assert ring.minimal_non_spherical == (frozenset(range(60)),)
        assert len(ring.maximal_spherical_subsets(range(60))) == 60
        assert ring.max_finite_order(range(60)) == math.factorial(60)
        assert time.perf_counter() - start < 2.0
