"""Acceptance gate: one test per criterion, exact expectations, no slack.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Oracles come from tests/oracles.py (independent, naive
implementations); engine results must match them bit-exactly.  The whole
file stays well under a minute.
"""

import itertools
import math
import random
import time

import oracles
from conftest import run_km
from golden_cases import CASES
from kmgroups import (
    AFFINE,
    FINITE,
    INDEFINITE,
    CoxeterDiagram,
    GeneralizedCartanMatrix,
    WeylGroup,
    catalog,
    classify,
    coxeter_matrix,
    deodhar_move,
    ends_verdict,
    essential_subsets,
    find_j_regular,
    graph_strong_connectivity,
    indecomposability_verdict,
    nerve_strong_connectivity,
    open_subgroup_report,
    locally_normal_report,
    parabolic_closure_search,
    periodic_roots,
    positive_real_roots,
    standard_conjugacy,
)
from kmgroups.parabolics import ComponentNotSphericalError

AFF1 = [[2, -2], [-2, 2]]
AFF2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
MIXED = [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]

# Largest finite group order realizable by a diagram of the given rank with
# bond orders in {2,3,4,6}: G2 at rank 2, B3 at rank 3, F4 at rank 4.  A BFS
# that exceeds this bound therefore certifies an infinite group; 10**6 is
# the overall halting cap and is never reached.
_FINITE_ORDER_CAP = {1: 2, 2: 12, 3: 48, 4: 1152}
_BFS_CAP = 10**6

_bfs_memo: dict = {}


def _bfs_finiteness(rows):
    """(halted, order) for the sub-GCM, memoized across isomorphic diagrams.

    Finiteness and group order only depend on the bond-order matrix, so the
    memo key is its permutation-canonical form.
    """
    key = oracles.coxeter_key(rows)
    if key not in _bfs_memo:
        cap = min(_BFS_CAP, _FINITE_ORDER_CAP[len(rows)])
        _bfs_memo[key] = oracles.enumerate_group(rows, cap)
    return _bfs_memo[key]


def _valid_gcms_rank_le3():
    yield [[2]]
    values = (0, -1, -2, -3)
    for a, b in itertools.product(values, repeat=2):
        if (a == 0) != (b == 0):
            continue
        yield [[2, a], [b, 2]]
    for a, b, c, d, e, f in itertools.product(values, repeat=6):
        if (a == 0) != (c == 0) or (b == 0) != (e == 0) or (d == 0) != (f == 0):
            continue
        yield [[2, a, b], [c, 2, d], [e, f, 2]]


_CURATED_RANK4 = {
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
    "C4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "affine_A3": [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]],
}


def _catalog_gcms():
    return [catalog.load(name) for name in catalog.NAMES]


def test_criterion_01_bond_order_table_bit_exact():
    # every off-diagonal product 0..9 realizable by a rank-2 GCM maps to the
    # fixed bond order: 0->2, 1->3, 2->4, 3->6, >=4 -> infinity
    expected = {0: 2, 1: 3, 2: 4, 3: 6}
    seen_products = set()
    for a, b in itertools.product(range(0, 10), repeat=2):
        if (a == 0) != (b == 0) or a * b > 9:
            continue
        g = GeneralizedCartanMatrix.from_rows([[2, -a], [-b, 2]])
        m = coxeter_matrix(g).order(0, 1)
        want = expected.get(a * b, math.inf)
        assert m == want, (a, b, m)
        seen_products.add(a * b)
    assert seen_products == {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}


def test_criterion_02_rank2_trichotomy_exhaustive():
    start = time.perf_counter()
    for a, b in itertools.product(range(1, 7), repeat=2):
        verdict = classify(GeneralizedCartanMatrix.from_rows([[2, -a], [-b, 2]]))
        product = a * b
        if product <= 3:
            want = FINITE
        elif product == 4:
            want = AFFINE
        else:
            want = INDEFINITE
        assert verdict.types == (want,), (a, b)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_sphericity_dual_oracle():
    # classification vs independent BFS enumeration, for every subset of
    # every rank<=3 GCM over {0,-1,-2,-3} and of the curated rank-4 list;
    # when both call the group finite the orders must agree exactly
    def check(rows):
        g = GeneralizedCartanMatrix.from_rows(rows)
        diagram = coxeter_matrix(g)
        n = g.rank
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                sub = [[rows[i][j] for j in subset] for i in subset]
                halted, count = _bfs_finiteness(sub)
                spherical = diagram.is_spherical(subset)
                assert spherical == halted, (rows, subset)
                if halted:
                    order, _ = diagram.finite_group_order(subset)
                    assert order == count, (rows, subset)

    start = time.perf_counter()
    for rows in _valid_gcms_rank_le3():
        check(rows)
    for rows in _CURATED_RANK4.values():
        check(rows)
    assert time.perf_counter() - start < 30.0


def test_criterion_04_ends_equivalence_on_random_corpus():
    rng = random.Random(1729)
    corpus = [g.entries for g in _catalog_gcms()]
    while len(corpus) < 106:
        n = rng.randrange(2, 7)
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.55:
                    rows[i][j] = -rng.randrange(1, 4)
                    rows[j][i] = -rng.randrange(1, 4)
        corpus.append(rows)
    assert len(corpus) >= 106
    for rows in corpus:
        diagram = coxeter_matrix(GeneralizedCartanMatrix.from_rows(rows))
        assert graph_strong_connectivity(diagram).strongly_connected == (
            nerve_strong_connectivity(diagram.nerve()).strongly_connected
        ), rows


def test_criterion_05_curated_ends_verdicts():
    one_ended = ends_verdict(GeneralizedCartanMatrix.from_rows(AFF2))
    assert one_ended.weyl_infinite and one_ended.one_ended
    assert one_ended.witness is None

    dihedral = ends_verdict(GeneralizedCartanMatrix.from_rows(AFF1))
    assert dihedral.weyl_infinite and not dihedral.one_ended
    assert dihedral.witness == frozenset()

    mixed = ends_verdict(GeneralizedCartanMatrix.from_rows(MIXED))
    assert mixed.weyl_infinite and not mixed.one_ended
    # 0-based index 2 is the separating generator (1-based label 3)
    assert mixed.witness == frozenset({2})


def test_criterion_06_move_verification_and_conjugacy():
    # every constructible move on the catalog is matrix-verified on the spot
    # (deodhar_move raises otherwise); essential sources are fixed points
    for g in _catalog_gcms():
        W = WeylGroup(g)
        subsets = [
            frozenset(s)
            for size in range(0, g.rank)
            for s in itertools.combinations(range(g.rank), size)
        ]
        for source in subsets:
            for s in set(range(g.rank)) - source:
                try:
                    move = deodhar_move(W, source, s)
                except ComponentNotSphericalError:
                    continue
                inv = move.nu.inverse()
                conjugated = {
                    k
                    for j in source
                    for k in range(g.rank)
                    if inv * W.generator(j) * move.nu == W.generator(k)
                }
                assert conjugated == move.target, (g.entries, source, s)
        diagram = W.diagram
        for source in essential_subsets(diagram):
            if not source:
                continue
            for s in set(range(g.rank)) - source:
                try:
                    move = deodhar_move(W, source, s)
                except ComponentNotSphericalError:
                    continue
                assert move.target == source, (g.entries, source, s)

    # the rank-3 chain: singleton classes are all conjugate, with a verified
    # witness assembled from elementary moves
    a3 = GeneralizedCartanMatrix.from_rows(
        [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    )
    W = WeylGroup(a3)
    witness = standard_conjugacy(W, {0}, {2})
    assert witness is not None
    assert witness.chain[0] == {0} and witness.chain[-1] == {2}
    assert {m.target for m in witness.moves} >= {frozenset({2})}
    inv = witness.element.inverse()
    assert inv * W.generator(0) * witness.element == W.generator(2)


def test_criterion_07_word_engine_laws():
    for rows in (AFF1, AFF2):
        W = WeylGroup(GeneralizedCartanMatrix.from_rows(rows))
        for w in W.ball(6):
            assert W.from_word(w.word) == w
            largest = oracles.peel_word(rows, w.rows, pick=max)
            assert len(largest) == w.length
            assert frozenset(largest) == w.support
            for i in range(W.rank):
                assert abs((w * W.generator(i)).length - w.length) == 1

    for g in _catalog_gcms():
        W = WeylGroup(g)
        for subset in W.diagram._spherical_subsets:
            w0 = W.longest_element(subset)
            _, positive = W.diagram.finite_group_order(subset)
            assert (w0 * w0).is_identity, (g.entries, subset)
            assert w0.length == positive, (g.entries, subset)


def test_criterion_08_root_counts_and_reflections():
    W = WeylGroup(GeneralizedCartanMatrix.from_rows(AFF1))
    # derive the count law from the independent orbit oracle at small k...
    for k in range(0, 4):
        oracle_roots = oracles.orbit_positive_roots(AFF1, 2 * (2 * k + 1) + 1, 2 * k + 1)
        assert len(oracle_roots) == 2 * (k + 1), k
    # ...then assert it against the engine for k <= 10
    for k in range(0, 11):
        roots = positive_real_roots(W, 2 * k + 1)
        assert len(roots) == 2 * (k + 1), k

    # reflections on every catalog entry, all roots of height <= 8
    from kmgroups import reflection_of

    for g in _catalog_gcms():
        Wg = WeylGroup(g)
        for root in positive_real_roots(Wg, 8):
            refl = reflection_of(root)
            assert (refl * refl).is_identity
            assert refl.apply(root.coords) == tuple(-c for c in root.coords)


def test_criterion_09_regular_element_pipeline():
    W = WeylGroup(GeneralizedCartanMatrix.from_rows(AFF1))
    cert = find_j_regular(W, {0, 1}, max_len=2, power_bound=10, max_height=11, depth=2)
    assert cert is not None
    assert cert.element.word == (0, 1)
    assert cert.torsion_bound == 2
    assert cert.power_bound == 10
    assert cert.root_height == 11
    assert cert.closure.support == {0, 1}
    assert cert.roots_checked == 12
    # periodicity came back empty inside the subset
    roots = positive_real_roots(W, 11)
    assert periodic_roots(cert.element, roots, 10) == []

    # power stability: the closure-search support of w^n stays the full set
    for n in (2, 3):
        power_cert = parabolic_closure_search(W, cert.element**n, depth=2)
        assert power_cert.support == {0, 1}, n

    # periodic-root supports stay inside J and its commutant on the
    # decomposable block: the translation of the block fixes exactly the
    # off-block simple root
    blocks = GeneralizedCartanMatrix.from_rows(
        [[2, 0, 0], [0, 2, -2], [0, -2, 2]]
    )
    Wb = WeylGroup(blocks)
    w = Wb.from_word([1, 2])
    subset = frozenset({1, 2})
    perp = Wb.diagram.decompose(subset).perp
    assert perp == {0}
    fixed = periodic_roots(w, positive_real_roots(Wb, 9), 6)
    assert fixed != []
    for root, period in fixed:
        assert root.support <= subset | perp, (root.coords, period)
    assert {(r.coords, n) for r, n in fixed} == {((1, 0, 0), 1)}


def test_criterion_10_indecomposability_verdicts():
    aff2 = GeneralizedCartanMatrix.from_rows(AFF2)
    v = indecomposability_verdict(aff2, 4)
    assert v.outcome == "locally_indecomposable" and v.by == "criterion_i"

    aff1 = GeneralizedCartanMatrix.from_rows(AFF1)
    v = indecomposability_verdict(aff1, 2)
    assert v.outcome == "inconclusive"
    assert {r.criterion for r in v.reasons} == {"criterion_i", "criterion_ii"}

    a2 = GeneralizedCartanMatrix.from_rows([[2, -1], [-1, 2]])
    for q in (2, 3, 4, 5, 7, 8, 9, 25):
        v = indecomposability_verdict(a2, q)
        assert v.outcome == "locally_indecomposable" and v.by == "finite_type"

    # a positive verdict at prime p never degrades at a larger prime; the
    # extra rank-3 matrix genuinely flips from inconclusive at p=2 to
    # positive at p=3, so the check is not vacuous on this corpus
    flipper = GeneralizedCartanMatrix.from_rows(
        [[2, -1, 0], [-2, 2, -2], [0, -1, 2]]
    )
    primes = (2, 3, 5, 7)
    corpus = _catalog_gcms() + [flipper]
    transitions = set()
    for g in corpus:
        outcomes = [
            indecomposability_verdict(g, p).outcome == "locally_indecomposable"
            for p in primes
        ]
        for earlier, later in zip(outcomes, outcomes[1:]):
            assert later >= earlier, (g.entries, outcomes)
            transitions.add((earlier, later))
    assert (False, True) in transitions


def test_criterion_11_reports_and_golden_stability(catalog_paths):
    for name in catalog.NAMES:
        g = catalog.load(name)
        report = open_subgroup_report(g)
        subsets = essential_subsets(coxeter_matrix(g))
        assert len(report.classes) == len(subsets), name

    aff2 = GeneralizedCartanMatrix.from_rows(AFF2)
    assert locally_normal_report(aff2).compact_or_open

    for _, entry, template in CASES:
        argv = [
            a.replace("{}", catalog_paths[entry]) if entry else a
            for a in template
        ]
        first = run_km(*argv)
        second = run_km(*argv)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout, argv
