"""Element counts by length against Steinberg's formula.

The growth series of W follows from the degrees of its finite standard
parabolics alone (``oracles.growth_series``).  So one independent count
checks three engines at once: the spherical subsets the formula sums over
(``CoxeterDiagram.spherical_subsets``), the A-G table behind
``finite_group_order`` (its orders and root counts against the degrees),
and the elements of each length in ``WeylGroup.ball``.  A wrong degree of
a spherical T first shows at a length of at least N_T, and later still
when it keeps N_T, so a ball to a modest radius can miss it: affine D4 to
length 14 misses D4's degrees (2, 4, 6, 4) read as (2, 3, 7, 4).  The
whole finite groups below therefore run to their longest element, where
the series is the whole Poincare polynomial: D5 to length 20 sees that
wrong D4 from length 15.  A group's own degrees reach its series only in
the top coefficient, which is 1 whatever they are; the product and sum
checks against ``finite_group_order`` pin them.
"""

import math
import random
from collections import Counter

import pytest

import oracles
from kmgroups import GeneralizedCartanMatrix, WeylGroup, coxeter_matrix

# whole finite groups, named by type: D4 has 192 elements, F4 1,152, D5 1,920
FINITE = {
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]],
    "D5": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
           [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]],
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "G2": [[2, -1], [-3, 2]],
}
AFFINE_D4 = [[2, -1, -1, -1, -1], [-1, 2, 0, 0, 0], [-1, 0, 2, 0, 0], [-1, 0, 0, 2, 0],
             [-1, 0, 0, 0, 2]]


def spherical_degrees(diagram):
    """(|T|, degrees of W_T) for the empty T and every spherical T, each
    checked against ``finite_group_order``: the product of the degrees is
    the order of W_T, and the sum of (d - 1) its number of positive roots."""
    found = [(0, ())]
    for subset in diagram.spherical_subsets(diagram.index_set):
        degs = tuple(d for c in diagram.components(subset)
                     for d in oracles.degrees(diagram.spherical_type(c).name))
        assert diagram.finite_group_order(subset) == (
            math.prod(degs), sum(d - 1 for d in degs)), sorted(subset)
        found.append((len(subset), degs))
    return found


def ball_counts(gcm, radius):
    """The number of elements of each length 0..radius, read off the ball."""
    counts = Counter(w.length for w in WeylGroup(gcm).ball(radius))
    return [counts[k] for k in range(radius + 1)]


def check(rows, radius):
    gcm = GeneralizedCartanMatrix.from_rows(rows)
    spherical = spherical_degrees(coxeter_matrix(gcm))
    assert ball_counts(gcm, radius) == oracles.growth_series(spherical, radius), rows


@pytest.mark.parametrize("name", sorted(FINITE))
def test_whole_finite_groups_match_their_poincare_polynomial(name):
    gcm = GeneralizedCartanMatrix.from_rows(FINITE[name])
    diagram = coxeter_matrix(gcm)
    assert diagram.spherical_type(diagram.index_set).name == name
    order, longest = diagram.finite_group_order(diagram.index_set)
    series = oracles.growth_series(spherical_degrees(diagram), longest + 1)
    assert series[longest] == 1 and series[-1] == 0 and sum(series) == order
    assert ball_counts(gcm, longest + 1) == series


def wrong_d4(gcm):
    """The spherical data of ``gcm`` with D4's degrees read as (2, 3, 7, 4):
    the same N_T, another order."""
    return [(size, (2, 3, 7, 4) if degs == (2, 4, 6, 4) else degs)
            for size, degs in spherical_degrees(coxeter_matrix(gcm))]


def test_a_wrong_degree_is_seen_only_in_a_whole_finite_group():
    affine = GeneralizedCartanMatrix.from_rows(AFFINE_D4)
    assert ball_counts(affine, 14) == oracles.growth_series(wrong_d4(affine), 14)
    d5 = GeneralizedCartanMatrix.from_rows(FINITE["D5"])
    counts, wrong = ball_counts(d5, 21), oracles.growth_series(wrong_d4(d5), 21)
    assert counts[:15] == wrong[:15] and counts[15] != wrong[15]


def test_affine_d4():
    check(AFFINE_D4, 14)


def test_known_series():
    affine_a1 = [(0, ()), (1, (2,)), (1, (2,))]
    assert oracles.growth_series(affine_a1, 5) == [1, 2, 2, 2, 2, 2]
    assert oracles.growth_series([(0, ()), (1, (2,)), (1, (2,)), (2, (2, 6))], 7) == [
        1, 2, 2, 2, 2, 2, 1, 0]  # G2, 12 elements
    assert [math.prod(oracles.degrees(n)) for n in ("E6", "E7", "E8")] == [
        51840, 2903040, 696729600]


def test_seeded_random_gcms():
    rng = random.Random(16)
    for _ in range(120):
        n = rng.randint(1, 6)
        check(oracles.random_gcm(rng, n, density=0.6, deepest=3), 6 if n <= 3 else 5)


def test_kernel_gcms():
    for rows in oracles.kernel_gcms(seed=10):
        check(rows, 4)
