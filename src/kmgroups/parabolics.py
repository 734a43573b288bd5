"""Standard parabolic combinatorics: the essential poset, conjugating moves,
bounded parabolic-closure search and the regular-element search.

Throughout, a subset J of generators is *essential* when it has no finite-type
component (J equals its essential part).  Essential subsets index the
commensurability classes of standard parabolic subgroups, ordered by
inclusion of essential parts.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import lru_cache, reduce
from itertools import chain, repeat
from operator import or_
from typing import TYPE_CHECKING

from . import DEFAULT_BUDGET, BadInputError, BudgetExceededError
from .coxeter import CoxeterDiagram

if TYPE_CHECKING:  # the group routines import it when they run; the poset never does
    from .weyl import WeylElement, WeylGroup


class NotEssentialError(BadInputError):
    def __init__(self, subset: Iterable[int]):
        self.subset = frozenset(subset)
        super().__init__(self.message(0))

    def message(self, base: int) -> str:
        subset = sorted(i + base for i in self.subset)
        return f"subset {subset} is not essential and nonempty"


class ComponentNotSphericalError(BadInputError):
    """The move's surrounding component is infinite, so no move exists."""

    def __init__(self, subset: Iterable[int], s: int, component: Iterable[int]):
        self.subset = frozenset(subset)
        self.s = s
        self.component = frozenset(component)
        super().__init__(self.message(0))

    def message(self, base: int) -> str:
        component = sorted(i + base for i in self.component)
        subset = sorted(i + base for i in self.subset)
        s = self.s + base
        return f"component {component} of {subset} + {{{s}}} is not spherical"


class MoveVerificationError(RuntimeError):
    """Conjugation by a move element did not land on generator matrices."""


def essential_subsets(diagram: CoxeterDiagram) -> tuple[frozenset[int], ...]:
    """All essential subsets (the empty set included), sorted by size then members."""
    return EssentialPoset.build(diagram).elements


class EssentialPoset(namedtuple("EssentialPoset", "elements hasse")):
    """Essential subsets ordered by inclusion, with Hasse cover pairs.

    Fields: ``elements``: tuple[frozenset[int], ...]; ``hasse``:
    tuple[tuple[int, int], ...], each pair (smaller index, larger index).
    """

    __slots__ = ()

    @classmethod
    @lru_cache(maxsize=1)
    def build(cls, diagram: CoxeterDiagram) -> "EssentialPoset":
        """The essential subsets and their Hasse covers, by one breadth-first
        walk along covers from the least element, the empty set.

        Let a be essential and N(a) its defining-graph neighbours outside a.
        The covers of a are a + {x} for x in N(a), and a + D for each minimal
        non-spherical D (all proper subsets spherical) disjoint from a + N(a).
        Proof sketch: let b = a + D cover a.  If some x in D touches a, then
        a + {x} is essential (x joins a non-spherical component), so b is it.
        Otherwise each component of D is one of b, so non-spherical, and a
        minimal non-spherical subset of it (connected) is essential with a:
        so D is minimal non-spherical.  Conversely a + D is essential, and for
        D' a proper subset of D, a + D' has the spherical components of D'.
        Elements sort by (size, members).

        The last poset built is kept, keyed by the diagram's value: both
        reports of `km report` read one walk.

        >>> from kmgroups import GeneralizedCartanMatrix, coxeter_matrix
        >>> rows = [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]]
        >>> poset = EssentialPoset.build(
        ...     coxeter_matrix(GeneralizedCartanMatrix.from_rows(rows)))
        >>> [sorted(s) for s in poset.elements]
        [[], [0, 1], [0, 2], [1, 2], [0, 1, 2]]
        >>> poset.hasse
        ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))
        """
        near = [sum(1 << j for j in js) for js in diagram._defining_neighbours]
        bits = [1 << x for x in diagram.index_set]
        # what a cover adds to a, as a mask: that mask with its neighbours,
        # and its members
        step = {1 << x: (1 << x | near[x], frozenset([x])) for x in diagram.index_set}
        minimal = []
        for d in diagram.minimal_non_spherical:
            mask = sum(1 << i for i in d)
            minimal.append(mask)
            step[mask] = (reduce(or_, (near[i] | 1 << i for i in d)), d)
        full = (1 << diagram.rank) - 1
        # by position in the walk: each mask a, a + N(a), the set a and the
        # masks of its covers
        order, closure, sets, ups, reached = [0], [0], [frozenset()], [], {0}
        for a, closed, members in zip(order, closure, sets):  # the lists grow
            out = closed & ~a
            found = [a | x for x in bits if x & out]
            if closed != full:  # else no D is disjoint from a + N(a)
                found += [a | d for d in minimal if not d & closed]
            ups.append(found)
            new = [b for b in found if b not in reached]
            reached.update(new)
            for b in new:
                grown, added = step[b ^ a]
                order.append(b)
                closure.append(closed | grown)
                sets.append(members | added)
        positions = range(len(order))
        ranked = [k for *_, k in sorted(zip(map(len, sets), map(sorted, sets), positions))]
        index = dict(zip(map(order.__getitem__, ranked), positions))  # mask -> element
        return cls(
            elements=tuple(map(sets.__getitem__, ranked)),
            hasse=tuple(chain.from_iterable(
                zip(repeat(r), sorted(map(index.__getitem__, ups[k])))
                for r, k in enumerate(ranked))),
        )


class DeodharMove(namedtuple("DeodharMove", "source s component nu target")):
    """One elementary conjugation J -> nu^{-1} J nu of generator subsets.

    Fields: ``s``: int; ``nu``: WeylElement; the others: frozenset[int].
    """

    __slots__ = ()


def _conjugate_generator_set(
    group: WeylGroup, element: WeylElement, subset: Iterable[int]
) -> frozenset[int]:
    """The set K with element^{-1} * subset * element = K, matrix-verified.

    element^{-1} s_j element is the reflection in element^{-1}(alpha_j), so it
    is s_k exactly when column k is +-alpha_j; each pair is then checked as the
    matrix identity s_j element = element s_k, by two one-generator steps.
    """
    rows, subset = element.rows, sorted(subset)
    column_of = {  # j -> the k with element(alpha_k) = +-alpha_j
        next(i for i, x in enumerate(col) if x): k
        for k, col in enumerate(zip(*rows))
        if col.count(0) == len(col) - 1 and sum(col) in (1, -1)
    }
    for j in subset:
        k = column_of.get(j)
        if k is None or group._left_mul_gen(j, rows) != group._right_mul_gen(rows, k):
            raise MoveVerificationError(f"conjugate of generator {j} is not a generator")
    return frozenset(column_of[j] for j in subset)


def deodhar_move(group: WeylGroup, source: Iterable[int], s: int) -> DeodharMove:
    """Conjugate ``source`` across the outside generator ``s``.

    Requires the component K of source + {s} containing s to be spherical;
    the move element nu = w_{K - s} * w_K is spelled by the two longest words,
    and ``_conjugate_generator_set`` reads the target off nu's columns.
    """
    source = frozenset(source)
    if s in source:
        raise ValueError(f"generator {s} already belongs to {sorted(source)}")
    component = next(c for c in group.diagram.components(source | {s}) if s in c)
    if not group.diagram.is_spherical(component):
        raise ComponentNotSphericalError(source, s, component)
    nu = group.from_word(group.longest_element(component - {s}).word
                         + group.longest_element(component).word)
    target = _conjugate_generator_set(group, nu, source)
    if len(target) != len(source):
        raise MoveVerificationError("move changed the subset size")
    return DeodharMove(source=source, s=s, component=component, nu=nu, target=target)


class ConjugacyWitness(namedtuple("ConjugacyWitness", "element moves")):
    """A verified element w with w^{-1} J w = J', plus the move chain.

    Fields: ``element``: WeylElement; ``moves``: tuple[DeodharMove, ...].
    """

    __slots__ = ()


def standard_conjugacy(
    group: WeylGroup, source: Iterable[int], target: Iterable[int]
) -> ConjugacyWitness | None:
    """Search the finite move graph for a conjugation source -> target.

    Returns a verified witness, or None when the move graph is exhausted
    (which settles non-conjugacy for standard subsets).  w^{-1} J w = K is
    an isomorphism of Coxeter diagrams, so sets whose sorted (component
    size, finite type, sorted bond orders) lists differ are answered before
    any move.
    """
    source, target = frozenset(source), frozenset(target)
    if source == target:
        return ConjugacyWitness(element=group.identity, moves=())
    diagram = group.diagram
    shapes = [sorted((len(c), getattr(diagram._classify(c), "name", ""),
                      sorted(diagram.orders[i][j] for i in c for j in c if i < j))
                     for c in diagram.components(j)) for j in (source, target)]
    if shapes[0] != shapes[1]:
        return None
    order, arrival = [source], {source: None}  # subset -> the move that reached it
    for cur in order:  # breadth first: the list grows while it is read
        for s in sorted(set(range(group.rank)) - cur):
            try:
                move = deodhar_move(group, cur, s)
            except ComponentNotSphericalError:
                continue
            if move.target in arrival:
                continue
            arrival[move.target] = move
            order.append(move.target)
            if move.target == target:
                moves = [move]
                while (move := arrival[move.source]) is not None:
                    moves.append(move)
                moves.reverse()
                witness = group.from_word(k for m in moves for k in m.nu.word)
                if _conjugate_generator_set(group, witness, source) != target:
                    raise MoveVerificationError("assembled witness failed to verify")
                return ConjugacyWitness(element=witness, moves=tuple(moves))
    return None


def normalizer_factors(
    diagram: CoxeterDiagram, subset: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """(J, J-perp) for essential J: the normalizer of W_J splits as
    W_J x W_{J-perp}, and the centralizer-side factor is W_{J-perp}."""
    subset = frozenset(subset)
    dec = diagram.decompose(subset)
    if not subset or not dec.is_essential:
        raise NotEssentialError(subset)
    return subset, dec.perp


class ClosureCertificate(namedtuple(
        "ClosureCertificate",
        "element conjugator conjugate support essential_support depth")):
    """Best conjugate found within a radius: an upper bound for the
    parabolic closure, never a proof of minimality.

    Fields: ``element``, ``conjugator``, ``conjugate``: WeylElement;
    ``support``, ``essential_support``: frozenset[int]; ``depth``: int.
    """

    __slots__ = ()


def parabolic_closure_search(
    group: WeylGroup,
    element: WeylElement,
    depth: int,
    budget: int = DEFAULT_BUDGET,
) -> ClosureCertificate:
    """Minimize the support of v^{-1} w v over the ball of radius ``depth``.

    Candidates v are scanned in length-lexicographic order of canonical
    words; the key minimized is (essential-part size, support size), ties
    resolved by scan order.
    """
    return _closure_over(group.ball(depth, budget=budget), element, depth)


def _closure_over(
    ball: list[WeylElement], element: WeylElement, depth: int
) -> ClosureCertificate:
    """``parabolic_closure_search`` over a ball already built.

    The ball is prefix-closed and in canonical-word order, so v = u s_k, with
    u's word v's minus its last letter k, comes after u, and v^{-1} w v =
    s_k (u^{-1} w u) s_k is two generator steps on u's conjugate.  Only the
    elements shorter than ``depth`` can be parents, so only theirs are kept.
    """
    from .weyl import WeylElement

    group, decompose = element.group, element.group.diagram.decompose
    conjugates = {(): element.rows}  # canonical word -> rows of its conjugate
    essential = {}  # support -> its essential part

    def candidate(v):
        word = v.word
        rows = conjugates.get(word)
        if rows is None:
            k = word[-1]
            rows = group._left_mul_gen(k, group._right_mul_gen(conjugates[word[:-1]], k))
            if len(word) < depth:
                conjugates[word] = rows
        conj = WeylElement(group, rows)
        supp = conj.support
        if supp not in essential:
            essential[supp] = decompose(supp).essential_part
        ess = essential[supp]
        return (len(ess), len(supp)), v, conj, supp, ess

    _, v, conj, supp, ess = min(map(candidate, ball), key=lambda c: c[0])
    return ClosureCertificate(element, v, conj, supp, ess, depth)


class JRegularCertificate(namedtuple(
        "JRegularCertificate",
        "element subset torsion_bound power_bound closure root_height roots_checked")):
    """A candidate regular element with all four bounded certificates.

    * infinite order, decided against the torsion bound;
    * straightness, checked for powers 2..power_bound;
    * parabolic-closure search (within the subset) returned the full subset;
    * no positive real root supported in the subset, up to root_height, is
      fixed by a power <= power_bound.

    Fields: ``element``: WeylElement; ``subset``: frozenset[int];
    ``closure``: ClosureCertificate; the others: int.
    """

    __slots__ = ()


def find_j_regular(
    group: WeylGroup,
    subset: Iterable[int],
    max_len: int,
    power_bound: int,
    max_height: int,
    depth: int,
    budget: int = DEFAULT_BUDGET,
) -> JRegularCertificate | None:
    """Scan W_J - {e} by length then word for one passing all four checks.

    Returns None when no element of length <= max_len passes; the bounds
    make every accepted certificate checkable but never prove that smaller
    candidates were wrongly rejected at higher bounds.  The power_bound
    powers are charged to ``budget`` before any candidate is scanned, as
    ``WeylElement.power_lengths`` charges them, so past it this raises
    :class:`BudgetExceededError` whichever candidates the other bounds give.
    """
    from .roots import periodic_roots, positive_real_roots, split_by_support

    subset, _ = normalizer_factors(group.diagram, subset)  # NotEssentialError
    if power_bound > budget:
        raise BudgetExceededError("power steps", budget)
    all_roots = positive_real_roots(group, max_height, budget=budget)
    in_subset, _ = split_by_support(all_roots, subset)
    torsion_bound = group.diagram.max_finite_order(group.diagram.index_set)
    closure_ball = None  # one ball for every candidate that gets that far
    for w in group.ball(max_len, generators=subset, budget=budget)[1:]:
        if w.order() is not None:
            continue
        if not w.is_straight(power_bound, budget):
            continue
        if closure_ball is None:
            closure_ball = group.ball(depth, generators=subset, budget=budget)
        closure = _closure_over(closure_ball, w, depth)
        if closure.support != subset:
            continue
        if periodic_roots(w, in_subset, power_bound):
            continue
        return JRegularCertificate(
            element=w,
            subset=subset,
            torsion_bound=torsion_bound,
            power_bound=power_bound,
            closure=closure,
            root_height=max_height,
            roots_checked=len(in_subset),
        )
    return None
