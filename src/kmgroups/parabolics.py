"""Standard parabolic combinatorics: the essential poset, conjugating moves,
bounded parabolic-closure search and the regular-element search.

Throughout, a subset J of generators is *essential* when it has no finite-type
component (J equals its essential part).  Essential subsets index the
commensurability classes of standard parabolic subgroups, ordered by
inclusion of essential parts.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from typing import TYPE_CHECKING, NamedTuple

from . import DEFAULT_BUDGET, BadInputError
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


class Comparison(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def compare_commensurability(
    diagram: CoxeterDiagram, left: Iterable[int], right: Iterable[int]
) -> Comparison:
    """Order of the commensurability classes of two standard parabolics.

    The class of P_J embeds into that of P_K up to finite index exactly when
    the essential part of J is contained in the essential part of K, so the
    comparison reduces to set containment of essential parts.
    """
    a = diagram.decompose(left).essential_part
    b = diagram.decompose(right).essential_part
    if a == b:
        return Comparison.EQUAL
    if a <= b:
        return Comparison.LESS
    if b <= a:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


class EssentialPoset(NamedTuple):
    """Essential subsets ordered by inclusion, with Hasse cover pairs."""

    elements: tuple[frozenset[int], ...]
    hasse: tuple[tuple[int, int], ...]  # (smaller index, larger index)

    @classmethod
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

        >>> from kmgroups import GeneralizedCartanMatrix, coxeter_matrix
        >>> rows = [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]]
        >>> poset = EssentialPoset.build(
        ...     coxeter_matrix(GeneralizedCartanMatrix.from_rows(rows)))
        >>> [sorted(s) for s in poset.elements]
        [[], [0, 1], [0, 2], [1, 2], [0, 1, 2]]
        >>> poset.hasse
        ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))
        """
        neighbours = [sum(1 << j for j in near) for near in diagram._defining_neighbours]
        minimal = [sum(1 << i for i in d) for d in diagram.minimal_non_spherical]

        def members(mask):
            return [i for i in range(mask.bit_length()) if mask >> i & 1]

        order, reached, pairs = [0], {0}, []
        for a in order:  # breadth first: the list grows while it is read
            closed = a  # with its defining-graph neighbours
            for i in members(a):
                closed |= neighbours[i]
            for b in ([a | 1 << x for x in members(closed & ~a)]
                      + [a | d for d in minimal if not d & closed]):
                pairs.append((a, b))
                if b not in reached:
                    reached.add(b)
                    order.append(b)
        ranked = sorted((m.bit_count(), members(m), m) for m in order)
        index = {m: k for k, (_, _, m) in enumerate(ranked)}
        return cls(
            elements=tuple(frozenset(s) for _, s, _ in ranked),
            hasse=tuple(sorted((index[a], index[b]) for a, b in pairs)),
        )


class DeodharMove(NamedTuple):
    """One elementary conjugation J -> nu^{-1} J nu of generator subsets."""

    source: frozenset[int]
    s: int
    component: frozenset[int]
    nu: WeylElement
    target: frozenset[int]


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


class ConjugacyWitness(NamedTuple):
    """A verified element w with w^{-1} J w = J', plus the move chain."""

    element: WeylElement
    moves: tuple[DeodharMove, ...]

    @property
    def chain(self) -> tuple[frozenset[int], ...]:
        if not self.moves:
            return ()
        return (self.moves[0].source,) + tuple(m.target for m in self.moves)


def standard_conjugacy(
    group: WeylGroup, source: Iterable[int], target: Iterable[int]
) -> ConjugacyWitness | None:
    """Search the finite move graph for a conjugation source -> target.

    Returns a verified witness, or None when the move graph is exhausted
    (which settles non-conjugacy for standard subsets).  w^{-1} J w = K is
    an isomorphism of Coxeter diagrams, so sets whose sorted (component
    size, finite type) lists differ are answered before any move.
    """
    source, target = frozenset(source), frozenset(target)
    if source == target:
        return ConjugacyWitness(element=group.identity, moves=())
    shapes = [sorted((len(c), getattr(group.diagram.spherical_type(c), "name", ""))
                     for c in group.diagram.components(j)) for j in (source, target)]
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


class ClosureCertificate(NamedTuple):
    """Best conjugate found within a radius: an upper bound for the
    parabolic closure, never a proof of minimality."""

    element: WeylElement
    conjugator: WeylElement
    conjugate: WeylElement
    support: frozenset[int]
    essential_support: frozenset[int]
    depth: int


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
    """``parabolic_closure_search`` over a ball already built."""
    def candidate(v):
        conj = v.inverse() * element * v
        supp = conj.support
        ess = element.group.diagram.decompose(supp).essential_part
        return (len(ess), len(supp)), v, conj, supp, ess

    _, v, conj, supp, ess = min(map(candidate, ball), key=lambda c: c[0])
    return ClosureCertificate(element, v, conj, supp, ess, depth)


class JRegularCertificate(NamedTuple):
    """A candidate regular element with all four bounded certificates.

    * infinite order, decided against the torsion bound;
    * straightness, checked for powers 2..power_bound;
    * parabolic-closure search (within the subset) returned the full subset;
    * no positive real root supported in the subset, up to root_height, is
      fixed by a power <= power_bound.
    """

    element: WeylElement
    subset: frozenset[int]
    torsion_bound: int
    power_bound: int
    closure: ClosureCertificate
    root_height: int
    roots_checked: int


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
    candidates were wrongly rejected at higher bounds.
    """
    from .roots import periodic_roots, positive_real_roots, split_by_support

    subset, _ = normalizer_factors(group.diagram, subset)  # NotEssentialError
    all_roots = positive_real_roots(group, max_height, budget=budget)
    in_subset, _ = split_by_support(all_roots, subset)
    torsion_bound = group.diagram.max_finite_order(group.diagram.index_set)
    closure_ball = None  # one ball for every candidate that gets that far
    for w in group.ball(max_len, generators=subset, budget=budget)[1:]:
        if w.order() is not None:
            continue
        if not w.is_straight(power_bound):
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
