"""Coxeter data derived from a generalized Cartan matrix.

The Weyl group attached to a GCM is the Coxeter group with edge orders
determined by the products a_ij * a_ji:

    product   0  1  2  3  >=4
    m_ij      2  3  4  6  infinity

This module classifies which subsets of generators span a finite (spherical)
group, decomposes subsets into spherical / essential / orthogonal parts,
finds the minimal non-spherical and maximal spherical subsets, builds the
finite-subset complex (the nerve), and decides the two equivalent
strong-connectivity criteria of the ends analysis.

Edge orders are Python ints, with ``math.inf`` for the infinite order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache, reduce
from collections.abc import Iterable, Iterator, Sequence
from operator import or_
from typing import TYPE_CHECKING

from . import BadInputError
from .gcm import _label_set

if TYPE_CHECKING:
    from .gcm import GeneralizedCartanMatrix

INFINITE = math.inf

_ORDER_BY_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}


def _mask(subset: Iterable[int]) -> int:
    return reduce(or_, map((1).__lshift__, subset), 0)


def _bits(mask: int) -> list[int]:
    """The members of a mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _flood(near: Sequence[int], inside: int, x: int) -> int:
    """The mask of the component of x in the graph induced on the mask
    ``inside`` (which holds x); ``near[i]`` is the mask of i's neighbours.

    >>> bin(_flood([0b10, 0b101, 0b1010, 0b100], 0b1011, 0))
    '0b11'
    """
    comp = todo = 1 << x
    while todo:
        low = todo & -todo
        todo ^= low
        new = near[low.bit_length() - 1] & inside & ~comp
        comp |= new
        todo |= new
    return comp


def _by_size(sets: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))


class NotSphericalError(BadInputError):
    """A subset expected to generate a finite group does not."""

    def __init__(self, subset: Iterable[int]):
        self.subset = frozenset(subset)
        super().__init__(self.message(0))

    def message(self, base: int) -> str:
        return f"subset {sorted(i + base for i in self.subset)} is not spherical"


FiniteTypeInfo = namedtuple("FiniteTypeInfo", "name order positive_roots")
FiniteTypeInfo.__doc__ = """Classification record for one finite-type connected diagram.

Fields: ``name``: str; ``order``: int; ``positive_roots``: int.
"""


# The diagram caches derived data: without __slots__ it keeps the __dict__
# cached_property writes into; the tuple gives the values.
class CoxeterDiagram(namedtuple("CoxeterDiagram", "orders labels")):
    """A Coxeter matrix with its two derived graphs.

    ``orders[i][j]`` is the order m_ij of s_i s_j (1 on the diagonal,
    ``math.inf`` for the infinite order); ``coxeter_matrix`` builds it from
    a GCM, so m_ij is 2, 3, 4, 6 or infinite.  Two graphs matter:

    * the defining graph, edge iff m_ij >= 3 (used for components), and
    * the finite-order graph, edge iff m_ij < infinity (used for ends).

    Fields: ``orders``: tuple[tuple[float, ...], ...]; ``labels``:
    tuple[str, ...].

    >>> from .gcm import GeneralizedCartanMatrix
    >>> d = coxeter_matrix(GeneralizedCartanMatrix.from_rows([[2, -2], [-2, 2]]))
    >>> d.order(0, 1)
    inf
    >>> d.is_spherical({0})
    True
    >>> d.is_spherical({0, 1})
    False
    """

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def index_set(self) -> range:
        return range(self.rank)

    def order(self, i: int, j: int) -> float:
        return self.orders[i][j]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges of the defining graph (m_ij >= 3)."""
        return tuple((i, j) for i in self.index_set for j in _bits(self._near[i]) if i < j)

    def finite_order_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges of the finite-order graph (m_ij < infinity)."""
        return tuple(
            (i, j)
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
            if self.orders[i][j] != INFINITE
        )

    label_set = _label_set

    def parabolic_name(self, subset: frozenset[int], label: str | None = None) -> str:
        """Display name of the standard parabolic subgroup of ``subset``:
        B (Borel) when empty, G when it is every generator, else P_{...},
        with ``label`` as ``label_set(subset)`` when already written."""
        if not subset:
            return "B"
        if len(subset) == self.rank:
            return "G"
        return f"P_{self.label_set(subset) if label is None else label}"

    @cached_property
    def _near(self) -> tuple[int, ...]:
        """The defining-graph neighbours of each generator, as a mask."""
        return tuple(sum(1 << j for j, m in enumerate(row) if m >= 3) for row in self.orders)

    @cached_property
    def _full(self) -> int:
        return (1 << self.rank) - 1

    def _components(self, mask: int) -> Iterator[int]:
        """The defining-graph components of a mask, by smallest member."""
        while mask:
            comp = _flood(self._near, mask, (mask & -mask).bit_length() - 1)
            yield comp
            mask &= ~comp

    def components(self, subset: Iterable[int] | None = None) -> tuple[frozenset[int], ...]:
        """Connected components of the defining graph restricted to ``subset``."""
        mask = self._full if subset is None else _mask(subset)
        return tuple(frozenset(_bits(c)) for c in self._components(mask))

    def spherical_type(self, component: Iterable[int]) -> FiniteTypeInfo | None:
        """Finite-type classification of one connected sub-diagram.

        Returns the type record (name, group order, number of positive roots)
        if the diagram is on the finite list, else None (also when
        ``component`` is not connected).  The list is the crystallographic
        one, A to G: a diagram comes from a GCM, so its bond orders are 2,
        3, 4, 6 and infinity.
        """
        comps = list(self._components(_mask(component)))
        return self._classify(comps[0]) if len(comps) == 1 else None

    def _classify(self, comp: int) -> FiniteTypeInfo | None:
        members = _bits(comp)  # a connected mask: spherical_type's unchecked core
        n = len(members)
        if n == 1:
            return FiniteTypeInfo("A1", 2, 1)
        if n == 2:
            m = self.orders[members[0]][members[1]]
            if m == INFINITE:
                return None
            return FiniteTypeInfo({3: "A2", 4: "B2", 6: "G2"}[m], 2 * m, m)
        degree = {i: (self._near[i] & comp).bit_count() for i in members}
        if sum(degree.values()) != 2 * (n - 1):
            return None  # connected with a cycle
        if max(degree.values()) > 3:
            return None
        heavy = [(i, j) for i in members for j in members
                 if i < j and self.orders[i][j] > 3]
        if any(self.orders[i][j] == INFINITE for i, j in heavy):
            return None
        branch = [i for i in members if degree[i] == 3]
        if len(branch) > 1:
            return None
        if branch:
            if heavy:
                return None
            legs = sorted(c.bit_count() for c in self._components(comp & ~(1 << branch[0])))
            if legs[:2] == [1, 1]:
                return FiniteTypeInfo(
                    f"D{n}", 2 ** (n - 1) * math.factorial(n), n * (n - 1)
                )
            if legs == [1, 2, 2]:
                return FiniteTypeInfo("E6", 51840, 36)
            if legs == [1, 2, 3]:
                return FiniteTypeInfo("E7", 2903040, 63)
            if legs == [1, 2, 4]:
                return FiniteTypeInfo("E8", 696729600, 120)
            return None
        # a path: its one heavy bond is terminal iff it touches an end
        if not heavy:
            return FiniteTypeInfo(
                f"A{n}", math.factorial(n + 1), n * (n + 1) // 2
            )
        if len(heavy) > 1:
            return None
        (i, j), = heavy
        if self.orders[i][j] == 6:  # G2 has two vertices
            return None
        if 1 in (degree[i], degree[j]):
            return FiniteTypeInfo(f"B{n}", 2**n * math.factorial(n), n * n)
        if n == 4:
            return FiniteTypeInfo("F4", 1152, 24)
        return None

    def _spherical(self, mask: int) -> bool:
        return all(self._classify(c) is not None for c in self._components(mask))

    def is_spherical(self, subset: Iterable[int]) -> bool:
        """True iff the standard subgroup generated by ``subset`` is finite."""
        return self._spherical(_mask(subset))

    def finite_group_order(self, subset: Iterable[int]) -> tuple[int, int]:
        """(group order, number of positive roots) of a spherical subset.

        Both are multiplicative / additive across components.  Raises
        :class:`NotSphericalError` when some component is not finite type.
        """
        subset = frozenset(subset)
        infos = [self._classify(c) for c in self._components(_mask(subset))]
        if None in infos:
            raise NotSphericalError(subset)
        return math.prod(i.order for i in infos), sum(i.positive_roots for i in infos)

    def decompose(self, subset: Iterable[int]) -> "SubsetDecomposition":
        """Split a subset into spherical part, essential part and perp."""
        subset = frozenset(subset)
        mask = _mask(subset)
        comps = tuple(self._components(mask))
        spherical = reduce(or_, (c for c in comps if self._classify(c) is not None), 0)
        return SubsetDecomposition(
            subset=subset,
            components=tuple(frozenset(_bits(c)) for c in comps),
            spherical_part=frozenset(_bits(spherical)),
            essential_part=frozenset(_bits(mask & ~spherical)),
            perp=self.perp(subset),
        )

    def perp(self, subset: Iterable[int]) -> frozenset[int]:
        """The generators commuting with every member of ``subset``: those
        outside it with no defining-graph neighbour in it."""
        return frozenset(_bits(self._full & ~self._around(subset)))

    def _around(self, members: Iterable[int]) -> int:
        """The mask of ``members`` with their defining-graph neighbours."""
        return reduce(or_, (self._near[i] | 1 << i for i in members), 0)

    def spherical_subsets(self, base: Iterable[int]) -> tuple[frozenset[int], ...]:
        """The nonempty spherical subsets of ``base``, by size then members.

        Level by level: sphericity is closed under subsets, so only spherical
        sets are extended, each by the members above its maximum; a sorted
        level then yields a sorted next level.

        >>> from .gcm import GeneralizedCartanMatrix
        >>> d = coxeter_matrix(GeneralizedCartanMatrix.from_rows(
        ...     [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]))
        >>> [sorted(s) for s in d.spherical_subsets({0, 1, 2})]
        [[0], [1], [2], [0, 2], [1, 2]]
        """
        members = sorted(base)
        found: list[frozenset[int]] = []
        # (set, position of its maximum in members)
        level = [(frozenset([i]), k) for k, i in enumerate(members)]
        while level:
            found.extend(s for s, _ in level)
            nxt = []
            for simplex, top in level:
                for k in range(top + 1, len(members)):
                    cand = simplex | {members[k]}
                    if self.is_spherical(cand):
                        nxt.append((cand, k))
            level = nxt
        return tuple(found)

    @cached_property
    def minimal_non_spherical(self) -> tuple[frozenset[int], ...]:
        """The non-spherical sets whose proper subsets are all spherical, by
        size then members."""
        return self._minimal_inside(self._full)

    def _minimal_inside(self, base: int) -> tuple[frozenset[int], ...]:
        """The minimal non-spherical sets inside the mask ``base``, by size
        then members.  Each is connected, so it is S + {x} for S a connected
        spherical set in a non-spherical component of ``base`` and x a
        defining-graph neighbour of S in ``base`` (drop a non-cut vertex);
        such a step is connected, so the unchecked ``_classify`` decides it."""
        level = {1 << i for c in self._components(base)
                 if self._classify(c) is None for i in _bits(c)}
        minimal = []
        while level:  # the connected spherical sets of one size
            steps = {s | 1 << x for s in level for x in _bits(self._around(_bits(s)) & base & ~s)}
            level = {t for t in steps if self._classify(t) is not None}
            minimal += [t for t in steps - level
                        if all(self._spherical(t & ~(1 << y)) for y in _bits(t))]
        return _by_size(frozenset(_bits(t)) for t in minimal)

    def maximal_spherical_subsets(self, base: Iterable[int]) -> tuple[frozenset[int], ...]:
        """The maximal spherical subsets of ``base`` (just the empty set when
        ``base`` is empty), by size then members: the complements in ``base``
        of the minimal transversals of the minimal non-spherical sets inside
        it (Eiter and Gottlob, 1995).  Those sets are connected, so they are
        grown inside ``base`` alone; every generator reads the cached
        ``minimal_non_spherical``.  Berge's method adds them one D at a time:
        a transversal meeting D stays, and any other t becomes t + {x} for
        each x in D unless a staying one lies inside.  The transversals form
        an antichain, so two such extensions never nest."""
        base = _mask(base)
        whole = base == self._full
        transversals = [0]
        for d in map(_mask, self.minimal_non_spherical if whole else self._minimal_inside(base)):
            kept = [t for t in transversals if t & d]
            grown = (t | 1 << x for t in transversals if not t & d for x in _bits(d))
            transversals = kept + [u for u in grown if not any(k & u == k for k in kept)]
        return _by_size(frozenset(_bits(base & ~t)) for t in transversals)

    def max_finite_order(self, base: Iterable[int]) -> int:
        """Largest |W_J| over the maximal spherical J inside ``base`` (orders
        grow with J; 1 if empty): by Tits, every finite subgroup of W_base lies
        in a conjugate of such a W_J, so this caps its torsion orders."""
        maximal = self.maximal_spherical_subsets(base)
        return max(self.finite_group_order(j)[0] for j in maximal)

    @cached_property
    def _spherical_subsets(self) -> tuple[frozenset[int], ...]:
        return self.spherical_subsets(self.index_set)

    def nerve(self) -> "Nerve":
        """The complex of all nonempty spherical subsets."""
        return Nerve(rank=self.rank, simplices=self._spherical_subsets)


class SubsetDecomposition(namedtuple(
        "SubsetDecomposition", "subset components spherical_part essential_part perp")):
    """Decomposition of a generator subset J.

    ``spherical_part`` is the union of the finite-type components of J,
    ``essential_part`` the rest, and ``perp`` the set of all generators
    commuting with everything in J (disjoint from J since m_jj = 1).

    Fields: ``components``: tuple[frozenset[int], ...]; the others:
    frozenset[int].
    """

    __slots__ = ()

    @property
    def is_spherical(self) -> bool:
        return self.essential_part == frozenset()

    @property
    def is_essential(self) -> bool:
        return self.spherical_part == frozenset()


class Nerve(namedtuple("Nerve", "rank simplices")):
    """All nonempty spherical subsets, ordered by inclusion.

    ``simplices`` is sorted by (size, members) and is closed downwards.

    Fields: ``rank``: int; ``simplices``: tuple[frozenset[int], ...].
    """

    __slots__ = ()

    def by_dimension(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for s in self.simplices:
            counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
        return counts

    def face_hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs (face index, simplex index) in the face order."""
        index = {s: k for k, s in enumerate(self.simplices)}
        out = []
        for s in self.simplices:
            if len(s) == 1:
                continue
            for drop in sorted(s):
                out.append((index[s - {drop}], index[s]))
        return tuple(sorted(out))


@lru_cache(maxsize=1)  # every caller in one process shares its cached facts
def coxeter_matrix(gcm: GeneralizedCartanMatrix) -> CoxeterDiagram:
    """The Coxeter diagram of a GCM (products 0,1,2,3 map to 2,3,4,6; else inf).

    >>> from .gcm import GeneralizedCartanMatrix
    >>> d = coxeter_matrix(GeneralizedCartanMatrix.from_rows([[2, -1], [-3, 2]]))
    >>> d.order(0, 1)
    6
    """
    n = gcm.rank
    orders = tuple(
        tuple(
            1
            if i == j
            else _ORDER_BY_PRODUCT.get(gcm.entries[i][j] * gcm.entries[j][i], INFINITE)
            for j in range(n)
        )
        for i in range(n)
    )
    return CoxeterDiagram(orders=orders, labels=gcm.labels)


StrongConnectivity = namedtuple("StrongConnectivity", "strongly_connected failing_subset")
StrongConnectivity.__doc__ = """Outcome of a strong-connectivity check.

``failing_subset`` is None when strongly connected; the empty frozenset
means the finite-order graph itself is disconnected; otherwise it is the
first (by size, then members) spherical subset whose removal disconnects
the rest.

Fields: ``strongly_connected``: bool; ``failing_subset``:
frozenset[int] | None.
"""


def _separation(
    rank: int, edges: Iterable[Iterable[int]], subsets: Iterable[frozenset[int]]
) -> StrongConnectivity:
    """The first of the empty set and ``subsets`` whose removal disconnects
    the graph on ``rank`` vertices with these edges."""
    near = [0] * rank
    for a, b in edges:
        near[a] |= 1 << b
        near[b] |= 1 << a
    full = (1 << rank) - 1
    for subset in (frozenset(), *subsets):
        rest = full & ~_mask(subset)
        # the empty graph and a single vertex count as connected
        if rest and _flood(near, rest, rest.bit_length() - 1) != rest:
            return StrongConnectivity(False, subset)
    return StrongConnectivity(True, None)


@lru_cache(maxsize=1)  # the ends and the indecomposability verdicts read one answer
def graph_strong_connectivity(diagram: CoxeterDiagram) -> StrongConnectivity:
    """Connectivity of the finite-order graph after deleting any spherical set."""
    return _separation(diagram.rank, diagram.finite_order_edges(), diagram._spherical_subsets)


def nerve_strong_connectivity(nerve: Nerve) -> StrongConnectivity:
    """Connectivity of every full subcomplex on the complement of a simplex.

    For J empty and for each simplex J of the nerve, take the subcomplex of
    simplices disjoint from J and test whether it is connected.  A complex is
    connected iff its 1-skeleton is, so only the nerve's edges (2-element
    simplices) avoiding J are followed.
    """
    edges = (s for s in nerve.simplices if len(s) == 2)
    return _separation(nerve.rank, edges, nerve.simplices)
