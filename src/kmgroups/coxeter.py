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
from functools import cached_property
from collections.abc import Collection, Iterable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from . import BadInputError
from .gcm import _label_set

if TYPE_CHECKING:
    from .gcm import GeneralizedCartanMatrix

INFINITE = math.inf

_ORDER_BY_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}


def graph_components(
    vertices: Iterable[int], neighbours: Sequence[Collection[int]]
) -> tuple[frozenset[int], ...]:
    """Connected components of the graph induced on ``vertices``.

    ``neighbours[i]`` holds the vertices adjacent to i (i itself may be
    listed).  Returned sorted by smallest member.

    >>> graph_components({0, 1, 3}, [{1}, {0, 2}, {1, 3}, {2}])
    (frozenset({0, 1}), frozenset({3}))
    """
    left = set(vertices)
    out = []
    for start in sorted(left):
        if start not in left:
            continue
        left.discard(start)
        comp = [start]
        stack = [start]
        while stack:
            found = left.intersection(neighbours[stack.pop()])
            left -= found
            comp += found
            stack += found
        out.append(frozenset(comp))
    return tuple(out)


def _by_size(sets: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    return tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))


class NotSphericalError(BadInputError):
    """A subset expected to generate a finite group does not."""

    def __init__(self, subset: Iterable[int]):
        self.subset = frozenset(subset)
        super().__init__(self.message(0))

    def message(self, base: int) -> str:
        return f"subset {sorted(i + base for i in self.subset)} is not spherical"


class FiniteTypeInfo(NamedTuple):
    """Classification record for one finite-type connected diagram."""

    name: str
    order: int
    positive_roots: int


# Fields of the diagram, which caches derived data: a subclass without
# __slots__ keeps the __dict__ cached_property writes into; the tuple gives
# the values.
class _DiagramFields(NamedTuple):
    orders: tuple[tuple[float, ...], ...]
    labels: tuple[str, ...]


class CoxeterDiagram(_DiagramFields):
    """A Coxeter matrix with its two derived graphs.

    ``orders[i][j]`` is the order m_ij of s_i s_j (1 on the diagonal,
    ``math.inf`` for the infinite order).  Two graphs matter:

    * the defining graph, edge iff m_ij >= 3 (used for components), and
    * the finite-order graph, edge iff m_ij < infinity (used for ends).

    >>> from .gcm import GeneralizedCartanMatrix
    >>> d = coxeter_matrix(GeneralizedCartanMatrix.from_rows([[2, -2], [-2, 2]]))
    >>> d.order(0, 1)
    inf
    >>> d.is_spherical({0})
    True
    >>> d.is_spherical({0, 1})
    False
    """

    @classmethod
    def from_orders(
        cls,
        rows: Sequence[Sequence[float]],
        labels: Sequence[str] | None = None,
    ) -> "CoxeterDiagram":
        n = len(rows)
        frozen = tuple(
            tuple(INFINITE if x == INFINITE else int(x) for x in row) for row in rows
        )
        for i, row in enumerate(frozen):
            if len(row) != n:
                raise ValueError("order matrix must be square")
            if row[i] != 1:
                raise ValueError(f"m_{i}{i} must be 1")
        for i in range(n):
            for j in range(i + 1, n):
                if frozen[i][j] != frozen[j][i]:
                    raise ValueError(f"order matrix not symmetric at ({i},{j})")
                if frozen[i][j] != INFINITE and frozen[i][j] < 2:
                    raise ValueError(f"m_{i}{j} must be >= 2 or infinite")
        if labels is None:
            labels = tuple(str(i + 1) for i in range(n))
        return cls(orders=frozen, labels=tuple(labels))

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
        return tuple(
            (i, j)
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
            if self.orders[i][j] >= 3
        )

    def finite_order_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges of the finite-order graph (m_ij < infinity)."""
        return tuple(
            (i, j)
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
            if self.orders[i][j] != INFINITE
        )

    label_set = _label_set

    def parabolic_name(self, subset: frozenset[int]) -> str:
        """Display name of the standard parabolic subgroup of ``subset``:
        B (Borel) when empty, G when it is every generator, else P_{...}."""
        if not subset:
            return "B"
        if subset == frozenset(self.index_set):
            return "G"
        return f"P_{self.label_set(subset)}"

    @cached_property
    def _defining_neighbours(self) -> tuple[frozenset[int], ...]:
        return tuple(
            frozenset(j for j, m in enumerate(row) if m >= 3) for row in self.orders
        )

    def components(self, subset: Iterable[int] | None = None) -> tuple[frozenset[int], ...]:
        """Connected components of the defining graph restricted to ``subset``."""
        vertices = self.index_set if subset is None else subset
        return graph_components(vertices, self._defining_neighbours)

    def spherical_type(self, component: Iterable[int]) -> FiniteTypeInfo | None:
        """Finite-type classification of one connected sub-diagram.

        Returns the type record (name, group order, number of positive roots)
        if the diagram is on the finite list, else None (also when
        ``component`` is not connected).  The list covers all finite Coxeter
        diagrams, so arbitrary edge orders (e.g. 5) are decided correctly,
        not only the crystallographic ones.
        """
        comps = self.components(component)
        return self._classify(comps[0]) if len(comps) == 1 else None

    def _classify(self, component: Iterable[int]) -> FiniteTypeInfo | None:
        comp = sorted(component)  # connected: spherical_type's unchecked core
        n = len(comp)
        if n == 1:
            return FiniteTypeInfo("A1", 2, 1)
        if n == 2:
            m = self.orders[comp[0]][comp[1]]
            if m == INFINITE:
                return None
            m = int(m)
            name = {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
            return FiniteTypeInfo(name, 2 * m, m)
        edges = [
            (i, j)
            for a, i in enumerate(comp)
            for j in comp[a + 1 :]
            if self.orders[i][j] >= 3
        ]
        if any(self.orders[i][j] == INFINITE for i, j in edges):
            return None
        if len(edges) != n - 1:
            return None  # connected with a cycle
        degree = {i: 0 for i in comp}
        for i, j in edges:
            degree[i] += 1
            degree[j] += 1
        if max(degree.values()) > 3:
            return None
        heavy = [(i, j) for i, j in edges if self.orders[i][j] > 3]
        branch = [i for i in comp if degree[i] == 3]
        if len(branch) > 1:
            return None
        if branch:
            if heavy:
                return None
            legs = sorted(map(len, self.components(set(comp) - set(branch))))
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
        m = int(self.orders[i][j])
        terminal = 1 in (degree[i], degree[j])
        if m == 4:
            if terminal:
                return FiniteTypeInfo(f"B{n}", 2**n * math.factorial(n), n * n)
            if n == 4:
                return FiniteTypeInfo("F4", 1152, 24)
            return None
        if m == 5 and terminal:
            if n == 3:
                return FiniteTypeInfo("H3", 120, 15)
            if n == 4:
                return FiniteTypeInfo("H4", 14400, 60)
        return None

    def is_spherical(self, subset: Iterable[int]) -> bool:
        """True iff the standard subgroup generated by ``subset`` is finite."""
        return all(
            self._classify(c) is not None for c in self.components(subset)
        )

    def finite_group_order(self, subset: Iterable[int]) -> tuple[int, int]:
        """(group order, number of positive roots) of a spherical subset.

        Both are multiplicative / additive across components.  Raises
        :class:`NotSphericalError` when some component is not finite type.
        """
        order = 1
        positive = 0
        subset = frozenset(subset)
        for comp in self.components(subset):
            info = self._classify(comp)
            if info is None:
                raise NotSphericalError(subset)
            order *= info.order
            positive += info.positive_roots
        return order, positive

    def decompose(self, subset: Iterable[int]) -> "SubsetDecomposition":
        """Split a subset into spherical part, essential part and perp."""
        subset = frozenset(subset)
        comps = self.components(subset)
        spherical = frozenset().union(
            *[c for c in comps if self._classify(c) is not None]
        )
        essential = subset - spherical
        return SubsetDecomposition(
            subset=subset,
            components=comps,
            spherical_part=spherical,
            essential_part=essential,
            perp=self.perp(subset),
        )

    def perp(self, subset: Collection[int]) -> frozenset[int]:
        """The generators commuting with every member of ``subset``."""
        return frozenset(
            i for i in self.index_set if all(self.orders[i][j] == 2 for j in subset)
        )

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
        size then members.  Each is connected, so it is S + {x} for S a
        connected spherical set in a non-spherical component and x a
        defining-graph neighbour of S (drop a non-cut vertex); such a step is
        connected, so the unchecked ``_classify`` decides it."""
        neighbours = self._defining_neighbours
        level = {frozenset([i]) for c in self.components()
                 if self._classify(c) is None for i in c}
        minimal = []
        while level:  # the connected spherical sets of one size
            steps = {s | {x} for s in level for i in s for x in neighbours[i] - s}
            level = {t for t in steps if self._classify(t) is not None}
            minimal += [t for t in steps - level
                        if all(self.is_spherical(t - {y}) for y in t)]
        return _by_size(minimal)

    def maximal_spherical_subsets(self, base: Iterable[int]) -> tuple[frozenset[int], ...]:
        """The maximal spherical subsets of ``base`` (just the empty set when
        ``base`` is empty), by size then members: the complements in ``base``
        of the minimal transversals of the minimal non-spherical sets inside
        it (Eiter and Gottlob, 1995).  Berge's method adds those sets one D at
        a time: a transversal meeting D stays, and any other t becomes t + {x}
        for each x in D unless a staying one lies inside.  The transversals
        form an antichain, so two such extensions never nest."""
        base = frozenset(base)
        transversals = [frozenset()]
        for d in self.minimal_non_spherical:
            if d <= base:
                kept = [t for t in transversals if t & d]
                grown = (t | {x} for t in transversals if not t & d for x in d)
                transversals = kept + [u for u in grown if not any(k <= u for k in kept)]
        return _by_size(base - t for t in transversals)

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


class SubsetDecomposition(NamedTuple):
    """Decomposition of a generator subset J.

    ``spherical_part`` is the union of the finite-type components of J,
    ``essential_part`` the rest, and ``perp`` the set of all generators
    commuting with everything in J (disjoint from J since m_jj = 1).
    """

    subset: frozenset[int]
    components: tuple[frozenset[int], ...]
    spherical_part: frozenset[int]
    essential_part: frozenset[int]
    perp: frozenset[int]

    @property
    def is_spherical(self) -> bool:
        return self.essential_part == frozenset()

    @property
    def is_essential(self) -> bool:
        return self.spherical_part == frozenset()


class Nerve(NamedTuple):
    """All nonempty spherical subsets, ordered by inclusion.

    ``simplices`` is sorted by (size, members) and is closed downwards.
    """

    rank: int
    simplices: tuple[frozenset[int], ...]

    def __contains__(self, subset: Iterable[int]) -> bool:
        return frozenset(subset) in self.simplices

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


class StrongConnectivity(NamedTuple):
    """Outcome of a strong-connectivity check.

    ``failing_subset`` is None when strongly connected; the empty frozenset
    means the finite-order graph itself is disconnected; otherwise it is the
    first (by size, then members) spherical subset whose removal disconnects
    the rest.
    """

    strongly_connected: bool
    failing_subset: frozenset[int] | None


def _separation(
    neighbours: Sequence[Collection[int]], subsets: Iterable[frozenset[int]]
) -> StrongConnectivity:
    """The first of the empty set and ``subsets`` whose removal disconnects."""
    all_vertices = frozenset(range(len(neighbours)))
    for subset in (frozenset(), *subsets):
        # the empty graph and a single vertex count as connected
        if len(graph_components(all_vertices - subset, neighbours)) > 1:
            return StrongConnectivity(False, subset)
    return StrongConnectivity(True, None)


def graph_strong_connectivity(diagram: CoxeterDiagram) -> StrongConnectivity:
    """Connectivity of the finite-order graph after deleting any spherical set."""
    neighbours = [
        frozenset(j for j, m in enumerate(row) if m != INFINITE)
        for row in diagram.orders
    ]
    return _separation(neighbours, diagram._spherical_subsets)


def nerve_strong_connectivity(nerve: Nerve) -> StrongConnectivity:
    """Connectivity of every full subcomplex on the complement of a simplex.

    For J empty and for each simplex J of the nerve, take the subcomplex of
    simplices disjoint from J and test whether it is connected.  A complex is
    connected iff its 1-skeleton is, so only the nerve's edges (2-element
    simplices) avoiding J are followed.
    """
    neighbours: list[set[int]] = [set() for _ in range(nerve.rank)]
    for a, b in (s for s in nerve.simplices if len(s) == 2):
        neighbours[a].add(b)
        neighbours[b].add(a)
    return _separation(neighbours, nerve.simplices)
