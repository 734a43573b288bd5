"""Exact Weyl group elements in the simple-root reflection representation.

An element is the integer matrix of its action on the root lattice, in the
basis of simple roots: column j holds the coordinates of the image of the
j-th simple root.  The generator s_i acts by

    s_i : alpha_j  |->  alpha_j - a_ij * alpha_i

so its matrix is the identity with row i replaced by (delta_ij - a_ij).
A generator moves only its own root and its Dynkin neighbours, so every
product with one generator is a sparse step: w s_k changes only the columns
j with a_kj != 0 (col_j <- col_j - a_kj col_k), and s_k w changes only row k.
The representation is faithful: a nonidentity element has a right descent i
and therefore sends alpha_i to a negative root, so its matrix is not the
identity.  Words and lengths are recovered from the matrix alone by descent
peeling, and supports are read off its rows, hence all three are
representation-independent.

All entries are Python ints; nothing here can overflow.
"""

from __future__ import annotations

from functools import cached_property
from collections.abc import Iterable, Iterator, Sequence
from math import isqrt
from operator import mul

from . import DEFAULT_BUDGET, BudgetExceededError
from ._intmat import Matrix, column, identity, mat_mul, mat_vec
from .coxeter import CoxeterDiagram, coxeter_matrix
from .gcm import GeneralizedCartanMatrix


def root_sign(coords: Sequence[int]) -> int:
    """Sign of a real root in simple-root coordinates: +1 or -1.

    Real roots are totally positive or totally negative; a mixed-sign (or
    zero) vector means the arithmetic went wrong, which is treated as an
    internal error, never silently.
    """
    lo, hi = min(coords), max(coords)
    if lo >= 0 and hi > 0:
        return 1
    if hi <= 0 and lo < 0:
        return -1
    raise RuntimeError(f"sign dichotomy violated for {tuple(coords)}: not a real root")


class WeylGroup:
    """Factory and context for Weyl elements of one GCM.

    >>> from .gcm import GeneralizedCartanMatrix
    >>> W = WeylGroup(GeneralizedCartanMatrix.from_rows([[2, -2], [-2, 2]]))
    >>> s1, s2 = W.generator(0), W.generator(1)
    >>> (s1 * s2).length
    2
    >>> s1.apply((0, 1))   # s_1(alpha_2) = alpha_2 + 2 alpha_1
    (2, 1)
    """

    def __init__(self, gcm: GeneralizedCartanMatrix):
        self.gcm = gcm
        self.diagram: CoxeterDiagram = coxeter_matrix(gcm)
        n = gcm.rank
        # k -> ((j, a_kj) for a_kj != 0), the diagonal (k, 2) included
        self._neighbours = tuple(
            tuple((j, a) for j, a in enumerate(row) if a) for row in gcm.entries
        )
        self._identity_rows = identity(n)
        self.identity = WeylElement(self, self._identity_rows)

    @property
    def rank(self) -> int:
        return self.gcm.rank

    def generator(self, i: int) -> "WeylElement":
        return self.from_word((i,))

    def _right_mul_gen(self, rows: Matrix, k: int) -> Matrix:
        # (w s_k)[i][j] = w[i][j] - w[i][k] * a_kj: a row with w[i][k] = 0
        # is kept, and only the columns j with a_kj != 0 move
        neighbours = self._neighbours[k]
        out = []
        for row in rows:
            x = row[k]
            if x:
                new = list(row)
                for j, a in neighbours:
                    new[j] -= a * x
                row = tuple(new)
            out.append(row)
        return tuple(out)

    def _left_mul_gen(self, k: int, rows: Matrix) -> Matrix:
        # (s_k w)[k] = w[k] - sum_m a_km w[m]; every other row is kept
        new = rows[k]
        for m, a in self._neighbours[k]:
            new = [x - a * y for x, y in zip(new, rows[m])]
        return rows[:k] + (tuple(new),) + rows[k + 1 :]

    def from_word(self, word: Iterable[int]) -> "WeylElement":
        rows = self._identity_rows
        for k in word:
            if not 0 <= k < self.rank:
                raise IndexError(f"generator index {k} out of range")
            rows = self._right_mul_gen(rows, k)
        return WeylElement(self, rows)

    def ball(
        self,
        radius: int,
        generators: Iterable[int] | None = None,
        budget: int = DEFAULT_BUDGET,
    ) -> list["WeylElement"]:
        """All elements of length <= radius (within the standard subgroup
        W_J generated by ``generators`` if given), length-lexicographic by
        canonical word; each element carries its word.

        If w has length l + 1 and smallest right descent k, peeling takes k
        first, so w's canonical word is that of u = w s_k (length l) then k.
        So level l + 1 walks u over level l in order and k ascending with
        u(alpha_k) > 0, and keeps w = u s_k when no j < k is a right descent
        of w.  w(alpha_j) = u(alpha_j) - a_kj u(alpha_k) differs from
        u(alpha_j) only for the neighbours j of k, so only those columns are
        recomputed; any other j < k is a descent of w iff it is one of u.
        Each w is found once, and in sorted order as level l is.  The right
        descents of an element of W_J lie in J, so u's are read on J alone,
        and a neighbour j outside J always gives a positive column.

        Raises :class:`BudgetExceededError` when the ball would hold more
        than ``budget`` elements, the identity included.
        """
        gens = sorted(set(generators)) if generators is not None else range(self.rank)
        if gens and not 0 <= gens[0] <= gens[-1] < self.rank:
            raise IndexError(f"generator indices {gens} out of range")
        if budget < 1:
            raise BudgetExceededError("element ball", budget)
        out, level = [self.identity], [self.identity]
        for _ in range(radius):
            nxt = []
            for u in level:
                cols = tuple(zip(*u.rows))
                descents = [j for j in gens if root_sign(cols[j]) < 0]
                for k in gens:
                    col_k, a_k = cols[k], self.gcm.entries[k]
                    if (
                        k in descents
                        or any(j < k and not a_k[j] for j in descents)
                        or any(
                            root_sign([x - a * y for x, y in zip(cols[j], col_k)]) < 0
                            for j, a in self._neighbours[k]
                            if j < k
                        )
                    ):
                        continue
                    w = WeylElement(self, self._right_mul_gen(u.rows, k), u.word + (k,))
                    nxt.append(w)
                    out.append(w)
                    if len(out) > budget:
                        raise BudgetExceededError("element ball", budget)
            if not nxt:
                break
            level = nxt
        return out

    def longest_element(self, subset: Iterable[int]) -> "WeylElement":
        """The longest element of a spherical standard subgroup.

        Built greedily from the identity: repeatedly append the smallest
        generator of the subset that still lengthens the word.  The result
        is an involution normalizing the subset, of length equal to the
        number of positive roots of the subgroup.
        """
        subset = sorted(frozenset(subset))
        _, positive = self.diagram.finite_group_order(subset)  # NotSphericalError
        rows = self._identity_rows
        for _ in range(positive):
            k = next((k for k in subset if root_sign(column(rows, k)) > 0), None)
            if k is None:
                raise RuntimeError("longest-element climb stopped early")
            rows = self._right_mul_gen(rows, k)
        if any(root_sign(column(rows, k)) > 0 for k in subset):
            raise RuntimeError("longest-element climb did not terminate")
        return WeylElement(self, rows)


class WeylElement:
    """One group element; immutable by convention, equality by matrix."""

    def __init__(self, group: WeylGroup, rows: Matrix, word: tuple[int, ...] | None = None):
        self.group = group
        self.rows = rows
        self._word = word  # the canonical word, when the builder knows it

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.rows == other.rows and self.group.gcm == other.group.gcm

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        letters = "*".join(f"s{k + 1}" for k in self.word) or "e"
        return f"<WeylElement {letters}>"

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        return WeylElement(self.group, mat_mul(self.rows, other.rows))

    def __pow__(self, n: int) -> "WeylElement":
        # bits left to right: bit_length + popcount - 2 products
        if n < 0:
            return self.inverse() ** (-n)
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result if n else self.group.identity

    @property
    def is_identity(self) -> bool:
        return self.rows == self.group._identity_rows

    def apply(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Image of a root-lattice vector (simple-root coordinates)."""
        return mat_vec(self.rows, coords)

    def reduced_word(self) -> tuple[int, ...]:
        """The canonical reduced word, recovered by descent peeling.

        At each step the image of some simple root is negative (a right
        descent); the smallest such index becomes the last letter and is
        peeled off.

        The peel works on the list of columns: taking off s_k replaces each
        column j with a_kj != 0 by col_j - a_kj col_k, so only those columns
        are re-signed and the descent set is kept up to date.  Once no
        descent is left, the columns must be the identity's.
        """
        neighbours = self.group._neighbours
        cols = [list(col) for col in zip(*self.rows)]
        descents = {k for k, col in enumerate(cols) if root_sign(col) < 0}
        letters = []
        while descents:
            k = min(descents)
            letters.append(k)
            col_k = cols[k]
            for j, a in neighbours[k]:
                col = cols[j] = [x - a * y for x, y in zip(cols[j], col_k)]
                if root_sign(col) < 0:
                    descents.add(j)
                else:
                    descents.discard(j)
        if tuple(map(tuple, cols)) != self.group._identity_rows:
            raise RuntimeError("nonidentity element with no descent")
        letters.reverse()
        return tuple(letters)

    @property
    def word(self) -> tuple[int, ...]:
        """The canonical reduced word: carried from a ball, else peeled once."""
        if self._word is None:
            self._word = self.reduced_word()
        return self._word

    @cached_property
    def length(self) -> int:
        return len(self.word)

    @cached_property
    def support(self) -> frozenset[int]:
        """Letters of any reduced word: the i whose row is not e_i.  W_J keeps
        every row outside J; a right descent j has w(alpha_j) < 0, so row j
        moves, and w s_j keeps every identity row (induct on the length)."""
        ident = self.group._identity_rows
        return frozenset(i for i, row in enumerate(self.rows) if row != ident[i])

    def inverse(self) -> "WeylElement":
        return self.group.from_word(reversed(self.word))

    def order(self) -> int | None:
        """The element's order, or None if infinite.

        Powers are tried up to ``max_finite_order`` of the element's
        support, which caps its order if it is torsion.

        The search follows rows of heights instead of matrix powers.  Let
        h_k[j] be the height of w^k(alpha_j), which is the row 1^T M^k for
        the matrix M of w.  The identity is the only element whose height
        row is all ones: a nonidentity element v has a right descent j, so
        v(alpha_j) is a negative root, of height at most -1.  As M is
        invertible, h_r = h_s iff w^(s - r) = e.

        Baby steps store h_r -> r for r < b = min(ceil(sqrt(cap)), 1024),
        one step h <- h M (n dot products) each; an all-ones h_r with r > 0
        is the order.  Otherwise the order is at least b and the stored rows
        are distinct, so giant steps G_j = G_(j-1) M^b from G_0 = 1^T meet a
        stored h_r first at w^(jb - r) = e with jb - r the order, or pass the
        cap.  That is b + cap / b steps, not cap.  The exponent found is
        rechecked by computing w^k with square-and-multiply.

        >>> from .gcm import GeneralizedCartanMatrix
        >>> W = WeylGroup(GeneralizedCartanMatrix.from_rows([[2, -1], [-1, 2]]))
        >>> W.from_word([0, 1]).order()
        3
        >>> affine_a2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        >>> W = WeylGroup(GeneralizedCartanMatrix.from_rows(affine_a2))
        >>> W.from_word([0, 1, 2]).order() is None
        True
        """
        cols = tuple(zip(*self.rows))
        ones = (1,) * len(cols)
        cap = self.group.diagram.max_finite_order(self.support)
        b = min(isqrt(cap - 1) + 1, 1024)
        baby, heights, k = {ones: 0}, ones, None
        for r in range(1, b):
            heights = tuple([sum(map(mul, heights, col)) for col in cols])
            if heights == ones:
                k = r
                break
            baby[heights] = r
        else:
            cols, heights = tuple(zip(*(self**b).rows)), ones
            for top in range(b, cap + b, b):  # G_j = h_top meets h_r: k = top - r
                heights = tuple([sum(map(mul, heights, col)) for col in cols])
                if heights in baby:
                    k = top - baby[heights]
                    break
        if k is None:
            return None
        if not (self**k).is_identity:
            raise RuntimeError(f"w^{k} has all heights 1 but is not e")
        return k

    def power_lengths(self, n_max: int, budget: int = DEFAULT_BUDGET) -> Iterator[int]:
        """The lengths of w, w^2, ..., w^n_max, each computed when it is read.

        With N(x) = {beta > 0 : x beta < 0}, so that |N(x)| = length(x),
        length(w^k) = length(w^(k-1)) + length(w) - 2 #{beta in N(w^-1) :
        w^(k-1) beta < 0}.  N(w^-1) holds the roots s_i1 ... s_i(j-1)
        alpha_ij of a reduced word i1 ... il of w, and the l vectors
        w^(k-1) beta are carried forward by one application of w a power,
        as l sparse generator steps.  No power is formed or peeled, except
        that w^k is formed by square-and-multiply and peeled to recheck the
        first k with length(w^k) != k length(w), where ``is_straight``
        stops, and k = n_max, where a full read stops.

        The n_max powers are charged to the element budget before any step;
        past it this raises :class:`BudgetExceededError`.
        """
        if n_max > budget:
            raise BudgetExceededError("power steps", budget)
        return self._power_lengths(n_max)

    def _power_lengths(self, n_max: int) -> Iterator[int]:
        group, word = self.group, self.word
        ell, prefix, roots = len(word), group._identity_rows, []
        for i in word:  # roots[j] = s_i1 ... s_i(j-1) alpha_ij
            roots.append(column(prefix, i))
            prefix = group._right_mul_gen(prefix, i)
        carried = tuple(zip(*roots))  # column j: w^(k-1) roots[j]
        length, straight = ell, True
        for k in range(1, n_max + 1):
            if k > 1:
                for i in reversed(word):
                    carried = group._left_mul_gen(i, carried)
                length += ell - 2 * sum(root_sign(beta) < 0 for beta in zip(*carried))
            if k == n_max or (straight and length != k * ell):
                straight = False
                if (self**k).length != length:
                    raise RuntimeError(f"length of w^{k} is not {length}")
            yield length

    def is_straight(self, n_max: int, budget: int = DEFAULT_BUDGET) -> bool:
        """Whether length(w^n) = n * length(w) for all 2 <= n <= n_max.

        A bounded certificate only; it never proves straightness beyond
        ``n_max``.  It reads ``power_lengths`` up to the first power that
        fails.
        """
        return _straight(self.power_lengths(n_max, budget))


def _straight(lengths: Iterable[int]) -> bool:
    """Whether the lengths l_1, l_2, ... of w, w^2, ... have l_n = n * l_1;
    it stops at the first that does not."""
    lengths = iter(lengths)
    first = next(lengths, 0)
    return all(x == n * first for n, x in enumerate(lengths, 2))
