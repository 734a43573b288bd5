"""Real roots: bounded orbit enumeration, reflections, bounded periodicity.

A real root is an orbit point w(alpha_i) of a simple root, kept here as its
integer coordinate vector in the simple-root basis together with a witness
pair (w, i).  Enumeration walks the orbit breadth-first and keeps positive
roots up to a height bound; every positive real root of height <= H is
reachable through positive roots of smaller height, so the bounded walk is
exhaustive up to H.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from . import DEFAULT_BUDGET, BudgetExceededError
from .weyl import WeylElement, WeylGroup, root_sign


class MissingWitnessError(ValueError):
    """The operation needs a root's witness pair (w, i) and none is stored."""


class RealRoot(NamedTuple):
    """A real root as exact coordinates; identity is the coordinate vector.

    ``witness`` is (w, i) with root = w(alpha_i), kept from the first
    breadth-first discovery; it does not take part in equality or hashing.
    """

    coords: tuple[int, ...]
    witness: tuple[WeylElement, int] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RealRoot):
            return NotImplemented
        return self.coords == other.coords

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, RealRoot):
            return NotImplemented
        return self.coords != other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    @property
    def height(self) -> int:
        return sum(self.coords)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coords) if c != 0)

    @property
    def is_positive(self) -> bool:
        try:
            return root_sign(self.coords) > 0
        except RuntimeError:  # mixed signs: not a root at all
            return False

    def __repr__(self) -> str:
        return f"RealRoot({self.coords})"


def positive_real_roots(
    group: WeylGroup,
    max_height: int,
    budget: int = DEFAULT_BUDGET,
) -> list[RealRoot]:
    """All positive real roots of height <= max_height, in discovery order.

    >>> from .gcm import GeneralizedCartanMatrix
    >>> W = WeylGroup(GeneralizedCartanMatrix.from_rows([[2, -1], [-1, 2]]))
    >>> [r.coords for r in positive_real_roots(W, 2)]
    [(1, 0), (0, 1), (1, 1)]
    """
    n = group.rank
    roots = [
        RealRoot(coords, (group.identity, i))
        for i, coords in enumerate(group._identity_rows)
    ] if max_height >= 1 else []
    if len(roots) > budget:
        raise BudgetExceededError("root enumeration", budget)
    seen = {root.coords for root in roots}
    for root in roots:  # grows while it is walked: a breadth-first queue
        coords = root.coords
        w, i = root.witness  # type: ignore[misc]
        for k in range(n):
            # <root, alpha_k^vee> needs only the neighbours of k
            pairing = sum(a * coords[j] for j, a in group._neighbours[k])
            if pairing == 0:
                continue  # s_k fixes the root
            new = list(coords)
            new[k] -= pairing
            new_coords = tuple(new)
            if root_sign(new_coords) < 0:
                continue
            if sum(new_coords) > max_height or new_coords in seen:
                continue
            seen.add(new_coords)
            if len(seen) > budget:
                raise BudgetExceededError("root enumeration", budget)
            witness = WeylElement(group, group._left_mul_gen(k, w.rows))
            roots.append(RealRoot(new_coords, (witness, i)))
    return roots


def split_by_support(
    roots: Iterable[RealRoot], subset: Iterable[int]
) -> tuple[list[RealRoot], list[RealRoot]]:
    """Partition roots into (support inside subset, the rest), order kept."""
    subset = frozenset(subset)
    inside, outside = [], []
    for r in roots:
        (inside if r.support <= subset else outside).append(r)
    return inside, outside


def reflection_of(root: RealRoot) -> WeylElement:
    """The reflection w s_i w^{-1} attached to a witnessed root.

    Built by right steps: w, then s_i, then the letters of w's word in
    reverse, which spell w^{-1}.  Checked on construction, by matrix
    products: the result is an involution sending the root to its negative.
    """
    if root.witness is None:
        raise MissingWitnessError(f"root {root.coords} carries no witness")
    w, i = root.witness
    group = w.group
    rows = w.rows
    for k in (i, *reversed(w.word)):
        rows = group._right_mul_gen(rows, k)
    refl = WeylElement(group, rows)
    if refl.apply(root.coords) != tuple(-c for c in root.coords):
        raise RuntimeError(f"reflection for {root.coords} does not negate it")
    if not (refl * refl).is_identity:
        raise RuntimeError(f"reflection for {root.coords} is not an involution")
    return refl


def periodic_roots(
    element: WeylElement,
    roots: Iterable[RealRoot],
    n_max: int,
) -> list[tuple[RealRoot, int]]:
    """Roots fixed by some power w^n with 1 <= n <= n_max, with least period.

    A bounded check: an empty result only certifies no periodicity up to
    ``n_max``.
    """
    out = []
    for root in roots:
        coords = root.coords
        v = coords
        for n in range(1, n_max + 1):
            v = element.apply(v)
            if v == coords:
                out.append((root, n))
                break
    return out
