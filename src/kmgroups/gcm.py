"""Validated generalized Cartan matrices and their exact type classification.

A generalized Cartan matrix (GCM) is a square integer matrix ``A`` with
``a_ii = 2``, ``a_ij <= 0`` for ``i != j``, and ``a_ij = 0`` exactly when
``a_ji = 0``.  Everything else in this package is derived from a validated
GCM.  All arithmetic is exact (Python ints).

Indices are 0-based everywhere in the library; the optional ``labels`` are
display-only and never used for identity.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from . import BadInputError
from ._intmat import Matrix, det

if TYPE_CHECKING:  # classify imports coxeter when it runs
    from .coxeter import CoxeterDiagram

FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"


class GcmValidationError(BadInputError):
    """A matrix violates one of the generalized Cartan matrix axioms.

    ``position`` holds the offending 0-based index tuple; ``describe()``
    renders the conventional 1-based form, e.g. ``DiagonalNotTwo(1)``.
    """

    code = "Invalid"

    def __init__(self, message: str, position: tuple[int, ...] = ()):
        super().__init__(message)
        self.position = position

    def describe(self) -> str:
        inside = ",".join(str(i + 1) for i in self.position)
        return f"{self.code}({inside})" if inside else self.code


class NotSquareError(GcmValidationError):
    code = "NotSquare"


class DiagonalNotTwoError(GcmValidationError):
    code = "DiagonalNotTwo"


class PositiveOffDiagonalError(GcmValidationError):
    code = "PositiveOffDiagonal"


class ZeroAsymmetryError(GcmValidationError):
    code = "ZeroAsymmetry"


def _label_set(self, subset: Iterable[int]) -> str:
    """``{a,b}``: the labels of ``subset`` in index order.  The ``label_set``
    method of both a matrix and its Coxeter diagram."""
    return "{" + ",".join(self.labels[i] for i in sorted(subset)) + "}"


class GeneralizedCartanMatrix(NamedTuple):
    """An immutable, validated generalized Cartan matrix.

    Build instances with :func:`GeneralizedCartanMatrix.from_rows`, which
    checks the axioms and reports the first violation with its position.

    >>> a2 = GeneralizedCartanMatrix.from_rows([[2, -1], [-1, 2]])
    >>> a2.rank
    2
    >>> a2.entry(0, 1)
    -1
    """

    entries: Matrix
    labels: tuple[str, ...]

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[int]],
        labels: Sequence[str] | None = None,
    ) -> "GeneralizedCartanMatrix":
        if not isinstance(rows, (list, tuple)):
            raise GcmValidationError("matrix is not a list of rows")
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                raise GcmValidationError(f"row {i + 1} is not a list", (i,))
            for j, x in enumerate(row):
                if isinstance(x, bool) or not isinstance(x, int):
                    raise GcmValidationError(
                        f"entry at ({i + 1},{j + 1}) is {x!r}, not an integer", (i, j)
                    )
        entries = tuple(tuple(row) for row in rows)
        n = len(entries)
        if n == 0:
            raise NotSquareError("matrix is empty")
        for i, row in enumerate(entries):
            if len(row) != n:
                raise NotSquareError(
                    f"row {i + 1} has {len(row)} entries, expected {n}", (i,)
                )
        for i in range(n):
            if entries[i][i] != 2:
                raise DiagonalNotTwoError(
                    f"diagonal entry at position {i + 1} is {entries[i][i]}, must be 2",
                    (i,),
                )
        for i in range(n):
            for j in range(n):
                if i != j and entries[i][j] > 0:
                    raise PositiveOffDiagonalError(
                        f"off-diagonal entry at ({i + 1},{j + 1}) is "
                        f"{entries[i][j]}, must be <= 0",
                        (i, j),
                    )
        for i in range(n):
            for j in range(n):
                if i != j and entries[i][j] != 0 and entries[j][i] == 0:
                    raise ZeroAsymmetryError(
                        f"entry ({i + 1},{j + 1}) is {entries[i][j]} but "
                        f"({j + 1},{i + 1}) is 0; zeros must be symmetric",
                        (i, j),
                    )
        if labels is None:
            labels = tuple(str(i + 1) for i in range(n))
        elif not isinstance(labels, (list, tuple)):
            raise GcmValidationError("labels are not a list")
        else:
            for i, x in enumerate(labels):
                if isinstance(x, bool) or not isinstance(x, (str, int)):
                    raise GcmValidationError(
                        f"label {i + 1} is {x!r}, not a string or integer", (i,)
                    )
            labels = tuple(map(str, labels))
            if len(labels) != n:
                raise GcmValidationError(
                    f"{len(labels)} labels for a rank-{n} matrix"
                )
        return cls(entries=entries, labels=labels)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @property
    def index_set(self) -> range:
        return range(self.rank)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def submatrix(self, subset: Iterable[int]) -> Matrix:
        idx = sorted(subset)
        return tuple(tuple(self.entries[i][j] for j in idx) for i in idx)

    label_set = _label_set


class GcmTypeVerdict(NamedTuple):
    """Per-component type classification of a GCM.

    ``types[k]`` is one of ``"finite"``, ``"affine"``, ``"indefinite"`` and
    applies to ``components[k]``.
    """

    components: tuple[frozenset[int], ...]
    types: tuple[str, ...]
    indecomposable: bool

    def type_of(self, index: int) -> str:
        for comp, typ in zip(self.components, self.types):
            if index in comp:
                return typ
        raise IndexError(index)

    @property
    def all_finite(self) -> bool:
        return all(t == FINITE for t in self.types)


def _component_type(
    gcm: GeneralizedCartanMatrix, diagram: CoxeterDiagram, comp: frozenset[int]
) -> str:
    # Kac, ch. 4: an indecomposable A is finite iff W is finite, and affine iff
    # det A = 0 and every proper principal submatrix is finite.  Sphericity is
    # closed under subsets, so checking the maximal proper subsets suffices;
    # the one determinant is only taken when all of them are spherical.
    if diagram.is_spherical(comp):
        return FINITE
    if all(diagram.is_spherical(comp - {i}) for i in comp) and det(gcm.submatrix(comp)) == 0:
        return AFFINE
    return INDEFINITE


def classify(gcm: GeneralizedCartanMatrix) -> GcmTypeVerdict:
    """Classify each indecomposable component as finite, affine or indefinite.

    >>> classify(GeneralizedCartanMatrix.from_rows([[2, -1], [-1, 2]])).types
    ('finite',)
    >>> classify(GeneralizedCartanMatrix.from_rows([[2, -2], [-2, 2]])).types
    ('affine',)
    >>> classify(GeneralizedCartanMatrix.from_rows([[2, -3], [-3, 2]])).types
    ('indefinite',)
    """
    from .coxeter import coxeter_matrix

    diagram = coxeter_matrix(gcm)
    comps = diagram.components()
    types = tuple(_component_type(gcm, diagram, c) for c in comps)
    return GcmTypeVerdict(components=comps, types=types, indecomposable=len(comps) == 1)


class GcmScalars(NamedTuple):
    """Scalar invariants read off the matrix entries.

    ``max_abs_offdiag`` is the largest |a_ij| over i != j (0 for rank 1);
    ``two_spherical`` means every rank-2 principal pair generates a finite
    dihedral group, i.e. a_ij * a_ji <= 3 for all i != j.
    """

    max_abs_offdiag: int
    two_spherical: bool


def scalars(gcm: GeneralizedCartanMatrix) -> GcmScalars:
    n = gcm.rank
    off = [abs(gcm.entries[i][j]) for i in range(n) for j in range(n) if i != j]
    products = [
        gcm.entries[i][j] * gcm.entries[j][i]
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return GcmScalars(
        max_abs_offdiag=max(off, default=0),
        two_spherical=all(p <= 3 for p in products),
    )
