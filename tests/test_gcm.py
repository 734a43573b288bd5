"""Matrix validation and exact type classification."""

import itertools
import random

import pytest

import oracles
from kmgroups import (
    AFFINE,
    FINITE,
    INDEFINITE,
    DiagonalNotTwoError,
    GcmValidationError,
    GeneralizedCartanMatrix,
    NotSquareError,
    PositiveOffDiagonalError,
    ZeroAsymmetryError,
    classify,
    coxeter_matrix,
    scalars,
)

A2 = [[2, -1], [-1, 2]]


class TestValidation:
    def test_valid_matrix_round_trip(self):
        g = GeneralizedCartanMatrix.from_rows(A2)
        assert g.rank == 2
        assert g.entries == ((2, -1), (-1, 2))
        assert g.labels == ("1", "2")
        assert list(g.index_set) == [0, 1]
        assert g.entry(1, 0) == -1

    def test_empty_matrix_rejected(self):
        with pytest.raises(NotSquareError):
            GeneralizedCartanMatrix.from_rows([])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(NotSquareError) as exc:
            GeneralizedCartanMatrix.from_rows([[2, -1], [-1]])
        assert exc.value.position == (1,)

    def test_non_square_rejected(self):
        with pytest.raises(NotSquareError):
            GeneralizedCartanMatrix.from_rows([[2, -1, 0], [-1, 2, 0]])

    def test_diagonal_must_be_two(self):
        with pytest.raises(DiagonalNotTwoError) as exc:
            GeneralizedCartanMatrix.from_rows([[2, -1], [-1, 3]])
        assert exc.value.position == (1,)
        assert exc.value.describe() == "DiagonalNotTwo(2)"

    def test_positive_off_diagonal_rejected(self):
        with pytest.raises(PositiveOffDiagonalError) as exc:
            GeneralizedCartanMatrix.from_rows([[2, 1], [-1, 2]])
        assert exc.value.position == (0, 1)
        assert exc.value.describe() == "PositiveOffDiagonal(1,2)"

    def test_zero_asymmetry_rejected(self):
        with pytest.raises(ZeroAsymmetryError) as exc:
            GeneralizedCartanMatrix.from_rows([[2, -1], [0, 2]])
        # reported at the nonzero entry
        assert exc.value.position == (0, 1)
        assert exc.value.describe() == "ZeroAsymmetry(1,2)"

    def test_axiom_check_order(self):
        # diagonal is checked before off-diagonal sign
        with pytest.raises(DiagonalNotTwoError):
            GeneralizedCartanMatrix.from_rows([[1, 1], [1, 1]])
        # row-major: (1,2) before (2,1)
        with pytest.raises(PositiveOffDiagonalError) as exc:
            GeneralizedCartanMatrix.from_rows([[2, 5], [7, 2]])
        assert exc.value.position == (0, 1)

    def test_describe_is_one_based(self):
        with pytest.raises(GcmValidationError) as exc:
            GeneralizedCartanMatrix.from_rows([[2, 0, -1], [0, 2, 0], [0, 0, 2]])
        assert exc.value.describe() == "ZeroAsymmetry(1,3)"

    def test_labels(self):
        g = GeneralizedCartanMatrix.from_rows(A2, labels=["a", "b"])
        assert g.labels == ("a", "b")
        assert g.label_set([1, 0]) == "{a,b}"
        with pytest.raises(GcmValidationError):
            GeneralizedCartanMatrix.from_rows(A2, labels=["a"])

    @pytest.mark.parametrize(
        "rows, position",
        [
            (5, ()),
            (None, ()),
            ("22", ()),
            ([[2, -1], "ab"], (1,)),
            ([[2, -1], None], (1,)),
            ([[2, "x"], [0, 2]], (0, 1)),
            ([[2, -1.5], [-1, 2]], (0, 1)),
            ([[2, -1], [-1, 2.0]], (1, 1)),
            ([[2, True], [-1, 2]], (0, 1)),
            ([[2, -1], [None, 2]], (1, 0)),
        ],
    )
    def test_non_integer_entries_and_non_list_shapes_rejected(self, rows, position):
        # entries are never truncated: -1.5 is not read as -1
        with pytest.raises(GcmValidationError) as exc:
            GeneralizedCartanMatrix.from_rows(rows)
        assert exc.value.position == position

    @pytest.mark.parametrize("labels", [5, "ab", {"a": 1, "b": 2}])
    def test_labels_must_be_a_list(self, labels):
        with pytest.raises(GcmValidationError):
            GeneralizedCartanMatrix.from_rows(A2, labels=labels)

    @pytest.mark.parametrize(
        "labels, position, shown",
        [([None, "b"], 0, "None"), (["a", {"a": [1.5]}], 1, "{'a': [1.5]}"),
         (["a", True], 1, "True"), ([1.5, "b"], 0, "1.5")],
        ids=["none", "dict", "bool", "float"],
    )
    def test_labels_are_strings_or_integers(self, labels, position, shown):
        with pytest.raises(GcmValidationError) as exc:
            GeneralizedCartanMatrix.from_rows(A2, labels=labels)
        assert exc.value.position == (position,)
        assert str(exc.value) == (
            f"label {position + 1} is {shown}, not a string or integer")

    def test_integer_labels_render_as_digits(self):
        g = GeneralizedCartanMatrix.from_rows(A2, labels=[7, "b"])
        assert g.labels == ("7", "b")

    def test_tuples_are_accepted(self):
        g = GeneralizedCartanMatrix.from_rows(((2, -1), (-1, 2)), labels=("a", "b"))
        assert g == GeneralizedCartanMatrix.from_rows(A2, labels=["a", "b"])

    def test_validation_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            GeneralizedCartanMatrix.from_rows([[3]])

    def test_submatrix(self):
        g = GeneralizedCartanMatrix.from_rows(
            [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        )
        assert g.submatrix({2, 0}) == ((2, 0), (0, 2))
        assert g.submatrix([1]) == ((2,),)
        assert g.submatrix([]) == ()


class TestComponents:
    def test_block_diagonal_splits(self):
        g = GeneralizedCartanMatrix.from_rows(
            [[2, -1, 0], [-1, 2, 0], [0, 0, 2]]
        )
        assert [sorted(c) for c in coxeter_matrix(g).components()] == [[0, 1], [2]]

    def test_connected_matrix_is_one_component(self):
        g = GeneralizedCartanMatrix.from_rows(
            [[2, -2, 0], [-2, 2, -1], [0, -1, 2]]
        )
        assert [sorted(c) for c in coxeter_matrix(g).components()] == [[0, 1, 2]]

    def test_agrees_with_union_find(self):
        rows = [
            [2, 0, -1, 0],
            [0, 2, 0, -2],
            [-1, 0, 2, 0],
            [0, -2, 0, 2],
        ]
        g = GeneralizedCartanMatrix.from_rows(rows)
        edges = [
            (i, j)
            for i in range(4)
            for j in range(i + 1, 4)
            if rows[i][j] != 0
        ]
        assert [sorted(c) for c in coxeter_matrix(g).components()] == (
            oracles.uf_components(4, edges))


class TestClassify:
    @pytest.mark.parametrize(
        "rows,expected",
        [
            (A2, FINITE),
            ([[2]], FINITE),
            ([[2, -1], [-2, 2]], FINITE),
            ([[2, -1], [-3, 2]], FINITE),
            ([[2, -2], [-2, 2]], AFFINE),
            ([[2, -1], [-4, 2]], AFFINE),
            ([[2, -3], [-3, 2]], INDEFINITE),
            ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], AFFINE),
        ],
    )
    def test_indecomposable_types(self, rows, expected):
        verdict = classify(GeneralizedCartanMatrix.from_rows(rows))
        assert verdict.indecomposable
        assert verdict.types == (expected,)

    def test_mixed_components(self):
        g = GeneralizedCartanMatrix.from_rows(
            [[2, -2, 0], [-2, 2, 0], [0, 0, 2]]
        )
        verdict = classify(g)
        assert not verdict.indecomposable
        assert verdict.types == (AFFINE, FINITE)
        assert verdict.components == ({0, 1}, {2})
        assert not verdict.all_finite

    def test_matches_minor_oracle_exhaustively_rank3(self):
        # every rank-3 GCM whose three bonds (a_ij, a_ji) are any of the
        # bond pairs below: products 0, 1, 2, 3, 4, 6 and 9
        for bonds in itertools.product(BOND_PAIRS, repeat=3):
            (a, c), (b, e), (d, f) = bonds
            assert_matches_minor_oracle([[2, a, b], [c, 2, d], [e, f, 2]])

    def test_matches_minor_oracle_on_random_ranks_4_to_8(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(120):
            n = rng.randint(4, 8)
            rows = oracles.random_gcm(rng, n, density=0.3, deepest=2)
            seen.update(assert_matches_minor_oracle(rows))
        for n in range(4, 9):  # the affine cycles
            rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(n):
                rows[i][(i + 1) % n] = rows[(i + 1) % n][i] = -1
            seen.update(assert_matches_minor_oracle(rows))
        assert seen == {FINITE, AFFINE, INDEFINITE}


BOND_PAIRS = [(0, 0), (-1, -4), (-4, -1)] + [
    (a, b) for a in (-1, -2, -3) for b in (-1, -2, -3)
]


def assert_matches_minor_oracle(rows):
    """Check each component's type against the principal-minor oracle."""
    verdict = classify(GeneralizedCartanMatrix.from_rows(rows))
    for comp, typ in zip(verdict.components, verdict.types):
        sub = [[rows[i][j] for j in sorted(comp)] for i in sorted(comp)]
        assert typ == oracles.trichotomy(sub), (rows, sorted(comp))
    return verdict.types


class TestScalars:
    def test_basic(self):
        s = scalars(GeneralizedCartanMatrix.from_rows([[2, -2], [-3, 2]]))
        assert s.max_abs_offdiag == 3
        assert not s.two_spherical

    def test_two_spherical_boundary(self):
        assert scalars(GeneralizedCartanMatrix.from_rows([[2, -1], [-3, 2]])).two_spherical
        assert not scalars(
            GeneralizedCartanMatrix.from_rows([[2, -1], [-4, 2]])
        ).two_spherical

    def test_rank_one(self):
        s = scalars(GeneralizedCartanMatrix.from_rows([[2]]))
        assert s.max_abs_offdiag == 0
        assert s.two_spherical
