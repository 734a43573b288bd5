"""The envelope writer ``cli._emit`` against the standard encoder.

``_emit`` walks library values once and writes JSON text; the reference is
``json.dumps(oracles.wire(value), indent=2, sort_keys=True)``, the copy to
JSON data and the encoder that `km` used before.  The two must agree byte
for byte on arbitrary nested values and on whole envelopes.
"""

import json
import math
import random
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kmgroups import GeneralizedCartanMatrix, WeylGroup, catalog, cli


def reference(value):
    return json.dumps(oracles.wire(value), indent=2, sort_keys=True)


class Unsorted(NamedTuple):
    """A record whose fields are not in sorted order."""

    zeta: object
    alpha: object
    mid: object


class Empty(NamedTuple):
    pass


# quotes, escapes, control, non-ASCII, astral and lone-surrogate characters,
# and the percent sign of the writer's templates
SPECIAL = st.sampled_from('"\\/\x00\x1f\x7f\n\té€\U0001f600\ud800%')
TEXT = st.text(st.one_of(SPECIAL, st.characters()), max_size=8)
INTS = st.one_of(
    st.integers(), st.integers(min_value=2**64), st.integers(max_value=-(2**64))
)
LEAVES = st.one_of(
    TEXT,
    INTS,
    st.booleans(),
    st.none(),
    st.just(math.inf),
    st.frozensets(st.integers(0, 40), max_size=6),
    st.sampled_from([[], {}, (), frozenset(), Empty()]),
    # True/False next to 1/0: not a run of plain ints
    st.lists(st.one_of(st.integers(-2, 2), st.booleans()), max_size=6),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(TEXT, children, max_size=5),
        st.builds(Unsorted, children, children, children),
    )


VALUES = st.recursive(LEAVES, containers, max_leaves=30)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(VALUES)
def test_matches_the_standard_encoder(value):
    assert cli._emit(value, "") == reference(value)


@pytest.mark.parametrize(
    "value",
    [
        [1, True, 0, False],
        (True, 1),
        [None, math.inf, 2**70, -(2**70)],
        {"b": frozenset({3, 0}), "a": (frozenset(),)},
        Unsorted(Empty(), [], {}),
        ((0, 1), (2**70, -3), (4, 5)),
        [[1, 2, 3], (4, 5, 6)],
        [(1,)],
        [[], []],
        [(1, 2), (3,)],
        [(1, 2), (3, True)],
        [[1, 2], [3, None]],
        [(1, "%d"), (2, "%s")],
        [Unsorted("%s", frozenset({1}), 2), Unsorted("a\n", frozenset(), [(1, 2)])],
        [Unsorted(1, 2, 3), Empty()],
        [Empty(), Empty()],
        (Unsorted("b", "a", "%"),),
        [{"b": 1, "a": frozenset({2})}, {"b": "%s", "a": frozenset()}],
        [{"b": 1, "a": 2}, {"a": 3, "b": 4}],
        [{"a": 1}, {"b": 2}, {"a": 3, "b": 4}],
        [{"%": 1, "%s": "%d"}, {"%": 2, "%s": None}],
        [{}, {}],
    ],
    ids=["bools-and-ints", "bool-first", "null-inf-big", "sets", "records",
         "pairs", "list-and-tuple-runs", "one-run", "empty-runs", "unequal-runs",
         "bool-in-run", "none-in-run", "percent-in-run", "records-of-one-class",
         "records-of-two-classes", "empty-records", "one-record", "dicts-of-one-order",
         "dicts-of-two-orders", "dicts-of-two-key-sets", "percent-in-keys", "empty-dicts"],
)
def test_fixed_values(value):
    assert cli._emit(value, "") == reference(value)


def test_weyl_elements_are_one_based_words():
    group = WeylGroup(catalog.load("affine_a2"))
    element = group.from_word([0, 1, 2, 0])
    value = {"w": element, "e": group.from_word([]), "in": [element, (element,)]}
    assert cli._emit(value, "") == reference(value)
    assert json.loads(cli._emit(element, "")) == [k + 1 for k in element.word]


@pytest.mark.parametrize("value", [1.5, -math.inf, math.nan, object(), {1: 2}])
def test_unsupported_types_raise(value):
    with pytest.raises(TypeError):
        cli._emit([value], "")


def test_unsupported_type_exits_1(catalog_paths, monkeypatch, capsys):
    class Scalars(NamedTuple):
        max_abs_offdiag: float

    monkeypatch.setattr(cli, "scalars", lambda gcm: Scalars(0.5))
    assert cli.main(["classify", catalog_paths["finite_a2"]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: TypeError: no wire form for float\n"


def complete(n, c):
    return [[2 if i == j else c for j in range(n)] for i in range(n)]


def finite_a(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)]


def affine_e8():
    rows = [[2 if i == j else 0 for j in range(9)] for i in range(9)]
    for i, j in [(k, k + 1) for k in range(7)] + [(5, 8)]:
        rows[i][j] = rows[j][i] = -1
    return rows


# mostly infinite bonds, like the random matrices of the parabolic benchmark
MOSTLY_INFINITE = oracles.random_gcm(random.Random(20261033), 8, density=0.9, deepest=3)

ENVELOPES = [
    ("poset", complete(8, -2), []),
    ("report", complete(8, -2), ["--q", "2"]),
    ("poset", complete(9, -2), []),
    ("report", complete(9, -2), ["--q", "4"]),
    ("poset", complete(8, -3), []),
    ("report", complete(8, -3), ["--q", "5"]),
    ("poset", MOSTLY_INFINITE, []),
    ("report", MOSTLY_INFINITE, ["--q", "2"]),
    ("roots", affine_e8(), ["--max-height", "30"]),
    ("nerve", finite_a(8), []),
]


@pytest.mark.parametrize(
    "command,rows,options", ENVELOPES,
    ids=["poset", "report", "poset-c2-9", "report-c2-9", "poset-c3-8", "report-c3-8",
         "poset-random", "report-random", "roots", "nerve"],
)
def test_whole_envelopes(command, rows, options, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": rows}))
    argv = [command, str(path), *options]
    doc = cli._result(*cli._read_argv(argv))
    assert cli._emit(doc, "") == reference(doc)


def test_serialized_matrix_round_trips_through_the_writer():
    g = GeneralizedCartanMatrix.from_rows(complete(3, -2), ['a"b', "c\\d", "é"])
    doc = {"labels": g.labels, "matrix": g.entries}
    text = cli._emit(doc, "")
    assert text == reference(doc)
    assert cli.parse_gcm_text(text) == g
