"""The envelope writer ``cli._emit`` against the standard encoder.

``_emit`` walks library values once and writes JSON text; the reference is
``json.dumps(oracles.wire(value), indent=2, sort_keys=True)``, the copy to
JSON data and the encoder that `km` used before.  The two must agree byte
for byte on arbitrary nested values and on whole envelopes.
"""

import json
import math
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


# quotes, escapes, control, non-ASCII, astral and lone-surrogate characters
SPECIAL = st.sampled_from('"\\/\x00\x1f\x7f\n\té€\U0001f600\ud800')
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
    ],
    ids=["bools-and-ints", "bool-first", "null-inf-big", "sets", "records"],
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


ENVELOPES = [
    ("poset", complete(8, -2), []),
    ("report", complete(8, -2), ["--q", "2"]),
    ("roots", affine_e8(), ["--max-height", "30"]),
    ("nerve", finite_a(8), []),
]


@pytest.mark.parametrize("command,rows,options", ENVELOPES, ids=[e[0] for e in ENVELOPES])
def test_whole_envelopes(command, rows, options, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": rows}))
    argv = [command, str(path), *options]
    args = cli._build_parser(argv).parse_args(argv)
    doc = cli._result(args.spec, args)
    assert cli._emit(doc, "") == reference(doc)


def test_serialized_matrix_round_trips_through_the_writer():
    g = GeneralizedCartanMatrix.from_rows(complete(3, -2), ['a"b', "c\\d", "é"])
    text = cli.serialize_gcm(g)
    assert text == reference({"labels": g.labels, "matrix": g.entries}) + "\n"
    assert cli.parse_gcm_text(text) == g
