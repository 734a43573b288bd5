"""The `km` command line tool.

Reads a generalized Cartan matrix from a file (JSON object with a "matrix"
key and optional "labels", or plain text rows of integers; "-" for stdin)
and prints one JSON envelope per invocation:

    {"tool": ..., "command": ..., "input": ..., "parameters": ...,
     "payload": ..., "warnings": [...]}

Output is deterministic (sorted keys, fixed indentation), so identical
invocations are byte-identical.  ``_emit`` writes the envelope in one walk
over the library's values, and its text is byte for byte what
``json.dumps(..., indent=2, sort_keys=True)`` gives for their JSON data.
Poset and nerve accept --format dot and then emit a Hasse digraph instead
of JSON.

Exit codes: 0 success (bounded "not found" / "inconclusive" payloads
included), 1 internal error, 2 input or validation error, 3 enumeration
budget exceeded, 4 stdout could not be written (a full disk, a reader that
closed the pipe early).  Integers on the command line, and the entries of
plain rows after an optional minus, are ASCII digits only; sets and words
are 1-based comma-separated indices, as on the wire.

Each command is a row of ``COMMANDS``; ``main`` builds every envelope and
returns the exit code, and ``run``, the `km` entry point, ends the process
with it.  ``_read_argv`` reads the command line off the row of the command
it names, with no parser object built, and handlers import the engine
modules they run, so start-up loads only ``gcm``; ``coxeter``, ``weyl``,
``roots``, ``parabolics``, ``analysis`` and ``catalog`` load with the
commands that use them, ``_intmat`` with a determinant or a Weyl element,
and ``_help``, the help and usage text, with ``-h`` and a refused command
line.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

from . import DEFAULT_BUDGET, BadInputError, BudgetExceededError, __version__
from .gcm import GcmValidationError, GeneralizedCartanMatrix, classify, scalars

if TYPE_CHECKING:  # the element handlers import it when they run
    from .weyl import WeylElement


class InputError(BadInputError):
    """Bad command-line input (file contents, set/word syntax, ranges)."""


# ---------------------------------------------------------------- input


def parse_gcm_text(text: str) -> GeneralizedCartanMatrix:
    """Parse JSON ({"matrix": ..., "labels": ...}) or plain rows of ints."""
    stripped = text.strip()
    if not stripped:
        raise InputError("empty input")
    if stripped[0] in "{[":
        try:
            doc = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
            raise InputError(f"invalid JSON: {exc}") from exc
        if isinstance(doc, list):
            doc = {"matrix": doc}
        if not isinstance(doc, dict) or "matrix" not in doc:
            raise InputError('JSON input must be an object with a "matrix" key')
        return GeneralizedCartanMatrix.from_rows(doc["matrix"], doc.get("labels"))
    rows = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:  # an entry is what ``_count`` reads, with an optional leading minus
            rows.append([-_count(t[1:]) if t[0] == "-" else _count(t)
                         for t in line.split()])
        except ValueError as exc:
            raise InputError(f"bad integer row: {line!r}") from exc
    return GeneralizedCartanMatrix.from_rows(rows)


def _read_gcm(path: str) -> GeneralizedCartanMatrix:
    if path == "-":
        return parse_gcm_text(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_gcm_text(text)


def _parse_indices(text: str, rank: int, noun: str) -> list[int]:
    """'2,1,2' -> [2, 1, 2], each checked to lie in 1..rank; order kept."""
    if not text:
        return []
    out = []
    for tok in text.split(","):
        k = _natural(tok, noun)
        if not 1 <= k <= rank:
            raise InputError(f"{noun} {k} out of range 1..{rank}")
        out.append(k)
    return out


def _natural(text: str, noun: str) -> int:
    """``text`` as ``_count`` reads it, the one integer syntax of `km`."""
    try:
        return _count(text)
    except ValueError as exc:
        raise InputError(f"bad {noun} {text!r}") from exc


def _parse_set(text: str, rank: int) -> frozenset[int]:
    """'1,3' -> frozenset({0, 2}); 1-based on the wire, 0-based inside."""
    return frozenset(k - 1 for k in _parse_indices(text, rank, "index"))


def _word_element(gcm: GeneralizedCartanMatrix, args) -> tuple[list[int], WeylElement]:
    """The --word letters as given (1-based) and the element they spell."""
    from .weyl import WeylGroup

    letters = _parse_indices(args.word, gcm.rank, "letter")
    return letters, WeylGroup(gcm).from_word(k - 1 for k in letters)


# ---------------------------------------------------------------- output


# record class -> a getter for each field, in sorted order, and the quoted
# key text of each; any other class written so far -> None
_RECORD_KEYS: dict[type, tuple[list[Callable], list[str]] | None] = {}
_INT_RUN = {int}
_RUNS = {list, tuple}
_STR_RUN = {str}
_SET_RUN = {frozenset}


def _emit(value, pad: str) -> str:
    """The JSON text of library data, as ``json.dumps(..., indent=2,
    sort_keys=True)`` writes it, with ``pad`` the indent of its line.

    Frozensets (0-based index sets) become sorted 1-based lists and Weyl
    elements become their 1-based canonical words.  Records become objects
    of their ``_fields``, tuples become lists, ``INFINITE`` becomes null
    and dict keys must be strings.  Integers are never shifted, so
    coordinates, matrix rows, counts and the input words echoed as the user
    gave them pass through unchanged.  One walk writes the text: no JSON
    tree is built, a run of plain ints (a set) is one join, and a list of
    equal int runs (Hasse pairs, matrix rows), of records of one class
    (sandwiches) or of dicts with one key order (poset classes, roots)
    fills one template in one step.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if kind is frozenset:
        items = map(str, sorted([i + 1 for i in value]))
    elif kind is list or kind is tuple:
        kinds = {*map(type, value)}
        if kinds == _INT_RUN:
            items = map(str, value)
        elif (kinds <= _RUNS and len({*map(len, value)}) == 1 and value[0]
              and {*map(type, chain.from_iterable(value))} == _INT_RUN):
            run = _block("[", ["%d"] * len(value[0]), pad + "  ", "]")
            return _block("[", [run] * len(value), pad, "]") % tuple(chain.from_iterable(value))
        elif len(kinds) == 1 and (keys := _shared_keys(value, *kinds)) is not None:
            getters, heads = keys
            inner, deeper = pad + "  ", pad + "    "
            record = _block("{", [k.replace("%", "%%") + "%s" for k in heads], inner, "}")
            columns = [_texts(list(map(get, value)), deeper) for get in getters]
            return _block("[", [record] * len(value), pad, "]") % tuple(
                chain.from_iterable(zip(*columns)))
        else:
            items = _texts(value, pad + "  ")
    elif kind is dict:
        inner = pad + "  "
        members = [f"{_quote(k)}: {_emit(value[k], inner)}" for k in sorted(value)]
        return _block("{", members, pad, "}")
    elif value is None:
        return "null"
    elif kind is bool:
        return "true" if value else "false"
    else:
        # a class seen before costs no call: a Weyl element in each root
        keys = _RECORD_KEYS[kind] if kind in _RECORD_KEYS else _record_keys(kind)
        if keys is not None:
            inner = pad + "  "
            members = [k + _emit(get(value), inner) for get, k in zip(*keys)]
            return _block("{", members, pad, "}")
        if value == math.inf:
            return "null"
        from .weyl import WeylElement  # last, so a payload without one never loads weyl

        if kind is not WeylElement:
            raise TypeError(f"no wire form for {kind.__name__}")
        items = [str(k + 1) for k in value.word]
    return _block("[", items, pad, "]")


def _record_keys(kind: type) -> tuple[list[Callable], list[str]] | None:
    """The field getters and key texts of a record class, None for any
    other class; both are kept in ``_RECORD_KEYS``."""
    if kind not in _RECORD_KEYS:
        keys = None
        if hasattr(kind, "_fields"):
            fields = sorted(kind._fields)
            keys = (list(map(attrgetter, fields)), [_quote(f) + ": " for f in fields])
        _RECORD_KEYS[kind] = keys
    return _RECORD_KEYS[kind]


def _shared_keys(value: Sequence, kind: type) -> tuple[list[Callable], list[str]] | None:
    """The getters and key texts of every item of ``value``, all of class
    ``kind``: records, or dicts whose keys come in one order; else None."""
    if kind is not dict:
        return _record_keys(kind)
    if len({*map(tuple, value)}) > 1:
        return None
    keys = sorted(value[0])
    return list(map(itemgetter, keys)), [_quote(k) + ": " for k in keys]


def _texts(values: Sequence, pad: str) -> list[str]:
    """The JSON texts of ``values``, each at ``pad``: strings quoted in one
    step, and index sets each by one expression, the ``_block`` of its
    1-based members."""
    kinds = {*map(type, values)}
    if kinds == _STR_RUN:
        return list(map(_quote, values))
    if kinds == _SET_RUN:
        inner = pad + "  "
        head, sep, tail = "[\n" + inner, ",\n" + inner, "\n" + pad + "]"
        return [head + sep.join(map(str, sorted([i + 1 for i in s]))) + tail if s else "[]"
                for s in values]
    return [_emit(v, pad) for v in values]


def _block(opening: str, items: Iterable[str], pad: str, closing: str) -> str:
    """An array or object of member texts, one member a line, as ``json``
    indents it; empty, it is the bare brackets."""
    inner = pad + "  "
    body = f",\n{inner}".join(items)
    return f"{opening}\n{inner}{body}\n{pad}{closing}" if body else opening + closing


def _dot(name: str, labels: Iterable[str], edges: Iterable[tuple[int, int]]) -> str:
    """A bottom-to-top digraph: node k carries labels[k], one arc per pair.

    Labels are user text, so backslashes and quotes are escaped to keep each
    one a single DOT string.
    """
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    quoted = (label.replace("\\", "\\\\").replace('"', '\\"') for label in labels)
    lines += [f'  n{k} [label="{label}"];' for k, label in enumerate(quoted)]
    lines += [f"  n{a} -> n{b};" for a, b in edges]
    return "\n".join(lines) + "\n}\n"


_BOUNDED_NOTE = "bounded computation: results are certificates up to the stated bounds only"


# ---------------------------------------------------------------- handlers


def _validate(gcm, args):
    return {}, {"valid": True, "rank": gcm.rank, "labels": gcm.labels}


def _classify(gcm, args):
    verdict = classify(gcm)
    components = [
        {"members": comp, "type": typ}
        for comp, typ in zip(verdict.components, verdict.types)
    ]
    return {}, {
        "components": components,
        "indecomposable": verdict.indecomposable,
        **scalars(gcm)._asdict(),
    }


def _coxeter(gcm, args):
    from .coxeter import coxeter_matrix

    diagram = coxeter_matrix(gcm)
    return {}, {
        "orders": diagram.orders,
        "defining_graph_edges": [frozenset(e) for e in diagram.edges()],
        "finite_order_graph_edges": [
            frozenset(e) for e in diagram.finite_order_edges()
        ],
    }


def _decompose(gcm, args):
    from .coxeter import coxeter_matrix

    diagram = coxeter_matrix(gcm)
    subset = _parse_set(args.set, gcm.rank)
    dec = diagram.decompose(subset)
    spherical = dec.is_spherical
    order, positive = diagram.finite_group_order(subset) if spherical else (None, None)
    return {"set": subset}, {
        "set": subset,
        "components": dec.components,
        "spherical_part": dec.spherical_part,
        "essential_part": dec.essential_part,
        "perp": dec.perp,
        "is_spherical": spherical,
        "is_essential": dec.is_essential and bool(subset),
        "finite_order": order,
        "positive_root_count": positive,
    }


def _poset_payload(report):
    classes = [
        {
            "set": c.subset,
            "class_label": c.class_label,
            "representative": c.representative,
            "description": c.description,
        }
        for c in report.classes
    ]
    return {
        "classes": classes, "hasse": report.poset.hasse, "semantics": report.semantics
    }


def _poset(gcm, args):
    from .analysis import open_subgroup_report

    report = open_subgroup_report(gcm)
    if args.format == "dot":
        labels = [f"{c.representative} {c.class_label}" for c in report.classes]
        return _dot("essential_poset", labels, report.poset.hasse)
    return {}, _poset_payload(report)


def _nerve(gcm, args):
    from .coxeter import coxeter_matrix, nerve_strong_connectivity

    diagram = coxeter_matrix(gcm)
    nerve = diagram.nerve()
    if args.format == "dot":
        labels = [gcm.label_set(s) for s in nerve.simplices]
        return _dot("nerve_faces", labels, nerve.face_hasse_edges())
    return {}, {
        "simplices": nerve.simplices,
        "maximal_simplices": diagram.maximal_spherical_subsets(diagram.index_set),
        "count_by_dimension": {str(d): c for d, c in nerve.by_dimension().items()},
        "strongly_connected": nerve_strong_connectivity(nerve).strongly_connected,
    }


def _ends(gcm, args):
    from .analysis import ends_verdict

    ends = ends_verdict(gcm)
    witness = ends.witness
    if witness == frozenset():
        witness = {"kind": "finite_order_graph_disconnected"}
    elif witness is not None:
        witness = {"kind": "separating_spherical_subset", "set": witness}
    return {}, {**ends._asdict(), "witness": witness}


def _indec(gcm, args):
    from .analysis import indecomposability_verdict

    q = _natural(args.q, "q")
    return {"q": q}, indecomposability_verdict(gcm, q)


def _report(gcm, args):
    from .analysis import (indecomposability_verdict, locally_normal_report,
                           open_subgroup_report, prime_power)

    q = _natural(args.q, "q")
    prime_power(q)  # fail fast on a bad q
    return {"q": q}, {
        "open_subgroup_classes": _poset_payload(open_subgroup_report(gcm)),
        "locally_normal": locally_normal_report(gcm),
        "ends": _ends(gcm, args)[1],
        "indecomposability": indecomposability_verdict(gcm, q),
    }


def _weyl_word(gcm, args):
    letters, element = _word_element(gcm, args)
    return {"word": letters}, {
        "word": letters,
        "canonical_word": element,
        "length": element.length,
        "support": element.support,
        "order": element.order(),
        "is_identity": element.is_identity,
        "matrix": element.rows,
    }


def _weyl_straight(gcm, args):
    from .weyl import _straight

    letters, element = _word_element(gcm, args)
    lengths = list(element.power_lengths(args.n))  # past DEFAULT_BUDGET: exit 3
    return {"word": letters, "n": args.n}, {
        "word": letters,
        "n": args.n,
        "power_lengths": lengths,
        "is_straight_up_to_n": _straight(lengths),  # WeylElement.is_straight's test
    }


def _roots(gcm, args):
    from .roots import positive_real_roots, split_by_support
    from .weyl import WeylGroup

    found = positive_real_roots(WeylGroup(gcm), args.max_height, budget=args.budget)
    parameters = {"max_height": args.max_height, "budget": args.budget}
    roots = [
        {
            "coords": r.coords,
            "height": r.height,
            "support": r.support,
            "witness": {"word": r.witness[0], "simple": r.witness[1] + 1},
        }
        for r in found
    ]
    payload = {"max_height": args.max_height, "count": len(found), "roots": roots}
    if args.set is not None:
        subset = _parse_set(args.set, gcm.rank)
        inside, outside = split_by_support(found, subset)
        parameters["set"] = payload["set"] = subset
        payload["in_set"] = [r.coords for r in inside]
        payload["off_set"] = [r.coords for r in outside]
    return parameters, payload


def _conj(gcm, args):
    from .parabolics import standard_conjugacy
    from .weyl import WeylGroup

    source = _parse_set(args.source, gcm.rank)
    target = _parse_set(args.target, gcm.rank)
    witness = standard_conjugacy(WeylGroup(gcm), source, target)
    payload = {"from": source, "to": target, "conjugate": witness is not None,
               "witness_word": None, "moves": None}
    if witness is not None:
        payload["witness_word"] = witness.element
        payload["moves"] = [
            {"from": m.source, "s": m.s + 1, "component": m.component,
             "nu_word": m.nu, "to": m.target}
            for m in witness.moves
        ]
    return {"from": source, "to": target}, payload


def _closure(gcm, args):
    from .parabolics import parabolic_closure_search

    letters, element = _word_element(gcm, args)
    cert = parabolic_closure_search(
        element.group, element, args.depth, budget=args.budget
    )
    return {"word": letters, "depth": args.depth, "budget": args.budget}, {
        "word": letters,
        "depth": args.depth,
        "conjugator_word": cert.conjugator,
        "conjugate_word": cert.conjugate,
        "support": cert.support,
        "essential_support": cert.essential_support,
    }


def _jregular(gcm, args):
    from .parabolics import find_j_regular
    from .weyl import WeylGroup

    subset = _parse_set(args.set, gcm.rank)  # find_j_regular rejects the empty set
    cert = find_j_regular(
        WeylGroup(gcm), subset, max_len=args.max_len, power_bound=args.n,
        max_height=args.max_height, depth=args.depth, budget=args.budget,
    )
    parameters = {
        "set": subset, "max_len": args.max_len, "n": args.n,
        "max_height": args.max_height, "depth": args.depth, "budget": args.budget,
    }
    if cert is None:
        return parameters, {"found": False, "set": subset}
    return parameters, {
        "found": True,
        "set": subset,
        "element_word": cert.element,
        "certificates": {
            "torsion_bound": cert.torsion_bound,
            "straight_up_to": cert.power_bound,
            "closure_conjugator": cert.closure.conjugator,
            "closure_support": cert.closure.support,
            "closure_depth": cert.closure.depth,
            "root_height": cert.root_height,
            "roots_checked": cert.roots_checked,
            "periodic_roots": [],
        },
    }


def _catalog(gcm, args):
    from . import catalog

    if args.name is None:
        return {}, {"names": catalog.NAMES}
    try:
        return catalog.read_text(args.name)
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        raise InputError(exc.args[0]) from exc


# ---------------------------------------------------------------- commands


class _Command(namedtuple(
        "_Command", "name handler help options bounded reads_gcm",
        defaults=((), False, True))):
    """One `km` command.  ``name`` is the wire name; a dash nests it under a
    group ("weyl-word" is ``km weyl word``).  ``options`` are (flag,
    keywords) pairs, in argparse's words: ``type``, ``choices``,
    ``required``, ``default``, ``dest`` and ``help``, and ``nargs="?"`` for
    an optional positional.  Bounded commands warn that their answer only
    holds up to the stated bounds.

    Fields: ``name``, ``help``: str; ``handler``: Callable; ``options``:
    tuple[tuple[str, dict], ...], () by default; ``bounded``: bool, False by
    default; ``reads_gcm``: bool, True by default.
    """

    __slots__ = ()


def _opt(flag: str, **keywords) -> tuple[str, dict]:
    return flag, keywords


def _count(text: str) -> int:
    """An option type: a nonnegative integer bound, in ASCII digits."""
    try:
        if text.isascii() and text.isdecimal():
            return int(text)
    except ValueError:  # more digits than the interpreter's int() converts
        pass
    raise ValueError(f"{text!r} is not a nonnegative integer")


def _power_bound(text: str) -> int:
    """An option type: a largest power n >= 2; the checks run over 2..n."""
    n = _count(text)
    if n < 2:
        raise ValueError(f"{text!r} is below 2: the checks cover powers 2..n")
    return n


def _int(flag: str) -> tuple[str, dict]:
    return _opt(flag, type=_count, required=True)


_FORMAT = _opt("--format", choices=("json", "dot"), default="json")
_Q = _opt("--q", required=True, help="prime power")
_WORD = _opt("--word", required=True, help="1-based comma-separated letters")
_BUDGET = _opt("--budget", type=_count, default=DEFAULT_BUDGET)
_N = _opt("--n", type=_power_bound, required=True)

COMMANDS = (
    _Command("validate", _validate, "check the matrix axioms"),
    _Command("classify", _classify, "finite/affine/indefinite per component"),
    _Command("coxeter", _coxeter, "Coxeter matrix and derived graphs"),
    _Command("decompose", _decompose, "spherical/essential/perp split of a set",
             (_opt("--set", required=True, help="1-based comma-separated indices"),)),
    _Command("poset", _poset, "commensurability classes of open subgroups", (_FORMAT,)),
    _Command("nerve", _nerve, "complex of finite-type subsets", (_FORMAT,)),
    _Command("ends", _ends, "number-of-ends verdicts"),
    _Command("indec", _indec, "local indecomposability over F_q", (_Q,)),
    _Command("report", _report, "full structure report", (_Q,)),
    _Command("weyl-word", _weyl_word, "canonical word, length and order", (_WORD,)),
    _Command("weyl-straight", _weyl_straight, "power lengths and straightness up to n",
             (_WORD, _N), bounded=True),
    _Command("roots", _roots, "positive real roots up to a height",
             (_int("--max-height"),
              _opt("--set", help="also split by support inside this set"), _BUDGET),
             bounded=True),
    _Command("conj", _conj, "conjugacy of generator subsets by moves",
             (_opt("--from", dest="source", required=True),
              _opt("--to", dest="target", required=True))),
    _Command("closure", _closure, "bounded parabolic-closure search",
             (_WORD, _int("--depth"), _BUDGET), bounded=True),
    _Command("jregular", _jregular, "bounded regular-element search",
             (_opt("--set", required=True), _int("--max-len"), _N,
              _int("--max-height"), _int("--depth"), _BUDGET), bounded=True),
    _Command("catalog", _catalog, "bundled example matrices",
             (_opt("name", nargs="?", help="entry to print (omit to list)"),),
             reads_gcm=False),
)

_BY_NAME = {command.name: command for command in COMMANDS}
_GCM = _opt("gcm")
_HELP_FLAGS = {"-h": {"action": "help"}, "--help": {"action": "help"}}
_TOP_FLAGS = {**_HELP_FLAGS, "--version": {"action": "version"}}


# ---------------------------------------------------------------- command line


def _read_argv(argv: Sequence[str]) -> tuple[_Command, SimpleNamespace]:
    """The command ``argv`` names, and its values read off its own row of
    ``COMMANDS``.

    The grammar is argparse's for the same table: ``--flag value``,
    ``--flag=value`` or a unique prefix of a long flag, in any order with
    the positionals; a lone ``-`` and a negative number are values, ``--``
    makes the rest positionals, and the last of a repeated flag wins.
    ``-h``/``--help`` at every level, and ``--version`` before the command,
    print to stdout and raise ``SystemExit(0)``.  A malformed line writes a
    usage line and ``km ...: error: ...`` to stderr and raises
    ``SystemExit(2)``.
    """
    words, extras, tokens = [], [], list(argv)
    while (command := _BY_NAME.get("-".join(words))) is None:
        tokens = _read(words, None, tokens, extras)
    values = _read(words, command, tokens, extras)
    if extras:
        _fail([], "unrecognized arguments: " + " ".join(extras))
    return command, SimpleNamespace(**values)


def _read(words: list[str], command: _Command | None, tokens: list[str],
          extras: list[str]) -> list[str] | dict:
    """One level of the command line after ``words``.  Before the command
    (``command`` None) it reads the next word, appends it to ``words`` and
    returns the tokens after it; at the command it returns the value of
    each positional and flag.  Unknown flags and surplus positionals go to
    ``extras``, to be refused once help had its chance."""
    if command is None:
        flags = _HELP_FLAGS if words else _TOP_FLAGS
        positionals, options = [("command", {})], ()
    else:
        flags = {**_HELP_FLAGS, **{f: kw for f, kw in command.options if f[0] == "-"}}
        positionals = [_GCM] * command.reads_gcm + [o for o in command.options if o[0][0] != "-"]
        options = command.options
    # every flag up to "--" is read before any acts, as argparse does, so
    # an ambiguous prefix is refused even after a help flag
    end = tokens.index("--") if "--" in tokens else len(tokens)
    reads = [_flag(words, t, flags) for t in tokens[:end]] + [None] * (len(tokens) - end)
    if command is not None and end < len(tokens):  # the command drops its "--"
        tokens, reads = tokens[:end] + tokens[end + 1:], reads[:end] + reads[end + 1:]
    values = {_dest(f, kw): kw.get("default") for f, kw in (*positionals, *options)}
    given, seen, k = [], set(), 0
    while k < len(tokens):
        token, read = tokens[k], reads[k]
        k += 1
        if read is None and command is None:  # a command, or a group of commands
            path = "-".join([*words, token])
            if "-" in token or not any(n == path or n.startswith(path + "-") for n in _BY_NAME):
                _fail(words, f"argument command: invalid choice: {token!r}")
            words.append(token)
            return tokens[k:]
        if read is None:
            given.append(token)
        elif read[0] is None:
            extras.append(token)
        else:
            flag, value = read
            if "action" in flags[flag]:
                _act(words, flag, value)
            if value is None:
                if k == len(tokens) or reads[k] is not None:
                    _fail(words, f"argument {flag}: expected one argument")
                value, k = tokens[k], k + 1
            values[_dest(flag, flags[flag])] = _value(words, flag, flags[flag], value)
            seen.add(flag)
    for (name, keywords), token in zip(positionals, given):
        values[_dest(name, keywords)] = token
    extras += given[len(positionals):]
    missing = [name for name, kw in positionals[len(given):] if "nargs" not in kw]
    missing += [f for f, kw in options if kw.get("required") and f not in seen]
    if missing:
        _fail(words, "the following arguments are required: " + ", ".join(missing))
    return values


def _flag(words: list[str], token: str, flags: dict
          ) -> tuple[str | None, str | None] | None:
    """``token`` as argparse reads it against ``flags``: None for a
    positional, else the flag (None for an unknown one) and the value
    attached to it (None if none).  An exact flag comes first, then
    ``flag=value``, then a unique prefix of a long flag; ``-hX`` attaches
    ``X`` to ``-h``.  A lone ``-`` or ``--``, a negative number (digits
    with at most one point, a digit last) and an unknown token holding a
    space are positionals."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token[1] == "-":
        matches = [f for f in flags if f.startswith(name)]
        value = value if eq else None
    else:
        matches = [f for f in flags if f == token[:2]]
        value = token[2:]
    if len(matches) > 1:
        _fail(words, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value
    if " " in token or token[1:].replace(".", "", 1).isdecimal() and token[-1] != ".":
        return None
    return None, None


def _value(words: list[str], flag: str, keywords: dict, text: str):
    """``text`` through the ``type`` and ``choices`` of ``flag``."""
    kind, choices = keywords.get("type"), keywords.get("choices")
    try:
        value = text if kind is None else kind(text)
    except ValueError as exc:
        _fail(words, f"argument {flag}: {exc}")
    if choices is not None and value not in choices:
        _fail(words, f"argument {flag}: invalid choice: {value!r} "
                     f"(choose from {', '.join(map(repr, choices))})")
    return value


def _act(words: list[str], flag: str, value: str | None) -> NoReturn:
    """Print the help of ``km`` followed by ``words``, or the version."""
    if value is not None:
        _fail(words, f"argument {flag}: ignored explicit argument {value!r}")
    if flag == "--version":
        sys.stdout.write(f"km {__version__}\n")
    else:
        from . import _help

        sys.stdout.write(_help.text(COMMANDS, words))
    raise SystemExit(0)


def _fail(words: list[str], message: str) -> NoReturn:
    """Refuse a malformed command line: usage and error to stderr, exit 2."""
    from . import _help

    prog = " ".join(["km", *words])
    sys.stderr.write(f"{_help.usage(COMMANDS, words)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _dest(flag: str, keywords: dict) -> str:
    return keywords.get("dest") or flag.lstrip("-").replace("-", "_")


def _result(command: _Command, args) -> str | dict:
    """What ``command`` prints: finished text (DOT, a catalog entry) or
    the envelope as library data."""
    gcm = _read_gcm(args.gcm) if command.reads_gcm else None
    result = command.handler(gcm, args)
    if isinstance(result, str):
        return result
    parameters, payload = result
    return {
        "tool": {"name": "km", "version": __version__},
        "command": command.name,
        "input": {
            "labels": None if gcm is None else gcm.labels,
            "matrix": None if gcm is None else gcm.entries,
        },
        "parameters": parameters,
        "payload": payload,
        "warnings": [_BOUNDED_NOTE] if command.bounded else [],
    }


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command, args = _read_argv(argv)
    try:
        result = _result(command, args)
        if isinstance(result, str):
            text, end = result[:-1], result[-1:]
        else:
            text, end = _emit(result, ""), "\n"
    except BudgetExceededError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except BadInputError as exc:
        where = f"{exc.describe()}: " if isinstance(exc, GcmValidationError) else ""
        print(f"error: {where}{exc.message(1)}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    # The last character goes in a write of its own: an unbuffered text
    # layer drops the count of a short write, so a reader that closed
    # early is only seen by the write after it.
    try:
        sys.stdout.write(text)
        sys.stdout.write(end)
        sys.stdout.flush()
    except OSError as exc:
        # what is still buffered goes to devnull, so the interpreter's own
        # flush at exit cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    return 0


def run() -> NoReturn:
    """The `km` process: ``main``, then exit without interpreter teardown.

    ``main`` has flushed stdout (or pointed it at devnull), so once stderr
    is flushed nothing is left to write, and ``os._exit`` skips the module
    teardown and final collection.  A profiler or tracer reports at exit,
    so under one the process takes the normal ``sys.exit``.
    """
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # cProfile uses it from 3.12 on
    if (sys.getprofile() is not None or sys.gettrace() is not None
            or monitoring is not None and any(map(monitoring.get_tool, range(6)))):
        sys.exit(code)
    try:
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no, a broken or a closed stderr
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
