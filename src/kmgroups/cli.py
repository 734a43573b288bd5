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

Each command is a row of ``COMMANDS``; ``main`` builds every envelope.
A process builds the parser of its own command only, and handlers import
the engine modules they run, so start-up loads only ``gcm`` (and
``_intmat``); ``coxeter``, ``weyl``, ``roots``, ``parabolics``,
``analysis`` and ``catalog`` load with the commands that use them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _quote
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

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
        except json.JSONDecodeError as exc:
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
        except argparse.ArgumentTypeError as exc:
            raise InputError(f"bad integer row: {line!r}") from exc
    return GeneralizedCartanMatrix.from_rows(rows)


def serialize_gcm(gcm: GeneralizedCartanMatrix) -> str:
    """Canonical JSON text for a matrix; parse/serialize round-trips."""
    return _emit({"labels": gcm.labels, "matrix": gcm.entries}, "") + "\n"


def _read_gcm(path: str) -> GeneralizedCartanMatrix:
    if path == "-":
        return parse_gcm_text(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_gcm_text(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


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
    except argparse.ArgumentTypeError as exc:
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


# record class -> its fields in sorted order, each with its quoted key text
_RECORD_KEYS: dict[type, tuple[tuple[str, str], ...]] = {}
_INT_RUN = {int}


def _emit(value, pad: str) -> str:
    """The JSON text of library data, as ``json.dumps(..., indent=2,
    sort_keys=True)`` writes it, with ``pad`` the indent of its line.

    Frozensets (0-based index sets) become sorted 1-based lists and Weyl
    elements become their 1-based canonical words.  Records become objects
    of their ``_fields``, tuples become lists, ``INFINITE`` becomes null
    and dict keys must be strings.  Integers are never shifted, so
    coordinates, matrix rows, counts and the input words echoed as the user
    gave them pass through unchanged.  One walk writes the text: no JSON
    tree is built, and a run of plain ints (a set, a Hasse pair, a matrix
    row) is one join.
    """
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return str(value)
    if kind is frozenset:
        items = map(str, sorted([i + 1 for i in value]))
    elif kind is list or kind is tuple:
        if {*map(type, value)} == _INT_RUN:
            items = map(str, value)
        else:
            inner = pad + "  "
            items = [_emit(v, inner) for v in value]
    elif kind is dict:
        inner = pad + "  "
        members = [f"{_quote(k)}: {_emit(value[k], inner)}" for k in sorted(value)]
        return _block("{", members, pad, "}")
    elif value is None:
        return "null"
    elif kind is bool:
        return "true" if value else "false"
    else:
        keys = _RECORD_KEYS.get(kind)
        if keys is None and hasattr(kind, "_fields"):
            keys = _RECORD_KEYS[kind] = tuple(
                (f, _quote(f) + ": ") for f in sorted(kind._fields)
            )
        if keys is not None:
            inner = pad + "  "
            members = [k + _emit(getattr(value, f), inner) for f, k in keys]
            return _block("{", members, pad, "}")
        if value == math.inf:
            return "null"
        from .weyl import WeylElement  # last, so a payload without one never loads weyl

        if kind is not WeylElement:
            raise TypeError(f"no wire form for {kind.__name__}")
        items = [str(k + 1) for k in value.word]
    return _block("[", items, pad, "]")


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
    letters, element = _word_element(gcm, args)
    lengths = [w.length for w in accumulate([element] * args.n, mul)]  # w, w^2, ...
    return {"word": letters, "n": args.n}, {
        "word": letters,
        "n": args.n,
        "power_lengths": lengths,
        # WeylElement.is_straight's predicate, read off the same lengths
        "is_straight_up_to_n": all(x == n * lengths[0] for n, x in enumerate(lengths, 1)),
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


class _Command(NamedTuple):
    """One `km` command.  ``name`` is the wire name; a dash nests it under a
    group ("weyl-word" is ``km weyl word``).  ``options`` are (flag,
    argparse keywords) pairs.  Bounded commands warn that their answer only
    holds up to the stated bounds."""

    name: str
    handler: Callable
    help: str
    options: tuple[tuple[str, dict], ...] = ()
    bounded: bool = False
    reads_gcm: bool = True


def _opt(flag: str, **keywords) -> tuple[str, dict]:
    return flag, keywords


def _count(text: str) -> int:
    """An argparse type: a nonnegative integer bound, in ASCII digits."""
    try:
        if text.isascii() and text.isdecimal():
            return int(text)
    except ValueError:  # more digits than the interpreter's int() converts
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")


def _power_bound(text: str) -> int:
    """An argparse type: a largest power n >= 2; the checks run over 2..n."""
    n = _count(text)
    if n < 2:
        raise argparse.ArgumentTypeError(
            f"{text!r} is below 2: the checks cover powers 2..n"
        )
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

_GROUP_HELP = {"weyl": "element arithmetic"}

# the first word of each command line: a command, or a group of commands
_FIRST_WORDS = tuple(dict.fromkeys(c.name.partition("-")[0] for c in COMMANDS))


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The `km` parser for ``argv``.

    When ``argv`` starts with a command (or group) name, only that part of
    the tree is built; otherwise (no command, an option first, an unknown
    name) all of it is.  The narrowed parser spells out every command name
    in its usage line, so help and error text do not depend on which tree
    parsed them.
    """
    first = argv[0] if argv and argv[0] in _FIRST_WORDS else None
    parser = argparse.ArgumentParser(
        prog="km",
        description="Combinatorial invariants of a generalized Cartan matrix",
    )
    parser.add_argument("--version", action="version", version=f"km {__version__}")
    metavar = None if first is None else "{" + ",".join(_FIRST_WORDS) + "}"
    subparsers = {
        "": parser.add_subparsers(dest="command", required=True, metavar=metavar)
    }
    for command in COMMANDS:
        group, _, leaf = command.name.rpartition("-")
        if first is not None and first != (group or leaf):
            continue
        if group not in subparsers:
            parent = subparsers[""].add_parser(group, help=_GROUP_HELP[group])
            subparsers[group] = parent.add_subparsers(
                dest=f"{group}_command", required=True
            )
        p = subparsers[group].add_parser(leaf, help=command.help)
        if command.reads_gcm:
            p.add_argument("gcm", help="matrix file (JSON or plain rows; - for stdin)")
        for flag, options in command.options:
            p.add_argument(flag, **options)
        p.set_defaults(spec=command)
    return parser


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
    args = _build_parser(argv).parse_args(argv)
    try:
        result = _result(args.spec, args)
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


if __name__ == "__main__":
    sys.exit(main())
