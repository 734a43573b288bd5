"""Answer checker for benchmark outputs.  It never imports ``kmgroups``.

Generated families are checked against closed forms:

* A_n: finite, 2^n - 1 nerve simplices, not one-ended, n(n+1)/2 positive
  roots up to height n.
* affine A (rank r >= 3): affine, 2^r - 2 simplices, one-ended.
* complete (-2) or (-3) of rank n: 2^n - n essential subsets,
  C(n,2) + sum_{k>=3} k C(n,k) Hasse edges, 2^n - n - 1 sandwiches, and the
  ends witness ``finite_order_graph_disconnected``.
* affine roots up to height k*h number k*|Phi| (960 for affine E8 at 120).
* a Coxeter element of affine A of rank r: length r, order null, power
  lengths k*r.

Random matrices are checked against a table of all principal minors
computed here by exact fraction elimination: a subset J is spherical iff
every principal minor of A_J is positive.  Group words (``conj``,
``closure``, ``jregular``, ``weyl word``) are rechecked by multiplying the
generator matrices of ``tests/oracles.py``.  Golden commands must match
``tests/golden/`` byte for byte.

``check(kind, params, stdout, ctx)`` returns None when the answer is right
and a one-line reason otherwise.
"""

from __future__ import annotations

import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path


class Context:
    """What the checks read: the matrices, the oracle module, the goldens."""

    def __init__(self, root: Path, inputs: dict):
        self.inputs = inputs
        self.golden_dir = root / "tests" / "golden"
        spec = importlib.util.spec_from_file_location(
            "perfbench_oracles", root / "tests" / "oracles.py"
        )
        self.oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.oracles)
        self._tables: dict[str, Table] = {}
        self._golden: dict[str, str] = {}

    def table(self, name: str) -> "Table":
        if name not in self._tables:
            self._tables[name] = Table(self.inputs[name])
        return self._tables[name]

    def golden(self, name: str) -> str:
        if name not in self._golden:
            self._golden[name] = (self.golden_dir / name).read_text(encoding="utf-8")
        return self._golden[name]


# ---------------------------------------------------------------- minors


def det_fraction(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            out = -out
        out *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            if f:
                for c in range(k, n):
                    m[r][c] -= f * m[k][c]
    return out


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class Table:
    """Every principal minor of one matrix, and what follows from them."""

    def __init__(self, rows):
        self.rows = rows
        n = self.n = len(rows)
        self.det = {0: Fraction(1)}
        self.spherical = {0: True}
        for mask in sorted(range(1, 1 << n), key=lambda m: bin(m).count("1")):
            idx = _members(mask)
            d = det_fraction([[rows[i][j] for j in idx] for i in idx])
            self.det[mask] = d
            self.spherical[mask] = d > 0 and all(
                self.spherical[mask & ~(1 << i)] for i in idx
            )

    def components(self, mask: int) -> list[int]:
        """Components of ``mask`` joining i, j iff a_ij != 0, by smallest member."""
        out, left = [], mask
        while left:
            start = left & -left
            comp, frontier = start, [start.bit_length() - 1]
            while frontier:
                i = frontier.pop()
                for j in _members(mask & ~comp):
                    if self.rows[i][j] != 0:
                        comp |= 1 << j
                        frontier.append(j)
            out.append(comp)
            left &= ~comp
        return out

    def component_type(self, comp: int) -> str:
        if self.spherical[comp]:
            return "finite"
        proper = all(self.spherical[comp & ~(1 << i)] for i in _members(comp))
        return "affine" if self.det[comp] == 0 and proper else "indefinite"

    def nerve(self) -> list[int]:
        return [m for m in range(1, 1 << self.n) if self.spherical[m]]

    def essential(self) -> list[int]:
        return [
            m for m in range(1 << self.n)
            if all(not self.spherical[c] for c in self.components(m))
        ]

    def perp(self, mask: int) -> int:
        out = 0
        for i in range(self.n):
            if not mask >> i & 1 and all(self.rows[i][j] == 0 for j in _members(mask)):
                out |= 1 << i
        return out

    def hasse_count(self) -> int:
        """Covers a < b: b is minimal among the essential strict supersets of a."""
        ess = self.essential()
        count = 0
        for a in ess:
            above = [b for b in ess if b != a and a & b == a]
            count += sum(
                1 for b in above if not any(c != b and c & b == c for c in above)
            )
        return count

    def sandwich_count(self) -> int:
        total = 0
        for mask in self.essential():
            if mask:
                perp = self.perp(mask)
                total += sum(
                    1 for sub in range(1 << self.n)
                    if sub & perp == sub and self.spherical[sub]
                )
        return total

    def ends(self) -> dict:
        """Ends verdict by the finite-order graph route."""
        n = self.n
        full = (1 << n) - 1
        infinite = not self.spherical[full]

        def finite_bond(i, j):
            return self.rows[i][j] * self.rows[j][i] <= 3

        def connected(mask):
            verts = _members(mask)
            if len(verts) <= 1:
                return True
            seen, stack = {verts[0]}, [verts[0]]
            while stack:
                i = stack.pop()
                for j in verts:
                    if j not in seen and finite_bond(i, j):
                        seen.add(j)
                        stack.append(j)
            return len(seen) == len(verts)

        order = [0] + sorted(self.nerve(), key=lambda m: (bin(m).count("1"), _members(m)))
        failing = next((m for m in order if not connected(full & ~m)), None)
        witness = None
        if infinite and failing is not None:
            witness = (
                {"kind": "finite_order_graph_disconnected"}
                if failing == 0
                else {"kind": "separating_spherical_subset", "set": [i + 1 for i in _members(failing)]}
            )
        return {
            "weyl_infinite": infinite,
            "one_ended": infinite and failing is None,
            "graph_strongly_connected": failing is None,
            "witness": witness,
        }


def _ext(mask: int) -> list[int]:
    return [i + 1 for i in _members(mask)]


# ---------------------------------------------------------------- closed forms


def _complete_counts(n: int) -> dict:
    return {
        "essential": 2 ** n - n,
        "hasse": math.comb(n, 2) + sum(k * math.comb(n, k) for k in range(3, n + 1)),
        "sandwiches": 2 ** n - n - 1,
    }


def _affine_root_count(family: str, rank: int, height: int) -> int:
    if family == "E8a":
        h, phi = 30, 240
    else:
        h, phi = rank, rank * (rank - 1)
    if height % h:
        raise ValueError(f"height {height} is not a multiple of h = {h}")
    return height // h * phi


def _expect(cond: bool, what: str):
    if not cond:
        raise AssertionError(what)


# ---------------------------------------------------------------- group words


def _word_matrix(ctx: Context, rows, word):
    o = ctx.oracles
    out = o.eye(len(rows))
    for k in word:
        out = o.mul(out, o.generator_matrix(rows, k - 1))
    return out


def _conjugates_generators(ctx, rows, word, source, target):
    """w^-1 s_j w over j in source is exactly {s_k : k in target}."""
    w = _word_matrix(ctx, rows, word)
    w_inv = _word_matrix(ctx, rows, list(reversed(word)))
    gens = {k: ctx.oracles.generator_matrix(rows, k - 1) for k in range(1, len(rows) + 1)}
    images = set()
    for j in source:
        conj = ctx.oracles.mul(ctx.oracles.mul(w_inv, gens[j]), w)
        hit = [k for k, g in gens.items() if g == conj]
        _expect(len(hit) == 1, f"conjugate of s_{j} is not a generator")
        images.add(hit[0])
    return images == set(target)


# ---------------------------------------------------------------- checks


def _check_classify(p, params, ctx):
    rows = ctx.inputs[params["input"]]
    n = len(rows)
    off = [abs(rows[i][j]) for i in range(n) for j in range(n) if i != j]
    _expect(p["max_abs_offdiag"] == max(off, default=0), "max_abs_offdiag")
    _expect(
        p["two_spherical"]
        == all(rows[i][j] * rows[j][i] <= 3 for i in range(n) for j in range(i + 1, n)),
        "two_spherical",
    )
    family = params["family"]
    if family in ("A", "At"):
        want = [{"members": list(range(1, n + 1)), "type": "finite" if family == "A" else "affine"}]
    else:
        t = ctx.table(params["input"])
        want = [
            {"members": _ext(c), "type": t.component_type(c)}
            for c in t.components((1 << n) - 1)
        ]
    _expect(p["components"] == want, f"components {p['components']} != {want}")
    _expect(p["indecomposable"] == (len(want) == 1), "indecomposable")


def _ends_want(params, ctx, n):
    family = params["family"]
    if family == "A":
        return {"weyl_infinite": False, "one_ended": False,
                "graph_strongly_connected": True, "witness": None}
    if family == "At":
        return {"weyl_infinite": True, "one_ended": True,
                "graph_strongly_connected": True, "witness": None}
    if family in ("C2", "C3"):
        return {"weyl_infinite": True, "one_ended": False,
                "graph_strongly_connected": False,
                "witness": {"kind": "finite_order_graph_disconnected"}}
    return ctx.table(params["input"]).ends()


def _check_ends(p, params, ctx):
    want = _ends_want(params, ctx, len(ctx.inputs[params["input"]]))
    for key, value in want.items():
        _expect(p[key] == value, f"ends {key}: {p[key]!r} != {value!r}")
    _expect(p["nerve_agreement"] is True, "nerve_agreement")
    _expect(p["nerve_strongly_connected"] == p["graph_strongly_connected"], "nerve route")


def _check_nerve(p, params, ctx):
    n = len(ctx.inputs[params["input"]])
    family = params["family"]
    if family == "A":
        count = 2 ** n - 1
    elif family == "At":
        count = 2 ** n - 2
    else:
        t = ctx.table(params["input"])
        want = sorted(_ext(m) for m in t.nerve())
        _expect(sorted(p["simplices"]) == want, "nerve simplices")
        count = len(want)
    _expect(len(p["simplices"]) == count, f"{len(p['simplices'])} simplices, want {count}")
    _expect(sum(p["count_by_dimension"].values()) == count, "count_by_dimension")
    want_sc = _ends_want(params, ctx, n)["graph_strongly_connected"]
    _expect(p["strongly_connected"] == want_sc, "strongly_connected")


def _check_indec(p, params, ctx):
    by = {"A": "finite_type", "At": "criterion_i"}[params["family"]]
    _expect(p["q"] == params["q"], "q")
    _expect(p["outcome"] == "locally_indecomposable" and p["by"] == by, f"indec {p['outcome']}/{p['by']}")


def _poset_counts(params, ctx):
    family = params["family"]
    n = len(ctx.inputs[params["input"]])
    if family in ("C2", "C3"):
        return _complete_counts(n)
    t = ctx.table(params["input"])
    return {
        "essential": len(t.essential()),
        "hasse": t.hasse_count(),
        "sandwiches": t.sandwich_count(),
        "sets": sorted((_ext(m) for m in t.essential()), key=lambda s: (len(s), s)),
    }


def _check_poset_payload(p, want):
    _expect(len(p["classes"]) == want["essential"], f"{len(p['classes'])} classes, want {want['essential']}")
    _expect(len(p["hasse"]) == want["hasse"], f"{len(p['hasse'])} Hasse edges, want {want['hasse']}")
    if "sets" in want:
        _expect([c["set"] for c in p["classes"]] == want["sets"], "essential subsets")


def _check_poset(p, params, ctx):
    _check_poset_payload(p, _poset_counts(params, ctx))


def _check_report(p, params, ctx):
    want = _poset_counts(params, ctx)
    _check_poset_payload(p["open_subgroup_classes"], want)
    sandwiches = p["locally_normal"]["sandwiches"]
    _expect(len(sandwiches) == want["sandwiches"], f"{len(sandwiches)} sandwiches, want {want['sandwiches']}")
    _check_ends(p["ends"], params, ctx)
    _expect(p["indecomposability"]["q"] == params["q"], "q")


def _check_weyl_word(p, params, ctx):
    rows = ctx.inputs[params["input"]]
    r = len(rows)
    word = [int(x) for x in params["word"].split(",")]
    _expect(p["length"] == r and len(p["canonical_word"]) == r, f"length {p['length']} != {r}")
    _expect(p["order"] is None, f"order {p['order']} != null")
    _expect(p["support"] == list(range(1, r + 1)) and p["is_identity"] is False, "support")
    _expect(p["matrix"] == _word_matrix(ctx, rows, word), "element matrix")
    _expect(_word_matrix(ctx, rows, p["canonical_word"]) == p["matrix"], "canonical word")


def _check_weyl_straight(p, params, ctx):
    r = len(ctx.inputs[params["input"]])
    want = [k * r for k in range(1, params["n"] + 1)]
    _expect(p["power_lengths"] == want, f"power lengths {p['power_lengths']} != {want}")
    _expect(p["is_straight_up_to_n"] is True, "is_straight_up_to_n")


def _check_roots(p, params, ctx):
    rank = len(ctx.inputs[params["input"]])
    height = params["height"]
    if params["family"] == "A":
        want = rank * (rank + 1) // 2  # every root of A_n has height <= n
    else:
        want = _affine_root_count(params["family"], rank, height)
    coords = [tuple(r["coords"]) for r in p["roots"]]
    _expect(p["count"] == want == len(coords), f"{p['count']} roots, want {want}")
    _expect(len(set(coords)) == len(coords), "duplicate roots")
    _expect(all(min(c) >= 0 and 0 < sum(c) <= height for c in coords), "root heights")


def _check_conj(p, params, ctx):
    rows = ctx.inputs[params["input"]]
    _expect(p["conjugate"] is True, "conjugate")
    _expect(
        _conjugates_generators(ctx, rows, p["witness_word"], p["from"], p["to"]),
        "witness does not conjugate source onto target",
    )


def _check_closure(p, params, ctx):
    rows = ctx.inputs[params["input"]]
    o = ctx.oracles
    v = _word_matrix(ctx, rows, p["conjugator_word"])
    v_inv = _word_matrix(ctx, rows, list(reversed(p["conjugator_word"])))
    w = _word_matrix(ctx, rows, p["word"])
    _expect(o.mul(o.mul(v_inv, w), v) == _word_matrix(ctx, rows, p["conjugate_word"]), "conjugate")
    _expect(p["support"] == sorted(set(p["conjugate_word"])), "support")


def _check_jregular(p, params, ctx):
    rows = ctx.inputs[params["input"]]
    _expect(p["found"] is True, "found")
    word = p["element_word"]
    _expect(set(word) <= set(p["set"]), "element outside W_J")
    w = _word_matrix(ctx, rows, word)
    power, ident = w, ctx.oracles.eye(len(rows))
    for _ in range(params["n"]):
        _expect(power != ident, "element has finite order")
        power = ctx.oracles.mul(power, w)
    _expect(p["certificates"]["closure_support"] == p["set"], "closure support")


def _check_poset_dot(text, params, ctx):
    want = _poset_counts(params, ctx)
    lines = text.splitlines()
    nodes = sum(1 for ln in lines if "[label=" in ln)
    edges = sum(1 for ln in lines if "->" in ln)
    _expect(lines[0] == "digraph essential_poset {" and lines[-1] == "}", "dot frame")
    _expect(nodes == want["essential"] and edges == want["hasse"], f"dot {nodes} nodes {edges} edges")


_PAYLOAD_CHECKS = {
    "classify": _check_classify,
    "ends": _check_ends,
    "nerve": _check_nerve,
    "indec": _check_indec,
    "poset": _check_poset,
    "report": _check_report,
    "weyl_word": _check_weyl_word,
    "weyl_straight": _check_weyl_straight,
    "roots": _check_roots,
    "conj": _check_conj,
    "closure": _check_closure,
    "jregular": _check_jregular,
}


def check(kind: str, params: dict, stdout: str, ctx: Context) -> str | None:
    """None if ``stdout`` is the right answer, else the reason it is not."""
    try:
        if kind == "golden":
            _expect(stdout == ctx.golden(params["golden"]), f"differs from golden {params['golden']}")
        elif kind == "poset_dot":
            _check_poset_dot(stdout, params, ctx)
        else:
            doc = json.loads(stdout)
            _PAYLOAD_CHECKS[kind](doc["payload"], params, ctx)
    except AssertionError as exc:
        return f"{kind}: {exc}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{kind}: malformed output ({type(exc).__name__}: {exc})"
    return None
