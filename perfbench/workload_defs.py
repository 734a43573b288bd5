"""Seeded inputs and fixed command lists for the four benchmark workloads.

A workload is a list of commands.  Each command is a dict:

    argv    km arguments; "{name}" stands for the file of input ``name``
    family  input family ("A", "At", "C2", "C3", "E8a", "random", "catalog")
    rank    rank of the input matrix
    check   (kind, params) read by ``answers.check``

The seed permutes the generator indices of every generated matrix and maps
the words and sets given with it through the same permutation, so the
answers stay known in closed form.  It also draws the random matrices and
orders the ``small`` workload.  Nothing here imports ``kmgroups``.
"""

from __future__ import annotations

import hashlib
import json
import random
import runpy
from pathlib import Path

WORKLOADS = ("structure", "parabolic", "words", "small")

# Golden commands appended to the three heavy workloads.  Together they call
# every layer once, so no per-layer timer reads a constant zero.
COVERAGE_TAIL = (
    "report_affine_a1_q2.json",
    "jregular_affine_a1.json",
    "conj_finite_a3_1_to_3.json",
)


# ---------------------------------------------------------------- families


def finite_a(n: int) -> list[list[int]]:
    """Cartan matrix of A_n (rank n)."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
        if i + 1 < n:
            m[i][i + 1] = m[i + 1][i] = -1
    return m


def affine_a(rank: int) -> list[list[int]]:
    """Cartan matrix of affine A_{rank-1}, a cycle on ``rank`` nodes (rank >= 3)."""
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        j = (i + 1) % rank
        m[i][j] = m[j][i] = -1
    return m


def complete(rank: int, c: int) -> list[list[int]]:
    """Every off-diagonal entry -c; for c >= 2 every bond has infinite order."""
    return [[2 if i == j else -c for j in range(rank)] for i in range(rank)]


def affine_e8() -> list[list[int]]:
    """Affine E8: the chain 1-2-...-8 with node 9 attached to node 6."""
    m = [[2 if i == j else 0 for j in range(9)] for i in range(9)]
    for i, j in [(k, k + 1) for k in range(7)] + [(5, 8)]:
        m[i][j] = m[j][i] = -1
    return m


def random_gcm(rng: random.Random, rank: int, p_edge: float, p_long: float):
    """A random GCM: each pair is joined with probability ``p_edge``; a joined
    pair gets a long bond (a_ij a_ji >= 4, infinite order) with probability
    ``p_long`` and a short one (product 1, 2 or 3) otherwise."""
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            if rng.random() >= p_edge:
                continue
            if rng.random() < p_long:
                a, b = rng.choice([(-2, -2), (-1, -4), (-2, -3), (-3, -3)])
            else:
                a, b = rng.choice([(-1, -1), (-1, -2), (-1, -3)])
            if rng.random() < 0.5:
                a, b = b, a
            m[i][j], m[j][i] = a, b
    return m


def permuted(rows, perm):
    """New index a carries old index perm[a]."""
    return [[rows[perm[a]][perm[b]] for b in range(len(perm))] for a in range(len(perm))]


# ---------------------------------------------------------------- workload lists


class Workload:
    """Collects inputs and commands for one workload and seed."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.inputs: dict[str, list[list[int]]] = {}
        self.texts: dict[str, str] = {}  # catalog files, written verbatim
        self.commands: list[dict] = []
        self._inverse: dict[str, list[int]] = {}

    def add_input(self, name: str, rows, permute: bool = True) -> str:
        perm = list(range(len(rows)))
        if permute:
            self.rng.shuffle(perm)
        inverse = [0] * len(perm)
        for new, old in enumerate(perm):
            inverse[old] = new
        self.inputs[name] = permuted(rows, perm)
        self._inverse[name] = inverse
        return name

    def ext(self, name: str, letters) -> str:
        """Map 1-based letters of the unpermuted matrix to the wire form."""
        inv = self._inverse[name]
        return ",".join(str(inv[k - 1] + 1) for k in letters)

    def add(self, name: str, args, family: str, kind: str, **params) -> None:
        self.commands.append(
            {
                "argv": [a.replace("{}", "{%s}" % name) for a in args],
                "family": family,
                "rank": len(self.inputs[name]),
                "check": (kind, dict(params, input=name, family=family)),
            }
        )

    def add_golden(self, golden: str, goldens: "Goldens") -> None:
        entry, template = goldens.cases[golden]
        rank = 0
        if entry is not None:
            self.texts[entry] = goldens.catalog[entry]
            self.inputs[entry] = json.loads(self.texts[entry])["matrix"]
            rank = len(self.inputs[entry])
        self.commands.append(
            {
                "argv": [a.replace("{}", "{%s}" % entry) for a in template],
                "family": "catalog",
                "rank": rank,
                "check": ("golden", {"golden": golden}),
            }
        )


def _coxeter_word(b: Workload, rank: int) -> list[int]:
    word = list(range(1, rank + 1))
    b.rng.shuffle(word)
    return word


# ---------------------------------------------------------------- workloads


def _structure(b: Workload, smoke: bool) -> None:
    # (family, rank) per command; A_n has rank n, affine A of rank r is a cycle
    classify = [("A", 4), ("At", 4)] if smoke else [
        ("A", 10), ("A", 12), ("A", 13), ("A", 14), ("At", 8), ("At", 11)]
    ends = [("A", 3), ("At", 4)] if smoke else [("A", 6), ("A", 9), ("At", 8), ("At", 9)]
    nerve = [("A", 4), ("At", 4)] if smoke else [("A", 8), ("At", 8)]
    indec = [("A", 4, 3), ("At", 4, 4)] if smoke else [("A", 8, 3), ("At", 9, 4)]
    random_ranks = (4,) if smoke else (7, 8)
    make = {"A": finite_a, "At": affine_a}
    for fam, r in dict.fromkeys(classify + ends + nerve + [(f, r) for f, r, _ in indec]):
        b.add_input(f"{fam}{r}", make[fam](r))
    for kind, items in (("classify", classify), ("ends", ends), ("nerve", nerve)):
        for fam, r in items:
            b.add(f"{fam}{r}", [kind, "{}"], fam, kind)
    for fam, r, q in indec:
        b.add(f"{fam}{r}", ["indec", "{}", "--q", str(q)], fam, "indec", q=q)
    for k, r in enumerate(random_ranks):
        name = b.add_input(f"R{k}", random_gcm(b.rng, r, 0.5, 0.3), permute=False)
        for kind in ("classify", "ends", "nerve"):
            b.add(name, [kind, "{}"], "random", kind)


def _parabolic(b: Workload, smoke: bool) -> None:
    # Below poset C2_10, four commands at rank 9 of near-equal cost hold the
    # tail percentile (3.3 commands from the top), and the median falls among
    # rank-8 commands; the random matrices are nearly complete with infinite
    # bonds, so their cost barely depends on the seed.
    posets = [("C2", 4)] if smoke else [("C2", 8), ("C2", 9), ("C2", 10)]
    dots = [("C3", 4)] if smoke else [("C3", 9)]
    reports = [("C2", 4, 2)] if smoke else [("C2", 9, 2), ("C3", 9, 5)]
    random_ranks = (4,) if smoke else (8, 8)
    for fam, n in dict.fromkeys(posets + dots + [(f, n) for f, n, _ in reports]):
        b.add_input(f"{fam}_{n}", complete(n, int(fam[1])))
    for fam, n in posets:
        b.add(f"{fam}_{n}", ["poset", "{}"], fam, "poset")
    for fam, n in dots:
        b.add(f"{fam}_{n}", ["poset", "{}", "--format", "dot"], fam, "poset_dot")
    for fam, n, q in reports:
        b.add(f"{fam}_{n}", ["report", "{}", "--q", str(q)], fam, "report", q=q)
    for k, r in enumerate(random_ranks):
        name = b.add_input(f"R{k}", random_gcm(b.rng, r, 0.9, 0.9), permute=False)
        b.add(name, ["poset", "{}"], "random", "poset")
        b.add(name, ["report", "{}", "--q", "2"], "random", "report", q=2)


def _words(b: Workload, smoke: bool) -> None:
    # The tail percentile sits 3.3 commands from the top of the list, in the
    # middle of the six rank-7 Coxeter elements, so that it measures the
    # element-order loop (7! products each).
    word_ranks = [3] if smoke else [5, 6, 7, 7, 7, 7, 7, 7]
    straight = [(3, 6)] if smoke else [(6, 20), (8, 12)]  # (rank, n)
    e8_heights = [30]  # a multiple of h = 30
    at_roots = (3, 2) if smoke else (6, 5)  # (rank r, k): height k * r, h = r
    a_rank = 3 if smoke else 8
    closure_depth = 2 if smoke else 3
    conj_pairs = [([1], [4])] if smoke else [([1], [8]), ([1, 2], [7, 8])]

    ranks = set(word_ranks) | {r for r, _ in straight} | {at_roots[0], 3, 4}
    for r in sorted(ranks):
        b.add_input(f"At{r}", affine_a(r))
    b.add_input("E8a", affine_e8())
    b.add_input(f"A{a_rank}", finite_a(a_rank))
    conj_rank = max(max(dst) for _, dst in conj_pairs)
    b.add_input("Aconj", finite_a(conj_rank))

    for r in word_ranks:
        word = b.ext(f"At{r}", _coxeter_word(b, r))
        b.add(f"At{r}", ["weyl", "word", "{}", "--word", word], "At", "weyl_word", word=word)
    for r, n in straight:
        word = b.ext(f"At{r}", _coxeter_word(b, r))
        b.add(f"At{r}", ["weyl", "straight", "{}", "--word", word, "--n", str(n)],
              "At", "weyl_straight", n=n)
    for h in e8_heights:
        b.add("E8a", ["roots", "{}", "--max-height", str(h)], "E8a", "roots", height=h)
    r, k = at_roots
    b.add(f"At{r}", ["roots", "{}", "--max-height", str(k * r)], "At", "roots", height=k * r)
    b.add(f"A{a_rank}", ["roots", "{}", "--max-height", str(a_rank)], "A", "roots",
          height=a_rank)
    word = b.ext("At4", [1, 2, 3, 2, 4])
    b.add("At4", ["closure", "{}", "--word", word, "--depth", str(closure_depth)],
          "At", "closure")
    for src, dst in conj_pairs:
        b.add("Aconj", ["conj", "{}", "--from", b.ext("Aconj", src), "--to", b.ext("Aconj", dst)],
              "A", "conj")
    b.add("At3", ["jregular", "{}", "--set", b.ext("At3", [1, 2, 3]), "--max-len", "4",
                  "--n", "6", "--max-height", "6", "--depth", "2"], "At", "jregular", n=6)


def _small(b: Workload, goldens: "Goldens") -> None:
    names = sorted(goldens.cases)
    b.rng.shuffle(names)
    for golden in names:
        b.add_golden(golden, goldens)


class Goldens:
    """The golden command table of ``tests/golden_cases.py`` and the catalog
    files it runs on, read from a checkout without importing ``kmgroups``."""

    def __init__(self, root: Path):
        table = runpy.run_path(str(root / "tests" / "golden_cases.py"))["CASES"]
        self.cases = {name: (entry, template) for name, entry, template in table}
        self.catalog = {
            p.stem: p.read_text(encoding="utf-8")
            for p in (root / "src" / "kmgroups" / "catalog").glob("*.json")
        }


def build(workload: str, seed: int, goldens: Goldens, smoke: bool = False,
          with_hangs: bool = False) -> Workload:
    """Inputs and command list of one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    b = Workload(workload, seed)
    if workload == "small":
        _small(b, goldens)
    else:
        {"structure": _structure, "parabolic": _parabolic, "words": _words}[workload](b, smoke)
        for golden in COVERAGE_TAIL:
            b.add_golden(golden, goldens)
    if with_hangs:  # the known hangs of README.md, each failing by the time limit
        e8 = b.add_input("hang_E8a", affine_e8())
        word = b.ext(e8, list(range(1, 10)))
        b.add(e8, ["weyl", "word", "{}", "--word", word], "E8a", "weyl_word", word=word)
        a14 = b.add_input("hang_A14", finite_a(14))
        b.add(a14, ["ends", "{}"], "A", "ends")
    return b


def digest(b: Workload) -> str:
    """sha256 of the command list and the generated matrices."""
    doc = {"commands": [[c["argv"], c["check"][0]] for c in b.commands], "inputs": b.inputs}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def write_inputs(b: Workload, directory: Path) -> dict[str, str]:
    """Write every input as a matrix file; return name -> absolute path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, rows in b.inputs.items():
        path = directory / f"{name}.json"
        text = b.texts.get(name) or json.dumps({"matrix": rows}) + "\n"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def resolve(argv, paths: dict[str, str]) -> list[str]:
    out = []
    for a in argv:
        for name, path in paths.items():
            a = a.replace("{" + name + "}", path)
        out.append(a)
    return out
