"""One seeded sweep of every command over random matrices.

Each command but ``catalog`` runs in-process on seeded ``oracles.random_gcm``
matrices of rank 1-6, with random sets, words, bounds and budgets.  Exit
codes stay honest: 0, 2 (bad input) or 3 (budget) only, never 1.  Every
JSON answer passes the envelope schema, and the benchmark's answer checker
(``perfbench/answers.py``, which has its own minor tables and oracles)
rechecks the answers it has a rule for.  Every refusal is one stderr line.
"""

import contextlib
import importlib.util
import io
import json
import random
from collections import Counter
from importlib import resources
from pathlib import Path

import jsonschema

import oracles
from kmgroups import cli

ROOT = Path(__file__).resolve().parents[1]
Q_VALUES = (0, 1, 2, 3, 4, 6, 8, 9, 10, 12, 27, 1000000007)


def load_answers():
    spec = importlib.util.spec_from_file_location(
        "sweep_answers", ROOT / "perfbench" / "answers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def letters(rng, n, low, high):
    """1-based comma-separated indices; now and then one past the rank."""
    picked = [rng.randint(1, n) for _ in range(rng.randint(low, high))]
    if rng.random() < 0.05:
        picked.append(n + 1)
    return ",".join(map(str, picked))


def subset(rng, n, low=0):
    """1-based sorted distinct indices, maybe empty when ``low`` is 0."""
    return ",".join(map(str, sorted(rng.sample(range(1, n + 1), rng.randint(low, n)))))


def budget(rng):
    return ["--budget", str(rng.choice([0, 1, 5, 20, 100, 10**6]))]


def commands(rng, path, n):
    """(argv, checker kind or None, checker parameters) of each command."""
    q = rng.choice(Q_VALUES)
    word = letters(rng, n, 1, 8)
    power = rng.randint(2, 4)
    fmt = rng.choice(["json", "dot"])
    return [
        (["validate", path], None, {}),
        (["classify", path], "classify", {}),
        (["coxeter", path], None, {}),
        (["decompose", path, "--set", subset(rng, n)], None, {}),
        (["poset", path, "--format", fmt], "poset" if fmt == "json" else "poset_dot", {}),
        (["nerve", path, "--format", rng.choice(["json", "dot"])], "nerve", {}),
        (["ends", path], "ends", {}),
        (["indec", path, "--q", str(q)], None, {}),
        (["report", path, "--q", str(q)], "report", {"q": q}),
        (["weyl", "word", path, "--word", word], None, {}),
        (["weyl", "straight", path, "--word", word, "--n", str(power)], None, {}),
        (["roots", path, "--max-height", str(rng.randint(0, 5)),
          *(["--set", subset(rng, n, 1)] if rng.random() < 0.5 else []), *budget(rng)],
         None, {}),
        (["conj", path, "--from", subset(rng, n, 1), "--to", subset(rng, n, 1)], "conj", {}),
        (["closure", path, "--word", word, "--depth", str(rng.randint(0, 3)), *budget(rng)],
         "closure", {}),
        (["jregular", path, "--set", rng.choice([subset(rng, n), subset(rng, n, n)]),
          "--max-len", str(rng.randint(0, 4)),
          "--n", str(power), "--max-height", str(rng.randint(0, 4)),
          "--depth", str(rng.randint(0, 2)), *budget(rng)],
         "jregular", {"n": power}),
    ]


def test_every_command_over_seeded_random_matrices(tmp_path):
    schema = json.loads(
        resources.files("kmgroups").joinpath("schemas/envelope.schema.json")
        .read_text("utf-8")
    )
    validator = jsonschema.Draft7Validator(schema)
    answers = load_answers()
    rng = random.Random(20261019)
    inputs, runs = {}, []
    for case in range(100):
        n = rng.randint(1, 6)
        rows = oracles.random_gcm(rng, n, density=rng.choice([0.3, 0.6]),
                                  deepest=rng.choice([1, 2, 3]))
        path = tmp_path / f"m{case}.json"
        path.write_text(json.dumps({"matrix": rows}))
        inputs[f"m{case}"] = rows
        runs += [(f"m{case}", *c) for c in commands(rng, str(path), n)]
    ctx = answers.Context(ROOT, inputs)
    exits, checked = Counter(), Counter()
    for key, argv, kind, params in runs:
        code, out, err = run(argv)
        exits[code] += 1
        assert code in (0, 2, 3), (argv, code, err)
        if code:
            assert out == "" and err.startswith("error: "), (argv, err)
            assert err.count("\n") == 1, (argv, err)
            continue
        assert err == "", (argv, err)
        if out.startswith("{"):
            doc = json.loads(out)
            assert not list(validator.iter_errors(doc)), argv
            payload = doc["payload"]
            if kind == "conj" and not payload["conjugate"]:
                kind = None
            if kind == "jregular" and not payload["found"]:
                kind = None
        elif kind != "poset_dot":
            kind = None
        if kind:
            reason = answers.check(kind, {"input": key, "family": "random", **params}, out, ctx)
            assert reason is None, (argv, reason)
            checked[kind] += 1
    assert set(exits) == {0, 2, 3}, exits
    assert set(checked) == {"classify", "poset", "poset_dot", "nerve", "ends", "report",
                            "conj", "closure", "jregular"}, checked
