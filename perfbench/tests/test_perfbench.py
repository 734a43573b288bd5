"""Tests of the benchmark itself: smoke runs with tiny inputs, the answer
checker against corrupted outputs, and the contract of the result line."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import answers  # noqa: E402
import run as bench_run  # noqa: E402
import workload_defs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATING_COUNTS = (
    "intmat.det_calls",
    "weyl.mul_calls_per_order",
    "coxeter.nerve_simplices",
    "parabolics.essential_found",
    "roots.found",
)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_match_the_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workload_defs.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(bench_run.END_TO_END_UNITS)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == bench_run.END_TO_END_UNITS[m["name"]]
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert m["unit"] == bench_run.layer_unit(m["name"])


def test_smoke_end_to_end():
    out = result(bench("--workload", "small", "--seed", "3", "--seconds", "0.1", "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_smoke_traced_reports_every_layer_metric():
    out = result(bench("--workload", "words", "--seed", "3", "--seconds", "0.1",
                       "--smoke", "--trace", "1"))
    assert out["correct"] is True
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        if m["unit"] == "s" and m["name"] != "cli.import_s":
            assert out["metrics"][m["name"]]["value"] > 0, m["name"]


def test_counts_repeat_across_seeds_of_equal_shape():
    runs = [
        result(bench("--workload", "words", "--seed", seed, "--seconds", "0.1",
                     "--smoke", "--trace", "1"))["metrics"]
        for seed in ("5", "6")
    ]
    for name in REPEATING_COUNTS:
        assert runs[0][name]["value"] == runs[1][name]["value"] > 0, name


def test_known_hangs_count_as_failures():
    """Every other command of the list still passes its check."""
    b = workload_defs.build("structure", 1, bench_run.preflight(), smoke=True)
    out = result(bench("--workload", "structure", "--seed", "1", "--seconds", "0.1",
                       "--smoke", "--with-hangs", "--time-limit", "0.5"))
    assert out["correct"] is False
    assert out["failed"] == 2 and out["attempted"] == len(b.commands) + 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_same_seed_same_inputs():
    goldens = bench_run.preflight()
    for workload in workload_defs.WORKLOADS:
        a = workload_defs.build(workload, 7, goldens)
        b = workload_defs.build(workload, 7, goldens)
        c = workload_defs.build(workload, 8, goldens)
        assert workload_defs.digest(a) == workload_defs.digest(b)
        if workload != "small":
            assert workload_defs.digest(a) != workload_defs.digest(c)


# ---------------------------------------------------------------- checker


def _outputs(workload):
    """(command, stdout) for every command of a smoke workload, in-process."""
    from kmgroups import cli

    goldens = bench_run.preflight()
    b = workload_defs.build(workload, 11, goldens, smoke=True)
    tmp = ROOT / ".perfbench" / "test-inputs"
    paths = workload_defs.write_inputs(b, tmp)
    ctx = answers.Context(ROOT, b.inputs)
    out = []
    try:
        for cmd in b.commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(workload_defs.resolve(cmd["argv"], paths)) == 0
            out.append((cmd, buf.getvalue()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return ctx, out


def _mutate(kind, payload):
    """A deliberately wrong variant of a correct payload."""
    if kind == "classify":
        comp = payload["components"][0]
        comp["type"] = "finite" if comp["type"] != "finite" else "affine"
    elif kind == "ends":
        payload["one_ended"] = not payload["one_ended"]
    elif kind == "nerve":
        payload["simplices"].pop()
    elif kind == "indec":
        payload["by"] = "criterion_ii"
    elif kind == "poset":
        payload["hasse"].pop()
    elif kind == "report":
        payload["locally_normal"]["sandwiches"].pop()
    elif kind == "weyl_word":
        payload["matrix"][0][0] += 1
    elif kind == "weyl_straight":
        payload["power_lengths"][-1] -= 1
    elif kind == "roots":
        payload["roots"].pop()
        payload["count"] -= 1
    elif kind == "conj":
        payload["witness_word"] = payload["witness_word"][1:]
    elif kind == "closure":
        payload["conjugate_word"] = payload["conjugate_word"] + [payload["conjugate_word"][0]]
    elif kind == "jregular":
        payload["element_word"] = [payload["set"][0]]
    else:
        raise AssertionError(kind)


@pytest.mark.parametrize("workload", ["structure", "parabolic", "words"])
def test_checker_accepts_real_and_rejects_corrupted_outputs(workload):
    ctx, outputs = _outputs(workload)
    kinds = set()
    for cmd, stdout in outputs:
        kind, params = cmd["check"]
        assert answers.check(kind, params, stdout, ctx) is None, cmd["argv"]
        kinds.add(kind)
        if kind == "golden":
            bad = stdout + " "
        elif kind == "poset_dot":
            lines = stdout.splitlines()
            del lines[max(k for k, ln in enumerate(lines) if "->" in ln)]
            bad = "\n".join(lines) + "\n"
        else:
            doc = json.loads(stdout)
            _mutate(kind, doc["payload"])
            bad = json.dumps(doc)
        assert answers.check(kind, params, bad, ctx) is not None, cmd["argv"]
        assert answers.check(kind, params, stdout[: len(stdout) // 2], ctx) is not None
    assert "golden" in kinds and len(kinds) >= 4
