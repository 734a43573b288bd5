#!/usr/bin/env python3
"""Benchmark of the `km` command line tool, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload structure --seed 1 --seconds 20 --trace 0

``--trace 0`` runs each command of the workload as its own subprocess
(``python -m kmgroups.cli`` with ``src`` on PYTHONPATH), one at a time: a
closed loop with one client.  It repeats the whole command list in passes
until ``--seconds`` have gone by and reports the end-to-end metrics.
``--trace 1`` runs the same list in-process through ``kmgroups.cli.main``,
alternating untraced passes with passes traced by ``layer_trace``, and
reports the per-layer metrics.  Every output is checked by ``answers``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it, and
``.perfbench/<workload>-seed<seed>-trace<t>.json``, hold the full report:
run metadata, every metric with its unit and sample count, and failures.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import answers  # noqa: E402
import workload_defs  # noqa: E402

START = time.perf_counter()
MIN_PASSES = 3  # also fixes the tail percentile: see tail_percentile
SETUP_REPEATS = 5
TIME_LIMIT = 20.0  # seconds per command
HARD_STOP = 150.0  # start no pass that could end after this many seconds
TAIL_BEYOND = 10
# The unit of the *_refs metrics: a fresh interpreter that runs a fixed
# pure-Python loop, about as much start-up and arithmetic as a small command.
REFERENCE = ["-c", "s = 0\nfor i in range(100000):\n    s += i * i"]

# Gated in BENCHMARK.json.  The *_refs metrics are the *_s ones in units of
# a reference run measured in the same pass (see REFERENCE and README.md).
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_refs": "refs",
    "cpu_refs": "refs",
    "cmd_p50_refs": "refs",
    "cmd_tail_refs": "refs",
    "peak_rss_mib": "MiB",
}
REPORT_ONLY_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "cmd_tail_pct": "%",
    "ref_run_s": "s",
    "failed_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("_per_classify") or name.endswith("_per_order"):
        return "count/call"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class CommandTimeout(BaseException):
    """Raised in-process when a command runs past its time limit.  A
    BaseException, so the CLI's ``except Exception`` boundary lets it out."""


# ---------------------------------------------------------------- set-up


def preflight() -> workload_defs.Goldens:
    """The golden table, or exit 2 if this is not a kmgroups checkout."""
    needed = [SRC / "kmgroups" / "cli.py", ROOT / "tests" / "golden_cases.py",
              ROOT / "tests" / "oracles.py", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a kmgroups checkout, missing: {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    return workload_defs.Goldens(ROOT)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def set_up(args, goldens, workdir: Path):
    """Generate the inputs, write the matrix files, import the CLI once."""
    b = workload_defs.build(args.workload, args.seed, goldens, args.smoke, args.with_hangs)
    paths = workload_defs.write_inputs(b, workdir / "inputs")
    subprocess.run([sys.executable, "-c", "import kmgroups.cli"], env=child_env(),
                   check=True, stdin=subprocess.DEVNULL)
    return b, paths


# ---------------------------------------------------------------- subprocesses


def spawn(argv, out_path: Path, err_path: Path, env, limit: float) -> dict:
    """Run one command to completion; latency from spawn to reap, rusage of
    the child alone (os.wait4), SIGKILL past ``limit`` seconds."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([fd], [], [], limit)[0]
        if timed_out:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(fd)
    latency = time.perf_counter() - t0
    return {
        "latency": latency,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kib": usage.ru_maxrss,
        "rc": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }


def import_probe(env, pairs: int = 5) -> float:
    """Fresh-interpreter ``import kmgroups.cli`` minus bare interpreter start."""
    bare, full = [], []
    for _ in range(pairs):
        for code, sink in (("pass", bare), ("import kmgroups.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           stdin=subprocess.DEVNULL)
            sink.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


# ---------------------------------------------------------------- runs


class Outcomes:
    """Attempts, failures and the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, cmd, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{' '.join(cmd['argv'])}: {reason}")


def tail_percentile(n: int) -> float:
    """The highest percentile with at least TAIL_BEYOND of ``n`` samples
    beyond it (100 when there are too few samples)."""
    return 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 100.0


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _keep_going(passes: int, min_passes: int, seconds: float, t0: float, last: float) -> bool:
    """Start another pass if the minimum is not reached yet, or if one more
    pass as long as the last still ends within ``seconds``."""
    now = time.perf_counter()
    if passes and now - START + last > HARD_STOP:
        return False
    return passes < min_passes or now - t0 + last <= seconds


def end_to_end(args, b, paths, ctx, outcomes, workdir: Path, diagnostics: dict) -> dict:
    """Passes over the command list, each command followed by one reference
    run.  The ``*_refs`` metrics divide by the median reference of the same
    pass, which cancels most of the machine's speed drift."""
    env = child_env()
    argvs = [["-m", "kmgroups.cli", *workload_defs.resolve(c["argv"], paths)] for c in b.commands]
    outdir = workdir / "out"
    outdir.mkdir(exist_ok=True)
    min_passes = 1 if args.smoke else MIN_PASSES
    passes, rss, elapsed = [], 0, 0.0
    t0 = time.perf_counter()
    while _keep_going(len(passes), min_passes, args.seconds, t0, elapsed):
        results, refs = [], []
        p0 = time.perf_counter()
        for k, argv in enumerate(argvs):
            results.append(spawn(argv, outdir / f"{k}.out", outdir / f"{k}.err", env, args.time_limit))
            refs.append(spawn(REFERENCE, outdir / "ref.out", outdir / "ref.err", env, args.time_limit))
            if refs[-1]["rc"] != 0:
                raise RuntimeError(f"reference run failed: exit {refs[-1]['rc']}")
        elapsed = time.perf_counter() - p0
        passes.append({
            "latency": [r["latency"] for r in results],
            "cpu": sum(r["cpu"] for r in results),
            "ref_latency": statistics.median(r["latency"] for r in refs),
            "ref_cpu": statistics.median(r["cpu"] for r in refs),
        })
        for k, (cmd, r) in enumerate(zip(b.commands, results)):
            rss = max(rss, r["rss_kib"])
            if r["timed_out"]:
                reason = f"timed out after {args.time_limit} s"
            elif r["rc"] != 0:
                err = (outdir / f"{k}.err").read_text(errors="replace").strip().splitlines()
                reason = f"exit {r['rc']}: {err[-1] if err else ''}"
            else:
                stdout = (outdir / f"{k}.out").read_text(encoding="utf-8")
                reason = answers.check(*cmd["check"], stdout, ctx)
            outcomes.record(cmd, reason)
    lat = [x for p in passes for x in p["latency"]]
    lat_refs = [x / p["ref_latency"] for p in passes for x in p["latency"]]
    pct = tail_percentile(len(argvs) * min_passes)
    n, n_lat = len(passes), len(lat)
    diagnostics["passes"] = [
        {"wall_s": sum(p["latency"]), "cpu_s": p["cpu"], "ref_run_s": p["ref_latency"]}
        for p in passes
    ]
    diagnostics["command_latency_s"] = [
        {"argv": c["argv"], "family": c["family"], "rank": c["rank"], "per_pass": list(x)}
        for c, x in zip(b.commands, zip(*(p["latency"] for p in passes)))
    ]
    return {
        "wall_s": (statistics.median(sum(p["latency"]) for p in passes), n),
        "wall_refs": (statistics.median(sum(p["latency"]) / p["ref_latency"] for p in passes), n),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), n),
        "cpu_refs": (statistics.median(p["cpu"] / p["ref_cpu"] for p in passes), n),
        "cmd_p50_s": (statistics.median(lat), n_lat),
        "cmd_p50_refs": (statistics.median(lat_refs), n_lat),
        "cmd_tail_s": (percentile(lat, pct), n_lat),
        "cmd_tail_refs": (percentile(lat_refs, pct), n_lat),
        "cmd_tail_pct": (pct, n_lat),
        "ref_run_s": (statistics.median(p["ref_latency"] for p in passes), n),
        "peak_rss_mib": (rss / 1024.0, n_lat),
        "failed_frac": (outcomes.failed / outcomes.attempted, outcomes.attempted),
    }


@contextlib.contextmanager
def _time_limit(seconds: float):
    def expire(signum, frame):
        raise CommandTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def traced(args, b, paths, ctx, outcomes) -> tuple[dict, object]:
    import layer_trace

    env = child_env()
    import_s = import_probe(env, 1 if args.smoke else 5)
    sys.path.insert(0, str(SRC))
    import kmgroups.cli as cli

    tracer = layer_trace.Tracer()
    argvs = [workload_defs.resolve(c["argv"], paths) for c in b.commands]

    def one_pass(trace: bool) -> tuple[float, dict | None]:
        if trace:
            tracer.reset()
            tracer.install()
        p0 = time.perf_counter()
        outputs = []
        try:
            for cmd, argv in zip(b.commands, argvs):
                out = layer_trace.CapturedStdout(tracer if trace else None)
                err = layer_trace.CapturedStdout(None)
                rc = None
                try:
                    with _time_limit(args.time_limit), contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        if trace:
                            tags = {"family": cmd["family"], "rank": cmd["rank"], "argv": cmd["argv"]}
                            rc = tracer.command(tags, lambda: tracer.main(argv))
                        else:
                            rc = cli.main(argv)
                except CommandTimeout:
                    pass
                outputs.append((cmd, rc, out.getvalue(), err.getvalue()))
            wall = time.perf_counter() - p0
        finally:
            if trace:
                tracer.uninstall()
        for cmd, rc, stdout, stderr in outputs:
            if rc is None:
                reason = f"timed out after {args.time_limit} s"
            elif rc != 0:
                reason = f"exit {rc}: {stderr.strip()[-200:]}"
            else:
                reason = answers.check(*cmd["check"], stdout, ctx)
            outcomes.record(cmd, reason)
        return wall, layer_trace.layer_metrics(tracer) if trace else None

    min_each = 1 if args.smoke else 2
    plain, traced_walls, layers = [], [], []
    t0 = time.perf_counter()
    while _keep_going(min(len(plain), len(traced_walls)), min_each, args.seconds, t0,
                      (plain[-1] + traced_walls[-1]) if traced_walls else 0.0):
        plain.append(one_pass(False)[0])
        wall, metrics = one_pass(True)
        traced_walls.append(wall)
        layers.append(metrics)
    out = {"cli.import_s": (import_s, 2 * (1 if args.smoke else 5))}
    repeat = True
    for name in layers[0]:
        values = [m[name] for m in layers]
        if layer_unit(name) in ("s", "us"):
            out[name] = (statistics.median(values), len(values))
        else:  # work counts, identical in every traced pass
            repeat = repeat and len(set(values)) == 1
            out[name] = (values[0], len(values))
    # each traced pass against the untraced pass just before it, so that
    # the machine's drift cancels
    out["trace.overhead_frac"] = (
        statistics.median(t / u for u, t in zip(plain, traced_walls)) - 1.0,
        len(traced_walls),
    )
    return out, {"counts_repeat_across_passes": repeat, "untraced_wall_s": plain,
                 "traced_wall_s": traced_walls, "tracer": tracer}


# ---------------------------------------------------------------- report


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_defs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    parser.add_argument("--with-hangs", action="store_true",
                        help="append the known hangs; each fails by the time limit")
    parser.add_argument("--time-limit", type=float, default=TIME_LIMIT,
                        help="per-command time limit in seconds")
    args = parser.parse_args(argv)
    goldens = preflight()

    load = os.getloadavg()
    workdir = OUT / f"work-{os.getpid()}"
    outcomes = Outcomes()
    try:
        if args.trace:
            b, paths = set_up(args, goldens, workdir)
            ctx = answers.Context(ROOT, b.inputs)
            metrics, extra = traced(args, b, paths, ctx, outcomes)
            setup_times = []
        else:
            setup_times = []
            for _ in range(1 if args.smoke else SETUP_REPEATS):
                t0 = time.perf_counter()
                b, paths = set_up(args, goldens, workdir)
                setup_times.append(time.perf_counter() - t0)
            ctx = answers.Context(ROOT, b.inputs)
            metrics = {"setup_s": (statistics.median(setup_times), len(setup_times))}
            extra = {}
            metrics.update(end_to_end(args, b, paths, ctx, outcomes, workdir, extra))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = extra.pop("tracer", None)
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{tag}.json")
    units = {name: layer_unit(name) for name in metrics} if args.trace else \
        dict(END_TO_END_UNITS, **REPORT_ONLY_UNITS)
    report = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "with_hangs": args.with_hangs,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg_at_start": list(load),
            "commit": commit_id(),
            "commands": len(b.commands),
            "command_list_sha256": {
                w: workload_defs.digest(
                    workload_defs.build(w, args.seed, goldens, args.smoke, args.with_hangs))
                for w in workload_defs.WORKLOADS
            },
            "time_limit_s": args.time_limit,
            "setup_repeats_s": setup_times,
            "loop": "closed, 1 client" if not args.trace else "in-process",
        },
        "metrics": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()},
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "failures": outcomes.reasons,
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    for key, value in report["meta"].items():
        print(f"# {key}: {value}")
    for name, m in report["metrics"].items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']:10s} n={m['samples']}")
    for reason in outcomes.reasons:
        print(f"FAILED {reason}")
    wanted = [n for n in metrics if n in END_TO_END_UNITS] if not args.trace else list(metrics)
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": units[k]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
