"""In-process tracing of the kmgroups layers, from outside the package.

``Tracer.install()`` wraps public functions and methods of each module and
rebinds every wrapper wherever the original is bound (``from .gcm import
classify`` copies the binding into ``analysis`` and ``cli``); ``uninstall()``
puts the originals back.  Nothing under ``src/`` changes.

Each wrapped call is a frame on a stack.  Its self time is its duration
minus the time its wrapped callees cover.  Calls of the hot leaf functions
(determinants, matrix products, sphericity tests, subset decompositions,
reduced words, moves) are only counted and timed; every other call is also
kept as a span (id, parent, name, start, end), and each command gets one
root span tagged with its family and rank.
"""

from __future__ import annotations

import json
import sys
import time
from functools import cached_property

# name -> (module, attribute path, hot leaf?)
HOOKS = {
    "cli.read": ("kmgroups.cli", "parse_gcm_text", False),
    "gcm.classify": ("kmgroups.gcm", "classify", False),
    "intmat.det": ("kmgroups._intmat", "det", True),
    "intmat.mat_mul": ("kmgroups._intmat", "mat_mul", True),
    # the nerve is built lazily by this cached property, on the first of
    # nerve(), the strong-connectivity tests or max_spherical_order
    "coxeter.nerve": ("kmgroups.coxeter", "CoxeterDiagram._spherical_subsets", False),
    "coxeter.graph_sc": ("kmgroups.coxeter", "graph_strong_connectivity", False),
    "coxeter.nerve_sc": ("kmgroups.coxeter", "nerve_strong_connectivity", False),
    "coxeter.decompose": ("kmgroups.coxeter", "CoxeterDiagram.decompose", True),
    "coxeter.is_spherical": ("kmgroups.coxeter", "CoxeterDiagram.is_spherical", True),
    "weyl.order": ("kmgroups.weyl", "WeylElement.order", False),
    "weyl.word": ("kmgroups.weyl", "WeylElement.reduced_word", True),
    "weyl.ball": ("kmgroups.weyl", "WeylGroup.ball", False),
    "weyl.straight": ("kmgroups.weyl", "WeylElement.is_straight", False),
    "roots.enumerate": ("kmgroups.roots", "positive_real_roots", False),
    "roots.periodic": ("kmgroups.roots", "periodic_roots", False),
    "parabolics.essential": ("kmgroups.parabolics", "essential_subsets", False),
    "parabolics.poset_build": ("kmgroups.parabolics", "EssentialPoset.build", False),
    "parabolics.conjugacy": ("kmgroups.parabolics", "standard_conjugacy", False),
    "parabolics.move": ("kmgroups.parabolics", "deodhar_move", True),
    "parabolics.closure": ("kmgroups.parabolics", "parabolic_closure_search", False),
    "parabolics.jregular": ("kmgroups.parabolics", "find_j_regular", False),
    "analysis.ends": ("kmgroups.analysis", "ends_verdict", False),
    "analysis.indec": ("kmgroups.analysis", "indecomposability_verdict", False),
    "analysis.open_report": ("kmgroups.analysis", "open_subgroup_report", False),
    "analysis.locally_normal": ("kmgroups.analysis", "locally_normal_report", False),
    "analysis.prime_power": ("kmgroups.analysis", "prime_power", False),
}

# Work counted from a call's arguments and result: name -> fn(args, result)
# returning {counter: amount}.
ITEMS = {
    "coxeter.nerve": lambda args, res: {"simplices": len(res)},
    "weyl.ball": lambda args, res: {"elements": len(res)},
    "roots.enumerate": lambda args, res: {"found": len(res)},
    "parabolics.essential": lambda args, res: {"found": len(res), "tried": 1 << args[0].rank},
    "parabolics.poset_build": lambda args, res: {"elements": len(res.elements), "hasse": len(res.hasse)},
    "analysis.locally_normal": lambda args, res: {"sandwiches": len(res.sandwiches)},
}

# Leaf calls counted inside the spans of another name: (outer, leaf).
INSIDE = (("gcm.classify", "intmat.det"), ("weyl.order", "intmat.mat_mul"))


class _Agg:
    __slots__ = ("calls", "self_time", "items")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0
        self.items: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []  # [name, start, child_time, span_id, inside counts]
        self._undo: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.aggs = {name: _Agg() for name in list(HOOKS) + ["cli.main", "cli.emit"]}
        self.out_bytes = 0

    # ------------------------------------------------------------ frames

    def _enter(self, name: str, hot: bool, tags=None) -> list:
        span_id = None
        if not hot:
            span_id = len(self.spans)
            self.spans.append([span_id, self.stack[-1][3] if self.stack else None, name, 0.0, 0.0, tags])
        inside = tuple(self.aggs[leaf].calls for _, leaf in INSIDE)
        frame = [name, 0.0, 0.0, span_id, inside]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, span_id, inside = frame
        self.stack.pop()
        dur = end - start
        agg = self.aggs.setdefault(name, _Agg())
        agg.calls += 1
        agg.self_time += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if span_id is not None:
            self.spans[span_id][3:5] = [start, end]
        for (outer, leaf), before in zip(INSIDE, inside):
            if outer == name:
                key = leaf + "_inside"
                agg.items[key] = agg.items.get(key, 0) + self.aggs[leaf].calls - before

    def wrap(self, name: str, fn, hot: bool):
        items = ITEMS.get(name)
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if items is not None:
                agg = self.aggs[name]
                for key, amount in items(args, result).items():
                    agg.items[key] = agg.items.get(key, 0) + amount
            return result

        traced.__wrapped__ = fn
        return traced

    def command(self, tags: dict, run):
        """Run ``run()`` under one root span and return its result."""
        frame = self._enter("command", False, tags)
        try:
            return run()
        finally:
            self._exit(frame)

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every hook and rebind it in every loaded kmgroups module."""
        import kmgroups.cli  # noqa: F401 - loads every layer

        modules = [m for k, m in list(sys.modules.items()) if k == "kmgroups" or k.startswith("kmgroups.")]
        for name, (mod_name, path, hot) in HOOKS.items():
            owner = sys.modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, cached_property):
                new = cached_property(self.wrap(name, raw.func, hot))
                new.__set_name__(owner, attr)
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, hot))
            else:
                new = self.wrap(name, raw, hot)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            if not cls_path:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw and mod is not owner:
                            self._undo.append((mod, key, raw))
                            setattr(mod, key, new)
        cli = sys.modules["kmgroups.cli"]
        self._undo.append((cli, "json", cli.json))
        cli.json = _TimedJson(self)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def main(self, argv):
        """``kmgroups.cli.main(argv)`` under a ``cli.main`` span."""
        cli = sys.modules["kmgroups.cli"]
        frame = self._enter("cli.main", False)
        try:
            return cli.main(argv)
        finally:
            self._exit(frame)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "parent", "name", "start", "end", "tags"], "spans": self.spans},
                fh,
            )


class _TimedJson:
    """Stands in for ``json`` inside ``kmgroups.cli``: serialisation is timed
    as ``cli.emit``, everything else is passed through."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self.dumps = tracer.wrap("cli.emit", json.dumps, False)

    def __getattr__(self, key):
        return getattr(json, key)


class CapturedStdout:
    """A text sink for one command's stdout; writes count as ``cli.emit``."""

    def __init__(self, tracer: Tracer | None):
        self.parts: list[str] = []
        self._tracer = tracer

    def write(self, text: str) -> int:
        if self._tracer is None:
            self.parts.append(text)
            return len(text)
        frame = self._tracer._enter("cli.emit", False)
        try:
            self.parts.append(text)
            self._tracer.out_bytes += len(text.encode("utf-8"))
        finally:
            self._tracer._exit(frame)
        return len(text)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self.parts)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (times in seconds, self time)."""
    a = tracer.aggs

    def s(name):
        return a[name].self_time

    def n(name):
        return a[name].calls

    def item(name, key):
        return a[name].items.get(key, 0)

    def ratio(x, y):
        return x / y if y else 0.0

    simplices = item("coxeter.nerve", "simplices")
    found = item("roots.enumerate", "found")
    elements = item("parabolics.poset_build", "elements")
    return {
        "cli.read_s": s("cli.read"),
        "cli.emit_s": s("cli.emit"),
        "cli.out_bytes": tracer.out_bytes,
        "cli.handler_self_s": s("cli.main"),
        "gcm.classify_s": s("gcm.classify"),
        "gcm.classify_calls": n("gcm.classify"),
        "gcm.minors_per_classify": ratio(item("gcm.classify", "intmat.det_inside"), n("gcm.classify")),
        "intmat.det_calls": n("intmat.det"),
        "intmat.det_s": s("intmat.det"),
        "intmat.mat_mul_calls": n("intmat.mat_mul"),
        "intmat.mat_mul_s": s("intmat.mat_mul"),
        "coxeter.nerve_s": s("coxeter.nerve"),
        "coxeter.nerve_simplices": simplices,
        "coxeter.nerve_us_per_simplex": ratio(1e6 * s("coxeter.nerve"), simplices),
        "coxeter.graph_sc_s": s("coxeter.graph_sc"),
        "coxeter.nerve_sc_s": s("coxeter.nerve_sc"),
        "coxeter.decompose_calls": n("coxeter.decompose"),
        "coxeter.decompose_s": s("coxeter.decompose"),
        "coxeter.is_spherical_calls": n("coxeter.is_spherical"),
        "weyl.order_s": s("weyl.order"),
        "weyl.order_calls": n("weyl.order"),
        "weyl.mul_calls_per_order": ratio(item("weyl.order", "intmat.mat_mul_inside"), n("weyl.order")),
        "weyl.word_s": s("weyl.word"),
        "weyl.word_calls": n("weyl.word"),
        "weyl.ball_s": s("weyl.ball"),
        "weyl.ball_elements": item("weyl.ball", "elements"),
        "weyl.straight_s": s("weyl.straight"),
        "roots.enumerate_s": s("roots.enumerate"),
        "roots.found": found,
        "roots.us_per_root": ratio(1e6 * s("roots.enumerate"), found),
        "roots.periodic_s": s("roots.periodic"),
        "parabolics.essential_subsets_s": s("parabolics.essential"),
        "parabolics.essential_found": item("parabolics.essential", "found"),
        "parabolics.essential_hit_ratio": ratio(
            item("parabolics.essential", "found"), item("parabolics.essential", "tried")
        ),
        "parabolics.poset_build_s": s("parabolics.poset_build"),
        "parabolics.hasse_edges": item("parabolics.poset_build", "hasse"),
        "parabolics.poset_us_per_element": ratio(1e6 * s("parabolics.poset_build"), elements),
        "parabolics.conjugacy_s": s("parabolics.conjugacy"),
        "parabolics.moves_tried": n("parabolics.move"),
        "parabolics.closure_s": s("parabolics.closure"),
        "parabolics.jregular_s": s("parabolics.jregular"),
        "analysis.ends_s": s("analysis.ends"),
        "analysis.indec_s": s("analysis.indec"),
        "analysis.open_report_s": s("analysis.open_report"),
        "analysis.locally_normal_s": s("analysis.locally_normal"),
        "analysis.sandwiches": item("analysis.locally_normal", "sandwiches"),
        "analysis.prime_power_s": s("analysis.prime_power"),
    }
