"""Layer tracing for the traced benchmark run, installed from outside dmfv.

Wrappers replace public module attributes for the duration of the traced
phase only.  Calls that happen once or a few times per program (parse,
path expansion, per-path verification, reconstruction, conformance,
formatting) each open a span; per-tick and per-instruction calls (step, the
check_* rules, mixer expiry, the pin phase) are aggregated into their
parent span, and the hottest ones (``ChipState.copy``, ``pins.check_pair``)
are only counted.  Spans stay in memory and are written when the run ends.
A layer's self time is its duration minus the time its traced children
cover, so the self times of one program add up to its root span.
"""

from __future__ import annotations

import gc
import json
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name, how): "span" opens a span, "agg" is timed and
# aggregated into the parent span, "count" is only counted.
TARGETS = [
    ("cli", "parse_program", "isa.parse", "span"),
    ("pins", "parse_pins", "pins.parse", "span"),
    ("graph", "parse_input_sg", "graph.sg_parse", "span"),
    ("branches", "verify_all_paths", "branches.verify_all_paths", "span"),
    ("branches", "enumerate_paths", "branches.expand", "span"),
    ("fluidics", "verify_program", "fluidics.verify", "span"),
    ("graph", "reconstruct", "graph.reconstruct", "span"),
    ("graph", "conformance", "graph.conformance", "span"),
    ("cli", "format_report", "diag.format", "span"),
    ("fluidics", "step", "fluidics.step", "agg"),
    ("fluidics", "check_*", "fluidics.check", "agg"),
    ("chip", "expire_mixers", "chip.expire", "agg"),
    ("pins", "pin_phase", "pins.phase", "agg"),
    ("chip", "ChipState.copy", "chip.copy", "count"),
    ("pins", "check_pair", "pins.pair_check", "count"),
]

# module whose self time each span name is charged to
LAYER = {"cli.main": "cli", "isa.parse": "isa", "pins.parse": "pins",
         "graph.sg_parse": "graph", "branches.verify_all_paths": "branches",
         "branches.expand": "branches", "fluidics.verify": "fluidics",
         "graph.reconstruct": "graph", "graph.conformance": "graph",
         "diag.format": "diag", "fluidics.step": "fluidics",
         "fluidics.check": "fluidics", "chip.expire": "chip", "pins.phase": "pins"}
LAYERS = ("cli", "isa", "fluidics", "chip", "pins", "branches", "graph", "diag")


def _lines(program) -> int:
    return len(program.main) + sum(len(b) for b in program.recoveries.values())


# work counts read off a span's result or arguments
OBSERVE = {
    "isa.parse": lambda res, args: ("isa.lines", _lines(res)),
    "branches.expand": lambda res, args: ("branches.paths", len(res)),
    "graph.reconstruct": lambda res, args: ("graph.nodes", len(res.nodes)),
    "graph.sg_parse": lambda res, args: ("graph.nodes", len(res.nodes)),
    "diag.format": lambda res, args: ("diag.rows", len(args[0].violations)),
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.totals = defaultdict(lambda: [0, 0, 0])   # name -> calls, total ns, self ns
        self.counts = defaultdict(int)
        self.spans: list[dict] = []
        self.open: list[dict] = []
        self.children = [0]           # child ns of each open timed frame
        self.program = None
        self.absent: list[str] = []
        self.gc_ns = self.gc_runs = 0
        self._gc_t0 = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers --

    def _span(self, name, fn):
        def wrapper(*args, **kw):
            parent = self.open[-1]["id"] if self.open else None
            rec = {"program": self.program, "id": len(self.spans), "parent": parent,
                   "name": name, "agg": {}}
            self.spans.append(rec)
            self.open.append(rec)
            self.children.append(0)
            t0 = perf_counter_ns()
            try:
                res = fn(*args, **kw)
            finally:
                t1 = perf_counter_ns()
                child = self.children.pop()
                self.children[-1] += t1 - t0
                self.open.pop()
                rec["start"], rec["end"], rec["self"] = t0, t1, t1 - t0 - child
                tot = self.totals[name]
                tot[0] += 1
                tot[1] += t1 - t0
                tot[2] += t1 - t0 - child
            if name in OBSERVE:
                key, n = OBSERVE[name](res, args)
                self.counts[key] += n
            return res
        return wrapper

    def _agg(self, name, fn):
        def wrapper(*args, **kw):
            self.children.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kw)
            finally:
                dt = perf_counter_ns() - t0
                child = self.children.pop()
                self.children[-1] += dt
                tot = self.totals[name]
                tot[0] += 1
                tot[1] += dt
                tot[2] += dt - child
                agg = self.open[-1]["agg"].setdefault(name, [0, 0, 0])
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child
        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kw):
            self.counts[name] += 1
            agg = self.open[-1]["agg"]
            agg[name] = agg.get(name, 0) + 1
            return fn(*args, **kw)
        return wrapper

    def root(self, program_id, fn, *args):
        """Run one verdict as the root span ``cli.main`` of program ``program_id``."""
        self.program = program_id
        return self._span("cli.main", fn)(*args)

    # -- install / remove --

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_t0 = perf_counter_ns()
        else:
            self.gc_ns += perf_counter_ns() - self._gc_t0
            self.gc_runs += 1

    def install(self) -> None:
        make = {"span": self._span, "agg": self._agg, "count": self._count}
        self.absent = []
        for mod_name, attr, name, how in TARGETS:
            owner = self.modules[mod_name]
            if attr.endswith("*"):
                attrs = [a for a in vars(owner) if a.startswith(attr[:-1])
                         and callable(getattr(owner, a))]
            elif "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name, None)
                attrs = [attr]
            else:
                attrs = [attr]
            attrs = [a for a in attrs if owner is not None and callable(getattr(owner, a, None))]
            if not attrs:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            for a in attrs:
                fn = getattr(owner, a)
                self._saved.append((owner, a, fn))
                setattr(owner, a, make[how](name, fn))
        gc.callbacks.append(self._gc)

    def remove(self) -> None:
        gc.callbacks.remove(self._gc)
        for owner, a, fn in reversed(self._saved):
            setattr(owner, a, fn)
        self._saved.clear()

    # -- results --

    def self_ms_by_layer(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_ns) in self.totals.items():
            out[LAYER[name]] += self_ns / 1e6
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
