#!/usr/bin/env python3
"""Time-to-verdict benchmark for dmfv.

One client, closed loop: the next program is sent only after the previous
verdict.  Each call is ``dmfv.cli.main(["verify", ..., "--format", "json"])``
run in this process over programs generated from ``--seed`` and written to a
scratch directory at set-up.  Every verdict is checked against the answer
known from how the program was built (see workloads.py).

    python3 perfbench/run.py --workload general-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke        # tiny sizes of every workload, both modes

With ``--trace 0`` the last stdout line reports the end-to-end metrics, timed
against a host-speed probe (see hostspeed.py); with
``--trace 1`` it reports the per-layer metrics of a traced run (see
tracing.py) next to an untraced run of the same passes.  Report digests,
input shapes and spans are stored under ``.perfbench_out/`` in the checkout.
The default seed is 1; seed 7 is held out for confirming a claimed gain.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
SETUP_RUNS = 15

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from hostspeed import PROBE_REF_MS, at_reference_speed, probe  # noqa: E402


# --- verdicts ---------------------------------------------------------------------

_PATH_NOTE = re.compile(r"path (\d*): (PASS|FAIL)(?:, ends t=(\d+))?")


def verdict(exit_code: int, report: dict) -> dict:
    primary = [v for v in report["violations"] if not v["secondary"]]
    paths = [m for m in map(_PATH_NOTE.match, report["notes"]) if m]
    return {
        "exit": exit_code,
        "first": (primary[0]["code"], primary[0]["t"]) if primary else None,
        "final_t": report["final_t"],
        "codes": frozenset(v["code"] for v in report["violations"]),
        "failing": frozenset(m[1] for m in paths if m[2] == "FAIL"),
        "paths": len(paths),
        "path_ends": {m[1]: int(m[3]) for m in paths if m[3]},
    }


def mismatches(expect: dict, got: dict) -> list[str]:
    out = []
    for key, want in expect.items():
        have = got[key]
        if key == "path_ends":
            have = {k: have.get(k) for k in want}
        if have != want:
            out.append(f"{key}: expected {want!r}, got {have!r}")
    return out


# --- set-up -------------------------------------------------------------------------

def measure_setup() -> tuple[float, float]:
    """Median time from starting a fresh interpreter until it has imported
    dmfv.cli and built its parser, after one warm-up start that fills the
    bytecode cache: as measured, and at reference speed.  Once ready, each
    interpreter times the probe, so its start is scaled by its own speed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, dmfv.cli as c; c.build_parser(); print(flush=True); "
            f"sys.path.insert(0, {str(HERE)!r}); from hostspeed import probe; "
            "print(*[probe() for _ in range(5)])")
    times, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter_ns()
        with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as child:
            child.stdout.readline()
            dt = time.perf_counter_ns() - t0
            probes = [int(x) for x in child.stdout.read().split()]
        if child.returncode or len(probes) != 5:
            raise RuntimeError(f"set-up interpreter failed (exit {child.returncode})")
        if i:
            times.append(dt)
            scaled.append(dt * PROBE_REF_MS * 1e6 / statistics.median(probes))
    return statistics.median(times) / 1e9, statistics.median(scaled) / 1e9


def prepare(cases, work: Path) -> list[list[str]]:
    work.mkdir(parents=True)
    argvs = []
    for case in cases:
        files = dict(case.fixture or {})
        for suffix, text in case.files.items():
            files[suffix] = work / f"{case.name}.{suffix}"
            files[suffix].write_text(text, encoding="utf-8")
        argv = ["verify", str(files["dmf"])]
        for suffix in ("sg", "pins"):
            if suffix in files:
                argv += [f"--{suffix}", str(files[suffix])]
        argvs.append(argv + list(case.flags) + ["--format", "json"])
    return argvs


def shape_summary(cases) -> dict:
    gen = [c.shape for c in cases if not c.shape.get("anchor")]
    out: dict = {"programs": len(gen), "anchors": len(cases) - len(gen)}
    faults = [s["fault"] for s in gen]
    out["fault_share"] = sum(f is not None for f in faults) / len(gen)
    out["faults"] = {k: faults.count(k) for k in sorted({f for f in faults if f})}
    for key in sorted(k for k in gen[0] if k != "fault"):
        vals = [s[key] for s in gen]
        out[key] = {"min": min(vals), "median": statistics.median(vals),
                    "max": max(vals), "mean": round(statistics.fmean(vals), 4)}
        if key == "c":
            out[key]["histogram"] = {v: vals.count(v) for v in sorted(set(vals))}
    return out


# --- the closed loop ----------------------------------------------------------------

class Loop:
    """Runs verdicts one after another and checks each against its answer."""

    def __init__(self, cli, cases, argvs):
        self.cli, self.cases, self.argvs = cli, cases, argvs
        self.digests: list[str | None] = [None] * len(cases)
        self.wrong: dict[str, str] = {}
        self.samples: list[tuple[int, int, bool]] = []   # (case index, ns, right)
        self.probes: list[int] = []       # probe ns between steady calls

    def call(self, i, tracer=None, steady=False) -> None:
        """One verdict.  A steady call first collects garbage, so every
        verdict starts from the same collector state, and times the probe."""
        if steady:
            gc.collect()
            self.probes.append(probe())
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    code = self.cli.main(self.argvs[i])
                else:
                    verdict_id = f"{self.cases[i].name}#{len(self.samples)}"
                    code = tracer.root(verdict_id, self.cli.main, self.argvs[i])
        except (Exception, SystemExit) as err:    # a raise is a wrong verdict
            code, error = None, f"raised {type(err).__name__}: {err}"
        dt = time.perf_counter_ns() - t0
        text = buf.getvalue()
        case = self.cases[i]
        if error is None:
            try:
                problems = mismatches(case.expect, verdict(code, json.loads(text)))
            except (ValueError, KeyError) as err:
                problems = [f"unreadable report: {err}"]
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests[i] is None:
                self.digests[i] = digest
            elif self.digests[i] != digest:
                problems.append("report differs from an earlier run of the same program")
            error = "; ".join(problems) or None
        if error is not None:
            self.wrong.setdefault(case.name, error)
        self.samples.append((i, dt, error is None))

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s[2])

    def run_for(self, seconds: float, rng: Random) -> None:
        """Whole passes, each in a fresh shuffled order, while the next pass is
        expected to end within the time (the first pass always runs), so every
        program is verified equally often and the run does not overrun."""
        order = list(range(len(self.cases)))
        start = last = time.perf_counter()
        pass_s = 0.0
        while not self.samples or last - start + pass_s <= seconds:
            rng.shuffle(order)
            for i in order:
                self.call(i, steady=True)
            now = time.perf_counter()
            pass_s, last = now - last, now
        self.probes.append(probe())       # the last verdict's probe after it

    def one_pass(self, tracer=None) -> list:
        """Every case once, in case order; returns the pass's samples."""
        start = len(self.samples)
        for i in range(len(self.cases)):
            self.call(i, tracer)
        return self.samples[start:]


def ticks_of(cases, samples) -> int:
    return sum(cases[s[0]].ticks for s in samples)


# --- modes ---------------------------------------------------------------------------

def end_to_end(loop, cases, seconds, seed, setup) -> dict:
    loop.run_for(seconds, Random(f"order/{seed}"))
    ticks = ticks_of(cases, loop.samples)
    wall = [s[1] for s in loop.samples]
    ref = at_reference_speed(wall, loop.probes)
    for label, ns in (("as measured", wall), ("at reference speed", ref)):
        ms = [t / 1e6 for t in ns]
        print(f"{label:<19}: p50 {statistics.median(ms):9.3f} ms, "
              f"p90 {statistics.quantiles(ms, n=10)[8]:9.3f} ms, "
              f"{ticks / (sum(ns) / 1e9):10.1f} ticks/s")
    print(f"probe: median {statistics.median(loop.probes) / 1e6:.3f} ms "
          f"(reference {PROBE_REF_MS} ms); set-up {setup[0]:.4f} s as measured")
    ms = [t / 1e6 for t in ref]
    return {
        "verdict_ms_p50": (statistics.median(ms), "ms"),
        "verdict_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "ticks_per_s": (ticks / (sum(ref) / 1e9), "1/s"),
        "verdicts_right": ((len(loop.samples) - loop.failed) / len(loop.samples), "share"),
        "setup_s": (setup[1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(loop, cases, seconds, modules, spans_path) -> dict:
    from tracing import LAYERS, Tracer

    # untraced and traced passes alternate, so drifting host speed hits both
    tracer = Tracer(modules)
    plain, traced_samples = [], []
    end = time.perf_counter() + seconds
    while not traced_samples or time.perf_counter() < end:
        gc.collect()
        plain += loop.one_pass()
        gc.collect()
        tracer.install()
        try:
            traced_samples += loop.one_pass(tracer)
        finally:
            tracer.remove()
    tracer.write(spans_path)
    passes = len(traced_samples) // len(cases)
    n, plain_n = len(traced_samples), len(plain)
    ns, plain_ns = sum(s[1] for s in traced_samples), sum(s[1] for s in plain)
    ticks, plain_ticks = ticks_of(cases, traced_samples), ticks_of(cases, plain)
    tot, cnt = tracer.totals, tracer.counts
    steps = tot["fluidics.step"][0]

    def per(x):
        return x / n

    def ms(name, part=1):
        return tot[name][part] / 1e6 / n

    layer_ms = {k: v / n for k, v in tracer.self_ms_by_layer().items()}
    self_sum = sum(layer_ms.values())
    plain_ms = plain_ns / 1e6 / plain_n
    m = {
        "isa.parse_ms": (ms("isa.parse"), "ms"),
        "isa.lines": (per(cnt["isa.lines"]), "count"),
        "fluidics.steps": (per(steps), "count"),
        "fluidics.steps_per_tick": (steps / ticks, "1"),
        "fluidics.step_self_ms": (ms("fluidics.step", 2), "ms"),
        "fluidics.check_ms": (ms("fluidics.check"), "ms"),
        "fluidics.checks": (per(tot["fluidics.check"][0]), "count"),
        "fluidics.verify_self_ms": (ms("fluidics.verify", 2), "ms"),
        "chip.copies": (per(cnt["chip.copy"]), "count"),
        "chip.copies_per_step": (cnt["chip.copy"] / steps if steps else 0.0, "1"),
        "chip.expire_ms": (ms("chip.expire"), "ms"),
        "pins.parse_ms": (ms("pins.parse"), "ms"),
        "pins.phase_ms": (ms("pins.phase"), "ms"),
        "pins.pair_checks": (per(cnt["pins.pair_check"]), "count"),
        "pins.pair_checks_per_step": (cnt["pins.pair_check"] / steps if steps else 0.0, "1"),
        "branches.paths": (per(cnt["branches.paths"]), "count"),
        "branches.expand_ms": (ms("branches.expand"), "ms"),
        "branches.self_ms": (ms("branches.verify_all_paths", 2), "ms"),
        "graph.sg_parse_ms": (ms("graph.sg_parse"), "ms"),
        "graph.reconstruct_ms": (ms("graph.reconstruct"), "ms"),
        "graph.conformance_ms": (ms("graph.conformance"), "ms"),
        "graph.nodes": (per(cnt["graph.nodes"]), "count"),
        "diag.format_ms": (ms("diag.format"), "ms"),
        "diag.rows": (per(cnt["diag.rows"]), "count"),
        "cli.self_ms": (ms("cli.main", 2), "ms"),
        "runtime.gc_ms": (tracer.gc_ns / 1e6 / n, "ms"),
        "runtime.gc_collections": (per(tracer.gc_runs), "count"),
        "trace.verdict_ms": (ns / 1e6 / n, "ms"),
        "trace.untraced_verdict_ms": (plain_ms, "ms"),
        "trace.self_sum_ms": (self_sum, "ms"),
        "trace.overhead_pct": (100 * (ns / n / (plain_ns / plain_n) - 1), "%"),
        "trace.ticks_per_s": (ticks / (ns / 1e9), "1/s"),
        "trace.untraced_ticks_per_s": (plain_ticks / (plain_ns / 1e9), "1/s"),
        "trace.absent_layers": (len(tracer.absent), "count"),
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = (layer_ms[layer] / self_sum if self_sum else 0.0, "1")
    print(f"{passes} untraced and {passes} traced pass(es) alternating, {n} verdicts each; "
          f"spans written to {spans_path.relative_to(ROOT)}")
    if tracer.absent:
        print("absent layers (attribute not found, reported as 0): "
              + ", ".join(tracer.absent))
    gap = abs(self_sum - plain_ms) / plain_ms
    overhead = m["trace.overhead_pct"][0] / 100
    print(f"layer self times sum to {self_sum:.3f} ms/verdict vs {plain_ms:.3f} ms untraced "
          f"(gap {100 * gap:.1f}%, tracing overhead {100 * overhead:.1f}%): "
          + ("within overhead" if gap <= abs(overhead) + 0.01 else "NOT within overhead"))
    top = max(layer_ms, key=layer_ms.get)
    print("self-time share by layer: " + ", ".join(
        f"{k}={v / self_sum:.3f}" for k, v in sorted(layer_ms.items(), key=lambda kv: -kv[1]))
        + f" (largest: {top})")
    return m


def run_workload(workload, seed, seconds, trace, smoke) -> dict:
    if not (ROOT / "src" / "dmfv" / "cli.py").is_file():
        raise SystemExit("error: no dmfv sources under src/dmfv; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from dmfv import branches, chip, cli, fluidics, graph, pins

    setup = measure_setup() if not trace else None
    cases = workloads.build(workload, seed, smoke, ROOT / "fixtures")
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}{'-smoke' if smoke else ''}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        loop = Loop(cli, cases, prepare(cases, work))
        for i, case in enumerate(cases):               # warm-up: anchors only
            if case.shape.get("anchor"):
                loop.call(i)
        loop.samples.clear()
        if trace:
            modules = {"cli": cli, "fluidics": fluidics, "chip": chip, "pins": pins,
                       "branches": branches, "graph": graph}
            metrics = traced(loop, cases, seconds, modules, OUT / f"spans-{tag}.jsonl")
        else:
            metrics = end_to_end(loop, cases, seconds, seed, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    shape = shape_summary(cases)
    (OUT / f"shape-{tag}.json").write_text(json.dumps(shape, indent=1) + "\n")
    combined = hashlib.sha256("".join(d or "-" for d in loop.digests).encode()).hexdigest()
    with open(OUT / f"digests-{tag}.txt", "w", encoding="utf-8") as fh:
        for case, d in zip(cases, loop.digests):
            fh.write(f"{case.name} {d}\n")
        fh.write(f"combined {combined}\n")
    print(f"workload {workload} seed {seed}: {len(cases)} programs, shape {json.dumps(shape)}")
    for case, d in zip(cases, loop.digests):
        print(f"digest {case.name} {d}")
    print(f"digest combined {combined}")
    print(f"wrong_verdicts {loop.failed}/{len(loop.samples)}")
    for name, why in sorted(loop.wrong.items()):
        print(f"WRONG {workload} seed={seed} {name}: {why}")
    missing = [c.name for c, d in zip(cases, loop.digests) if d is None]
    for name in missing:
        print(f"NOT VERIFIED {workload} seed={seed} {name}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:12.4f} {unit}")
    result = {"correct": not loop.wrong and not missing, "attempted": len(loop.samples),
              "failed": loop.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                         "for confirming a gain found on the default)")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; with no --workload, every workload in both modes")
    args = ap.parse_args(argv)
    if args.smoke and args.workload is None:
        ok = True
        for name in sorted(workloads.WORKLOADS):
            for trace in (0, 1):
                result = run_workload(name, args.seed, 0.5, trace, True)
                ok = ok and result["correct"]
                print(f"smoke {name} trace={trace}: "
                      f"{'ok' if result['correct'] else 'FAILED'} "
                      f"({result['failed']}/{result['attempted']} wrong)")
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
