#!/usr/bin/env python3
"""thmc benchmark: one closed-loop client, one process, one workload per run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; thmc is imported from its src/ directory.
Set-up (start an interpreter, import thmc, build the design matrices, make
the inputs from the seed) runs in SETUP_REPEATS fresh child interpreters
(setup_once.py) and its median is setup_s.  Then the
workload's fixed job list runs in passes until --seconds would be exceeded;
before each pass every thmc lru_cache except get_design is cleared, so each
pass starts as cold as a fresh CLI invocation.  wall_s is the median pass.
All times are reference seconds (see speed.py): measured under a host-speed
probe and rescaled, so that a shared host's speed swings cancel.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 untraced and traced passes alternate; spans wrap thmc's public
functions at every module attribute that binds them, and the last line
carries the per-layer metrics (self times and counters, medians over traced
passes), span coverage of the pass, and the tracing overhead (median traced
pass minus median untraced pass).  Spans are written to
.perfbench/trace-<workload>.csv and each result, with the environment, to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, median, percentile, samples_beyond, valid_metric_name, valid_unit
from speed import SpeedProbe
from workloads import WORKLOADS, Fit, Report, fiber_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9

E2E = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def import_thmc():
    import thmc
    import thmc.cli  # noqa: F401  (the fit and markov jobs call it)

    return thmc


def clear_caches(thmc) -> None:
    keep = thmc.design.get_design
    for key, mod in list(sys.modules.items()):
        if key == "thmc" or key.startswith("thmc."):
            for value in list(vars(mod).values()):
                if value is not keep and callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def setup(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """setup_s and design.build_s: medians over SETUP_REPEATS fresh
    interpreters, each timed from spawn to its ready line, in reference
    seconds at the speed the child measured."""
    times, design_times = [], []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "setup_once.py"), name, str(seed),
               str(workdir / f"setup-{k}")]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            rest = child.stdout.read()
            code = child.wait()
        if code != 0 or not line.startswith("{"):
            raise RuntimeError(f"set-up in a fresh interpreter exited {code}: {line}{rest}")
        done = json.loads(line)
        times.append((ready - start - done["spent"]) * done["factor"])
        design_times.append(done["design_s"] * done["factor"])
    return median(times), median(design_times)


def install_spans(tracer: Tracer, thmc, fibers: int) -> None:
    """Wrap each layer's public entry points; notes add the layer counters."""

    def add(key, value):
        return lambda t, args, result: t.count(key, value(args, result))

    def basis(t, args, result):
        t.count("markov.basis_moves", len(result))
        t.count("markov.fibers", fibers)


    ex, nm = thmc.exactla, thmc.normality
    tracer.patch(ex, "simplex_standard", "exactla.lp",
                 add("exactla.lp_columns", lambda a, r: len(a[0])))
    tracer.patch(ex.IntegerLattice, "__contains__", "exactla.lattice")
    tracer.patch(thmc.polytope, "convex_hull", "polytope.hull",
                 add("polytope.facets", lambda a, r: len(r.inequalities)))
    tracer.patch(thmc.polytope, "vertex_enumeration", "polytope.vertex_enum",
                 add("polytope.vertices", lambda a, r: len(r.vertices)))
    tracer.patch(thmc.facets, "verify_facet_completeness", "facets.verify",
                 add("facets.ext_points", lambda a, r: r["extension_points"]))
    tracer.patch(thmc.facets, "certify_all", "facets.certify")
    tracer.patch(nm, "check_normality", "normality.check")
    tracer.patch(nm, "saturation_points", "normality.saturation",
                 add("normality.sat_points", lambda a, r: len(r)))
    tracer.patch(nm, "witness_by_induction", "normality.witness")
    tracer.patch(thmc.words, "decompose_into_paths", "words.decompose",
                 add("words.decompose_none", lambda a, r: r is None))
    tracer.patch(thmc.markov, "enumerate_moves", "markov.enumerate",
                 add("markov.moves", lambda a, r: len(r)))
    tracer.patch(thmc.markov, "is_markov_basis", "markov.connectivity")
    tracer.patch(thmc.markov, "minimal_markov_basis", "markov.minimal", basis)
    tracer.patch(thmc.mcmc, "exact_test", "mcmc.test",
                 add("mcmc.samples", lambda a, r: r.samples))
    tracer.patch(thmc.cli, "main", "cli.main")


def run_pass(workload, tracer=None, fibers=0):
    clear_caches(workload.thmc)
    gc.collect()
    jobs = workload.jobs()
    results, job_s = [], []
    root = None
    if tracer is not None:
        install_spans(tracer, workload.thmc, fibers)
        root = tracer.open("pass")
    with SpeedProbe(tracer) as probe:
        t0 = time.perf_counter()
        for label, fn in jobs:
            start, spent = time.perf_counter(), probe.spent
            try:
                value = fn()
            except Exception as exc:  # counted and checked per workload
                value = exc
            job_s.append((time.perf_counter() - start, probe.spent - spent))
            results.append((label, value))
        raw = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.unpatch()
    return {
        "wall": probe.rescale(raw, probe.spent),
        "raw_wall": raw,
        "factor": probe.factor,
        "job_s": [probe.rescale(t, spent) for t, spent in job_s],
        "results": results,
        "root": root,
    }


class PassLayers:
    """Per-name span statistics and counters of one traced pass; times are
    self times at reference speed (probe samples are child spans)."""

    def __init__(self, tracer: Tracer, root: int, self_s: list[float], factor: float):
        self.calls: dict[str, int] = {}
        self.top: dict[str, int] = {}
        self.under: dict[tuple[str, str], int] = {}  # calls by (name, parent name)
        self.top_failed: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counters = tracer.counters.get(root, {})
        self.wall = tracer.end[root] - tracer.start[root]
        direct = 0.0
        for sid in range(root + 1, len(tracer)):
            if tracer.root[sid] != root:
                continue
            name = tracer.span_name(sid)
            parent = tracer.parent[sid]
            parent_name = tracer.span_name(parent)
            dur = tracer.end[sid] - tracer.start[sid]
            own = self_s[sid] * factor
            self.calls[name] = self.calls.get(name, 0) + 1
            self.under[name, parent_name] = self.under.get((name, parent_name), 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.durations.setdefault(name, []).append(own)
            if parent_name != name:
                self.top[name] = self.top.get(name, 0) + 1
                self.top_failed[name] = self.top_failed.get(name, 0) + tracer.failed[sid]
            if name not in ("cli.main", "probe") and parent_name in ("pass", "cli.main"):
                direct += dur
        self.coverage = direct / self.wall if self.wall > 0 else 0.0

    def counter(self, key: str) -> float:
        return self.counters.get(key, 0)

    def mean_counter(self, key: str, span: str) -> float:
        calls = self.calls.get(span, 0)
        return self.counter(key) / calls if calls else 0.0


def _pct(span, q):
    return lambda p, run: 1e3 * percentile(run["durations"].get(span, []), q)


def _eval_us(p, run):
    samples = p.counter("mcmc.samples")
    if not samples or not run["walk"]:
        return 0.0
    walks = p.calls.get("mcmc.test", 0) * run["walk"]["walk_s"]
    return 1e6 * (p.self_s.get("mcmc.test", 0.0) - walks) / samples


# (name, unit, better, value from a traced pass and run-level figures)
LAYERS = [
    ("design.build_s", "s", "lower", lambda p, run: run["design_s"]),
    ("design.columns", "count", "lower", lambda p, run: run["columns"]),
    ("design.distinct_columns", "count", "lower", lambda p, run: run["distinct"]),
    ("exactla.lp_calls", "count", "lower", lambda p, run: p.calls.get("exactla.lp", 0)),
    ("exactla.lp_s", "s", "lower", lambda p, run: p.self_s.get("exactla.lp", 0.0)),
    ("exactla.lp_p50_ms", "ms", "lower", _pct("exactla.lp", 50)),
    ("exactla.lp_p98_ms", "ms", "lower", _pct("exactla.lp", 98)),
    ("exactla.lp_columns", "count", "lower",
     lambda p, run: p.mean_counter("exactla.lp_columns", "exactla.lp")),
    ("exactla.lattice_tests", "count", "lower", lambda p, run: p.calls.get("exactla.lattice", 0)),
    ("exactla.lattice_s", "s", "lower", lambda p, run: p.self_s.get("exactla.lattice", 0.0)),
    ("polytope.hull_calls", "count", "lower", lambda p, run: p.calls.get("polytope.hull", 0)),
    ("polytope.hull_s", "s", "lower", lambda p, run: p.self_s.get("polytope.hull", 0.0)),
    ("polytope.vertex_enum_s", "s", "lower",
     lambda p, run: p.self_s.get("polytope.vertex_enum", 0.0)),
    ("polytope.facets", "count", "lower", lambda p, run: p.counter("polytope.facets")),
    ("polytope.vertices", "count", "lower", lambda p, run: p.counter("polytope.vertices")),
    ("facets.verify_s", "s", "lower", lambda p, run: p.self_s.get("facets.verify", 0.0)),
    ("facets.certify_s", "s", "lower", lambda p, run: p.self_s.get("facets.certify", 0.0)),
    ("facets.ext_points", "count", "lower", lambda p, run: p.counter("facets.ext_points")),
    ("normality.check_s", "s", "lower", lambda p, run: p.self_s.get("normality.check", 0.0)),
    ("normality.saturation_s", "s", "lower",
     lambda p, run: p.self_s.get("normality.saturation", 0.0)),
    ("normality.candidates", "count", "lower",  # compositions given a lattice test
     lambda p, run: p.under.get(("exactla.lattice", "normality.saturation"), 0)),
    ("normality.sat_points", "count", "lower", lambda p, run: p.counter("normality.sat_points")),
    ("normality.witness_calls", "count", "lower",
     lambda p, run: p.top.get("normality.witness", 0)),
    ("normality.witness_s", "s", "lower", lambda p, run: p.self_s.get("normality.witness", 0.0)),
    ("normality.witness_failed", "count", "lower",
     lambda p, run: p.top_failed.get("normality.witness", 0)),
    ("words.decompose_calls", "count", "lower", lambda p, run: p.calls.get("words.decompose", 0)),
    ("words.decompose_s", "s", "lower", lambda p, run: p.self_s.get("words.decompose", 0.0)),
    ("words.decompose_p50_ms", "ms", "lower", _pct("words.decompose", 50)),
    ("words.decompose_p98_ms", "ms", "lower", _pct("words.decompose", 98)),
    ("words.decompose_none", "count", "lower", lambda p, run: p.counter("words.decompose_none")),
    ("markov.enumerate_s", "s", "lower", lambda p, run: p.self_s.get("markov.enumerate", 0.0)),
    ("markov.moves", "count", "lower", lambda p, run: p.counter("markov.moves")),
    ("markov.connectivity_s", "s", "lower",
     lambda p, run: p.self_s.get("markov.connectivity", 0.0)),
    ("markov.minimal_s", "s", "lower", lambda p, run: p.self_s.get("markov.minimal", 0.0)),
    ("markov.basis_moves", "count", "lower", lambda p, run: p.counter("markov.basis_moves")),
    ("markov.fibers", "count", "lower", lambda p, run: p.counter("markov.fibers")),
    ("mcmc.walk_steps_per_s", "1/s", "higher",
     lambda p, run: run["walk"]["walk_steps"] / run["walk"]["walk_s"] if run["walk"] else 0.0),
    ("mcmc.test_s", "s", "lower", lambda p, run: p.self_s.get("mcmc.test", 0.0)),
    ("mcmc.samples", "count", "higher", lambda p, run: p.counter("mcmc.samples")),
    ("mcmc.eval_us", "us", "lower", _eval_us),
    ("mcmc.moved_ratio", "ratio", "higher",
     lambda p, run: run["walk"]["moved"] / run["walk"]["walk_steps"] if run["walk"] else 0.0),
    ("mcmc.pearson_samples_per_s", "1/s", "higher",
     lambda p, run: run["samples_per_s"].get("pearson", 0.0)),
    ("mcmc.g2_samples_per_s", "1/s", "higher", lambda p, run: run["samples_per_s"].get("g2", 0.0)),
    ("cli.overhead_s", "s", "lower", lambda p, run: p.self_s.get("cli.main", 0.0)),
    ("trace.coverage", "ratio", "higher", lambda p, run: p.coverage),
    ("trace.overhead_s", "s", "lower", lambda p, run: run["overhead_s"]),
    ("speed.raw_wall_s", "s", "lower", lambda p, run: run["raw_wall_s"]),
    ("speed.factor", "ratio", "higher", lambda p, run: run["factor"]),
]
MIN_COVERAGE = 0.9


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "thmc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": None,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": platform.processor() or None,
        "threads": int(os.environ.get("THMC_THREADS", "1")),
        "platform": platform.platform(),
    }
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        env["numpy"] = numpy.__version__
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return env


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args) -> dict:
    cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, design_s = setup(args.workload, args.seed, workdir)
        workload = cls(import_thmc(), args.seed, workdir)
        tracer = Tracer() if args.trace else None
        fibers = fiber_count(*cls.BASIS) if args.trace and cls.BASIS else 0
        report = Report()
        passes = []
        start = time.perf_counter()
        least = max(workload.min_passes, 2 if args.trace else 1)
        while True:
            traced = tracer is not None and len(passes) % 4 in (1, 2)
            p = run_pass(workload, tracer if traced else None, fibers)
            workload.check(p.pop("results"), report, first=not passes)
            passes.append(p)
            elapsed = time.perf_counter() - start
            if len(passes) >= least and elapsed + elapsed / len(passes) > args.seconds:
                break
        walk = workload.extra_layers() if tracer is not None else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if p["root"] is None]
    traced = [p for p in passes if p["root"] is not None]
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "pass_wall_s": [round(p["wall"], 6) for p in passes],
        "raw_pass_wall_s": [round(p["raw_wall"], 6) for p in passes],
        "traced": [p["root"] is not None for p in passes],
        "attempted": report.attempted,
        "failed": report.failed,
        "problems": report.problems,
        "failures": sorted(set(report.failures)),
    }
    wall = median([p["wall"] for p in plain])
    if tracer is None:
        metrics = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - report.failed / report.attempted,
        }
        units = E2E
    else:
        metrics, units, pooled = layer_metrics(tracer, workload, traced, plain, design_s, walk)
        run["percentile_samples"] = {
            name: {"n": n, "beyond_p98": samples_beyond(n, 98)} for name, n in pooled.items()
        }
        coverage = metrics["trace.coverage"]
        report.expect(coverage >= MIN_COVERAGE,
                      f"layer spans cover {coverage:.3f} of the pass, below {MIN_COVERAGE}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}.csv")
        run["traced_wall_s"] = median([p["wall"] for p in traced])
        run["untraced_wall_s"] = wall
    run["correct"] = not report.problems
    run["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return run


def layer_metrics(tracer, workload, traced, plain, design_s, walk):
    self_s = tracer.self_times()
    per_pass = [PassLayers(tracer, p["root"], self_s, p["factor"]) for p in traced]
    durations: dict[str, list[float]] = {}
    for layers in per_pass:
        for name, values in layers.durations.items():
            durations.setdefault(name, []).extend(values)
    samples_per_s = {}
    if isinstance(workload, Fit):
        samples = workload.STEPS - workload.BURN_IN
        for i, stat in enumerate(workload.STATISTICS):
            samples_per_s[stat] = samples / median([p["job_s"][i] for p in plain])
    run = {
        "design_s": design_s,
        "columns": sum(len(A.columns) for A in workload.designs),
        "distinct": sum(len(A.distinct_columns()) for A in workload.designs),
        "durations": durations,
        "walk": walk,
        "samples_per_s": samples_per_s,
        "overhead_s": median([p["wall"] for p in traced]) - median([p["wall"] for p in plain]),
        "raw_wall_s": median([p["raw_wall"] for p in plain]),
        "factor": median([p["factor"] for p in plain]),
    }
    metrics = {name: median([fn(p, run) for p in per_pass]) for name, _, _, fn in LAYERS}
    units = {name: unit for name, unit, _, _ in LAYERS}
    pooled = {name: len(durations.get(name, [])) for name in ("exactla.lp", "words.decompose")}
    return metrics, units, pooled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thmc" / "__init__.py").is_file():
        print(f"error: no thmc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["THMC_THREADS"] = "1"
    try:
        run = measure(args)
    except Exception:
        traceback.print_exc()
        return 1
    run["environment"] = environment()
    for name, metric in run["metrics"].items():
        if not (valid_metric_name(name) and valid_unit(metric["unit"])):
            run["problems"].append(f"invalid metric name or unit: {name!r} {metric['unit']!r}")
            run["correct"] = False
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(run, indent=1) + "\n")
    print(f"workload {args.workload} seed {args.seed}: {run['passes']} passes of "
          f"{run['pass_wall_s']} reference s ({run['raw_pass_wall_s']} s measured), "
          f"{run['attempted']} operations, {run['failed']} failed")
    for line in run["failures"]:
        print(f"failed: {line}")
    for line in run["problems"]:
        print(f"WRONG: {line}")
    plain = [i for i, traced in enumerate(run["traced"]) if not traced]
    print(f"wall_s {median([run['pass_wall_s'][i] for i in plain]):.6f} reference s, "
          f"{median([run['raw_pass_wall_s'][i] for i in plain]):.6f} s measured "
          f"(medians over {len(plain)} untraced passes)")
    print("environment " + json.dumps(run["environment"]))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
