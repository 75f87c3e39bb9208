"""Benchmark of affext: four closed-loop workloads with exact result gates.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a source checkout; it imports affext from ``src/``.
A run sets up ``SETUP_REPEATS`` times (fresh import of affext, seeded inputs,
oracle answers), then repeats the workload's batch pass as often as fits in
``--seconds`` (at least once), then checks every pass's results against the
oracle answers.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` one more pass runs with
spans around every public affext function and the metrics are per layer.
The line before it is the run's metadata.  ``--workload all`` runs every
workload in a fresh process, one after another, and prints their results.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

CLAIM_IDS = ("roundtrip", "cohomology-oracle", "split-test", "coboundary-lemma",
             "equivalence-gamma", "stabilizer-z1", "commutator-laws",
             "central-tensor", "nilpotent-tensor", "trivial-action",
             "abelian-subgroup", "grp-lemma", "realization", "variety-meet")

_STAT_UNITS = {"self_s": "s", "useful_ratio": "ratio"}


def _stats(function, *stats):
    return [("%s.%s" % (function, s), _STAT_UNITS.get(s, "count")) for s in stats]


PER_LAYER = tuple(
    _stats("congruences.m_matrices", "self_s", "calls", "quads")
    + _stats("congruences.pair_algebra", "self_s", "elements")
    + _stats("congruences.delta", "self_s", "classes")
    + _stats("congruences.cg", "self_s", "calls")
    + _stats("congruences.all_congruences", "self_s")
    + _stats("commutator.verify_ternary_abelian_group_on_blocks", "self_s", "calls")
    + _stats("commutator.tc_commutator", "self_s")
    + _stats("datum.extract_datum", "self_s")
    + _stats("datum.validate_datum", "self_s")
    + _stats("cohomology.cocycle_group", "self_s", "solutions", "space",
             "useful_ratio")
    + _stats("cohomology.coboundary_group", "self_s", "maps", "images",
             "useful_ratio")
    + [m for f in ("h2", "h1", "derivations", "principal_derivations",
                   "twin_pairs_of_identity", "stabilizers",
                   "stabilizing_isomorphism", "are_equivalent")
       for m in _stats("cohomology." + f, "self_s")]
    + [m for f in ("coboundary_of", "cocycle_difference_coboundary",
                   "reconstruct", "check_cocycle", "two_step_decomposition")
       for m in _stats("cocycles." + f, "self_s", "calls")]
    + _stats("algebras.find_isomorphism", "self_s", "calls", "found")
    + _stats("groups.classical_h2", "self_s")
    + [("verify.%s_s" % c, "s") for c in CLAIM_IDS]
    + [("%s.all.self_s" % m, "s") for m in spans.MODULES]
    + [("trace_overhead_frac", "ratio"), ("trace.coverage", "ratio")])


def fresh_import():
    """Import affext and every module of it anew (third-party modules stay
    loaded, so only the first set-up pays for them)."""
    for name in [m for m in sys.modules if m == "affext" or m.startswith("affext.")]:
        del sys.modules[name]
    importlib.import_module("affext")
    for name in spans.MODULES:
        importlib.import_module("affext." + name)


def set_up(workload, seed):
    """Set up SETUP_REPEATS times; the last state is the one measured."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        fresh_import()
        state = workload.setup(seed)
        times.append(time.perf_counter() - start)
    return state, times


def timed_passes(workload, state, seconds):
    """Repeat the pass while another one is expected to end within
    `seconds`; the first pass always runs."""
    walls, passes = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        t0 = time.perf_counter()
        passes.append(workload.run(state))
        walls.append(time.perf_counter() - t0)
    return walls, passes


def traced_pass(workload, state):
    tracer = spans.Tracer()
    tracer.install(keep_returns={"verify.run_all"})
    try:
        start = time.perf_counter()
        results = workload.run(state)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return results, wall, tracer


def layer_metrics(tracer, wall, untraced_wall):
    own, top = tracer.self_times()
    values = dict(tracer.counts)
    for name, seconds in own.items():
        values[name + ".self_s"] = seconds
        module = name.split(".")[0]
        if module in spans.MODULES:
            values[module + ".all.self_s"] = values.get(module + ".all.self_s", 0.0) + seconds
    for stat, base, ratio in (("solutions", "space", "cohomology.cocycle_group"),
                              ("images", "maps", "cohomology.coboundary_group")):
        num = values.get("%s.%s" % (ratio, stat), 0)
        den = values.get("%s.%s" % (ratio, base), 0)
        values[ratio + ".useful_ratio"] = num / den if den else 0.0
    for results, _ in tracer.returns["verify.run_all"]:
        for r in results:
            values["verify.%s_s" % r["id"]] = r["runtime"]
    values["trace_overhead_frac"] = (wall - untraced_wall) / untraced_wall
    values["trace.coverage"] = top / wall
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}


def src_lines():
    total = 0
    pkg = os.path.join(SRC, "affext")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                total += sum(1 for _ in f)
    return total


def write_spans(path, meta, tracer):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"meta": meta, "fields": ["name", "start", "end", "parent"]}, f)
        f.write("\n")
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "affext", "__init__.py")):
        print("perfbench: no affext sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    state, setup_times = set_up(workload, args.seed)
    # a traced run spends half its time on untraced passes, for the overhead
    walls, passes = timed_passes(workload, state,
                                 args.seconds / 2 if args.trace else args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        results, traced_wall, tracer = traced_pass(workload, state)
        passes.append(results)
        # the pass just before the traced one ran in the same phase of the
        # machine's speed drift, so it is the reference for the overhead
        metrics = layer_metrics(tracer, traced_wall, walls[-1])
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    attempted = failed = 0
    for results in passes:
        a, f = workload.check(state, results)
        attempted, failed = attempted + a, failed + f
    import numpy
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": len(walls), "wall_s_samples": walls,
            "setup_s_samples": setup_times,
            "error_rate": failed / attempted if attempted else 1.0,
            "src_affext_lines": src_lines(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}
    if args.trace:
        meta["spans"] = len(tracer.spans)
        write_spans(os.path.join(OUT, "spans-%s-%d.jsonl" % (args.workload, args.seed)),
                    meta, tracer)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": attempted > 0 and failed == 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit code %d" % (name, proc.returncode))
            status = 1
            continue
        result = json.loads(lines[-1])
        print("%s correct=%s attempted=%d failed=%d" % (
            name, result["correct"], result["attempted"], result["failed"]))
        for metric, v in result["metrics"].items():
            print("  %-56s %14.6g %s" % (metric, v["value"], v["unit"]))
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
