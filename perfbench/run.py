"""lrcommute benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {sweep,switch,insert,all} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it runs ``src/lrcommute`` from
there, in child interpreters, one at a time.  Every metric is printed as
``name value unit``; the last line is the JSON object
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end metrics
of BENCHMARK.json under ``--trace 0`` and the per-layer ones under
``--trace 1``.  ``--workload all`` runs the three in turn and prefixes each
metric with its workload.  The full report of each run, with raw times,
per-check times, input descriptors and failures, is written to
``.perfbench/``.  See perfbench/README.md for what the workloads and
metrics mean; end-to-end times are in reference time (see refclock.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import refclock
from tracer import CHECK_FUNCTIONS, MODULES, merge

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
RUN_LIMIT_S = 165  # one workload, children included
SETUP_RUNS, MAX_SETUP_RUNS, SETUP_BUDGET_S = 3, 9, 2.0
MIN_SWEEP_ROUNDS = 2  # a check's time is its median over at least this many
WORKLOADS = ("sweep", "switch", "insert")

# Sweep checks in the order run, with the instance counts pinned at their
# sizes (see sweep_child.CHECKS), and the end-to-end groups they add to.
PINNED = {
    "involution": {"involution": 1351},
    "coincidence": {"coincidence": 1351},
    "recursion": {"recursion": 769},
    "confluence": {"confluence": 7726},
    "knuth-route": {"knuth-commutativity": 74973, "route-geometry": 44494},
    "skew-rsk": {"skew-rsk": 46402},
    "lr-oracle": {"lr-oracle": 249},
    "golden": {"golden": 7},
}
CHECK_GROUPS = {
    "check.pairs_s": ("involution", "coincidence", "recursion"),
    "check.confluence_s": ("confluence",),
    "check.knuth-route_s": ("knuth-route",),
    "check.skew-rsk_s": ("skew-rsk",),
    "check.lr-oracle_s": ("lr-oracle",),
}


class ChildError(Exception):
    pass


def spawn(script: str, argv: list[str], env: dict, deadline: float):
    """Run one child interpreter; returns its JSON result, its wall seconds
    and a reference-kernel sample taken just before it started."""
    if deadline - time.monotonic() < 1.0:
        raise ChildError(f"{script} {' '.join(argv)}: not started, time limit reached")
    ref_before = refclock.sample(25)
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, script), *argv,
           "--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=deadline - spawned)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{script} {' '.join(argv)}: timed out")
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        raise ChildError(f"{script} {' '.join(argv)}: exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildError(f"{script} {' '.join(argv)}: no result line")
    return result, wall, ref_before


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# sweep

def sweep_round(seed: int, trace: int, env: dict, deadline: float) -> dict:
    """Every check once, each in a fresh interpreter."""
    children = {}
    start = time.monotonic()
    for check, pinned in PINNED.items():
        argv = ["--check", check, "--seed", str(seed), "--trace", str(trace)]
        if trace:
            argv += ["--spans", os.path.join(OUT_DIR, f"sweep-{check}.spans")]
        try:
            c, wall, before = spawn("sweep_child.py", argv, env, deadline)
        except ChildError as exc:
            children[check] = {"error": str(exc)}
            continue
        counts = {r["name"]: r["instances"] for r in c["reports"]}
        bad = [r for r in c["reports"] if r["failures"]]
        if counts != pinned or bad:
            c["error"] = f"{check}: instances {counts}, pinned {pinned}; failures {bad}"
        c["raw_wall_s"] = wall
        c["ref_setup_s"] = refclock.scale(c["setup_s"], before, c["setup_ref_s"])
        c["ref_seconds"] = refclock.scale(c["seconds"], c["check_ref_s"])
        c["wall_s"] = c["ref_setup_s"] + c["ref_seconds"]
        children[check] = c
    return {"wall_s": time.monotonic() - start, "children": children}


def failed(rnd: dict) -> bool:
    return any("error" in c for c in rnd["children"].values())


def run_sweep(args, env: dict, deadline: float) -> dict:
    """At least MIN_SWEEP_ROUNDS untraced rounds, more while none failed and
    the next is expected to end within ``--seconds``; with ``--trace 1``,
    one untraced round and one traced round instead."""
    rounds = []
    start = time.monotonic()
    min_rounds = 1 if args.trace else MIN_SWEEP_ROUNDS
    while len(rounds) < min_rounds or (
            not args.trace and not failed(rounds[-1])
            and time.monotonic() - start + rounds[-1]["wall_s"] <= args.seconds):
        rounds.append(sweep_round(args.seed, 0, env, deadline))
    children = [c for r in rounds for c in r["children"].values()]
    errors = [c["error"] for c in children if "error" in c]
    report = {"attempted": len(children), "failed": len(errors),
              "errors": errors[:10], "rounds": len(rounds),
              "children": [r["children"] for r in rounds]}
    # one op per check: its median over the rounds
    med = {}
    for check in PINNED:
        runs = [r["children"][check] for r in rounds
                if "wall_s" in r["children"][check]]
        if runs:
            med[check] = {key: statistics.median(run[key] for run in runs)
                          for key in ("wall_s", "raw_wall_s", "ref_seconds")}
    if not med:
        return report
    report["checks"] = {name: sum(med[c]["ref_seconds"] for c in checks if c in med)
                        for name, checks in CHECK_GROUPS.items()}
    report["raw_wall_s"] = sum(m["raw_wall_s"] for m in med.values())
    walls = [m["wall_s"] for m in med.values()]
    ok = [c for c in children if "wall_s" in c]
    report["end_to_end"] = {
        "setup_s": statistics.median(c["ref_setup_s"] for c in ok),
        "wall_s": sum(walls),
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": statistics.median(walls) * 1000,
        "op_p90_ms": percentile(walls, 0.9) * 1000,
        "peak_rss_mb": max(c["rss_mb"] for c in ok),
    }
    if args.trace:
        traced = sweep_round(args.seed, 1, env, deadline)
        done = [c for c in traced["children"].values() if "trace" in c]
        traced_errors = [c["error"] for c in traced["children"].values()
                         if "error" in c]
        report["attempted"] += len(traced["children"])
        report["failed"] += len(traced_errors)
        report["errors"] += traced_errors[:10]
        report["per_layer"] = layer_metrics(
            merge([c["trace"] for c in done]),
            sum(c["wall_s"] for c in done) / sum(
                c["wall_s"] for c in rounds[0]["children"].values() if "wall_s" in c),
            sum(c["seconds"] + c["tick_s"] for c in done))
        report["per_layer"].update(report["checks"])
    return report


# ---------------------------------------------------------------------------
# switch and insert

def op_latencies(phase: dict) -> list[float]:
    """Each op's median reference latency over the passes, in ms; op k of
    a pass is scaled by the kernel samples taken just before and after it.
    Ops that never completed are left out."""
    scaled = [[None if ms is None else refclock.scale(ms, refs[k], refs[k + 1])
               for k, ms in enumerate(pass_ms)]
              for pass_ms, refs in zip(phase["op_ms"], phase["ref_s"])]
    out = []
    for samples in zip(*scaled):
        done = [x for x in samples if x is not None]
        if done:
            out.append(statistics.median(done))
    return out


def run_commute(args, env: dict, deadline: float) -> dict:
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # set-ups alone, at least SETUP_RUNS - 1 and until SETUP_BUDGET_S of
    # them were timed, then the measuring process, whose set-up counts too
    setups = []
    spent = 0.0
    while len(setups) < SETUP_RUNS - 1 or (
            spent < SETUP_BUDGET_S and len(setups) < MAX_SETUP_RUNS - 1):
        result, wall, _ref = spawn(
            "commute_worker.py", argv + ["--setup-only"], env, deadline)
        setups.append(refclock.scale(result["setup_s"], result["setup_ref_s"]))
        spent += wall
    if args.trace:
        argv += ["--spans", os.path.join(OUT_DIR, f"{args.workload}.spans")]
    result, _wall, _ref = spawn("commute_worker.py", argv, env, deadline)
    setups.append(refclock.scale(result["setup_s"], result["setup_ref_s"]))
    plain = result["plain"]
    report = {"attempted": plain["attempted"], "failed": plain["failed"],
              "errors": plain["errors"], "inputs": result["inputs"],
              "raw_pass_s": plain["pass_s"]}
    ops = op_latencies(plain)
    if not ops:
        return report
    wall = sum(ops) / 1000
    p90 = percentile(ops, 0.9)
    report["end_to_end"] = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": statistics.median(ops),
        "op_p90_ms": p90,
        "peak_rss_mb": result["rss_mb"],
    }
    report["samples"] = {"ops": len(ops), "passes": len(plain["pass_s"]),
                         "beyond_p90": sum(1 for x in ops if x > p90)}
    if args.trace:
        traced = result["traced"]
        report["attempted"] += traced["attempted"]
        report["failed"] += traced["failed"]
        report["errors"] += traced["errors"]
        report["per_layer"] = layer_metrics(
            result["trace"], sum(op_latencies(traced)) / sum(ops),
            sum(x for ops_ms in traced["op_ms"] for x in ops_ms if x is not None) / 1000)
        report["per_layer"].update({name: 0.0 for name in CHECK_GROUPS})
    return report


# ---------------------------------------------------------------------------
# per-layer metrics from a trace summary

def layer_metrics(summary: dict, overhead: float, traced_work_s: float) -> dict:
    """Every per-layer metric; a layer the workload does not reach reads 0.

    ``traced_work_s`` is the traced time the spans should account for: the
    commute calls, or the checks of the sweep.
    """
    calls = summary["calls"]
    self_s = summary["self_s"]
    counters = summary["counters"]
    m = {}
    for name in ("commutor.switching", "insertion.internal_insert",
                 "insertion.apply_order_word", "insertion.skew_rsk_inverse",
                 "cli.parse_tableau", "tableaux.enumerate_ballot",
                 "tableaux.enumerate_ssyt", "knuth.p_tableau_rows",
                 "knuth.knuth_class", "schur.lr_coefficient",
                 "schur.schur_polynomial", "schur.poly_mul"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("commutor.switching", "commutor.rho1_internal",
                 "commutor.rho1_scratch", "commutor.staged_decomposition",
                 "tableaux.SkewTableau", "insertion.internal_insert",
                 "insertion.apply_order_word", "insertion.skew_rsk_inverse",
                 "insertion.lr_violation", "cli.parse_tableau", "cli.emit",
                 "tableaux.enumerate_ballot", "tableaux.enumerate_ssyt",
                 "knuth.p_tableau_rows", "knuth.knuth_class",
                 "schur.lr_coefficient", "schur.schur_polynomial",
                 "schur.poly_mul"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("commutor.switches", "commutor.appends",
                 "tableaux.SkewTableau.validated",
                 "tableaux.SkewTableau.validated_cells",
                 "insertion.route_cells", "tableaux.enumerate_ballot.results",
                 "tableaux.enumerate_ssyt.results", "knuth.knuth_class.words",
                 "schur.poly_mul.term_products"):
        m[name] = counters.get(name, 0)
    m["commutor.us_per_switch"] = ratio(
        self_s.get("commutor.switching", 0.0) * 1e6, m["commutor.switches"])
    m["insertion.ns_per_route_cell"] = ratio(
        self_s.get("insertion.internal_insert", 0.0) * 1e9, m["insertion.route_cells"])
    hits = counters.get("verify.packed_fillings.hits", 0)
    m["verify.packed_fillings.hit_ratio"] = ratio(
        hits, hits + counters.get("verify.packed_fillings.misses", 0))
    for check in CHECK_FUNCTIONS:
        m[f"verify.{check}.self_s"] = self_s.get(f"verify.{check}", 0.0)
    m["golden.run_golden.s"] = summary["total_s"].get("golden.run_golden", 0.0)
    by_module = {mod: 0.0 for mod in MODULES}
    for name, s in self_s.items():
        by_module[name.split(".", 1)[0]] += s
    for mod, s in by_module.items():
        m[f"module.{mod}.self_s"] = s
    m["trace.accounted_ratio"] = ratio(sum(by_module.values()), traced_work_s)
    m["trace.overhead_ratio"] = overhead
    m["trace.spans"] = summary["spans"]
    return m


# ---------------------------------------------------------------------------

def run_workload(workload: str, args, env: dict) -> dict:
    args = argparse.Namespace(**{**vars(args), "workload": workload})
    deadline = time.monotonic() + RUN_LIMIT_S
    if workload == "sweep":
        report = run_sweep(args, env, deadline)
    else:
        report = run_commute(args, env, deadline)
    with open(os.path.join(OUT_DIR, f"{workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report: dict, values: dict, units: dict, prefix: str) -> None:
    for err in report["errors"]:
        print(f"{prefix}FAILED: {err}")
    print(f"{prefix}fail_ratio {ratio(report['failed'], report['attempted']):.4f} "
          f"({report['failed']} of {report['attempted']} ops)")
    for name, secs in report.get("checks", {}).items():
        print(f"{prefix}{name} {secs:.4f} s (median of {report['rounds']} rounds)")
    if "raw_wall_s" in report:
        print(f"{prefix}raw wall_s {report['raw_wall_s']:.4f} s")
    if "raw_pass_s" in report:
        print(f"{prefix}raw pass_s " + " ".join(f"{x:.3f}" for x in report["raw_pass_s"]))
    if "samples" in report:
        print(prefix + "samples {ops} ops in {passes} passes, {beyond_p90} beyond p90"
              .format(**report["samples"]))
    if "inputs" in report:
        print(f"{prefix}inputs {json.dumps(report['inputs'])}")
    for name, value in values.items():
        print(f"{prefix}{name} {value:.6g} {units[name]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "lrcommute", "__init__.py")):
        print("error: run from the root of an lrcommute checkout "
              "(src/lrcommute not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}

    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [src])
    os.makedirs(OUT_DIR, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        prefix = f"{workload}." if args.workload == "all" else ""
        try:
            report = run_workload(workload, args, env)
        except ChildError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if key not in report:
            print(f"error: {workload}: no operation completed: {report['errors']}",
                  file=sys.stderr)
            return 1
        values = {name: report[key][name] for name in units}
        print_report(report, values, units, prefix)
        total["correct"] = total["correct"] and report["failed"] == 0
        total["attempted"] += report["attempted"]
        total["failed"] += report["failed"]
        total["metrics"].update({prefix + name: {"value": v, "unit": units[name]}
                                 for name, v in values.items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
