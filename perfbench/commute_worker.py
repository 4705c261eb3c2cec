"""One benchmark process for the switch and insert workloads.

Sets up (import, input pool, untimed references, warm-up), then calls
``lrcommute.cli.main`` for ``commute`` in a closed loop with one caller,
in whole passes over the pool, timing each call and checking its output.
With ``--trace 1`` the first half of the time runs untraced and the second
half under the tracer, so the two can be compared.  The pools give at least
100 ops per pass, each op one (input, method) pair.  The last line of
stdout is one JSON object for ``run.py``.

    python3 perfbench/commute_worker.py --workload switch --seed 1 \
        --seconds 30 --trace 0 --spawned-at <time.monotonic() of the parent>
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time

import gen
import refclock

WORKLOADS = {
    # methods, disconnected pairs per pool, letter range, staircase rows
    "switch": (("switching", "infusion"), 26, (12, 24), 20),
    "insert": (("internal", "scratch"), 25, (30, 70), None),
}
MIN_PASSES = 3  # an op's latency is its median over at least this many


def build_pool(workload: str, seed: int):
    """(input text, expected output, descriptor) for the disconnected pairs
    and their images; the references come from ``rho1_internal``."""
    from lrcommute import (from_json_dict, glued_pair, rho1_internal,
                           to_json_dict)
    _methods, n, letters, staircase_n = WORKLOADS[workload]
    pool = []
    for d in gen.disconnected_pool(seed, n, letters, staircase_n):
        pair = glued_pair(from_json_dict(d))
        image = rho1_internal(pair)
        as_out = {"yam": to_json_dict(pair.yam), "skew": to_json_dict(pair.skew)}
        image_out = {"yam": to_json_dict(image.yam),
                     "skew": to_json_dict(image.skew)}
        pool.append((json.dumps(as_out["skew"]), image_out,
                     gen.describe(as_out["skew"])))
        pool.append((json.dumps(image_out["skew"]), as_out,
                     gen.describe(image_out["skew"])))
    return pool


def describe_pool(pool) -> dict:
    """Input descriptors by kind, and the share of append-heavy inputs:
    those whose inner border (row appends) outnumbers their letters
    (internal insertions)."""
    out = {}
    for kind, entries in (("disconnected", pool[0::2]), ("image", pool[1::2])):
        descs = [d for _t, _e, d in entries]
        out[kind] = {key: [min(d[key] for d in descs), max(d[key] for d in descs)]
                     for key in ("letters", "rows", "inner_cells")}
    heavy = sum(1 for _t, _e, d in pool if d["inner_cells"] > d["letters"])
    out["inputs"] = len(pool)
    out["append_heavy_share"] = heavy / len(pool)
    return out


def call_commute(cli, text: str, method: str):
    """One ``lrcommute --format json commute - --method M`` call in-process;
    returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = cli.main(["--format", "json", "commute", "-",
                             "--method", method])
            t1 = time.perf_counter()
    finally:
        sys.stdin = saved_stdin
    return t1 - t0, code, out.getvalue()


def run_passes(cli, ops, budget: float, min_passes: int, result: dict) -> None:
    """Whole passes over ``ops``, at least ``min_passes``, then more while
    the next pass is expected to end within ``budget`` seconds.

    Each pass appends one raw latency per op, in the same op order (None if
    the op raised), and the reference-kernel time before the first op and
    after every op, so op k lies between kernel samples k and k + 1.
    """
    start = time.perf_counter()
    last = 0.0
    while (len(result["pass_s"]) < min_passes
           or time.perf_counter() - start + last <= budget):
        pass_start = time.perf_counter()
        latencies = []
        refs = [refclock.sample()]
        for text, expected, method in ops:
            result["attempted"] += 1
            try:
                seconds, code, out = call_commute(cli, text, method)
            except Exception as exc:  # an op that crashes counts as failed
                fail(result, f"{method}: {type(exc).__name__}: {exc}")
                latencies.append(None)
                refs.append(refclock.sample())
                continue
            refs.append(refclock.sample())
            latencies.append(seconds * 1000.0)
            if code != 0 or parse(out) != expected:
                fail(result, f"{method}: exit {code}, output {out[:200]!r}")
        last = time.perf_counter() - pass_start
        result["pass_s"].append(last)
        result["op_ms"].append(latencies)
        result["ref_s"].append(refs)


def parse(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def fail(result: dict, message: str) -> None:
    result["failed"] += 1
    if len(result["errors"]) < 10:
        result["errors"].append(message)


def phase() -> dict:
    return {"attempted": 0, "failed": 0, "errors": [], "op_ms": [],
            "ref_s": [], "pass_s": []}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args()

    with refclock.Ticker() as ticker:
        from lrcommute import cli
        methods = WORKLOADS[args.workload][0]
        pool = build_pool(args.workload, args.seed)
        ops = [(text, expected, method) for text, expected, _d in pool
               for method in methods]
        random.Random(args.seed).shuffle(ops)
        smallest = min(pool, key=lambda e: len(e[0]))
        for method in methods:  # warm-up: argparse, json and lazy imports
            call_commute(cli, smallest[0], method)
    # the kernel samples ran inside the set-up; take their time out
    setup_s = time.monotonic() - args.spawned_at - ticker.seconds
    setup_ref_s = ticker.mean
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    report = {"setup_s": setup_s, "setup_ref_s": setup_ref_s,
              "inputs": describe_pool(pool), "plain": phase()}
    budget = args.seconds / 2 if args.trace else args.seconds
    run_passes(cli, ops, budget, MIN_PASSES, report["plain"])
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        report["traced"] = phase()
        run_passes(cli, ops, budget, 1, report["traced"])
        report["trace"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
