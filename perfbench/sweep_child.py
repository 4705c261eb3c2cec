"""One fresh interpreter of the sweep workload: one verify check, or the
knuth-commutativity and route-geometry pair that shares one sweep, or the
golden replay.  A fresh interpreter per check keeps any check from reading
another's ``lru_cache`` or module-level cache.  The last line of stdout is
one JSON object for ``run.py``.

    python3 perfbench/sweep_child.py --check confluence --seed 1 --trace 0 \
        --spawned-at <time.monotonic() of the parent>
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import refclock

# check -> [(verify function, keyword arguments)] at the pinned sizes
CHECKS = {
    "involution": [("check_involution", {"max_size": 8})],
    "coincidence": [("check_coincidence", {"max_size": 8})],
    "recursion": [("check_recursion", {"max_size": 8})],
    "confluence": [("check_confluence", {"max_size": 6})],
    "knuth-route": [("check_knuth_commutativity", {"max_size": 6, "word_len": 4}),
                    ("check_route_geometry", {"max_size": 6, "word_len": 4})],
    "skew-rsk": [("check_skew_rsk", {"max_size": 5})],
    "lr-oracle": [("check_lr_oracle", {"max_size": 7})],
    "golden": [],
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--check", choices=sorted(CHECKS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args()

    from lrcommute import golden, verify
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned_at
    setup_ref_s = refclock.sample(25)

    reports = []
    with refclock.Ticker() as ticker:
        t0 = time.perf_counter()
        if args.check == "golden":
            results = golden.run_golden()
            reports.append({"name": "golden", "instances": len(results),
                            "failures": [r.name for r in results if not r.passed]})
        for fn_name, kwargs in CHECKS[args.check]:
            rep = getattr(verify, fn_name)(seed=args.seed, **kwargs)
            reports.append({"name": rep.name, "instances": rep.instances,
                            "failures": [list(f) for f in rep.failures[:5]]})
        seconds = time.perf_counter() - t0

    # the kernel samples ran inside the check; take their time out
    out = {"setup_s": setup_s, "setup_ref_s": setup_ref_s,
           "seconds": seconds - ticker.seconds, "tick_s": ticker.seconds,
           "check_ref_s": ticker.mean, "reports": reports,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        info = verify.packed_fillings.cache_info()
        out["trace"] = tracer.summary()
        out["trace"]["counters"]["verify.packed_fillings.hits"] = info.hits
        out["trace"]["counters"]["verify.packed_fillings.misses"] = info.misses
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
