"""The ``lrcommute commute`` latency record: every method on inputs of
growing size.

    python3 tools/commute_scale.py [--out BENCH_commute_scale.json]

Run it from a source checkout with pytest installed: it puts ``src/`` and
``tests/`` on the path.
Each (input, method) runs in a fresh interpreter, one process at a time:
the child times ``cli.main(["--format", "json", "commute", FILE, "--method",
METHOD])`` (parse, commute and print, not the import) and reports its peak
RSS (``VmHWM`` of ``/proc/self/status``, so Linux only: a spawned child's
``ru_maxrss`` also counts its parent's RSS at the spawn), and the number of
swaps any switch order makes, read off the input and the image by the
displacement identity (``swaps``).  Greedy switching's site tests are
counted in one more, untimed child, which wraps ``commutor._admissible``
from outside.  Each child limits its own address space to ``AS_LIMIT``
bytes, so that a method that needs more fails its point, recorded with the
child's last error line, rather than the machine.  It also reports the time
scaled by ``perfbench/refclock.py``, whose kernel it samples while
the call runs, so that records taken on a drifting machine compare.  The
inputs are five families of pairs from ``tests/test_commutor.py``: the deep
two-column pairs, two kinds of disconnected blocks (staircases cut at every
letter, and seed-1 blocks of letters up to 6 cut with probability 0.3, up to
3,200 letters, about 3.09 M boxes), the wide switching pairs and the wide
bumping pairs.
Greedy switching is stopped on a family once a run's scaled time passes
``GREEDY_LIMIT_S``, and skipped on every larger input of it; a raw timeout
of three times that guards each of its children.  The record holds, per
method, the best raw and scaled times over ``RUNS`` runs and the peak RSS on
each input, greedy's site tests, the input's swaps, whether all four methods
printed the same image, and the log-log slopes of scaled time, over all
inputs and over each family.  The slopes fit the switching methods against
swaps, which every order makes alike (N^2 on the wide switching pair's 4N
boxes), and the insertion methods against boxes, each only on the inputs
with at least ``MIN_FIT`` of its own, below which fixed per-call cost
dominates.  It is a record, not a gate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("switching", "infusion", "internal", "scratch")
GREEDY_LIMIT_S = 60
SWAP_AXIS = ("switching", "infusion")  # fitted against swaps, not boxes
MIN_FIT = 10_000
RUNS = 3
AS_LIMIT = 3 << 30


def inputs() -> dict[str, tuple[str, dict]]:
    """The inputs by name, each with its family, as ``commute``'s JSON
    tableaux: the pairs of ``tests/test_commutor.py``, so the record and the
    tests share them."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_commutor import (_deep_pair, _disconnected_pair, _wide_bumping_pair,
                               _wide_switching_pair)

    from lrcommute import to_json_dict

    pairs = {f"deep n={n}": ("deep", _deep_pair(n)) for n in (400, 1500)}
    pairs.update({f"staircase N={n}": ("staircase", _disconnected_pair(0, n, 4, cut=1))
                  for n in (40, 80, 160)})
    pairs.update({f"blocks {n} letters": ("blocks", _disconnected_pair(1, n, 6))
                  for n in (200, 800, 1600, 3200)})
    pairs.update({f"wide switching N={n}": ("wide switching", _wide_switching_pair(n))
                  for n in (250, 500, 1000, 2000)})
    pairs.update({f"wide bumping N={n}": ("wide bumping", _wide_bumping_pair(n))
                  for n in (10_000, 40_000, 160_000, 640_000)})
    return {name: (family, to_json_dict(p.skew))
            for name, (family, p) in pairs.items()}


def swaps(table: dict, image: dict) -> int:
    """The switches every order makes from the pair of ``table`` to its
    image: each moves a letter of the Yamanouchi member one step east or
    south, so they number the sum of row + column over the image's skew
    cells, less that sum over the input's inner border."""
    def weight(shape):
        return sum(n * r + n * (n + 1) // 2 for r, n in enumerate(shape, 1))
    return weight(image["outer"]) - weight(image["inner"]) - weight(table["inner"])


def child(method: str, path: str):
    """Time one ``commute`` call in this interpreter and print the result."""
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import refclock

    from lrcommute import cli

    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        with refclock.Ticker() as ticker:
            start = time.perf_counter()
            code = cli.main(["--format", "json", "commute", path, "--method", method])
            seconds = time.perf_counter() - start - ticker.seconds
        out = sys.stdout.getvalue()
    finally:
        sys.stdout = stdout
    with open("/proc/self/status") as status:
        rss_mb = next(int(line.split()[1]) for line in status
                      if line.startswith("VmHWM:")) / 1024
    with open(path) as fh:
        table = json.load(fh)
    image = json.loads(out)["skew"] if code == 0 else None
    print(json.dumps({"code": code, "s": seconds,
                      "s_ref": refclock.scale(seconds, ticker.mean),
                      "rss_mb": rss_mb,
                      "swaps": image and swaps(table, image),
                      "sha256": hashlib.sha256(out.encode()).hexdigest()}))


def count_child(path: str):
    """Count greedy switching's site tests on one ``commute`` call, untimed,
    through a wrapper on ``commutor._admissible``."""
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))
    from lrcommute import cli, commutor

    tests = 0
    admissible = commutor._admissible

    def counting(*args):
        nonlocal tests
        tests += 1
        return admissible(*args)

    commutor._admissible = counting
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--format", "json", "commute", path, "--method", "switching"])
    print(json.dumps({"code": code, "site_tests": tests}))


def run_child(args: list[str], timeout: float | None) -> dict | None:
    """One fresh interpreter's result for ``args`` (``--child METHOD FILE``
    or ``--count FILE``), or None past ``timeout``; a child that fails, say
    past ``AS_LIMIT``, gives its last line of stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        done = subprocess.run([sys.executable, __file__, *args],
                              capture_output=True, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode:
        return {"failed": (done.stderr.strip().splitlines() or ["no stderr"])[-1]}
    return json.loads(done.stdout)


def slope(points: list[tuple[int, float]]) -> float | None:
    """The least-squares slope of log(time) against log(size)."""
    if len(points) < 2:
        return None
    xs = [math.log(b) for b, _s in points]
    ys = [math.log(s) for _b, s in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return round(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx, 3)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_commute_scale.json"))
    ap.add_argument("--child", nargs=2, metavar=("METHOD", "FILE"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--count", metavar="FILE", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(*args.child)
    if args.count:
        return count_child(args.count)
    tables = inputs()
    order = sorted(tables, key=lambda name: sum(tables[name][1]["outer"]))
    rows, greedy_off = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in order:
            family, table = tables[name]
            path = os.path.join(tmp, "input.json")
            Path(path).write_text(json.dumps(table))
            row = {"input": name, "family": family, "boxes": sum(table["outer"])}
            digests = set()
            for method in METHODS:
                if method == "switching" and family in greedy_off:
                    row[method] = {"skipped": f"past {GREEDY_LIMIT_S} ref s "
                                              f"on {greedy_off[family]}"}
                    continue
                timeout = 3 * GREEDY_LIMIT_S if method == "switching" else None
                results = []
                for _ in range(RUNS):
                    result = run_child(["--child", method, path], timeout)
                    if result is None or "failed" in result:
                        break
                    results.append(result)
                    if method == "switching" and result["s_ref"] > GREEDY_LIMIT_S:
                        greedy_off[family] = name
                        break
                if result and "failed" in result:
                    row[method] = result
                    print(f"{name:24} {method:9} failed: {result['failed']}",
                          flush=True)
                    continue
                if not results:
                    greedy_off[family] = name
                    row[method] = {"skipped": f"past {timeout} s raw"}
                    continue
                digests.update(r["sha256"] for r in results)
                row.setdefault("swaps", results[0]["swaps"])
                row[method] = {"s": round(min(r["s"] for r in results), 4),
                               "s_ref": round(min(r["s_ref"] for r in results), 4),
                               "rss_mb": round(max(r["rss_mb"] for r in results), 1),
                               "exit": sorted({r["code"] for r in results})}
                if method == "switching":
                    counted = run_child(["--count", path], timeout)
                    row[method]["site_tests"] = counted and counted.get("site_tests")
                print(f"{name:24} {method:9} {row[method]['s']:9.4f} s "
                      f"{row[method]['s_ref']:9.4f} ref s "
                      f"{row[method]['rss_mb']:7.1f} MB", flush=True)
            row["same_image"] = len(digests) == 1
            rows.append(row)
    axis = {m: "swaps" if m in SWAP_AXIS else "boxes" for m in METHODS}
    slopes = {f: {m: slope([(r[axis[m]], r[m]["s_ref"]) for r in rows
                            if f in ("all", r["family"]) and "s" in r[m]
                            and r[axis[m]] >= MIN_FIT])
                  for m in METHODS}
              for f in ("all", *dict.fromkeys(r["family"] for r in rows))}
    record = {
        "what": "lrcommute commute latency by method on inputs of growing "
                "size: each (input, method) in a fresh interpreter, one at a "
                f"time, its address space limited to {AS_LIMIT >> 30} GiB; s is "
                f"the best cli.main time over {RUNS} runs, s_ref "
                "the best in reference seconds (perfbench/refclock.py), "
                "rss_mb the child's peak RSS (VmHWM), site_tests greedy's "
                "calls of commutor._admissible in one more, untimed child, "
                "swaps the switches every order makes, by the displacement "
                "identity; slopes fit s_ref against swaps (switching, "
                "infusion) or boxes (internal, scratch), each on the inputs "
                f"with at least {MIN_FIT} of its own; greedy stops on a "
                f"family past {GREEDY_LIMIT_S} ref s",
        "command": "python3 tools/commute_scale.py",
        "python": sys.version.split()[0],
        "inputs": rows,
        "loglog_slope": slopes,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("slopes", json.dumps(slopes))


if __name__ == "__main__":
    main()
