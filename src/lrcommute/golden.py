"""Replay of the worked examples kept under fixtures/, byte-exact.

Each runner loads one fixture, recomputes the displayed objects and compares
exactly; mismatches carry a grid diff.  ``run_golden`` drives them all and is
what the CLI's golden subcommand and the acceptance suite call.
"""

from __future__ import annotations

import heapq
import json

from .commutor import (METHODS, STRATEGIES, _board, _board_of, _cells_of,
                       _find_sites, _geometry, _successors, gt_order_word,
                       nu_hat, rho1_switching, run_row_program,
                       staged_decomposition, switching)
from .insertion import GluedPair, apply_order_word, glued_pair
from .knuth import knuth_equivalent
from .tableaux import (EMPTY, SkewTableau, as_partition, companion_word,
                       from_json_dict, glue, is_ballot_tableau, reading_word,
                       restrict_rows, standardize, tableau_content, to_text,
                       yamanouchi_tableau)


class GoldenResult:
    def __init__(self, name: str):
        self.name = name
        self.passed = True
        self.messages = []

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"GoldenResult({fields})"

    def check(self, label, expected, actual):
        if expected != actual:
            self.passed = False
            self.messages.append(
                f"{label}:\n  expected {_show(expected)}\n  actual   {_show(actual)}")

    def line(self) -> str:
        return f"golden {self.name:<14} {'pass' if self.passed else 'FAIL'}"


def _show(x) -> str:
    if isinstance(x, SkewTableau):
        return f"{x.outer}/{x.inner}\n" + to_text(x)
    if isinstance(x, GluedPair):
        return f"yam {x.yam.outer}, skew {x.skew.outer}/{x.skew.inner} {x.skew.rows}"
    return repr(x)


def _load(name: str) -> dict:
    from importlib import resources  # only a replay reads the fixtures
    ref = resources.files("lrcommute.fixtures").joinpath(name)
    return json.loads(ref.read_text())


def _cells(entries) -> dict:
    return {(r, c): (val, color) for r, c, val, color in entries}


_SEARCH_CAP = 20000  # states a reachability search may visit


def _reachable(g, start, target) -> bool:
    """Best-first search through admissible switches from one board of
    geometry g to another; exhaustive on the fixtures, which reach at most
    15,666 states."""
    def dist(board):
        return sum(x != y for x, y in zip(board, target))

    start = tuple(start)
    seen = {start}
    heap = [(dist(start), 0, start)]
    tick = 0
    while heap and len(seen) < _SEARCH_CAP:
        d, _, board = heapq.heappop(heap)
        if d == 0:
            return True
        for nxt in _successors(g, board):
            if nxt not in seen:
                seen.add(nxt)
                tick += 1
                heapq.heappush(heap, (dist(nxt), tick, nxt))
    return False


# ---------------------------------------------------------------------------

def _run_companion_word(res: GoldenResult, data: dict):
    u, v, std = (from_json_dict(data[k]) for k in ("u", "v", "std"))
    word = tuple(data["companion"])
    res.check("std U", std, standardize(u))
    res.check("std V", std, standardize(v))
    for name, t in (("R(U)", u), ("R(V)", v), ("R(std)", std)):
        res.check(name, word, companion_word(t))


def _run_ballot_words(res: GoldenResult, data: dict):
    h, t = from_json_dict(data["h"]), from_json_dict(data["t"])
    res.check("word of H", tuple(data["word_h"]), reading_word(h))
    res.check("word of T", tuple(data["word_t"]), reading_word(t))
    res.check("H ballot", data["ballot_h"], is_ballot_tableau(h))
    res.check("T ballot", data["ballot_t"], is_ballot_tableau(t))


def _run_switch_sequence(res: GoldenResult, data: dict):
    frames = [_cells(f) for f in data["frames"]]
    u, v = from_json_dict(data["u"]), from_json_dict(data["v"])
    g = _geometry(v.outer, u.inner)
    start = _board(u, v)
    res.check("first frame", frames[0], _cells_of(g, start))
    boards = [_board_of(g, f) for f in frames]
    for k in range(len(frames) - 1):
        ok = _reachable(g, boards[k], boards[k + 1])
        res.check(f"frame {k + 1} -> {k + 2} by switches", True, ok)
    res.check("first frame admits a switch", True, bool(_find_sites(g, start)))
    for strategy in STRATEGIES:
        s, h = switching(u, v, strategy=strategy)
        res.check(f"terminal S ({strategy})", from_json_dict(data["terminal_s"]), s)
        res.check(f"terminal H ({strategy})", from_json_dict(data["terminal_h"]), h)


def _run_insertion_words(res: GoldenResult, data: dict):
    t = from_json_dict(data["t"])
    expected = from_json_dict(data["result"])
    word = tuple(data["word"])
    word_p = tuple(data["word_prime"])
    res.check("R(U)", word, companion_word(from_json_dict(data["u"])))
    res.check("R(U')", word_p, companion_word(from_json_dict(data["u_prime"])))
    res.check("words Knuth equivalent", True, knuth_equivalent(word, word_p))
    res.check("phi_u T", expected, apply_order_word(t, word))
    res.check("phi_v T", expected, apply_order_word(t, word_p))


def _run_staged_switching(res: GoldenResult, data: dict):
    a = data["a"]
    pair_a = glued_pair(from_json_dict(a["t"]))
    sd = staged_decomposition(pair_a)
    res.check("a: d", a["d"], sd.d)
    res.check("a: F", tuple(a["f"]),
              tuple(x for x in pair_a.skew.rows[-1] if x <= len(pair_a.skew.outer) - 1))
    res.check("a: F hat", tuple(a["f_hat"]), sd.f_hat)
    res.check("a: D", tuple(a["big_d"]), sd.big_d)
    res.check("a: S", from_json_dict(a["s"]), sd.s)
    res.check("a: Q", from_json_dict(a["q"]), sd.q)
    g = _geometry(pair_a.skew.outer, pair_a.yam.inner)
    start = _board(pair_a.yam, pair_a.skew)
    mid = _board_of(g, _cells(a["frame_mid"]))
    final = _board_of(g, _cells(a["frame_final"]))
    res.check("a: mid frame reachable", True, _reachable(g, start, mid))
    res.check("a: final frame reachable from mid", True, _reachable(g, mid, final))

    b = data["b"]
    pair_b = glued_pair(from_json_dict(b["t"]))
    sdb = staged_decomposition(pair_b)
    res.check("b: d", b["d"], sdb.d)
    res.check("b: G hat", tuple(b["g_hat"]), sdb.f_hat)
    res.check("b: D", tuple(b["big_d"]), sdb.big_d)
    res.check("b: X", tuple(b["x"]), sdb.q.rows[-1][len(tuple(a["big_d"])):])
    res.check("b: S", from_json_dict(b["s"]), sdb.s)
    res.check("b: Q", from_json_dict(b["q"]), sdb.q)
    g = _geometry(pair_b.skew.outer, pair_b.yam.inner)
    res.check("b: final frame reachable", True,
              _reachable(g, _board(pair_b.yam, pair_b.skew),
                         _board_of(g, _cells(b["frame_final"]))))


def _run_row_recursion(res: GoldenResult, data: dict):
    t = from_json_dict(data["t"])
    res.check("content", tuple(data["nu"]), as_partition(tableau_content(t)))
    res.check("nu hat", tuple(data["nu_hat"]), nu_hat(t))
    word = tuple(data["gt_word"])
    res.check("order word of the pattern", word, gt_order_word(t))
    res.check("order word builds the diagram",
              yamanouchi_tableau(tuple(data["nu"])).outer,
              apply_order_word(EMPTY, word).outer)

    # one run of the row program: each row block's operators, named as in
    # the paper (phibar inserts, chi appends), and the state after each
    blocks: dict = {}

    def on_step(step, _trace, state):
        op = "phibar" if step.op == "insert" else "chi"
        blocks.setdefault(step.row, []).append(([op, step.i], state))

    run_row_program(t, on_step)
    for k in range(len(t.outer)):
        res.check(f"scratch frame {k + 1}", from_json_dict(data["scratch_frames"][k]),
                  blocks[k + 1][-1][1])

    # level by level: operators, frames, recursion result, every commutor
    for level in data["rho_levels"]:
        k = level["k"]
        steps, states = zip(*blocks[k])
        res.check(f"rho^({k}) operators", level["steps"], list(steps))
        for (op, i), frame, state in zip(level["steps"], level["frames"], states):
            if frame is not None:
                res.check(f"rho^({k}) frame after {op}_{i}",
                          from_json_dict(frame), state)
        expected = glued_pair(from_json_dict(level["result"]))
        res.check(f"rho^({k}) recursion result", expected, glued_pair(states[-1]))
        sub_pair = glued_pair(restrict_rows(t, k)[1])
        for name, method in METHODS.items():
            res.check(f"rho^({k}) {name}", expected, method.rho(sub_pair))


def _run_factored_commutor(res: GoldenResult, data: dict):
    pair = glued_pair(from_json_dict(data["t"]))
    sd = staged_decomposition(pair)
    full = rho1_switching(pair)
    res.check("rho1 of the full pair",
              glued_pair(from_json_dict(data["rho4_full"])), full)
    part = rho1_switching(glued_pair(sd.s))
    res.check("rho1 of the staged state",
              glued_pair(from_json_dict(data["rho4_part"])), part)
    res.check("gluing identity", full,
              GluedPair(part.yam, glue(part.skew, sd.q)))
    _rest, s2 = restrict_rows(sd.s, 2)
    res.check("rho1 of the two-row restriction",
              glued_pair(from_json_dict(data["rho2_sub"])),
              rho1_switching(glued_pair(s2)))
    b_state = from_json_dict(data["rho3_b_state"])
    res.check("rho1 of the b-level state",
              glued_pair(from_json_dict(data["rho3_b_result"])),
              rho1_switching(glued_pair(b_state)))
    w1, w2 = tuple(data["word_lhs"]), tuple(data["word_rhs"])
    res.check("row words Knuth equivalent", True, knuth_equivalent(w1, w2))
    base = rho1_switching(glued_pair(s2)).skew
    res.check("operator words act identically",
              apply_order_word(base, w1), apply_order_word(base, w2))


RUNNERS = {
    "companion-word": ("companion_word.json", _run_companion_word),
    "ballot-words": ("ballot_words.json", _run_ballot_words),
    "switch-sequence": ("switch_sequence.json", _run_switch_sequence),
    "insertion-words": ("insertion_words.json", _run_insertion_words),
    "staged-switching": ("staged_switching.json", _run_staged_switching),
    "row-recursion": ("row_recursion.json", _run_row_recursion),
    "factored-commutor": ("factored_commutor.json", _run_factored_commutor),
}


def run_golden(ids=None) -> list[GoldenResult]:
    """Replay the selected examples (all by default)."""
    if ids is None:
        ids = list(RUNNERS)
    results = []
    for name in ids:
        if name not in RUNNERS:
            raise ValueError(f"unknown example {name!r}; valid ids: "
                             f"{', '.join(RUNNERS)}")
        fname, fn = RUNNERS[name]
        data = _load(fname)
        res = GoldenResult(name)
        try:
            fn(res, data)
        except Exception as exc:  # a broken fixture should report, not crash
            res.passed = False
            res.messages.append(f"error: {exc}")
        results.append(res)
    return results
