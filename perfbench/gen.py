"""Seeded ballot-pair generator for the switch and insert workloads.

A *disconnected-block* pair is a random lattice (ballot) word cut into weakly
increasing runs, the runs placed bottom row first on rows that share no
column, over the smallest inner border that keeps the rows apart (a
staircase).  Cutting every letter into its own row gives the staircase
family of the roadmap.  Its *image* under the commutor (computed by the
caller) has a connected shape, an inner border the size of the word, and as
many letters as the disconnected pair has inner cells.

Run time on these inputs depends mostly on the shape, so the shapes come
from a fixed schedule that no seed changes; the seed draws the letters.
That keeps the cost of a pool nearly the same from seed to seed.
"""

from __future__ import annotations

import random

SHARES = (0.3, 0.55, 0.8)  # inner cells, as shares of the full staircase


def inner_cells(run_lengths: list[int]) -> int:
    """Inner cells of the staircase border: each run sits below the rest."""
    m = len(run_lengths)
    return sum(n * (m - 1 - j) for j, n in enumerate(run_lengths))


def run_lengths(rng: random.Random, length: int, target_inner: int) -> list[int]:
    """Cut a word of ``length`` letters at gaps drawn in random order until
    the staircase border has at least ``target_inner`` cells."""
    gaps = list(range(1, length))
    rng.shuffle(gaps)
    cuts: list[int] = []
    lengths = [length]
    for gap in gaps:
        if inner_cells(lengths) >= target_inner:
            break
        cuts.append(gap)
        bounds = [0] + sorted(cuts) + [length]
        lengths = [b - a for a, b in zip(bounds, bounds[1:])]
    return lengths


def lattice_filling(rng: random.Random, lengths: list[int],
                    max_letter: int) -> list[list[int]]:
    """Random runs, weakly increasing each, whose concatenation is a lattice
    word: every suffix has partition content.  Letters are drawn right to
    left, uniformly among those the ballot and run conditions allow."""
    counts = [0] * (max_letter + 1)
    runs = []
    for n in reversed(lengths):
        run = []
        cap = max_letter
        for _ in range(n):
            allowed = [1] + [x for x in range(2, cap + 1)
                             if counts[x - 1] > counts[x]]
            x = rng.choice(allowed)
            counts[x] += 1
            run.append(x)
            cap = x
        runs.append(run[::-1])
    return runs[::-1]


def disconnected_pair(runs: list[list[int]]) -> dict:
    """The skew tableau, as CLI JSON, whose reading word is the runs in order.

    The first run is the bottom row; each row's inner part is the total
    length of the rows below it, so no two rows share a column.
    """
    rows = runs[::-1]
    inner = []
    below = 0
    for row in reversed(rows):
        inner.append(below)
        below += len(row)
    inner.reverse()
    outer = [mu + len(row) for mu, row in zip(inner, rows)]
    return {"outer": outer, "inner": inner, "rows": rows}


def describe(t: dict) -> dict:
    """Input descriptors: letters, rows and inner cells of a CLI tableau."""
    return {"letters": sum(len(r) for r in t["rows"]),
            "rows": len(t["rows"]),
            "inner_cells": sum(t["inner"])}


def disconnected_pool(seed: int, n: int, letters: tuple[int, int],
                      staircase_n: int | None = None) -> list[dict]:
    """n disconnected-block tableaux.

    Slot k has a letter count spread evenly over the closed range
    ``letters``, a border of a cycling share of the full staircase and at
    most 2 + k % 4 distinct letters.  The optional first member is the
    staircase of ``staircase_n`` one-letter rows.
    """
    shape_rng = random.Random(0)  # the shapes are the same for every seed
    rng = random.Random(seed)
    lo, hi = letters
    pool = []
    if staircase_n:
        pool.append(disconnected_pair(
            lattice_filling(rng, [1] * staircase_n, 4)))
    slots = n - len(pool)
    for k in range(slots):
        length = lo + (hi - lo) * k // max(1, slots - 1)
        target = int(SHARES[k % 3] * length * (length - 1) / 2)
        lengths = run_lengths(shape_rng, length, target)
        pool.append(disconnected_pair(
            lattice_filling(rng, lengths, 2 + k % 4)))
    return pool
