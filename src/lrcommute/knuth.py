"""Words under Knuth relations: RSK, equivalence testing, elementary moves.

Equivalence is decided by comparing RSK insertion tableaux.  The elementary
moves generate it: the Knuth commutativity sweep makes one move per word.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .insertion import _freeze
from .tableaux import SkewTableau

Word = tuple[int, ...]


class RskPair(NamedTuple):
    p: SkewTableau
    q: SkewTableau


def _insert_rows(rows: list[list[int]], x: int) -> tuple[int, int]:
    """Schensted row insertion into mutable normal-shape row lists.

    Returns the 1-based (row, col) of the created box.
    """
    k = 0
    while True:
        if k == len(rows):
            rows.append([x])
            return k + 1, 1
        row = rows[k]
        j = bisect_right(row, x)  # leftmost entry strictly greater than x
        if j == len(row):
            row.append(x)
            return k + 1, len(row)
        row[j], x = x, row[j]
        k += 1


def rsk(word) -> RskPair:
    """Left-to-right Schensted insertion with standard recording tableau."""
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for i, x in enumerate(word):
        if x < 1:
            raise ValueError(f"letter {x} < 1")
        r, _ = _insert_rows(p_rows, x)
        if r > len(q_rows):
            q_rows.append([])
        q_rows[r - 1].append(i + 1)
    inner = [0] * len(p_rows)
    return RskPair(_freeze(inner, p_rows), _freeze(inner, q_rows))


def p_tableau_rows(word) -> tuple[tuple[int, ...], ...]:
    """Rows of the RSK insertion tableau (cheap canonical form of a word)."""
    rows: list[list[int]] = []
    for x in word:
        _insert_rows(rows, x)
    return tuple(tuple(r) for r in rows)


def knuth_equivalent(u, v) -> bool:
    return p_tableau_rows(u) == p_tableau_rows(v)


def elementary_moves(word) -> list[Word]:
    """All words one elementary Knuth move away, on adjacent triples:
    xzy ~ zxy for x <= y < z and yxz ~ yzx for x < y <= z."""
    w = tuple(word)
    out = []
    for i in range(len(w) - 2):
        a, b, c = w[i], w[i + 1], w[i + 2]
        # a b c as x z y -> z x y
        if a <= c < b:
            out.append(w[:i] + (b, a, c) + w[i + 3:])
        # a b c as z x y -> x z y
        if b <= c < a:
            out.append(w[:i] + (b, a, c) + w[i + 3:])
        # a b c as y x z -> y z x
        if b < a <= c:
            out.append(w[:i] + (a, c, b) + w[i + 3:])
        # a b c as y z x -> y x z
        if c < a <= b:
            out.append(w[:i] + (a, c, b) + w[i + 3:])
    return list(dict.fromkeys(out))

