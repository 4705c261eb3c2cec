"""Internal row insertion, its reverse, and the empty-matrix-word skew RSK
correspondence.

The basic move vacates the inner corner of a row and Schensted-inserts the
bumped entry into the rows below; it grows the inner and outer borders by one
box each without changing the multiset of entries.  Both directions run in
place on parallel mutable (inner, rows) lists, each row at its full width
with its inner cells holding 0, so a list index is a column:
``_insert_inplace`` makes the move, writing a 0 into the corner it vacates,
and ``_uninsert_inplace`` undoes it from the cell it created, reverse-bumping
until it takes out a 0.  The kernel returns the created cell, and adds the
bumping route's cells only to a list its caller passes; ``_insert_traced``
builds an ``InsertionTrace`` for the callers that hand one out.  A run of
moves at one row is one kernel call, checked once.

Skew RSK inserts T at the rows of U's cells in standard order, and its
inverse undoes the cells of Q's standard order, last first; ``_rows_at``
records Q from the created cells and U from the vacated ones, as rows of
entries for ``_tableau``.  The public functions thaw their arguments, run
the moves and freeze the result.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .tableaux import (Cell, SkewTableau, as_partition, is_ballot_tableau,
                       standard_order, yamanouchi_tableau)


class InsertionTrace(NamedTuple):
    """One internal insertion: the vacated inner cell, the bumping route
    (vacated cell first, created cell last), and the created outer cell.
    Blank-corner moves carry an empty route and created == vacated."""
    vacated: Cell
    route: tuple[Cell, ...]
    created: Cell


class GluedPair(NamedTuple):
    """A Yamanouchi tableau glued to a skew tableau sharing its border."""
    yam: SkewTableau
    skew: SkewTableau


def glued_pair(skew: SkewTableau) -> GluedPair:
    """Glue the Yamanouchi tableau of the inner border onto skew."""
    return GluedPair(yamanouchi_tableau(skew.inner), skew)


def lr_violation(p: GluedPair) -> str | None:
    """Why p fails to be a ballot pair of partition shape, or None."""
    yam = yamanouchi_tableau(p.skew.inner)
    if p.yam != yam:
        return ("the inner member must be the Yamanouchi tableau of the "
                f"skew member's inner border {yam.outer}")
    if not is_ballot_tableau(p.skew):
        return "the skew member's reading word is not ballot"
    return None


class NotBallotPair(ValueError):
    """A commutor's input is not a ballot pair; ``why`` says why."""

    def __init__(self, why: str):
        super().__init__(f"not a ballot pair of partition shape: {why}")
        self.why = why


def _require_lr_pair(p: GluedPair) -> None:
    """The input guard of every commutor."""
    why = lr_violation(p)
    if why:
        raise NotBallotPair(why)


def is_lr_pair(p: GluedPair) -> bool:
    return lr_violation(p) is None


def inner_corners(t: SkewTableau) -> list[int]:
    """Rows at which an internal insertion is defined, 1-based: the rows up
    to one past the last that have an inner corner, meaning row 1 and every
    row whose inner border is shorter than the one above, so that the cell
    just right of it, filled or blank, can join the inner border."""
    return _corners(t.inner)


def _corners(inner) -> list[int]:
    """``inner_corners`` of any filling with this inner border, a list or a
    tuple padded with zeros to the outer border's length."""
    n = len(inner)
    out = []
    for i in range(1, n + 2):
        if i == 1 or inner[i - 2] > (inner[i - 1] if i <= n else 0):
            out.append(i)
    return out


def _insert_inplace(inner: list, rows: list, i: int, route: list | None = None,
                    count: int = 1) -> Cell:
    """Make count internal insertions at row i on parallel mutable lists;
    returns the cell the last one created.

    Each insertion vacates row i's inner corner and so grows that row's
    inner border by one, so the run is checked once, at its last cell.  A
    filled corner bumps its entry into the rows below, and a blank one
    joins both borders.  Given a list, ``route`` gets the cells of each
    bumping route in turn, vacated first and created last; a blank move
    adds none."""
    n = len(inner)
    if i < 1 or i > n + 1:
        raise ValueError(f"row {i} is not an inner corner")
    a = inner[i - 1] if i <= n else 0
    # the corner rule of _corners, written out in both because a helper
    # called once per row makes _corners about 50% slower
    if i > 1 and inner[i - 2] < a + count:
        raise ValueError(f"row {i} is not an inner corner")
    if i > n:
        inner.append(0)
        rows.append([])
        n += 1
    row = rows[i - 1]
    while a < len(row) and count:
        # filled corner: vacate it and bump its entry into the rows below
        count -= 1
        x, row[a] = row[a], 0
        a += 1
        inner[i - 1] = a
        if route is not None:
            route.append((i, a))
        k = i  # 0-based index of the next row
        while True:
            if k == n:
                inner.append(0)
                rows.append([x])
                n += 1
                created = (k + 1, 1)
                break
            below = rows[k]
            j = bisect_right(below, x)  # past the blanks, which hold 0
            if j == len(below):
                below.append(x)
                created = (k + 1, j + 1)
                break
            below[j], x = x, below[j]
            if route is not None:
                route.append((k + 1, j + 1))
            k += 1
        if route is not None:
            route.append(created)
    if count:
        # blank corner: adjoin the cells to both borders
        row += [0] * count
        inner[i - 1] = len(row)
        created = (i, len(row))
    return created


def _insert_traced(inner: list, rows: list, i: int) -> InsertionTrace:
    """One internal insertion at row i on the lists, and its trace."""
    route: list[Cell] = []
    created = _insert_inplace(inner, rows, i, route)
    return InsertionTrace(route[0] if route else created, tuple(route), created)


def _uninsert_inplace(inner: list, rows: list, cell: Cell) -> Cell:
    """Undo, on parallel mutable lists, the internal insertion that created
    cell: take it off the outer border, reverse-bump its entry up the rows
    above until it takes out the 0 that ends an inner border (at once, for a
    blank cell), and return the inner cell the insertion vacated."""
    r, c = cell
    if c != len(rows[r - 1]) or (r < len(rows) and len(rows[r]) >= c):
        raise ValueError(f"cell ({r}, {c}) is not a removable outer box")
    x = rows[r - 1].pop()
    k, j = r - 1, c - 1  # 0-based: where x came from
    while x:
        k -= 1
        if k < 0:
            raise ValueError("reverse bump ran past the first row")
        row = rows[k]
        j = bisect_left(row, x) - 1  # rightmost entry below x, filled or 0
        row[j], x = x, row[j]
    inner[k] -= 1
    if r == len(rows) and not rows[-1]:
        inner.pop()
        rows.pop()
    return (k + 1, j + 1)


def _append_inplace(inner: list, rows: list, i: int, count: int = 1) -> None:
    """Append a run of ``count`` letters i at the end of row i (a new last
    row when i is one past it) on parallel mutable lists.  The run is
    checked once, against what it can break: the partition shape at its
    last new cell, weak increase at its first, and the column under its
    last, since row i - 1 weakly increases."""
    n = len(inner)
    if not 1 <= i <= n + 1:
        raise ValueError(f"row {i} out of range for appending")
    row = rows[i - 1] if i <= n else []
    col = len(row) + count
    why = None
    if i > 1 and len(rows[i - 2]) < col:
        why = f"row {i} would outgrow row {i - 1}"
    elif row and row[-1] > i:
        why = f"row {i} not weakly increasing"
    elif i > 1 and rows[i - 2][col - 1] >= i:
        why = f"column {col} not strictly increasing at row {i}"
    if why:
        raise ValueError(f"appending {i} to row {i} breaks the tableau: {why}")
    if i > n:
        inner.append(0)
        rows.append([i] * count)
    else:
        row += [i] * count


def _thaw(t: SkewTableau) -> tuple[list[int], list[list[int]]]:
    """The in-place kernels' (inner, rows) lists holding t, blanks as 0s."""
    return list(t.inner), [[0] * a + list(r) for a, r in zip(t.inner, t.rows)]


def _freeze(inner, rows) -> SkewTableau:
    """The tableau that (inner, rows) lists hold, unvalidated."""
    return _tableau(inner, [r[a:] for a, r in zip(inner, rows)])


def _tableau(inner, rows) -> SkewTableau:
    """The tableau of this inner border and these rows of entries,
    unvalidated."""
    rows = tuple(map(tuple, rows))
    return SkewTableau._fast(tuple(a + len(r) for a, r in zip(inner, rows)),
                             tuple(inner), rows)


def internal_insert(t: SkewTableau, i: int) -> tuple[SkewTableau, InsertionTrace]:
    """Apply the row internal insertion at row i.

    Filled corner: bump the entry at (i, inner_i+1) and row-insert it starting
    at row i+1, the route ending at one new outer box.  Blank corner: adjoin
    the blank cell to both borders.
    """
    inner, rows = _thaw(t)
    trace = _insert_traced(inner, rows, i)
    return _freeze(inner, rows), trace


def order_word_steps(t: SkewTableau, word) -> tuple[SkewTableau, list[InsertionTrace]]:
    """Apply the order word (rightmost letter first); returns result and the
    per-step traces in application order."""
    inner, rows = _thaw(t)
    traces = []
    for step, i in enumerate(reversed(tuple(word)), start=1):
        try:
            traces.append(_insert_traced(inner, rows, i))
        except ValueError:
            raise ValueError(
                f"step {step}: row {i} is not an inner corner") from None
    return _freeze(inner, rows), traces


def apply_order_word(t: SkewTableau, word) -> SkewTableau:
    """The composite insertion operator for an order word, applied to t."""
    result, _ = order_word_steps(t, word)
    return result


def extended_insert(p: GluedPair, i: int) -> GluedPair:
    """Internal insertion on a glued pair: the Yamanouchi factor gains one
    box in row i (a new bottom row when i is one past its length)."""
    mu = as_partition(p.skew.inner)
    if p.yam.outer != mu:
        raise ValueError(f"the Yamanouchi factor {p.yam.outer} does not meet "
                         f"the skew member's inner border {mu}")
    return glued_pair(internal_insert(p.skew, i)[0])


def _rows_at(order, cells, n: int) -> list[list[int]]:
    """n rows holding each entry of order, a ``standard_order`` list, at the
    row of the matching cell of cells; a created cell ends its row of P, and
    a vacated one its row of the inner border, so each row fills in order."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for (x, _c), (r, _c2) in zip(order, cells):
        rows[r - 1].append(x)
    return rows


def skew_rsk_forward(t: SkewTableau, u: SkewTableau) -> tuple[SkewTableau, SkewTableau]:
    """Insert t internally in the standard order of u; returns (P, Q).

    P is the fully inserted tableau and Q records, at each created outer box,
    the entry of u that drove the step.
    """
    if as_partition(t.inner) != as_partition(u.inner):
        raise ValueError(
            f"inner borders differ: {as_partition(t.inner)} vs {as_partition(u.inner)}")
    inner, rows = _thaw(t)
    order = standard_order(u)
    created = [_insert_inplace(inner, rows, r) for _x, (r, _c) in order]
    return (_freeze(inner, rows),
            _tableau(t.outer + (0,) * (len(rows) - len(t.outer)),
                     _rows_at(order, created, len(rows))))


def skew_rsk_inverse(p: SkewTableau, q: SkewTableau) -> tuple[SkewTableau, SkewTableau]:
    """Invert the forward correspondence by reverse bumping in reverse
    standard order of Q; returns (T, U)."""
    if p.outer != q.outer:
        raise ValueError("P and Q must share their outer border")
    inner, rows = _thaw(p)
    order = standard_order(q)
    n = len(as_partition(inner))  # U's outer border is P's inner one
    vacated = [_uninsert_inplace(inner, rows, c) for _x, c in reversed(order)]
    return (_freeze(inner, rows),
            _tableau((inner + [0] * n)[:n], _rows_at(order, vacated[::-1], n)))
