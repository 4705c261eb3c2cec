"""The Littlewood-Richardson commutor, two independent ways.

``rho1_switching`` moves a ballot pair through itself by local switches, in
greedy order or in the jeu-de-taquin "infusion" order.  The second way is a
row program: ``row_program`` lists, row block by row block, the internal row
insertions and row appends that build the image from the empty tableau, and
``run_row_program`` executes them in place.
``rho1_internal`` and ``rho1_scratch`` are that one run, the former also
checking the route claim on every row block.

``switching`` states each switch order once.  Greedy runs the site engine
``_switch``: each colour class stays a valid filling at every switch
(Benkart-Sottile-Stroomer), so a switch is tested only on the order
relations it creates, and after each swap only the sites that read its two
cells are tested again.  ``_terminals`` walks every order of such switches,
for the confluence sweep.  Infusion (reverse standard order, Thomas-Yong) and
staged switching (``staged_decomposition``: one Yamanouchi row at a time,
bottom-up, on one board) slide by jeu de taquin in ``_infuse``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterator, NamedTuple

from .insertion import (GluedPair, InsertionTrace, _append_inplace, _freeze,
                        _insert_inplace, _require_lr_pair, _thaw, glued_pair)
from .tableaux import (Cell, SkewTableau, as_partition, is_ballot_tableau,
                       skew_shape, standard_order, tableau_content,
                       yamanouchi_tableau)

STRATEGIES = ("greedy", "infusion")
_TOP = float("inf")
_OFF = (0, "")  # a cell off the board, of neither colour


class SwitchSite(NamedTuple):
    cell_u: Cell
    cell_v: Cell


class TwoColorTableau:
    """Cells of a glued pair mid-switching, tagged by member.

    ``cells`` maps a 1-based (row, col) to (value, color) with color "u" for
    the inner member and "v" for the outer one.  The constructor checks that
    they fill the board outer/inner and that each colour class is a valid
    filling (rows weak, columns strict, weak from northwest to southeast).
    """

    __slots__ = ("outer", "inner", "cells")

    def __init__(self, outer, inner, cells: dict[Cell, tuple[int, str]]):
        self.outer = o = as_partition(outer)
        self.inner = i = skew_shape(o, inner).inner
        self.cells = dict(cells)
        pad = i + (0,) * (len(o) - len(i))
        if set(self.cells) != {(r, c) for r in range(1, len(o) + 1)
                               for c in range(pad[r - 1] + 1, o[r - 1] + 1)}:
            raise ValueError(f"cells do not fill the board {o}/{i}")
        # row-major; nw: the largest u and v values weakly northwest of a cell
        nw: dict = {}
        for (r, c), e in sorted(self.cells.items()):
            if not (type(e) is tuple and len(e) == 2 and type(e[0]) is int
                    and e[0] >= 1 and e[1] in ("u", "v")):
                raise ValueError(f"cell {(r, c)} holds {e!r}, not a value "
                                 f"of at least 1 and a colour 'u' or 'v'")
            value, color = e
            m = [max(x, y) for x, y in zip(nw.get((r - 1, c), (0, 0)),
                                           nw.get((r, c - 1), (0, 0)))]
            k = "uv".index(color)
            if m[k] > value or _nearest(self.cells, r, c, -1, 0, color, 0) >= value:
                raise ValueError(f"colour class {color} is not a valid filling "
                                 f"at cell {(r, c)}")
            m[k] = value
            nw[r, c] = m

    @classmethod
    def _fast(cls, outer: tuple, inner: tuple, cells: dict):
        """``__init__`` unchecked, for states the library built itself."""
        t = cls.__new__(cls)
        t.outer, t.inner, t.cells = outer, inner, cells
        return t

    @classmethod
    def from_pair(cls, u: SkewTableau, v: SkewTableau) -> "TwoColorTableau":
        if as_partition(v.inner) != u.outer:
            raise ValueError("v does not extend u")
        cells = {cell: (val, "u") for cell, val in u.cells()}
        cells.update((cell, (val, "v")) for cell, val in v.cells())
        return cls._fast(v.outer, as_partition(u.inner), cells)

    def __eq__(self, other):
        if not isinstance(other, TwoColorTableau):
            return NotImplemented
        return (self.outer == other.outer and self.inner == other.inner
                and self.cells == other.cells)

    def __hash__(self):
        return hash((self.outer, self.inner, tuple(sorted(self.cells.items()))))

    def __repr__(self):
        return f"TwoColorTableau({self.outer}/{self.inner}, {len(self.cells)} cells)"


def _nearest(cells, r, c, dr, dc, color, off):
    """The first ``color`` value stepping from (r, c) by (dr, dc), or ``off``
    past the board's edge (a skew shape: its rows and columns have no gaps)."""
    while True:
        r += dr
        c += dc
        e = cells.get((r, c))
        if e is None:
            return off
        if e[1] == color:
            return e[0]


def _admissible(cells, cu, cv):
    """Whether swapping u-letter a at cu with v-letter b east or south of it
    keeps both colour classes valid.  The state is valid, so only the order
    relations the swap creates are tested, each against the nearest cell of
    its sorted class: east, a's and b's new columns; south, a's new row left
    of it and b's new row right of it."""
    a, b = cells[cu][0], cells[cv][0]
    r, c = cu
    if cv[1] > c:
        return (_nearest(cells, r, c + 1, -1, 0, "u", 0) < a
                < _nearest(cells, r, c + 1, 1, 0, "u", _TOP)
                and _nearest(cells, r, c, -1, 0, "v", 0) < b
                < _nearest(cells, r, c, 1, 0, "v", _TOP))
    return (_nearest(cells, r + 1, c, 0, -1, "u", 0) <= a
            and _nearest(cells, r, c, 0, 1, "v", _TOP) >= b)


def _edges(cells) -> Iterator[tuple[Cell, Cell]]:
    """Every candidate switch: a u-cell and a v-cell east or south of it."""
    for (r, c), (_x, color) in cells.items():
        if color == "u":
            for cv in ((r, c + 1), (r + 1, c)):
                if cells.get(cv, _OFF)[1] == "v":
                    yield (r, c), cv


def _find_sites(cells) -> list[tuple[Cell, Cell]]:
    """The admissible candidate switches, as (cu, cv), sorted."""
    return sorted([(cu, cv) for cu, cv in _edges(cells)
                   if _admissible(cells, cu, cv)])


def switch_sites(t: TwoColorTableau) -> list[SwitchSite]:
    """All admissible switches, sorted row-major by the u-cell, horizontal
    before vertical."""
    return [SwitchSite(cu, cv) for cu, cv in _find_sites(t.cells)]


def apply_switch(t: TwoColorTableau, s: SwitchSite) -> TwoColorTableau:
    """Interchange the letters at an admissible site."""
    cells = dict(t.cells)
    if s.cell_v not in ((s.cell_u[0], s.cell_u[1] + 1),
                        (s.cell_u[0] + 1, s.cell_u[1])):
        raise ValueError(f"cells {s.cell_u} and {s.cell_v} are not adjacent")
    if (s.cell_u not in cells or s.cell_v not in cells
            or cells[s.cell_u][1] != "u" or cells[s.cell_v][1] != "v"
            or not _admissible(cells, s.cell_u, s.cell_v)):
        raise ValueError(f"site {s} is not admissible")
    _swap(cells, s.cell_u, s.cell_v)
    return TwoColorTableau._fast(t.outer, t.inner, cells)


def _swap(cells, cu, cv):
    vu, ucol = cells[cu]
    vv, vcol = cells[cv]
    cells[cu] = (vv, vcol)
    cells[cv] = (vu, ucol)


def _split_cells(outer, inner, cells):
    """Split a terminal board into (S, H) row by row, checking only that each
    row holds its v-letters before its u-letters and that these end at a
    partition sigma: ``_admissible`` keeps each colour class semistandard."""
    pad = inner + (0,) * (len(outer) - len(inner))
    sigma, s_rows, h_rows = [], [], []
    for r, (a, b) in enumerate(zip(pad, outer), start=1):
        row = [cells[r, c] for c in range(a + 1, b + 1)]
        k = sum(color == "v" for _x, color in row)
        if any(color == "u" for _x, color in row[:k]):
            raise ValueError(f"switching did not separate the members in row {r}")
        sigma.append(a + k)
        s_rows.append(tuple(x for x, _color in row[:k]))
        h_rows.append(tuple(x for x, _color in row[k:]))
    try:
        mid = as_partition(sigma)
    except ValueError as exc:
        raise ValueError(f"switching did not separate the members: {exc}") from exc
    return (SkewTableau._fast(mid, pad[:len(mid)], tuple(s_rows[:len(mid)])),
            SkewTableau._fast(outer, tuple(sigma), tuple(h_rows)))


def _switch(board: dict, on_frame: Callable | None = None) -> dict:
    """Switch a copy of the board, a ``TwoColorTableau.cells`` dict, at the
    first site row-major until none remains; returns the terminal board.

    The sites stay live, sorted as ``_find_sites`` lists them, instead of
    being rescanned.  A swap changes only its two cells: it drops the
    candidate edges at them and adds their new ones, then re-tests the edges
    that read them.  An east edge at u-cell (r, c) reads only columns c and
    c + 1, a south one only rows r and r + 1 (``_nearest`` walks along one
    line), so those are the east edges in columns c1 - 1 to c2 and the south
    edges in rows r1 - 1 to r2."""
    cells = dict(board)
    edges = {(cu, cv): _admissible(cells, cu, cv) for cu, cv in _edges(cells)}
    sites = sorted(e for e, ok in edges.items() if ok)
    while sites:
        cu, cv = sites[0]
        _swap(cells, cu, cv)
        if on_frame is not None:
            on_frame(SwitchSite(cu, cv), dict(cells))
        # cu, a u-cell, and cv, a v-cell, traded colours: the edges out of
        # cu and into cv go, those into cu and out of cv may come
        (r1, c1), (r2, c2) = cu, cv
        for e in ((cu, (r1, c1 + 1)), (cu, (r1 + 1, c1)),
                  ((r2, c2 - 1), cv), ((r2 - 1, c2), cv)):
            if edges.pop(e, False):
                del sites[bisect_left(sites, e)]
        for w in ((r1, c1 - 1), (r1 - 1, c1)):
            if cells.get(w, _OFF)[1] == "u":
                edges[w, cu] = None  # tested below
        for e in ((r2, c2 + 1), (r2 + 1, c2)):
            if cells.get(e, _OFF)[1] == "v":
                edges[cv, e] = None
        rows, cols = (r1 - 1, r1, r2), (c1 - 1, c1, c2)
        for e, was in edges.items():
            eu, ev = e
            if ((eu[0] in rows) if ev[0] > eu[0] else (eu[1] in cols)) and \
                    (ok := _admissible(cells, eu, ev)) != was:
                edges[e] = ok
                if ok:
                    insort(sites, e)
                elif was:
                    del sites[bisect_left(sites, e)]
    return cells


def _successors(cells: dict) -> Iterator[dict]:
    """Each board one admissible switch away, in site order."""
    for cu, cv in _find_sites(cells):
        nxt = dict(cells)
        _swap(nxt, cu, cv)
        yield nxt


def _terminals(board: dict) -> Iterator[dict]:
    """Every terminal board reachable by admissible switches, once each: depth
    first over a seen set, sites in order.  Each switch moves a v-letter one
    step northwest, so greedy's path meets no seen state: its board is first."""
    seen = {frozenset(board.items())}
    stack = [board]
    while stack:
        cells = stack.pop()
        nxt = list(_successors(cells))
        if not nxt:
            yield cells
        for b in reversed(nxt):
            key = frozenset(b.items())
            if key not in seen:
                seen.add(key)
                stack.append(b)


def _infuse(board: dict, order, on_frame: Callable | None = None) -> dict:
    """Slide the u-letters at the cells of ``order`` one at a time by jeu de
    taquin, on a copy of the board: each trades places with the smaller of
    its east and south v-neighbours, the south one on ties, until it has
    neither.  Such a move is always an admissible switch, so none is tested."""
    cells = dict(board)
    for r, c in order:
        while True:
            # the v-values south and east; _TOP off the board or at a u-letter
            south, east = (e[0] if e and e[1] == "v" else _TOP
                           for e in (cells.get((r + 1, c)), cells.get((r, c + 1))))
            if south == east == _TOP:
                break
            cv = (r + 1, c) if south <= east else (r, c + 1)
            _swap(cells, (r, c), cv)
            if on_frame is not None:
                on_frame(SwitchSite((r, c), cv), dict(cells))
            r, c = cv
    return cells


def switching(u: SkewTableau, v: SkewTableau, strategy: str = "greedy",
              seed: int = 0,
              on_frame: Callable | None = None) -> tuple[SkewTableau, SkewTableau]:
    """Switch v through u until no switch applies; returns (S, H) with
    S Knuth-equivalent to v and H to u, on the same union shape: the pair's
    board goes through ``_switch`` (greedy) or ``_infuse`` in reverse standard
    order of u (infusion), its terminal board through ``_split_cells``.
    ``seed`` is unused; ``perfbench/tracer.py`` still passes it."""
    tc = TwoColorTableau.from_pair(u, v)
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    if strategy == "infusion":
        end = _infuse(tc.cells, [c for _x, c in reversed(standard_order(u))], on_frame)
    else:
        end = _switch(tc.cells, on_frame)
    return _split_cells(tc.outer, tc.inner, end)


def rho1_switching(p: GluedPair, strategy: str = "greedy",
                   on_frame: Callable | None = None) -> GluedPair:
    """The switching involution on a ballot pair of partition shape;
    ``on_frame`` is passed to ``switching``."""
    _require_lr_pair(p)
    nu = tableau_content(p.skew)
    s, h = switching(p.yam, p.skew, strategy, on_frame=on_frame)
    if s != yamanouchi_tableau(nu):
        raise ValueError("switching did not produce the Yamanouchi tableau")
    return GluedPair(s, h)


class StagedDecomposition(NamedTuple):
    d: int
    s: SkewTableau
    f_hat: tuple[int, ...]
    big_d: tuple[int, ...]
    q: SkewTableau


def staged_decomposition(p: GluedPair) -> StagedDecomposition:
    """Staged switching on one board: for d = len(mu), ..., 1, slide row d of
    the Yamanouchi member, right to left, by ``_infuse``; stop once a slid
    letter reaches the last row, and split the board there into S and Q.
    Returns that intermediate state (d, S, F-hat, D, Q)."""
    _require_lr_pair(p)
    t = p.skew
    mu = as_partition(t.inner)
    lam = t.outer
    np1 = len(lam)
    n = np1 - 1
    if n < 1 or not mu:
        raise ValueError("need a nonzero inner shape and at least two rows")
    if len(mu) > n:
        raise ValueError("the inner shape must vanish in the last row")
    last = t.rows[-1]
    nu_last = sum(1 for x in last if x == np1)
    f_word = tuple(x for x in last if x <= n)
    if len(f_word) + nu_last != len(last) or not f_word:
        raise ValueError("last row must be a nonempty word over [n] followed "
                         "by largest letters")
    board = TwoColorTableau.from_pair(p.yam, t).cells
    for d in range(len(mu), 0, -1):
        board = _infuse(board, [(d, c) for c in range(mu[d - 1], 0, -1)])
        # the slid letters fill lam/sigma, which ends each row it meets
        if board[np1, lam[n]][1] == "u":
            break
    else:
        raise ValueError("no lifted letter reached the last row")
    s, q = _split_cells(lam, mu[:d - 1], board)
    f_hat = tuple(x for x in s.rows[n] if x <= n) if len(s.rows) == np1 else ()
    return StagedDecomposition(d, s, f_hat, q.rows[n], q)


def chi_append(p: GluedPair, i: int) -> GluedPair:
    """Append one letter i at the end of row i of the skew member."""
    inner, rows = _thaw(p.skew)
    _append_inplace(inner, rows, i)
    return GluedPair(p.yam, _freeze(inner, rows))


def nu_hat(t: SkewTableau) -> tuple[int, ...]:
    """Count of letter i in row i, for each row, trailing zeros stripped."""
    counts = tuple(sum(1 for x in t.rows[k] if x == k + 1)
                   for k in range(len(t.outer)))
    while counts and counts[-1] == 0:
        counts = counts[:-1]
    return counts


def gt_order_word(t: SkewTableau) -> tuple[int, ...]:
    """The insertion-order word V_n n^h_n ... V_2 2^h_2 1^h_1 read off the
    rows of a ballot tableau, where V_i is row i without its trailing i's
    and h_i counts them: the inserted rows of ``row_program(t)``, reversed."""
    if not is_ballot_tableau(t):
        raise ValueError("tableau is not ballot")
    return tuple(step.i for step in row_program(t) if step.op == "insert")[::-1]


class RowStep(NamedTuple):
    """One operator of a row program: ``op`` ("insert" or "append") acts at
    row ``i`` while building the block of input row ``row``."""
    row: int
    op: str
    i: int


def row_program(t: SkewTableau) -> Iterator[RowStep]:
    """The operator program of a ballot tableau, one block per row: for row
    n, insert its h_n letters n, insert its letters below n right to left,
    then append n once per inner cell of row n."""
    for k, row in enumerate(t.rows):
        n = k + 1
        if row and row[-1] > n:
            raise ValueError(f"row {n} holds a letter above {n}")
        v_word = [x for x in row if x < n]
        for _ in range(len(row) - len(v_word)):
            yield RowStep(n, "insert", n)
        for x in reversed(v_word):
            yield RowStep(n, "insert", x)
        for _ in range(t.inner[k]):
            yield RowStep(n, "append", n)


def run_row_program(t: SkewTableau,
                    on_step: Callable | None = None) -> SkewTableau:
    """Run ``row_program(t)`` from the empty tableau; returns the skew member
    of the commutor image.

    The state is kept in parallel mutable (inner, rows) lists and frozen
    once at the end.  After each step, ``on_step(step, trace, state)``
    receives the step, its insertion trace (None for an append) and the live
    lists, which a callback that keeps them must copy.
    """
    inner: list[int] = []
    rows: list[list[int]] = []
    state = (inner, rows)
    for step in row_program(t):
        if step.op == "insert":
            trace = _insert_inplace(inner, rows, step.i)
        else:
            trace = None
            _append_inplace(inner, rows, step.i)
        if on_step is not None:
            on_step(step, trace, state)
    return _freeze(inner, rows)


def _assert_route_claim(traces: list[InsertionTrace], row: int):
    seen: set[Cell] = set()
    for tr in traces:
        if not tr.route:
            raise ValueError("a row-word insertion was a blank move")
        if tr.created[0] != row:
            raise ValueError(f"a row-word bumping route ended in row "
                             f"{tr.created[0]}, expected {row}")
        cells = set(tr.route)
        if seen & cells:
            raise ValueError("row-word bumping routes are not disjoint")
        seen |= cells
    return True


def rho1_internal(p: GluedPair, on_step: Callable | None = None) -> GluedPair:
    """The commutor by the row program, checking the route claim on every
    row block; ``on_step`` is passed to ``run_row_program``."""
    _require_lr_pair(p)
    by_row: dict[int, list[InsertionTrace]] = {}

    def file_route(step: RowStep, trace, state):
        # the row-word insertions of a block are its letters below the row
        if step.op == "insert" and step.i < step.row:
            by_row.setdefault(step.row, []).append(trace)
        if on_step is not None:
            on_step(step, trace, state)

    skew = run_row_program(p.skew, file_route)
    for row, traces in by_row.items():
        _assert_route_claim(traces, row)
    return glued_pair(skew)


def rho1_scratch(p: GluedPair, on_step: Callable | None = None) -> GluedPair:
    """The commutor by the row program alone: the flat product of insert and
    append operators, one block per row, applied to the empty tableau;
    ``on_step`` is passed to ``run_row_program``."""
    _require_lr_pair(p)
    return glued_pair(run_row_program(p.skew, on_step))
