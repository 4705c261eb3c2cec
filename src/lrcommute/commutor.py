"""The Littlewood-Richardson commutor, two independent ways.

``rho1_switching`` moves a ballot pair through itself by local switches, in
greedy order or in the jeu-de-taquin "infusion" order.  The second way is a
row program: ``row_program`` lists, row block by row block, the internal row
insertions and row appends that build the image from the empty tableau, and
``run_row_program`` executes them in place, a block's blank insertions at
its own row as one run and its appends as another.  ``rho1_internal`` and
``rho1_scratch`` are that one run, the former also asking the kernel for the
bumping route of each row-word letter and checking the route claim on it.
``METHODS``, the one table of these four commutors and their trace hooks,
is what the CLI, ``verify``, ``tools/commute_scale.py`` and the tests run.

Every switch order runs on one flat board: a list (a tuple once frozen) of
signed values, a 0, then each row's cells, u-letters positive and v-letters
negative, each row closed by a 0.  So a cell's west and east neighbours are
the indices next to it, a 0 past the row's end, and its ``_Geometry`` holds
the north and south ones, index 0 past the edge.  ``_admissible`` is the one
site test: each colour class stays a valid filling at every switch
(Benkart-Sottile-Stroomer), so only the order relations a switch creates are
tested.  Greedy runs ``_switch``, which finds its next site by scanning a
byte per edge from a pointer and, after a swap, re-tests only the edges it
rejected in the two lines beside the swap, when their walks can reach a
swapped cell: its own line's stay rejected; ``_terminals`` walks every
order, for the confluence sweep.  Infusion (reverse standard order,
Thomas-Yong) and staged switching (``staged_decomposition``: one Yamanouchi
row at a time, bottom-up) slide by jeu de taquin in ``_infuse``, in board
indices that infusion reads off the board.  Outside the engine a board is
a dict of cells (``_cells_of``), which ``switching``'s ``on_frame`` hook
receives after each switch.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import zip_longest
from typing import Callable, Iterator, NamedTuple

from .insertion import (GluedPair, _append_inplace, _freeze, _insert_inplace,
                        _insert_traced, _require_lr_pair, glued_pair)
from .tableaux import (Cell, SkewTableau, as_partition, is_ballot_tableau,
                       tableau_content, yamanouchi_tableau)

STRATEGIES = ("greedy", "infusion")


class SwitchSite(NamedTuple):
    cell_u: Cell
    cell_v: Cell


class _Geometry(NamedTuple):
    """The board outer/inner (padded): index 0 holds a 0, row k's cells run
    from ``starts[k]``, each row followed by a 0, and ``starts[-1]`` is the
    board's length.  So cell i's west and east neighbours are i - 1 and
    i + 1, or a 0; ``north[i]`` and ``south[i]`` are the cells above and
    below it, or 0."""
    outer: tuple
    inner: tuple
    starts: list
    north: list
    south: list


def _geometry(outer, inner) -> _Geometry:
    """The geometry of the skew shape outer/inner, in O(cells)."""
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    starts = [1]
    for a, b in zip(inner, outer):
        starts.append(starts[-1] + b - a + 1)
    n = starts[-1]
    # both arrays hold the int objects of idx; the 0s' entries no walk reads
    idx = list(range(n))
    north, south = [0] * n, [0] * n
    for k in range(1, len(outer)):
        # the m columns right of inner[k - 1] meet rows k - 1 and k: all of
        # row k - 1 from its first cell, row k from the cell under that one
        top, bot = starts[k - 1], starts[k] + inner[k - 1] - inner[k]
        m = max(outer[k] - inner[k - 1], 0)
        north[bot:bot + m] = idx[top:top + m]
        south[top:top + m] = idx[bot:bot + m]
    return _Geometry(tuple(outer), inner, starts, north, south)


def _cell(g: _Geometry, i: int) -> Cell:
    r = bisect_right(g.starts, i)
    return r, i - g.starts[r - 1] + g.inner[r - 1] + 1


def _board(u: SkewTableau, v: SkewTableau) -> list:
    """The board of a pair, v extending u: each row holds u's letters, then
    v's negated, then a 0."""
    if as_partition(v.inner) != u.outer:
        raise ValueError("v does not extend u")
    return [0] + [x for ru, rv in zip_longest(u.rows, v.rows, fillvalue=())
                  for x in (*ru, *[-y for y in rv], 0)]


def _board_of(g: _Geometry, cells: dict) -> list:
    """The board of a dict of cells, as ``_cells_of`` makes it."""
    board = [0] * g.starts[-1]
    for (r, c), (x, color) in cells.items():
        board[g.starts[r - 1] + c - 1 - g.inner[r - 1]] = x if color == "u" else -x
    return board


def _cells_of(g: _Geometry, board) -> dict:
    """The cells of a board: a dict from each 1-based (row, col) to its
    (value, colour), colour "u" for a letter of the inner member and "v"
    for one of the outer member, row-major."""
    return {(r, c): (x, "u") if x > 0 else (-x, "v")
            for r, (a, b, s) in enumerate(zip(g.inner, g.outer, g.starts), 1)
            for c, x in zip(range(a + 1, b + 1), board[s:s + b - a])}


def _framer(g: _Geometry, board, on_frame: Callable) -> Callable:
    """``frame(i, j)``, to call after each swap of cells i and j of the
    board: it passes ``on_frame`` the site and a copy of the board's cells,
    kept in step by the swaps."""
    cells = _cells_of(g, board)

    def frame(i, j):
        site = SwitchSite(_cell(g, i), _cell(g, j))
        cells[site.cell_u], cells[site.cell_v] = cells[site.cell_v], cells[site.cell_u]
        on_frame(site, dict(cells))
    return frame


def _admissible(g: _Geometry, board, iu: int, iv: int) -> bool:
    """Whether swapping u-letter a at cell iu with v-letter b east or south of
    it keeps both colour classes valid.  The state is valid, so only the
    order relations the swap creates are tested, each against the nearest
    cell of its class: east, in a's and b's new columns; south, in a's new
    row left of it and b's right of it."""
    a, nb = board[iu], board[iv]  # nb = -b
    if iv != iu + 1:
        j = iv - 1
        while board[j] < 0:
            j -= 1
        if board[j] > a:  # a u-letter left of a's new cell is larger
            return False
        j = iu + 1
        while board[j] > 0:
            j += 1
        return not nb < board[j] < 0  # nor a v-letter right of b's smaller
    north, south = g.north, g.south
    j = north[iv]
    while board[j] < 0:
        j = north[j]
    if board[j] >= a:  # a's new column: the u-letter above is smaller
        return False
    j = south[iv]
    while board[j] < 0:
        j = south[j]
    if 0 < board[j] <= a:  # and the one below larger
        return False
    j = north[iu]
    while board[j] > 0:
        j = north[j]
    if board[j] <= nb:  # b's new column: the v-letter above is smaller
        return False
    j = south[iu]
    while board[j] > 0:
        j = south[j]
    return not nb <= board[j] < 0  # and the one below larger


def _find_sites(g: _Geometry, board) -> list[tuple[int, int]]:
    """The admissible switches (iu, iv), a u-cell and a v-cell east or south
    of it, sorted: row-major by the u-cell, east before south."""
    south, sites = g.south, []
    for iu, x in enumerate(board):
        if x > 0:
            if board[iu + 1] < 0 and _admissible(g, board, iu, iu + 1):
                sites.append((iu, iu + 1))
            if board[south[iu]] < 0 and _admissible(g, board, iu, south[iu]):
                sites.append((iu, south[iu]))
    return sites


def _split_cells(g: _Geometry, board, inner) -> tuple[SkewTableau, SkewTableau]:
    """Split a terminal board into (S, H) row by row, right of the border
    ``inner``, checking only that each row holds its v-letters before its
    u-letters and that these end at a partition sigma: ``_admissible`` keeps
    each colour class semistandard."""
    outer, starts = g.outer, g.starts
    pad = tuple(inner) + (0,) * (len(outer) - len(inner))
    sigma, s_rows, h_rows = [], [], []
    for r, (a, own) in enumerate(zip(pad, g.inner)):
        row = board[starts[r] + a - own:starts[r + 1] - 1]
        s = tuple([-x for x in row if x < 0])
        k = len(s)
        if k and max(row[:k]) > 0:
            raise ValueError(f"switching did not separate the members in row {r + 1}")
        sigma.append(a + k)
        s_rows.append(s)
        h_rows.append(tuple(row[k:]))
    try:
        mid = as_partition(sigma)
    except ValueError as exc:
        raise ValueError(f"switching did not separate the members: {exc}") from exc
    return (SkewTableau._fast(mid, pad[:len(mid)], tuple(s_rows[:len(mid)])),
            SkewTableau._fast(outer, tuple(sigma), tuple(h_rows)))


def _switch(g: _Geometry, board, on_frame: Callable | None = None) -> list:
    """Switch a copy of the board at the first site row-major until none
    remains; returns the terminal board.

    Edge 2i joins u-cell i to the v-cell east of it, 2i + 1 to the one
    south, so edges sort as ``_find_sites`` lists sites.  A bytearray holds
    a state per edge, 1 for "to test", and a sentinel 1 past the last; the
    next site is the first edge in state 1 from a pointer below which none
    is, that tests admissible.  An edge that tests inadmissible goes to 0
    and is filed under its line, its u-cell's column if east and its row if
    south, unless it is filed there already.  It stays inadmissible while
    nothing its walks read changes.  An east edge in column c walks column c
    over u-letters and column c + 1 over v-letters; a south edge in row r
    walks row r over u-letters and row r + 1 over v-letters.  A swap trades
    a u- and a v-letter next to each other in one line, so a walk along that
    line reads what it read before.  A walk across it reaches a swapped cell
    only through a run of the colour it skips, and that run starts at the
    swapped cell's neighbour in the walk's line (or is empty: the walk
    starts at the cell, from that neighbour's edge).

    No edge of the swap's own line k reopens.  Take an east swap of a at
    (r, c) with b at (r, c + 1), and a rejected edge of column c, x at
    (r', c) to y at (r', c + 1), r' < r.  Of its walks only the south ones,
    down column c over u-letters and down column c + 1 over v-letters,
    reach row r.  Before the swap they pass a and b and stop where the
    swap's own south walks stop, and those passed the swap's test: they
    stop on no v-letter <= b, where y < b, and on no u-letter <= a, where
    x < a (same columns).  So neither rejected the edge; after the swap
    they stop on b > y and on a > x, and pass.  The walk that rejects it
    is one the swap left alone.  r' > r is the mirror case, by the north
    walks; a south swap's row r is the same argument along rows, with
    y <= b in row r + 1 and a <= x in row r.

    Lines k - 1 and k + 1 have no such argument: the walk that reaches the
    swap stops on a or b before it and passes it after, and what lies
    beyond is not ordered against the edge.  For an east swap the walk
    rejected on a <= x or b <= y from the north, on a >= x or b >= y from
    the south; validity orders a and x, or b and y, only where one is
    strictly northwest of the other, and allows x = a (north of iu) and
    b = y (south of iv).  Each neighbour condition reopens an edge on some
    valid board, so all stay.

    So a swap sets back to 1 the edges filed under lines k - 1 and k + 1
    when such neighbours open them, if still a u-letter then a v-letter,
    and its four new edges, into iu from the west and north and out of
    iv; the pointer moves back to the first of them.  Every admissible
    edge is in state 1: the frames are a rescan's."""
    board = list(board)
    south, north = g.south, g.north
    # each cell's row, 1-based (and some row for each 0, which no edge
    # reads); cell i of row r lies in column i - shift[r], 0-based
    row, shift = [0], [0]
    for r, (a, s) in enumerate(zip(g.inner, g.starts), 1):
        row += [r] * (g.starts[r] - s)
        shift.append(s - a)
    end = 2 * len(board)
    state = bytearray(end + 1)
    state[end] = 1
    for iu, x in enumerate(board):
        if x > 0:
            if board[iu + 1] < 0:
                state[2 * iu] = 1
            if board[south[iu]] < 0:
                state[2 * iu + 1] = 1
    rejected_cols: dict[int, list] = {}  # tested inadmissible, by line
    rejected_rows: dict[int, list] = {}
    filed = bytearray(end)  # by edge: 1 while in one of those lists
    frame = on_frame and _framer(g, board, on_frame)
    lo = 0
    while True:
        e = state.find(1, lo)
        if e == end:
            return board
        iu = e >> 1
        if e & 1:
            iv, lines, k = south[iu], rejected_rows, row[iu]
        else:
            iv, lines, k = iu + 1, rejected_cols, iu - shift[row[iu]]
        if not _admissible(g, board, iu, iv):
            state[e] = 0
            lo = e + 1
            if not filed[e]:
                filed[e] = 1
                lines.setdefault(k, []).append(e)
            continue
        board[iu], board[iv] = board[iv], board[iu]
        if frame:
            frame(iu, iv)
        # iu now holds a v-letter, iv a u-letter: edges out of iu, into iv go
        wu, nu, ev, sv = iu - 1, north[iu], iv + 1, south[iv]
        state[2 * iu] = state[2 * iu + 1] = 0
        state[2 * iv - 2] = state[2 * north[iv] + 1] = 0
        # the lines k - 1 and k + 1 whose walks may reach iu or iv
        if e & 1:
            # a south swap: by the cell east of iu and the one west of iv
            before = board[iu + 1] < 0
            after = board[iv - 1] > 0
        else:
            # an east swap: by the cells north and south of them
            before = board[nu] < 0 or board[south[iu]] < 0
            after = board[north[iv]] > 0 or board[sv] > 0
        popped = []
        if before and k - 1 in lines:
            popped += lines.pop(k - 1)
        if after and k + 1 in lines:
            popped += lines.pop(k + 1)
        # its new edges: into iu from the west and north, out of iv
        lo = e
        if board[wu] > 0:
            lo = 2 * wu
            state[lo] = 1
        if board[nu] > 0:
            lo = 2 * nu + 1  # nu is north of wu, so its edge comes first
            state[lo] = 1
        if board[ev] < 0:
            state[2 * iv] = 1
        if board[sv] < 0:
            state[2 * iv + 1] = 1
        for d in popped:
            filed[d] = 0
            i = d >> 1
            if board[i] > 0 and board[south[i] if d & 1 else i + 1] < 0:
                state[d] = 1
                if d < lo:
                    lo = d


def _successors(g: _Geometry, board) -> list[tuple]:
    """Each board one admissible switch away, in site order."""
    out = []
    for iu, iv in _find_sites(g, board):
        nxt = list(board)
        nxt[iu], nxt[iv] = nxt[iv], nxt[iu]
        out.append(tuple(nxt))
    return out


def _terminals(g: _Geometry, board) -> Iterator[tuple]:
    """Every terminal board reachable by admissible switches, once each: depth
    first over a seen set, sites in order.  Each switch moves a v-letter one
    step northwest, so greedy's path meets no seen state: its board is first."""
    board = tuple(board)
    seen = {board}
    stack = [board]
    while stack:
        board = stack.pop()
        nxt = _successors(g, board)
        if not nxt:
            yield board
        for b in reversed(nxt):
            if b not in seen:
                seen.add(b)
                stack.append(b)


def _infusion_order(g: _Geometry, board) -> list[int]:
    """The u-letters' board indices in reverse standard order: each row right
    to left, top to bottom, sorted stably by letter, largest first; equal
    letters form a horizontal strip, so they stay right to left."""
    order = [i for a, b in zip(g.starts, g.starts[1:])
             for i in range(b - 2, a - 1, -1) if board[i] > 0]
    order.sort(key=board.__getitem__, reverse=True)
    return order


def _infuse(g: _Geometry, board, order, on_frame: Callable | None = None) -> list:
    """Slide the u-letters at the board indices ``order`` one at a time by jeu
    de taquin, on a copy of the board: each trades places with the smaller of
    its east and south v-neighbours, the south one on ties, until it has
    neither.  Such a move is always an admissible switch, so none is tested."""
    board = list(board)
    south = g.south
    frame = on_frame and _framer(g, board, on_frame)
    for i in order:
        while True:
            # v-letters are negative: of two, the smaller letter is larger
            s, e = south[i], i + 1
            if board[s] < 0 and (board[s] >= board[e] or board[e] >= 0):
                j = s
            elif board[e] < 0:
                j = e
            else:
                break
            board[i], board[j] = board[j], board[i]
            if frame:
                frame(i, j)
            i = j
    return board


def switching(u: SkewTableau, v: SkewTableau, strategy: str = "greedy",
              seed: int = 0,
              on_frame: Callable | None = None) -> tuple[SkewTableau, SkewTableau]:
    """Switch v through u until no switch applies; returns (S, H) with
    S Knuth-equivalent to v and H to u, on the same union shape: the pair's
    board goes through ``_switch`` (greedy) or ``_infuse`` (infusion), its
    terminal board through ``_split_cells``.
    ``on_frame(site, cells)`` sees each switch, a ``SwitchSite``, and the
    board's cells after it, a fresh dict as ``_cells_of`` makes it.
    ``seed`` is unused; ``perfbench/tracer.py`` still passes it."""
    board = _board(u, v)
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}")
    g = _geometry(v.outer, u.inner)
    if strategy == "infusion":
        end = _infuse(g, board, _infusion_order(g, board), on_frame)
    else:
        end = _switch(g, board, on_frame)
    return _split_cells(g, end, g.inner)


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
    g = _geometry(lam, p.yam.inner)
    board = _board(p.yam, t)
    for d in range(len(mu), 0, -1):
        s = g.starts[d - 1]
        board = _infuse(g, board, range(s + mu[d - 1] - 1, s - 1, -1))
        # the slid letters fill lam/sigma, which ends each row it meets: the
        # board's last cell, (n + 1, lam[n]), holds one once any does
        if board[g.starts[-1] - 2] > 0:
            break
    else:
        raise ValueError("no lifted letter reached the last row")
    s, q = _split_cells(g, board, mu[:d - 1])
    f_hat = tuple(x for x in s.rows[n] if x <= n) if len(s.rows) == np1 else ()
    return StagedDecomposition(d, s, f_hat, q.rows[n], q)


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


def _blocks(t: SkewTableau) -> Iterator[tuple[int, int, list[int], int]]:
    """The row program's blocks, one per row n: (n, h_n, the rows its row
    word inserts at, how many n's it appends).  Block n inserts its h_n
    letters n, then its row word, its letters below n right to left, then
    appends n per inner cell of row n."""
    for k, row in enumerate(t.rows):
        n = k + 1
        if row and row[-1] > n:
            raise ValueError(f"row {n} holds a letter above {n}")
        word = [x for x in reversed(row) if x < n]
        yield n, len(row) - len(word), word, t.inner[k]


def row_program(t: SkewTableau) -> Iterator[RowStep]:
    """The operator program of a ballot tableau, one block per row (see
    ``_blocks``), letter by letter."""
    for n, h, word, appends in _blocks(t):
        for i in [n] * h + word:
            yield RowStep(n, "insert", i)
        for _ in range(appends):
            yield RowStep(n, "append", n)


def run_row_program(t: SkewTableau, on_step: Callable | None = None,
                    check_routes: bool = False) -> SkewTableau:
    """Run ``row_program(t)`` from the empty tableau; returns the skew member
    of the commutor image.

    The state is kept in parallel mutable (inner, rows) lists and frozen
    once at the end.  A block's h_n insertions at its row n, blank moves in
    a ballot tableau, are one kernel call, as are its appends, each run
    checked once; each letter of its row word is one more call, which
    records its bumping route only for ``check_routes``, the route claim
    (``_check_route``).  Given ``on_step``, steps run one at a time: after
    each, ``on_step(step, trace, state)`` receives the ``RowStep``, its
    ``InsertionTrace`` (None for an append) and the state as a tableau."""
    inner: list[int] = []
    rows: list[list[int]] = []
    for n, h, word, appends in _blocks(t):
        routes: list[Cell] = []  # the block's row-word routes, if checked
        if on_step is None:
            if h:
                _insert_inplace(inner, rows, n, None, h)
            for i in word:
                if check_routes:
                    start = len(routes)
                    _insert_inplace(inner, rows, i, routes)
                    if len(routes) == start or routes[-1][0] != n:
                        _check_route(routes, start, n)  # to say which
                else:
                    _insert_inplace(inner, rows, i)
            if appends:
                _append_inplace(inner, rows, n, appends)
        else:
            for i in [n] * h + word:
                trace = _insert_traced(inner, rows, i)
                if check_routes and i < n:
                    start = len(routes)
                    routes += trace.route
                    _check_route(routes, start, n)
                on_step(RowStep(n, "insert", i), trace, _freeze(inner, rows))
            for _ in range(appends):
                _append_inplace(inner, rows, n)
                on_step(RowStep(n, "append", n), None, _freeze(inner, rows))
        if check_routes:
            _check_route(routes, None, n)
    return _freeze(inner, rows)


def _check_route(routes: list, start: int | None, row: int):
    """The route claim on the row-word bumping routes of block ``row``, which
    ``routes`` holds one after another.  Given ``start``, where the last
    route begins, that route is not blank and ends in that row; given None,
    at the end of the block, no two routes share a cell (a route meets each
    row once, so a repeated cell is one two routes share)."""
    if start is None:
        if len(set(routes)) != len(routes):
            raise ValueError("row-word bumping routes are not disjoint")
    elif len(routes) == start:
        raise ValueError("a row-word insertion was a blank move")
    elif routes[-1][0] != row:
        raise ValueError(f"a row-word bumping route ended in row "
                         f"{routes[-1][0]}, expected {row}")


def rho1_internal(p: GluedPair, on_step: Callable | None = None) -> GluedPair:
    """The commutor by the row program, checking the route claim on the
    row-word routes of each block; ``on_step`` is as for ``run_row_program``."""
    _require_lr_pair(p)
    return glued_pair(run_row_program(p.skew, on_step, check_routes=True))


def rho1_scratch(p: GluedPair, on_step: Callable | None = None) -> GluedPair:
    """The commutor by the row program alone: the flat product of insert and
    append operators, one block per row, applied to the empty tableau;
    ``on_step`` is passed to ``run_row_program``."""
    _require_lr_pair(p)
    return glued_pair(run_row_program(p.skew, on_step))


# The commutors by name, in ``commute --method``'s order: rho(p, hook=None) is
# the image of the ballot pair p, and family the hook's kind, on_frame (per
# switch) or on_step (per step).  Each rho calls its function by name, so a
# wrapper rebound over the name (a tracer, a probe) sees the call.
Method = NamedTuple("Method", [("rho", Callable), ("family", str)])
METHODS = {
    "switching": Method(lambda p, h=None: rho1_switching(p, "greedy", h), "on_frame"),
    "internal": Method(lambda p, h=None: rho1_internal(p, h), "on_step"),
    "scratch": Method(lambda p, h=None: rho1_scratch(p, h), "on_step"),
    "infusion": Method(lambda p, h=None: rho1_switching(p, "infusion", h), "on_frame"),
}
