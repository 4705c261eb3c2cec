from collections import Counter
import itertools
import json
import random
import tracemalloc

import pytest

from lrcommute import cli, commutor
from lrcommute.commutor import (METHODS, SwitchSite, _admissible,
                                _board, _board_of, _cell, _cells_of,
                                _find_sites, _geometry, _split_cells, _switch,
                                _terminals, gt_order_word, nu_hat,
                                rho1_internal, rho1_scratch, rho1_switching,
                                row_program, run_row_program,
                                staged_decomposition, switching)
from lrcommute.insertion import (GluedPair, _append_inplace, _freeze, _thaw,
                                 _insert_traced, glued_pair, skew_rsk_forward,
                                 skew_rsk_inverse)
from lrcommute.knuth import p_tableau_rows
from lrcommute.tableaux import (EMPTY, SkewShape, SkewTableau, as_partition,
                                enumerate_ssyt, glue, partitions_of,
                                reading_word, skew_shape, standard_order,
                                subpartitions, tableau_content, to_json_dict,
                                yamanouchi_tableau)
from lrcommute.verify import lr_pairs, packed_fillings, partitions_up_to
from probe import counting

T_RUNNING = SkewTableau((6, 5, 5, 4, 3), (4, 3, 2, 1, 0),
                     [(1, 1), (1, 2), (1, 2, 3), (2, 3, 4), (2, 3, 4)])
H_RUNNING = SkewTableau((6, 5, 5, 4, 3), (4, 4, 3, 2, 0),
                     [(1, 1), (2,), (2, 3), (1, 3), (1, 2, 4)])
T_STAGED = SkewTableau((9, 7, 6, 5), (6, 4, 0, 0),
                     [(1, 1, 1), (1, 1, 2), (1, 2, 2, 2, 2, 3), (3, 3, 3, 3, 4)])

SW_U = SkewTableau((3, 3), (), [(1, 1, 1), (2, 2, 2)])
SW_V = SkewTableau((4, 3, 3), (3, 3, 0), [(1,), (), (1, 2, 2)])


def test_geometry_steps_to_each_neighbour_or_to_the_sentinel():
    # every skew shape of at most 7 boxes, on a board of distinct values: a
    # 0, then each row's cells, numbered row-major from 1, then a 0
    for gamma in partitions_up_to(7):
        for mu in subpartitions(gamma):
            g = _geometry(gamma, mu)
            pad = mu + (0,) * (len(gamma) - len(mu))
            board, index, value = [0], {}, {}
            for r, (a, b) in enumerate(zip(pad, gamma), 1):
                for c in range(a + 1, b + 1):
                    index[r, c] = len(board)
                    value[r, c] = len(value) + 1
                    board.append(value[r, c])
                board.append(0)
            assert g.starts[-1] == len(board)
            assert _board_of(g, {cell: (x, "u") for cell, x in value.items()}) == board
            assert [commutor._cell(g, i) for i in index.values()] == list(index)
            for (r, c), i in index.items():
                assert g.north[i] == index.get((r - 1, c), 0)
                assert g.south[i] == index.get((r + 1, c), 0)
                assert board[i - 1] == value.get((r, c - 1), 0)
                assert board[i + 1] == value.get((r, c + 1), 0)


def test_board_closes_each_row_with_a_0_and_round_trips_its_cells():
    # a 0 first and after each row, nonzero values in every cell; the cells
    # read back are the members' own, each tagged with its colour
    for u, v in _packed_pairs(6):
        g = _geometry(v.outer, u.inner)
        board = _board(u, v)
        zeros = {0, *(s - 1 for s in g.starts[1:])}
        assert len(board) == g.starts[-1]
        assert all((x == 0) == (i in zeros) for i, x in enumerate(board))
        cells = _cells_of(g, board)
        assert cells == {(r, c): (x, color) for t, color in ((u, "u"), (v, "v"))
                         for r, (a, row) in enumerate(
                             itertools.zip_longest(t.inner, t.rows, fillvalue=0), 1)
                         for c, x in enumerate(row, a + 1)}
        assert _board_of(g, cells) == board


_NOTHING = (0, 0, 0, 0)  # no cell: no u- or v-value northwest or above


def _placed(seen: dict, r: int, c: int, value: int, color: str) -> bool:
    """Whether value, of colour color, at cell (r, c) keeps its colour class
    a valid filling (rows weak, columns strict, weak from northwest to
    southeast) against the cells before it row-major, which include every
    cell weakly northwest of it.  If so, ``seen[r, c]`` records the largest
    u- and v-value weakly northwest of the cell and the last u- and v-value
    in its column down to it."""
    k = "uv".index(color)
    north, west = seen.get((r - 1, c), _NOTHING), seen.get((r, c - 1), _NOTHING)
    nw = [max(north[0], west[0]), max(north[1], west[1])]
    column = list(north[2:])
    if nw[k] > value or column[k] >= value:
        return False
    nw[k] = column[k] = value
    seen[r, c] = (*nw, *column)
    return True


def _board_cells(outer, inner) -> list:
    """The cells of the board outer/inner, row-major."""
    pad = inner + (0,) * (len(outer) - len(inner))
    return [(r, c) for r, (a, b) in enumerate(zip(pad, outer), 1)
            for c in range(a + 1, b + 1)]


def _checked_board(outer, inner, cells: dict) -> tuple:
    """The geometry and board of a two-colour state, after the whole-class
    check: the cells, a dict from (row, col) to (value, colour), fill the
    board outer/inner, each holds a value of at least 1 and a colour "u" or
    "v", and each colour class is a valid filling.  The oracle of
    ``_admissible``, which tests only the relations a switch creates."""
    o = as_partition(outer)
    i = skew_shape(o, inner).inner
    if set(cells) != set(_board_cells(o, i)):
        raise ValueError(f"cells do not fill the board {o}/{i}")
    seen: dict = {}
    for (r, c), e in sorted(cells.items()):
        if not (type(e) is tuple and len(e) == 2 and type(e[0]) is int
                and e[0] >= 1 and e[1] in ("u", "v")):
            raise ValueError(f"cell {(r, c)} holds {e!r}, not a value "
                             f"of at least 1 and a colour 'u' or 'v'")
        if not _placed(seen, r, c, *e):
            raise ValueError(f"colour class {e[1]} is not a valid filling "
                             f"at cell {(r, c)}")
    g = _geometry(o, i)
    return g, _board_of(g, cells)


def _sites(g, board) -> list[SwitchSite]:
    """``_find_sites``, as cells."""
    return [SwitchSite(_cell(g, iu), _cell(g, iv))
            for iu, iv in _find_sites(g, board)]


def test_switch_sites_examples():
    g = _geometry(SW_V.outer, SW_U.inner)
    sites = _sites(g, _board(SW_U, SW_V))
    assert SwitchSite((2, 2), (3, 2)) in sites
    assert SwitchSite((2, 3), (3, 3)) in sites
    # lone inner member admits nothing
    alone = yamanouchi_tableau((2, 1)), SkewTableau((2, 1), (2, 1), ())
    assert _find_sites(_geometry((2, 1), ()), _board(*alone)) == []


def test_switch_sites_terminal_state_empty():
    # terminal state: the outer member's material (v) has moved northwest
    s, h = switching(SW_U, SW_V)
    cells = {c: (x, "v") for x, c in standard_order(s)}
    cells.update({c: (x, "u") for x, c in standard_order(h)})
    assert _find_sites(*_checked_board(h.outer, s.inner, cells)) == []


def _state(outer, inner, entries):
    """The geometry and board of a two-colour state from "(row, col): value
    colour" entries."""
    return _checked_board(outer, inner, {cell: (int(e[:-1]), e[-1])
                                         for cell, e in entries.items()})


@pytest.mark.parametrize("outer, inner, entries, expected", [
    # east: a u-cell above the u-letter's new cell must be smaller
    ((2, 2), (1,), {(1, 2): "1u", (2, 1): "1u", (2, 2): "1v"},
     [((1, 2), (2, 2))]),
    # east: a u-cell below the u-letter's new cell must be larger
    ((2, 2), (), {(1, 1): "1u", (1, 2): "1v", (2, 1): "2v", (2, 2): "1u"}, []),
    # east: a v-cell above the v-letter's new cell must be smaller
    ((2, 2), (), {(1, 1): "1v", (1, 2): "1u", (2, 1): "2u", (2, 2): "1v"}, []),
    # east: a v-cell below the v-letter's new cell must be larger
    ((2, 1), (), {(1, 1): "1u", (1, 2): "1v", (2, 1): "1v"},
     [((1, 1), (2, 1))]),
    # south: a u-cell left of the u-letter's new cell must not be larger
    ((2, 2), (1,), {(1, 2): "1u", (2, 1): "2u", (2, 2): "1v"},
     [((2, 1), (2, 2))]),
    # south: a v-cell right of the v-letter's new cell must not be smaller
    ((2, 1), (), {(1, 1): "1u", (1, 2): "1v", (2, 1): "2v"},
     [((1, 1), (1, 2))]),
], ids=["east-u-above", "east-u-below", "east-v-above", "east-v-below",
        "south-u-left", "south-v-right"])
def test_each_relation_a_switch_creates_blocks_it(outer, inner, entries,
                                                   expected):
    # in each state exactly one relation the switch creates blocks a site
    assert _sites(*_state(outer, inner, entries)) == expected


@pytest.mark.parametrize("outer, inner, cells, why", [
    ((1,), (), {(5, 5): (1, "u")}, r"cells do not fill the board \(1,\)/\(\)"),
    ((2,), (3,), {}, r"inner \(3,\) not contained in outer \(2,\)"),
    ((1,), (), {(1, 1): (0, "u")}, r"holds \(0, 'u'\), not a value of at least 1"),
    ((1,), (), {(1, 1): (1, "w")}, "not a value of at least 1 and a colour"),
    ((1,), (), {(1, 1): 1}, "holds 1, not a value"),
    # a row out of order, a column not strict, and a class decreasing from
    # northwest to southeast past cells of the other colour
    ((2,), (), {(1, 1): (2, "u"), (1, 2): (1, "u")},
     r"colour class u is not a valid filling at cell \(1, 2\)"),
    ((1, 1), (), {(1, 1): (1, "v"), (2, 1): (1, "v")},
     r"colour class v is not a valid filling at cell \(2, 1\)"),
    ((2, 2), (), {(1, 1): (2, "u"), (1, 2): (1, "v"), (2, 1): (1, "v"),
                  (2, 2): (1, "u")},
     r"colour class u is not a valid filling at cell \(2, 2\)"),
], ids=["off-board", "borders", "value", "colour", "entry", "row", "column",
        "diagonal"])
def test_two_colour_state_is_checked(outer, inner, cells, why):
    # the oracle's own check; the literal states above build, so it admits
    # valid states
    with pytest.raises(ValueError, match=why):
        _checked_board(outer, inner, cells)


def _valid_boards(outer, inner, letters: int):
    """Every valid two-colour state of the board outer/inner with values up
    to letters, as a board: a depth-first search that fills the cells
    row-major, each with each colour and value ``_placed`` allows."""
    g, cells = _geometry(outer, inner), _board_cells(outer, inner)
    state, seen = {}, {}

    def fill(k):
        if k == len(cells):
            yield _board_of(g, state)
            return
        r, c = cells[k]
        for color in "uv":
            for value in range(1, letters + 1):
                if _placed(seen, r, c, value, color):
                    state[r, c] = value, color
                    yield from fill(k + 1)

    yield from fill(0)


def _spanning_boards(max_cells: int):
    """Every board outer/inner of 1 to max_cells cells with a cell in each
    of its rows and columns, so at most max_cells of each."""
    n = max_cells
    for k in range(1, n * n + 1):
        for outer in partitions_of(k, n, n):
            for inner in subpartitions(outer):
                cells = _board_cells(outer, inner)
                if (len(cells) <= n
                        and {r for r, _c in cells} == set(range(1, len(outer) + 1))
                        and {c for _r, c in cells} == set(range(1, outer[0] + 1))):
                    yield outer, inner


def test_admissible_is_the_whole_class_check_after_the_swap():
    # every valid state of every board of at most 4 cells with a cell in
    # each row and column, letters up to 3: a u-letter and a v-letter east
    # or south of it may switch exactly when both classes stay valid
    boards = list(_spanning_boards(4))
    n_states = n_switches = 0
    for outer, inner in boards:
        g = _geometry(outer, inner)
        for board in _valid_boards(outer, inner, 3):
            n_states += 1
            for iu, iv in [(iu, iv) for iu, x in enumerate(board) if x > 0
                           for iv in (iu + 1, g.south[iu]) if board[iv] < 0]:
                swapped = list(board)
                swapped[iu], swapped[iv] = board[iv], board[iu]
                try:
                    _checked_board(outer, inner, _cells_of(g, swapped))
                    valid = True
                except ValueError:
                    valid = False
                assert _admissible(g, board, iu, iv) == valid, (board, iu, iv)
                n_switches += 1
    assert (len(boards), n_states, n_switches) == (41, 20394, 11223)


def test_switching_empty_outer_member():
    u = SkewTableau((3, 1), (1, 0), [(1, 2), (1,)])
    s, h = switching(u, SkewTableau((3, 1), (3, 1), ()))
    assert s == SkewTableau((1,), (1,), ()) and h == u


def test_switching_base_case_row():
    s, h = switching(yamanouchi_tableau((4,)),
                     SkewTableau((6,), (4,), [(1, 1)]))
    assert s == SkewTableau((2,), (), [(1, 1)])
    assert h == SkewTableau((6,), (2,), [(1, 1, 1, 1)])


def test_switching_validates_extension():
    with pytest.raises(ValueError):
        switching(yamanouchi_tableau((2,)), SkewTableau((3, 1), (3, 1), ()))
    with pytest.raises(ValueError):
        switching(SW_U, SW_V, strategy="sideways")
    with pytest.raises(ValueError):
        switching(SW_U, SW_V, strategy="seeded-random")
    # the orders are greedy and infusion, and the seed changes nothing
    with pytest.raises(ValueError, match=r"one of \('greedy', 'infusion'\)"):
        switching(SW_U, SW_V, strategy="random")
    assert switching(SW_U, SW_V, seed=5) == switching(SW_U, SW_V)
    assert _frames(switching, SW_U, SW_V, "greedy", 5) == \
        _frames(switching, SW_U, SW_V, "greedy")


def test_terminals_branch_only_where_a_step_has_a_choice():
    def search(u, v):
        """(greedy's frames, site-list reads of the search, its terminals)"""
        frames = []
        switching(u, v, on_frame=lambda *frame: frames.append(frame))
        g = _geometry(v.outer, u.inner)
        with counting("commutor._find_sites") as reads:
            ends = [_split_cells(g, b, g.inner) for b in _terminals(g, _board(u, v))]
        return len(frames), reads["commutor._find_sites"], ends

    # a choice: the search leaves greedy's path, and every order ends on
    # greedy's board
    frames, n_reads, ends = search(SW_U, SW_V)
    assert n_reads > frames + 1
    assert ends == [switching(SW_U, SW_V)] * len(ends)
    # one letter past one letter: a single site at every step, so the search
    # reads the site list once per state on greedy's path
    u, v = yamanouchi_tableau((1,)), SkewTableau((2,), (1,), [(1,)])
    frames, n_reads, ends = search(u, v)
    assert n_reads == frames + 1
    assert ends == [(SkewTableau((1,), (), [(1,)]),
                     SkewTableau((2,), (1,), [(1,)]))]


def _rescan(g, board, on_frame=None) -> list:
    """Switch a copy of the board at the first site until none remains,
    rescanning the sites at every step: the reference for the live site
    set."""
    board = list(board)
    while sites := _find_sites(g, board):
        iu, iv = sites[0]
        board[iu], board[iv] = board[iv], board[iu]
        if on_frame is not None:
            on_frame(SwitchSite(_cell(g, iu), _cell(g, iv)), _cells_of(g, board))
    return board


def _rescanned_switching(u, v, strategy="greedy", on_frame=None):
    """``switching`` in greedy order by ``_rescan``."""
    g = _geometry(v.outer, u.inner)
    return _split_cells(g, _rescan(g, _board(u, v), on_frame), g.inner)


def _frames(switch, u, v, *args):
    frames = []
    end = switch(u, v, *args, on_frame=lambda *frame: frames.append(frame))
    return frames, end


def _packed_pairs(max_size: int):
    """Every pair (u, v) of non-empty packed fillings, v extending u, of at
    most max_size boxes with u's inner border: general pairs, not only
    ballot ones."""
    def fillings(outer, inner):
        return packed_fillings(outer, inner + (0,) * (len(outer) - len(inner)))

    for gamma in partitions_up_to(max_size):
        for lam in subpartitions(gamma):
            for mu in subpartitions(lam):
                for u in fillings(lam, mu):
                    for v in fillings(gamma, lam):
                        if u.size and v.size:
                            yield u, v


def test_live_site_set_equals_a_rescan():
    # greedy's scan pointer stops at the rescan's first site at every step,
    # so every frame and the terminal board match it
    pairs = list(_packed_pairs(6))
    assert len(pairs) == 4250
    n_frames = 0
    for u, v in pairs:
        frames, end = _frames(switching, u, v)
        assert (frames, end) == _frames(_rescanned_switching, u, v)
        n_frames += len(frames)
    assert n_frames == 11094


def _disconnected_pair(seed: int, letters: int, max_letter: int,
                       cut: float = 0.3) -> GluedPair:
    """A ballot pair whose rows share no column.  A random Yamanouchi word,
    reversed, is the skew member's reading word; it is cut into rows at each
    descent and, with probability ``cut``, at each other gap, and each row
    sits right of every row below it.  ``cut=1`` gives the staircase: one
    letter a row over a staircase border."""
    rng = random.Random(seed)
    counts = [0] * (max_letter + 1)
    word = []
    for _ in range(letters):
        x = rng.choice([k for k in range(1, max_letter + 1)
                        if k == 1 or counts[k - 1] > counts[k]])
        counts[x] += 1
        word.append(x)
    word.reverse()
    runs = [[word[0]]]  # bottom row first
    for a, b in zip(word, word[1:]):
        if b < a or rng.random() < cut:
            runs.append([b])
        else:
            runs[-1].append(b)
    inner = [sum(map(len, runs[:k])) for k in range(len(runs))][::-1]
    rows = runs[::-1]
    outer = [i + len(row) for i, row in zip(inner, rows)]
    return glued_pair(SkewTableau(outer, inner, rows))


def _seeded_pairs():
    """Ten seeded pairs of 30-100 boxes."""
    pairs = [_disconnected_pair(seed, 12 + seed % 5, 2 + seed % 3)
             for seed in range(10)]
    assert all(30 <= sum(p.skew.outer) <= 100 for p in pairs)
    return pairs


def test_live_site_set_equals_a_rescan_beyond_desk_scale():
    # an east swap puts back only the rejected east edges of the columns
    # beside it that its walks reach, a south swap the south edges of such
    # rows, never those of its own line; past the packed pairs greedy's
    # frames and terminal board still match the rescan's, on the seeded
    # pairs, their images and the N=20 staircase
    pairs = _seeded_pairs() + [_disconnected_pair(0, 20, 4, cut=1)]
    n_frames = 0
    for p in pairs + [rho1_internal(p) for p in pairs]:
        frames, end = _frames(switching, p.yam, p.skew)
        assert (frames, end) == _frames(_rescanned_switching, p.yam, p.skew)
        n_frames += len(frames)
    assert n_frames == 2504


def test_live_site_set_equals_a_rescan_on_the_wide_switching_pair():
    # each swap of the wide switching pair puts back the rejected edges of
    # a whole line beside it: its frames and terminal board still match the
    # rescan's
    p = _wide_switching_pair(40)
    frames, end = _frames(switching, p.yam, p.skew)
    assert (frames, end) == _frames(_rescanned_switching, p.yam, p.skew)
    assert len(frames) == 40 * 40


def _deep_pair(n: int) -> GluedPair:
    """The deep two-column pair: 1..n down column 2 over the inner border
    1^n."""
    return glued_pair(SkewTableau((2,) * n, (1,) * n,
                                  [(i,) for i in range(1, n + 1)]))


def _wide_switching_pair(n: int) -> GluedPair:
    """The wide switching pair: 1^n right of the inner border (n), over 2^n.
    Each member's letters switch past all of the other's, n^2 swaps on 4n
    boxes."""
    return glued_pair(SkewTableau((2 * n, n), (n,), [(1,) * n, (2,) * n]))


def _wide_bumping_pair(n: int) -> GluedPair:
    """The wide bumping pair: 1^n right of the inner border (n), over 1^n.
    Its second block inserts n letters 1 at row 1, each vacating a filled
    corner of a row 2n cells wide."""
    return glued_pair(SkewTableau((2 * n, n), (n,), [(1,) * n, (1,) * n]))


def test_live_site_set_equals_a_rescan_where_few_lines_reopen():
    # the deep pair's swaps run down one column and the wide bumping pair's
    # from row 1 to row 2: most swaps put back no line of rejected edges,
    # neither their own nor one beside it, and the frames and terminal
    # board still match the rescan's
    for p in (_deep_pair(40), _wide_bumping_pair(40)):
        frames, end = _frames(switching, p.yam, p.skew)
        assert (frames, end) == _frames(_rescanned_switching, p.yam, p.skew)
        assert len(frames) == 40


# valid boards, one for each neighbour condition of an east swap's columns
# c - 1 and c + 1 that no pair's board is known to need, as (outer, inner,
# board).  In each, a swap reopens an edge of the column beside it that a
# walk rejected on a or b (named as in ``_switch``'s docstring): on the
# u-letter 1 equal to x southeast of it (north of iu), on the u-letter 4
# northeast of x (south of iu), on the v-letter 4 equal to y northwest of
# it (south of iv)
REOPENING_BOARDS = {
    "north-of-iu": ((3, 3), (), [0, 1, -1, -1, 0, -2, 1, -2, 0]),
    "south-of-iu": ((4, 4), (1,), [0, 4, -1, -1, 0, 1, -2, 4, -2, 0]),
    "south-of-iv": ((4, 4, 2), (1, 1), [0, 1, -4, 1, 0, 2, 2, -4, 0, 3, -1, 0]),
}


@pytest.mark.parametrize("outer, inner, board", REOPENING_BOARDS.values(),
                         ids=REOPENING_BOARDS)
def test_greedy_reopens_the_lines_beside_an_east_swap(outer, inner, board):
    # each board is a valid state; greedy's frames and terminal board from
    # it match a rescan's
    g = _geometry(outer, inner)
    assert _checked_board(outer, inner, _cells_of(g, board))[1] == board
    frames, want = [], []
    end = _switch(g, board, lambda *frame: frames.append(frame))
    assert end == _rescan(g, board, lambda *frame: want.append(frame))
    assert frames == want


# the kernel calls of each commute method on two cheap sizes of each family
# of tools/commute_scale.py, as (the pair's maker and its arguments, greedy's
# site tests, the inserts and the appends of internal and of scratch
# insertion); infusion calls none of these kernels.  Greedy on the N=20
# staircase makes 686 site tests (735 when a swap also re-tested the rejected
# edges of its own line, 830 when it re-marked every edge of three lines,
# 1,350 when every swap re-tested the marked edges at once, 1,756 when it
# re-tested the east and the south edges of the lines it touched).  The deep
# pairs test 2n - 1 sites (1,889 and 20,299 at n = 60 and 200 when every swap
# re-tested the marked edges at once).  The wide bumping pair tests N + 1
# sites for its N swaps, the wide switching pair about 1.5 a swap.
SCALE_COUNTS = {
    "deep-60": (_deep_pair, (60,), 119, 60, 60),
    "deep-200": (_deep_pair, (200,), 399, 200, 200),
    "staircase-20": (_disconnected_pair, (0, 20, 4, 1), 686, 20, 19),
    "staircase-40": (_disconnected_pair, (0, 40, 4, 1), 3499, 40, 39),
    "blocks-50": (_disconnected_pair, (1, 50, 6), 5125, 49, 27),
    "blocks-100": (_disconnected_pair, (1, 100, 6), 27202, 99, 62),
    "wide-switching-20": (_wide_switching_pair, (20,), 609, 2, 1),
    "wide-switching-40": (_wide_switching_pair, (40,), 2419, 2, 1),
    "wide-bumping-100": (_wide_bumping_pair, (100,), 101, 101, 1),
    "wide-bumping-400": (_wide_bumping_pair, (400,), 401, 401, 1),
}


@pytest.mark.parametrize("make, args, site_tests, inserts, appends",
                         SCALE_COUNTS.values(), ids=SCALE_COUNTS)
def test_each_method_makes_the_pinned_kernel_calls_on_the_scale_families(
        make, args, site_tests, inserts, appends):
    # counts that machine noise cannot move, so a change in how a method
    # grows shows here whatever the machine's speed
    p = make(*args)
    inserting = {"commutor._insert_inplace": inserts,
                 "commutor._append_inplace": appends}
    for name, method in METHODS.items():
        with counting("commutor._admissible", "commutor._insert_inplace",
                      "commutor._append_inplace") as calls:
            method.rho(p)
        if method.family == "on_step":  # the row program
            assert calls == inserting, name
        elif name == "switching":  # greedy tests sites; slides need none
            assert calls == {"commutor._admissible": site_tests}, name
        else:
            assert calls == {}, name


def test_greedy_keeps_a_few_bytes_a_cell():
    # greedy keeps a board copy, a row per cell and two bytes per edge, and
    # files a rejected edge once: no container per line (a set per column
    # took 216 B each, on the one-row board of the border limit, N
    # u-letters and one v-letter), and no list of every test (the wide
    # switching pair rejects each edge many times)
    n = 20000
    wide = _wide_switching_pair(100)
    for u, v in ((yamanouchi_tableau((n,)), SkewTableau((n + 1,), (n,), [(1,)])),
                 (wide.yam, wide.skew)):
        g, board = _geometry(v.outer, u.inner), _board(u, v)
        tracemalloc.start()
        try:
            _switch(g, board)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * len(board)


def test_greedy_matches_infusion_and_insertion_beyond_desk_scale():
    # the N=40 staircase (820 boxes), ten seeded pairs of 30-100 boxes, four
    # deep two-column pairs, two wide bumping pairs and a wide switching one
    pairs = _seeded_pairs()
    pairs.append(_disconnected_pair(0, 40, 4, cut=1))
    pairs += [_deep_pair(n) for n in (60, 200, 400, 1500)]
    pairs += [_wide_bumping_pair(n) for n in (100, 1600)]
    pairs.append(_wide_switching_pair(100))
    for p in pairs:
        image = rho1_internal(p)
        assert {method.rho(p) for method in METHODS.values()} == {image}
        assert rho1_switching(image) == p


def test_skew_rsk_round_trips_the_wide_bumping_pair():
    # U = 1^n right of (n) inserts the pair's skew member at row 1 n times,
    # each vacating a filled corner of a row 2n cells wide and bumping its 1
    # to the end of row 2
    n = 40000
    t = _wide_bumping_pair(n).skew
    u = SkewTableau((2 * n,), (n,), [(1,) * n])
    p, q = skew_rsk_forward(t, u)
    assert p == SkewTableau((2 * n, 2 * n), (2 * n,), [(), (1,) * 2 * n])
    assert q == SkewTableau((2 * n, 2 * n), (2 * n, n), [(), (1,) * n])
    assert skew_rsk_inverse(p, q) == (t, u)


def test_greedy_on_a_board_with_no_site_returns_an_equal_copy():
    # the empty board, a terminal board and a lone member admit no switch
    g = _geometry(SW_V.outer, SW_U.inner)
    lone = yamanouchi_tableau((2, 1)), SkewTableau((2, 1), (2, 1), ())
    frames = []
    for g, board in ((_geometry((), ()), [0]),
                     (g, _switch(g, _board(SW_U, SW_V))),
                     (_geometry((2, 1), ()), _board(*lone))):
        assert _find_sites(g, board) == []
        end = _switch(g, board, lambda *frame: frames.append(frame))
        assert end == board and end is not board and frames == []


def test_greedy_never_mutates_the_board_it_is_given():
    pairs = [(SW_U, SW_V)] + [(p.yam, p.skew) for p in
                              (_deep_pair(20), _disconnected_pair(0, 20, 4, cut=1))]
    for u, v in pairs:
        g = _geometry(v.outer, u.inner)
        board = _board(u, v)
        given = list(board)
        end = _switch(g, board)
        assert board == given and end != board
        assert _switch(g, tuple(board)) == end


def test_commute_trace_of_the_live_site_set_is_the_rescans(tmp_path, capsys,
                                                           monkeypatch):
    # the N=20 staircase and the deep pair at n=60, one swap a row
    staircase = _disconnected_pair(0, 20, 4, cut=1)
    assert staircase.skew.inner == tuple(range(19, -1, -1))
    for p, swaps in ((staircase, 308), (_deep_pair(60), 60)):
        f = tmp_path / "pair.json"
        f.write_text(json.dumps(to_json_dict(p.skew)))
        argv = ["--format", "json", "commute", str(f), "--trace"]
        with monkeypatch.context() as m:
            assert cli.main(argv) == 0
            live = capsys.readouterr().out
            assert len(json.loads(live.splitlines()[1])) == swaps
            m.setattr(commutor, "switching", _rescanned_switching)
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == live


def _infusion_frames(u, v):
    frames = []
    switching(u, v, "infusion", on_frame=lambda *frame: frames.append(frame))
    return frames


def test_infusion_slides_by_admissible_switches_to_greedys_board():
    pairs = [(SW_U, SW_V)] + [(p.yam, p.skew) for p in lr_pairs(6)]
    for u, v in pairs:
        g = _geometry(v.outer, u.inner)
        previous = _cells_of(g, _board(u, v))
        for site, cells in _infusion_frames(u, v):
            assert site in _sites(g, _board_of(g, previous))
            u_cell, v_cell = site
            previous[u_cell], previous[v_cell] = previous[v_cell], previous[u_cell]
            assert previous == cells
        assert previous == _cells_of(g, _switch(g, _board(u, v)))


def test_infusion_order_is_the_reverse_standard_order():
    # the board indices read off the board name u's cells in the order of
    # the standard order, reversed: the oracle
    pairs = list(_packed_pairs(6))
    pairs += [(p.yam, p.skew) for p in
              (*_seeded_pairs(), _disconnected_pair(0, 40, 4, cut=1))]
    assert len(pairs) == 4261
    for u, v in pairs:
        g = _geometry(v.outer, u.inner)
        order = commutor._infusion_order(g, _board(u, v))
        assert [commutor._cell(g, i) for i in order] == [
            c for _x, c in reversed(standard_order(u))]


def test_infusion_slides_the_largest_letter_first():
    # jeu de taquin in reverse standard order: the rightmost 2 slides east,
    # to the 1 smaller than the 3 south of it; the other 2 takes the south 1
    # on a tie with the east one, then slides east; then the 1 does the same
    u = SkewTableau((3,), (), [(1, 2, 2)])
    v = SkewTableau((4, 3), (3, 0), [(1,), (1, 1, 3)])
    assert [site for site, _cells in _infusion_frames(u, v)] == [
        SwitchSite((1, 3), (1, 4)),
        SwitchSite((1, 2), (2, 2)), SwitchSite((2, 2), (2, 3)),
        SwitchSite((1, 1), (2, 1)), SwitchSite((2, 1), (2, 2))]


def test_infusion_and_staged_switching_never_read_the_site_list(monkeypatch):
    expected = switching(SW_U, SW_V)
    expected_sd = staged_decomposition(glued_pair(T_STAGED))

    def refuse(*board):
        raise AssertionError("the site list was read")

    monkeypatch.setattr(commutor, "_find_sites", refuse)
    assert switching(SW_U, SW_V, "infusion") == expected
    assert staged_decomposition(glued_pair(T_STAGED)) == expected_sd


def test_split_cells_rejects_unswitched_members():
    g = _geometry(SW_V.outer, SW_U.inner)
    with pytest.raises(ValueError, match="did not separate"):
        _split_cells(g, _board(SW_U, SW_V), g.inner)
    # v-cells under the u-cells: the v-region (0, 2) is not a partition
    u = SkewTableau((2,), (), [(1, 1)])
    v = SkewTableau((2, 2), (2,), [(), (2, 2)])
    g = _geometry(v.outer, u.inner)
    with pytest.raises(ValueError, match="did not separate.*not weakly decreasing"):
        _split_cells(g, _board(u, v), g.inner)


def test_rho1_switching_running_example():
    pair = glued_pair(T_RUNNING)
    out = rho1_switching(pair)
    assert out.yam == yamanouchi_tableau((4, 4, 3, 2))
    assert out.skew == H_RUNNING


def test_rho1_switching_identity_like_cases():
    lam = (2, 1)
    p = glued_pair(SkewTableau(lam, lam, ()))
    out = rho1_switching(p)
    assert out.yam == EMPTY
    assert out.skew == yamanouchi_tableau(lam)
    # and back
    assert rho1_switching(out) == p
    empty = GluedPair(EMPTY, EMPTY)
    assert rho1_switching(empty) == empty


def test_rho1_rejects_non_lr_input():
    bad = glued_pair(SkewTableau((2,), (1,), [(2,)]))
    for method in METHODS.values():
        with pytest.raises(ValueError, match="ballot"):
            method.rho(bad)


def test_staged_decomposition_four_rows():
    sd = staged_decomposition(glued_pair(T_STAGED))
    assert sd.d == 2
    assert sd.f_hat == (3, 3)
    assert sd.big_d == (2, 2)
    assert sd.s == SkewTableau((9, 6, 5, 3), (6, 0, 0, 0),
                               [(1, 1, 1), (1, 1, 1, 2, 2, 2),
                                (2, 2, 3, 3, 3), (3, 3, 4)])
    assert sd.q == SkewTableau((9, 7, 6, 5), (9, 6, 5, 3),
                               [(), (2,), (2,), (2, 2)])


def test_staged_decomposition_three_rows():
    tb = SkewTableau((9, 7, 6), (6, 4, 0),
                     [(1, 1, 1), (1, 1, 2), (1, 2, 2, 2, 2, 3)])
    sd = staged_decomposition(glued_pair(tb))
    assert (sd.d, sd.f_hat, sd.big_d) == (2, (2, 2), (2, 2, 2))


def test_staged_decomposition_preconditions():
    # empty inner shape
    with pytest.raises(ValueError):
        staged_decomposition(glued_pair(yamanouchi_tableau((2, 1))))
    # inner shape reaching the last row
    t = SkewTableau((2, 1), (1, 1), [(1,), ()])
    with pytest.raises(ValueError):
        staged_decomposition(glued_pair(t))
    # last row without letters below the largest
    t = SkewTableau((1, 1), (1, 0), [(), (2,)])
    with pytest.raises(ValueError):
        staged_decomposition(glued_pair(t))


def test_chi_append():
    # chi_i, one letter i at the end of row i, on the kernel's lists
    inner, rows = [], []
    _append_inplace(inner, rows, 1)
    assert rows == [[1]]
    for i in (1, 2, 2):
        _append_inplace(inner, rows, i)
    assert _freeze(inner, rows).rows == ((1, 1), (2, 2))
    with pytest.raises(ValueError):
        _append_inplace(inner, rows, 2)  # row 2 would outgrow row 1
    with pytest.raises(ValueError):
        _append_inplace([], [], 2)
    # a new row under a letter that is too large
    with pytest.raises(ValueError, match="breaks the tableau"):
        _append_inplace(*_thaw(SkewTableau((1,), (0,), [(2,)])), 2)
    # a column clash with the cell above
    with pytest.raises(ValueError, match="breaks the tableau"):
        _append_inplace(*_thaw(SkewTableau((2, 1), (1, 0), [(3,), (1,)])), 2)


def test_nu_hat_examples():
    assert nu_hat(T_RUNNING) == (2, 1, 1, 1)
    assert nu_hat(yamanouchi_tableau((3, 2))) == (3, 2)
    assert nu_hat(SkewTableau((2, 1), (1, 0), [(1,), (1,)])) == (1,)


def test_gt_order_word_examples():
    assert gt_order_word(T_RUNNING) == (2, 3, 4, 2, 3, 4, 1, 2, 3, 1, 2, 1, 1)
    nu = (3, 2, 1)
    assert gt_order_word(yamanouchi_tableau(nu)) == (3, 2, 2, 1, 1, 1)
    with pytest.raises(ValueError):
        gt_order_word(SkewTableau((2,), (1,), [(2,)]))


def test_rho1_internal_and_scratch_running_example():
    pair = glued_pair(T_RUNNING)
    expected = GluedPair(yamanouchi_tableau((4, 4, 3, 2)), H_RUNNING)
    assert rho1_internal(pair) == expected
    assert rho1_scratch(pair) == expected


def test_rho1_internal_and_scratch_deep_column():
    n = 1100
    column = SkewTableau((1,) * n, (), [(k,) for k in range(1, n + 1)])
    expected = glued_pair(SkewTableau((1,) * n, (1,) * n, ()))
    assert rho1_internal(glued_pair(column)) == expected
    assert rho1_scratch(glued_pair(column)) == expected


def test_rho1_scratch_normal_shape():
    nu = (3, 1)
    p = glued_pair(yamanouchi_tableau(nu))
    out = rho1_scratch(p)
    assert out.yam == yamanouchi_tableau(nu)
    assert out.skew == SkewTableau(nu, nu, ())


def _per_letter_run(t, on_step=None):
    # the reference executor: row_program's steps through the kernels one
    # at a time, one insertion or append call per letter, each traced
    inner, rows = [], []
    for step in row_program(t):
        if step.op == "insert":
            trace = _insert_traced(inner, rows, step.i)
        else:
            trace = None
            _append_inplace(inner, rows, step.i)
        if on_step is not None:
            on_step(step, trace, _freeze(inner, rows))
    return _freeze(inner, rows)


def _observed(run, t):
    seen = []
    end = run(t, lambda step, trace, state: seen.append((step, trace, state)))
    return seen, end


def _outcome(run, t):
    try:
        return run(t)
    except ValueError as exc:
        return str(exc)


def test_block_executor_matches_the_per_letter_run():
    pairs = list(lr_pairs(7)) + _seeded_pairs()
    for p in pairs + [rho1_switching(p) for p in pairs]:
        assert run_row_program(p.skew) == _per_letter_run(p.skew)
        assert _observed(run_row_program, p.skew) == _observed(_per_letter_run, p.skew)
    # every semistandard filling of 1 to 7 boxes with letters up to its row
    # count, ballot or not: the same tableau, or the same error, which for
    # 1,023 of them is a row that is no inner corner, met in a blank run
    # or in a row word
    errors = Counter()
    for lam in partitions_up_to(7):
        for mu in subpartitions(lam):
            if sum(mu) < sum(lam):
                shape = SkewShape(lam, mu + (0,) * (len(lam) - len(mu)))
                for t in enumerate_ssyt(shape, len(lam)):
                    got = _outcome(run_row_program, t)
                    assert got == _outcome(_per_letter_run, t), t
                    errors[isinstance(got, str) and got.endswith("inner corner")] += 1
    assert errors == {False: 5771 - 1023, True: 1023}


def _lowering(kernel, k):
    # the kernel, except that the route of its k-th call (from 0) given a
    # route list ends a row lower
    calls = itertools.count()

    def insert(inner, rows, i, route=None, count=1):
        created = kernel(inner, rows, i, route, count)
        if route is not None and next(calls) == k:
            r, c = route[-1]
            route[-1] = (r + 1, c)
        return created
    return insert


def test_rho1_internal_checks_the_route_of_every_block(monkeypatch):
    pair = glued_pair(T_RUNNING)
    expected = rho1_scratch(pair)
    row_word = [s for s in row_program(T_RUNNING) if s.op == "insert" and s.i < s.row]
    # the number of each block's last row-word insertion, the calls that
    # are given a route list
    last = {s.row: k for k, s in enumerate(row_word)}
    assert sorted(last) == [2, 3, 4, 5]
    kernel = commutor._insert_inplace
    for row, k in last.items():
        monkeypatch.setattr(commutor, "_insert_inplace", _lowering(kernel, k))
        with pytest.raises(ValueError, match=f"bumping route ended in row "
                                             f"{row + 1}, expected {row}"):
            rho1_internal(pair)
        monkeypatch.setattr(commutor, "_insert_inplace", _lowering(kernel, k))
        assert rho1_scratch(pair) == expected


def test_scratch_inserts_once_per_blank_run_and_row_word_letter(monkeypatch):
    # a count that machine noise cannot move: over lr_pairs(6), rho1_scratch
    # calls the insertion kernel once per block with letters n in its row n,
    # 343 times, and once per letter below the row, 265 times, 608 calls;
    # letter by letter it made one call per letter, 773.  It asks for no
    # bumping route.
    insert = commutor._insert_inplace

    def routeless(inner, rows, i, route=None, count=1):
        assert route is None
        return insert(inner, rows, i, route, count)

    monkeypatch.setattr(commutor, "_insert_inplace", routeless)
    pairs = list(lr_pairs(6))
    with counting("commutor._insert_inplace") as calls:
        for p in pairs:
            rho1_scratch(p)
    rows = [(n, row) for p in pairs for n, row in enumerate(p.skew.rows, 1)]
    assert sum(len(row) for _n, row in rows) == 773
    assert sum(1 for n, row in rows if n in row) == 343
    assert sum(1 for n, row in rows for x in row if x < n) == 265
    assert calls == {"commutor._insert_inplace": 608}


def test_scratch_appends_once_per_row_with_an_inner_part():
    # a count that machine noise cannot move: over lr_pairs(6), rho1_scratch
    # calls the append kernel once per row with a nonzero inner part, 507
    # times; letter by letter it made one call per inner cell, 773
    pairs = list(lr_pairs(6))
    with counting("commutor._append_inplace") as calls:
        for p in pairs:
            rho1_scratch(p)
    assert sum(sum(p.skew.inner) for p in pairs) == 773
    assert sum(1 for p in pairs for m in p.skew.inner if m) == 507
    assert calls == {"commutor._append_inplace": 507}


def test_rho1_final_example_gluing():
    pair = glued_pair(T_STAGED)
    sd = staged_decomposition(pair)
    full = rho1_switching(pair)
    part = rho1_switching(glued_pair(sd.s))
    assert GluedPair(part.yam, glue(part.skew, sd.q)) == full
    assert full.skew == SkewTableau((9, 7, 6, 5), (6, 5, 5, 1),
                                    [(1, 1, 1), (1, 2), (2,), (1, 1, 2, 2)])


def test_commutor_small_sweep():
    # involution, coincidence and content swap on every pair up to 6 boxes
    for p in lr_pairs(6):
        nu = tableau_content(p.skew)
        a = rho1_switching(p)
        assert {method.rho(p) for method in METHODS.values()} == {a}
        a.skew._validate()
        assert tableau_content(a.skew) == tableau_content(p.yam)
        assert a.yam == yamanouchi_tableau(nu)
        assert rho1_switching(a) == p


def test_route_claim_checker_rejects_bad_traces():
    from lrcommute.commutor import _check_route
    routes = [(1, 2), (2, 2)]
    _check_route(routes, 0, 2)
    routes += [(1, 3), (2, 3)]
    _check_route(routes, 2, 2)
    _check_route(routes, None, 2)
    with pytest.raises(ValueError, match="disjoint"):
        _check_route(routes + [(1, 2), (2, 2)], None, 2)
    with pytest.raises(ValueError, match="ended in row"):
        _check_route(routes, 2, 3)
    with pytest.raises(ValueError, match="blank"):
        _check_route(routes, 4, 2)


@pytest.mark.parametrize("fault, message", [
    ("blank", "a row-word insertion was a blank move"),
    ("shared", "row-word bumping routes are not disjoint"),
])
@pytest.mark.parametrize("traced", [False, True], ids=["run", "on_step"])
def test_rho1_internal_rejects_a_blank_or_shared_route(monkeypatch, traced,
                                                       fault, message):
    # a kernel whose k-th row-word route, the second of its block, records
    # no cell ("blank") or starts at the first cell of the block's first
    # route ("shared"), on the run path and on the on_step path
    pair = glued_pair(T_RUNNING)
    steps = [s for s in row_program(T_RUNNING) if s.op == "insert"]
    row_word = [s for s in steps if s.i < s.row]
    k = next(k for k in range(1, len(row_word))
             if row_word[k].row == row_word[k - 1].row)
    if traced:
        # _insert_traced runs once per insertion, blank runs included
        k = steps.index(row_word[k])
        kernel = commutor._insert_traced
        calls, kept = itertools.count(), []

        def insert(inner, rows, i):
            trace = kernel(inner, rows, i)
            kept.append(trace.route[:1])
            if next(calls) == k:
                route = () if fault == "blank" else kept[-2] + trace.route
                trace = trace._replace(route=route)
            return trace
        monkeypatch.setattr(commutor, "_insert_traced", insert)
    else:
        kernel = commutor._insert_inplace
        calls = itertools.count()

        def insert(inner, rows, i, route=None, count=1):
            start = len(route) if route is not None else 0
            created = kernel(inner, rows, i, route, count)
            if route is not None and next(calls) == k:
                if fault == "blank":
                    del route[start:]
                else:
                    route.insert(start, route[0])
            return created
        monkeypatch.setattr(commutor, "_insert_inplace", insert)
    with pytest.raises(ValueError, match=f"^{message}$"):
        rho1_internal(pair, (lambda *_: None) if traced else None)
    assert rho1_scratch(pair) == rho1_switching(pair)


def test_switching_knuth_preservation_small():
    for gamma in partitions_up_to(5):
        for lam in subpartitions(gamma):
            lam_p = lam + (0,) * (len(gamma) - len(lam))
            for mu in subpartitions(lam):
                for u in packed_fillings(lam, mu + (0,) * (len(lam) - len(mu))):
                    for v in packed_fillings(gamma, lam_p):
                        s, h = switching(u, v)
                        s._validate()
                        h._validate()
                        assert p_tableau_rows(reading_word(s)) == \
                            p_tableau_rows(reading_word(v))
                        assert p_tableau_rows(reading_word(h)) == \
                            p_tableau_rows(reading_word(u))
                        # union shape preserved
                        from lrcommute.tableaux import as_partition
                        assert h.outer == v.outer
                        assert as_partition(s.inner) == as_partition(u.inner)
