"""Partitions, skew semistandard tableaux, reading words and enumerators.

Conventions: English (matrix) orientation, rows and columns 1-based in every
public interface.  Partitions are tuples of weakly decreasing nonnegative
integers; trailing zeros are stripped on input, so ``(6, 4, 0, 0)`` and
``(6, 4)`` denote the same partition.  All values are immutable.

Checks run as passes in C (``map``, ``any``, ``min`` over whole rows or
whole tableaux), not as a Python loop per entry: ``SkewTableau`` validates
its filling in a few such passes and looks for the entry or column a
message names only when one fails, and ``is_ballot_tableau`` and
``tableau_content`` read a tableau one run of equal letters at a time.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import chain, repeat
from operator import ge, getitem, gt, index, itemgetter, sub
from typing import Iterable, Iterator, NamedTuple

Cell = tuple[int, int]

QUOTED_CHARS = 60


def brief(text: str) -> str:
    """text, or its first QUOTED_CHARS characters and "...": an error
    message quotes at most that much of a bad value."""
    return text if len(text) <= QUOTED_CHARS else text[:QUOTED_CHARS] + "..."


def parse_int(tok: str) -> int:
    """``int(tok)`` for ASCII digits after at most one '-': ``int`` alone
    also reads '+', '_' and other scripts' digits ('1_0' as 10)."""
    digits = tok.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal {brief(tok)!r}: not ASCII digits")
    return int(tok)


def as_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Validate a weakly decreasing nonnegative sequence; strip trailing zeros."""
    p = tuple(map(index, parts))
    if not all(map(ge, p, p[1:])):
        raise ValueError(f"not weakly decreasing: {brief(str(p))}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part in {brief(str(p))}")
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def contains(outer: tuple[int, ...], inner: tuple[int, ...]) -> bool:
    """Whether the diagram of ``inner`` fits inside ``outer`` row by row."""
    if len(inner) > len(outer):
        return False
    return all(map(ge, outer, inner))


def partitions_of(n: int, max_len: int | None = None,
                  max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n, largest part first, optionally bounded, in
    decreasing lexicographic order.  An explicit stack of (parts, rest, cap)
    keeps very long partitions clear of the recursion limit."""
    max_len = n if max_len is None else max_len
    stack = [((), n, n if max_part is None else max_part)]
    while stack:
        parts, rest, cap = stack.pop()
        if not rest:
            yield parts
        elif len(parts) < max_len:
            # pushed smallest first, so the largest next part pops first
            stack.extend((parts + (h,), rest - h, h)
                         for h in range(1, min(rest, cap) + 1))


def subpartitions(outer: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All partitions contained in the partition ``outer``, in decreasing
    lexicographic order.  Each is the one before with its last part lowered
    by one (dropped if it was 1) and the rows below refilled as far as
    ``outer`` allows, so no recursion limits the length of ``outer``."""
    outer = as_partition(outer)
    parts = list(outer)
    yield outer
    while parts:
        if parts[-1] == 1:
            parts.pop()
        else:
            parts[-1] -= 1
            while len(parts) < len(outer):
                parts.append(min(outer[len(parts)], parts[-1]))
        yield tuple(parts)


class SkewShape(NamedTuple):
    outer: tuple[int, ...]
    inner: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)


def skew_shape(outer: Iterable[int], inner: Iterable[int]) -> SkewShape:
    o, i = as_partition(outer), as_partition(inner)
    if not contains(o, i):
        raise ValueError(f"inner {i} not contained in outer {o}")
    return SkewShape(o, i)


class SkewTableau:
    """A semistandard filling of a skew shape.

    ``rows[i]`` holds the entries of row ``i+1`` left to right; row ``i+1``
    has ``outer[i] - inner[i]`` entries sitting in columns
    ``inner[i]+1 .. outer[i]``.  Rows weakly increase, columns strictly
    increase.  Inner cells are positional blanks, never sentinel entries.
    """

    __slots__ = ("outer", "inner", "rows")

    def __init__(self, outer, inner, rows, check: bool = True):
        o = as_partition(outer)
        i = as_partition(inner)
        r = tuple(map(tuple, map(map, repeat(index), rows)))
        if len(r) > len(o) or len(i) > len(o):
            raise ValueError("row count mismatch with outer shape")
        i = i + (0,) * (len(o) - len(i))
        if not contains(o, i):
            raise ValueError(f"inner {i} not contained in outer {o}")
        r = r + ((),) * (len(o) - len(r))
        self.outer = o
        self.inner = i
        self.rows = r
        if check:
            self._validate()

    def _validate(self):
        """Check the filling in a few passes in C over all its entries, or
        all its pairs of rows: row lengths, entries at least 1, weak rows and
        strict columns (the shared columns of rows k and k + 1 start at
        entry 0 of row k and entry inner[k] - inner[k + 1] of row k + 1, as
        the borders are partitions).  Only when one fails does ``_fault``
        look for the first bad row or column, which the message names."""
        o, i, r = self.outer, self.inner, self.rows
        if len(i) != len(o) or len(r) != len(o):
            raise ValueError("row count mismatch with outer shape")
        entries = chain.from_iterable
        below = map(getitem, r[1:], map(slice, map(sub, i, i[1:]), repeat(None)))
        if (list(map(len, r)) != list(map(sub, o, i))
                or min(entries(r), default=1) < 1
                or any(map(gt, entries(map(_HEAD, r)), entries(map(_TAIL, r))))
                or any(entries(map(map, repeat(ge), r, below)))):
            raise ValueError(_fault(o, i, r))

    @staticmethod
    def _fast(outer: tuple, inner: tuple, rows: tuple) -> "SkewTableau":
        """The one trusted path, for values the library built itself: no
        normalising, no validation.  The caller guarantees what ``__init__``
        establishes: ``outer`` a partition without trailing zeros, ``inner``
        one inside it padded with zeros to its length, and ``rows`` tuples
        holding a semistandard filling."""
        t = SkewTableau.__new__(SkewTableau)
        t.outer = outer
        t.inner = inner
        t.rows = rows
        return t

    @property
    def size(self) -> int:
        return sum(self.outer) - sum(self.inner)

    def __eq__(self, other):
        if not isinstance(other, SkewTableau):
            return NotImplemented
        return (self.outer == other.outer and self.inner == other.inner
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.outer, self.inner, self.rows))

    def __repr__(self):
        return f"SkewTableau({self.outer}, {self.inner}, {self.rows})"

    def __str__(self):
        return to_text(self)


_HEAD = itemgetter(slice(None, -1))  # a row without its last entry
_TAIL = itemgetter(slice(1, None))   # and without its first


def _fault(o, i, r) -> str:
    """What ``SkewTableau._validate`` reports of a filling with rows of
    ``r`` that fails one of its checks: the first fault, row by row."""
    for k, row in enumerate(r):
        if len(row) != o[k] - i[k]:
            return f"row {k + 1} has {len(row)} entries, expected {o[k] - i[k]}"
        for x in row:
            if x < 1:
                return f"entry {x} < 1 in row {k + 1}"
        for a, b in zip(row, row[1:]):
            if a > b:
                return f"row {k + 1} not weakly increasing"
    for k in range(1, len(r)):
        lo = max(i[k], i[k - 1])
        hi = min(o[k], o[k - 1])
        for col in range(lo + 1, hi + 1):
            if r[k - 1][col - 1 - i[k - 1]] >= r[k][col - 1 - i[k]]:
                return f"column {col} not strictly increasing at row {k + 1}"


EMPTY = SkewTableau((), (), ())


def reading_word(t: SkewTableau) -> tuple[int, ...]:
    """Row reading word: rows bottom to top, each left to right."""
    out = []
    for row in reversed(t.rows):
        out.extend(row)
    return tuple(out)


def _runs(t: SkewTableau) -> Iterator[tuple[int, int]]:
    """(letter, count) for each run of equal letters of t's reading word,
    read backwards: rows top to bottom, each run right to left.  A row
    weakly increases, so ``bisect_left`` finds where its run starts."""
    for row in t.rows:
        j = len(row)
        while j:
            x = row[j - 1]
            s = bisect_left(row, x, 0, j)
            yield x, j - s
            j = s


def is_ballot_tableau(t: SkewTableau) -> bool:
    """Whether t's reading word is ballot: read backwards, no letter x > 1
    has been read more often than x - 1.  One run of equal letters at a
    time: a run of x's leaves the most x's against the (x - 1)'s at its
    end, so the condition is checked there."""
    counts = [0, 0]  # counts[x]: the x's read so far, for x >= 1
    for x, m in _runs(t):
        if x == len(counts):
            counts.append(0)
        elif x > len(counts):  # no x - 1 read yet
            return False
        if x > 1 and counts[x - 1] < counts[x] + m:
            return False
        if x > 0:  # a letter below 1 counts for nothing
            counts[x] += m
    return True


def tableau_content(t: SkewTableau) -> tuple[int, ...]:
    """counts[i] = multiplicity of letter i + 1 in t; length = largest
    letter.  Counted one run of equal letters at a time; a letter below 1
    (only an unvalidated tableau holds one) raises, naming it."""
    counts: list[int] = []
    for x, m in _runs(t):
        if x < 1:
            raise ValueError(f"letter {x} < 1")
        if x > len(counts):
            counts.extend([0] * (x - len(counts)))
        counts[x - 1] += m
    return tuple(counts)


def standard_order(t: SkewTableau) -> list[tuple[int, Cell]]:
    """The (entry, cell) pairs of t sorted by entry, then column, then row:
    the order in which standardization numbers the cells."""
    return _standard_order(t.inner, t.rows)


def _standard_order(inner, rows) -> list[tuple[int, Cell]]:
    """``standard_order`` of the filling with these inner border and rows,
    lists or tuples."""
    return sorted(((x, (k + 1, inner[k] + j + 1))
                   for k, row in enumerate(rows) for j, x in enumerate(row)),
                  key=lambda e: (e[0], e[1][1], e[1][0]))


def standardize(t: SkewTableau) -> SkewTableau:
    """Renumber entries 1..size; among equal entries the one in the smaller
    column gets the smaller number (equal entries never share a column)."""
    label = {c: p for p, (_x, c) in enumerate(standard_order(t), start=1)}
    rows = []
    for k in range(len(t.outer)):
        rows.append(tuple(label[(k + 1, t.inner[k] + j + 1)]
                          for j in range(t.outer[k] - t.inner[k])))
    return SkewTableau._fast(t.outer, t.inner, tuple(rows))


def companion_word(t: SkewTableau) -> tuple[int, ...]:
    """Word u_N .. u_1 where u_p is the row of entry p in the standardization."""
    return tuple(c[0] for _x, c in reversed(standard_order(t)))


def yamanouchi_tableau(mu) -> SkewTableau:
    """Normal-shape tableau with row i filled with mu_i copies of i."""
    mu = as_partition(mu)
    rows = tuple((i + 1,) * m for i, m in enumerate(mu))
    return SkewTableau._fast(mu, (0,) * len(mu), rows)


def glue(a: SkewTableau, b: SkewTableau) -> SkewTableau:
    """Union of a and an extending b as one skew tableau."""
    if as_partition(b.inner) != a.outer:
        raise ValueError("b does not extend a")
    # b has a row for each row of a, and perhaps more below them
    pad = (0,) * (len(b.outer) - len(a.outer))
    rows = [x + y for x, y in zip(a.rows + ((),) * len(pad), b.rows)]
    return SkewTableau(b.outer, a.inner + pad, rows)


def restrict_rows(t: SkewTableau, i: int) -> tuple[SkewTableau, SkewTableau]:
    """Factor across row i: returns (rows i+1.., first i rows)."""
    n = len(t.outer)
    if not (0 <= i <= n):
        raise ValueError(f"row index {i} out of range 0..{n}")
    top = SkewTableau._fast(t.outer[:i], t.inner[:i], t.rows[:i])
    bottom = SkewTableau._fast(t.outer[i:], t.inner[i:], t.rows[i:])
    return bottom, top


def _fillings(outer, inner, rows, cells, letters) -> list[SkewTableau]:
    """Every complete filling of rows in reading-word lexicographic order,
    found depth first: cells[d] = (k, pos) takes in turn each letter that
    ``letters(d)`` yields.  An explicit stack keeps very long rows and
    columns clear of the recursion limit."""
    if not cells:
        return [SkewTableau._fast(outer, inner, ((),) * len(outer))]
    found: list[SkewTableau] = []
    stack = [letters(0)]
    while stack:
        v = next(stack[-1], 0)
        if not v:
            stack.pop()
            continue
        k, pos = cells[len(stack) - 1]
        rows[k][pos] = v
        if len(stack) == len(cells):
            found.append(SkewTableau._fast(outer, inner,
                                           tuple(tuple(r) for r in rows)))
        else:
            stack.append(letters(len(stack)))
    found.sort(key=reading_word)
    return found


def enumerate_ssyt(shape: SkewShape, max_letter: int,
                   packed: bool = False) -> list[SkewTableau]:
    """All semistandard fillings over alphabet [max_letter], ordered
    lexicographically by reading word.  With ``packed``, only those whose
    letters are an initial segment 1..k of the alphabet: the search drops a
    branch once more letters are missing below the largest placed than cells
    are left to fill, so every filling it completes is packed."""
    if max_letter < 1:
        raise ValueError("max_letter must be >= 1")
    outer, inner = as_partition(shape.outer), as_partition(shape.inner)
    inner += (0,) * (len(outer) - len(inner))
    rows = [[0] * (o - i) for o, i in zip(outer, inner)]
    # fill top row to bottom, each left to right
    cells = [(k, pos) for k in range(len(outer)) for pos in range(len(rows[k]))]
    # height[col]: how many rows reach column col
    height = [sum(1 for o in outer if o >= col)
              for col in range(max(outer, default=0) + 1)]
    # placed[v]: how many v's are placed; a packed filling's letters are at
    # most its size, whatever the alphabet
    placed = [0] * (len(cells) + 1)
    top = missing = 0  # the largest letter placed; the letters below it not

    def letters(depth):
        """Letters to try at cells[depth], smallest first: at least its left
        neighbour, above the entry over it, below those the cells under it
        in its column need."""
        k, pos = cells[depth]
        col = inner[k] + pos + 1
        lo = rows[k][pos - 1] if pos else 1
        if k > 0 and inner[k - 1] < col <= outer[k - 1]:
            lo = max(lo, rows[k - 1][col - 1 - inner[k - 1]] + 1)
        below = height[col] - k - 1
        if packed:
            return packed_letters(lo, max_letter - below, len(cells) - depth - 1)
        return iter(range(lo, max_letter - below + 1))

    def packed_letters(lo, hi, left):
        """The letters of lo..hi after which at most ``left`` letters, as
        many as the cells after this one, are missing below the largest
        placed.  Each letter stays counted until the walk asks for the
        next."""
        nonlocal top, missing
        was_top, was_missing = top, missing
        for v in range(lo, hi + 1):
            if v > was_top:  # the letters between the old top and v go missing
                top, missing = v, was_missing + v - was_top - 1
                if missing > left:
                    break  # and more of them for every larger letter
            else:
                top, missing = was_top, was_missing - (not placed[v])
                if missing > left:
                    continue
            placed[v] += 1
            yield v
            placed[v] -= 1
        top, missing = was_top, was_missing

    return _fillings(outer, inner, rows, cells, letters)


def enumerate_ballot(shape: SkewShape, nu=None) -> list[SkewTableau]:
    """All ballot semistandard tableaux of the given shape and content,
    in reading-word lexicographic order.  With ``nu`` None, those of every
    content, from one search: ordered by content as ``partitions_of`` lists
    them (decreasing lexicographic), and within a content by reading word.

    Fills cells in reverse reading order (top row rightmost first) so the
    ballot condition prunes every prefix of the search.
    """
    outer, inner = as_partition(shape.outer), as_partition(shape.inner)
    inner += (0,) * (len(outer) - len(inner))
    size = sum(outer) - sum(inner)
    if nu is None:
        remaining = [size] * size  # no letter runs out
    else:
        remaining = list(as_partition(nu))
        if size != sum(remaining):
            return []
    remaining.append(0)  # a letter past the content has none left
    rows = [[0] * (o - i) for o, i in zip(outer, inner)]
    suffix = [0] * (len(remaining) + 1)
    # reverse reading order is rows top to bottom, each row right to left;
    # every partial filling is then a suffix of the reading word
    cells = [(k, pos) for k in range(len(outer))
             for pos in range(len(rows[k]) - 1, -1, -1)]

    def letters(depth):
        """Letters to try at cells[depth], largest first: at most its right
        neighbour, or else one more than the largest letter placed (the
        first letter the suffix lacks, since a ballot suffix lacks none
        below its largest), above the entry over it, and ballot.  Each
        letter stays counted in the suffix content until the walk asks for
        the next."""
        k, pos = cells[depth]
        hi = rows[k][pos + 1] if pos + 1 < len(rows[k]) else suffix.index(0, 1)
        col = inner[k] + pos + 1
        above = 0
        if k > 0 and inner[k - 1] < col <= outer[k - 1]:
            above = rows[k - 1][col - 1 - inner[k - 1]]
        for v in range(hi, above, -1):
            # ballot: reading this letter keeps suffix content a partition
            if remaining[v - 1] and (v == 1 or suffix[v] < suffix[v - 1]):
                remaining[v - 1] -= 1
                suffix[v] += 1
                yield v
                remaining[v - 1] += 1
                suffix[v] -= 1

    found = _fillings(outer, inner, rows, cells, letters)
    if nu is None:  # a stable sort keeps each content's reading-word order
        found.sort(key=lambda t: [-c for c in tableau_content(t)])
    return found


# ---------------------------------------------------------------------------
# serialization

def to_json_dict(t: SkewTableau) -> dict:
    return {"outer": list(t.outer), "inner": list(t.inner),
            "rows": [list(r) for r in t.rows]}


def _shown(value) -> str:
    """A decoded JSON value in JSON, cut by ``brief``.  Only the part shown
    is encoded, so a deep or long value costs no more to show."""
    shown = ""
    for chunk in json.JSONEncoder().iterencode(value):
        shown += chunk
        if len(shown) > QUOTED_CHARS:
            break
    return brief(shown)


def json_ints(value) -> tuple[int, ...]:
    """A decoded JSON array of integers as a tuple.  Anything else raises
    ValueError, so floats and booleans are never truncated to integers."""
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise ValueError(f"expected an array of integers, got {_shown(value)}")
    return tuple(value)


def _json_rows(value) -> list[tuple[int, ...]]:
    if not isinstance(value, list):
        raise ValueError("expected an array of arrays of integers, "
                         f"got {_shown(value)}")
    if not (set(map(type, value)) <= {list}
            and set(map(type, chain.from_iterable(value))) <= {int}):
        for r in value:
            json_ints(r)  # names the first row that is not one
    return list(map(tuple, value))


def _json_field(d: dict, name: str, read):
    """read(d[name]); an error names the field."""
    if name not in d:
        raise ValueError(f"missing field {name!r}")
    try:
        return read(d[name])
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def from_json_dict(d: dict) -> SkewTableau:
    if not isinstance(d, dict):
        raise ValueError("expected an object with the fields outer, inner and "
                         f"rows, got {_shown(d)}")
    return SkewTableau(_json_field(d, "outer", json_ints),
                       _json_field(d, "inner", json_ints),
                       _json_field(d, "rows", _json_rows))


def read_json(s: str, read):
    """read(json.loads(s)); JSON nested too deeply raises ValueError."""
    try:
        return read(json.loads(s))
    except RecursionError:  # in decoding
        raise ValueError("JSON nested too deeply") from None


def to_text(t: SkewTableau) -> str:
    """Grid format: one row per line, '.' per inner blank, entries space
    separated."""
    lines = []
    for k in range(len(t.outer)):
        parts = ["."] * t.inner[k] + [str(x) for x in t.rows[k]]
        lines.append(" ".join(parts))
    return "\n".join(lines)


def from_text(s: str) -> SkewTableau:
    outer, inner, rows = [], [], []
    for line in s.splitlines():
        line = line.strip()
        if not line:
            continue
        toks = line.split()
        blanks = 0
        while blanks < len(toks) and toks[blanks] == ".":
            blanks += 1
        entries = []
        for tok in toks[blanks:]:
            if tok == ".":
                raise ValueError("blank after entries in a row")
            entries.append(parse_int(tok))
        inner.append(blanks)
        outer.append(blanks + len(entries))
        rows.append(tuple(entries))
    return SkewTableau(outer, inner, rows)
