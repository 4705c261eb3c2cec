"""Exhaustive desk-scale property sweeps, shared by pytest and the CLI.

Each check enumerates every instance within an ambient box bound and records
failures into a report.  Factor fillings range over packed tableaux (entries
occupying an initial segment of the alphabet); any semistandard filling is
order-isomorphic to a packed one and all the checked operations depend only
on that order type, so the sweeps cover every alphabet.

``_sweep(name, instances, prop, key, ident)`` times a check and
counts its instances; it records each (instance, expected, actual) that
``prop`` yields, and an ``Exception`` that ``prop`` raises as that instance's
failure (``key(instance)``, ``raises <Type>: <message>``), and goes on.  The
skew RSK round trip and the shared Knuth commutativity / route geometry walk
(``_thu_sweep``) go through their fillings by inner border, and run instead on
one depth-first insert-and-backtrack walker, ``_walk``, over one mutable copy
of each filling and the valid words of its inner border: a U's row sequence
is such a word, and each word is checked against the one its elementary
Knuth move makes.  A raising insertion fails every instance below it, and the
walk goes on.  A raising instance generator fails its check once.  A report
counts every failure and stores the first ``MAX_STORED_FAILURES``.

A report's ``digest`` pins its instance set, not only its size: the sum,
modulo 2**64, of a 64-bit hash of each instance.  A filling is hashed once
(``_hash_tableau``, blake2b over its integers) where the sweep holds it, and
a pair of hashes combines by ``_pair``; the sum does not depend on the order
in which a sweep meets its instances.
"""

from __future__ import annotations

import struct
import time
from functools import cache
from itertools import chain, product, repeat
from operator import itemgetter, sub
from typing import Iterator

from . import insertion
from .commutor import (_board, _cells_of, _geometry, _infuse, _infusion_order,
                       _split_cells, _terminals, rho1_internal, rho1_scratch,
                       rho1_switching, staged_decomposition)
from .insertion import (GluedPair, InsertionTrace, _corners, _freeze, _rows_at,
                        _tableau, _thaw, glued_pair)
from .knuth import elementary_moves, p_tableau_rows
from .schur import _kostka_counter, lr_coefficient, schur_product
from .tableaux import (SkewShape, SkewTableau, _standard_order, as_partition,
                       enumerate_ballot, enumerate_ssyt, glue, partitions_of,
                       reading_word, standard_order, subpartitions,
                       tableau_content, yamanouchi_tableau)

MAX_STORED_FAILURES = 50
_MASK = (1 << 64) - 1
_PAIR_MUL = 0x9E3779B97F4A7C15  # odd, so _pair is one-to-one in each argument


def _hash_ints(ints) -> int:
    """A stable 64-bit hash of a sequence of integers (unlike ``hash``,
    which is salted for strings and differs between Python versions)."""
    # hashlib's own blake2b, imported here because only the sweeps hash, and
    # from _blake2 because hashlib would load OpenSSL as well (3.5 MB)
    try:
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b
    data = struct.pack(f"<{len(ints)}q", *ints)
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


def _hash_tableau(t: SkewTableau) -> int:
    """``_hash_ints`` of t's borders and rows, each led by its length."""
    ints = [len(t.outer), *t.outer, len(t.inner), *t.inner]
    for r in t.rows:
        ints.append(len(r))
        ints.extend(r)
    return _hash_ints(ints)


# a sweep meets the same few words and partitions many times
_seq_hash = cache(_hash_ints)


def _pair(a: int, b: int) -> int:
    """The hash of an instance made of two parts hashed a and b: linear in
    each, so a sum over pairs sharing a is ``_pair(n * a, sum of the b's)``,
    and not symmetric, so (a, b) and (b, a) hash apart."""
    return (a * _PAIR_MUL + b) & _MASK


class VerifyReport:
    def __init__(self, name: str):
        self.name = name
        self.instances = 0
        self.failures = []
        self.seconds = 0.0
        self.failure_count = 0
        self.digest = 0
        self.skipped = 0  # instances counted but left untested, as vacuous

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"VerifyReport({fields})"

    @property
    def passed(self) -> bool:
        return not self.failure_count

    def count(self, h: int, n: int = 1):
        """Count n instances whose hashes sum to h."""
        self.instances += n
        self.digest = (self.digest + h) & _MASK

    def fail(self, instance, expected, actual):
        self.failure_count += 1
        if len(self.failures) < MAX_STORED_FAILURES:
            self.failures.append((str(instance), str(expected), str(actual)))

    def copy(self) -> VerifyReport:
        """This report, with a failure list of its own."""
        new = VerifyReport(self.name)
        vars(new).update(vars(self), failures=list(self.failures))
        return new

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"{self.name:<22} {status}  instances={self.instances}"
                f"  failures={self.failure_count}  time={self.seconds:.1f}s")


def partitions_up_to(n):
    for k in range(n + 1):
        yield from partitions_of(k)


@cache
def packed_fillings(outer, inner) -> tuple[SkewTableau, ...]:
    """Semistandard fillings whose letters form an initial segment 1..k, in
    reading-word order, from ``enumerate_ssyt``'s packed search: no filling
    is built to be thrown away."""
    shape = SkewShape(outer, inner)
    return tuple(enumerate_ssyt(shape, max(shape.size, 1), packed=True))


def lr_pairs(max_boxes: int):
    """Every ballot pair of partition shape with at most max_boxes boxes:
    by lam, then mu, then content, then reading word, from one ballot
    search per skew shape lam/mu."""
    for lam in partitions_up_to(max_boxes):
        for mu in subpartitions(lam):
            for t in enumerate_ballot(SkewShape(lam, mu)):
                yield glued_pair(t)


def _pair_key(p: GluedPair) -> str:
    return f"{p.skew.outer}/{p.skew.inner} rows={p.skew.rows}"


def _pair_hash(p: GluedPair) -> int:
    return _hash_tableau(p.skew)  # the Yamanouchi member follows from it


def _raised(exc: Exception) -> str:
    return f"raises {type(exc).__name__}: {exc}"


def _guarded(instances, *reports):
    """instances, up to a raise, which fails each report once and ends them."""
    try:
        yield from instances
    except Exception as exc:  # a raising generator ends its check only
        for rep in reports:
            rep.fail("instance generator", "no exception", _raised(exc))


def _sweep(name: str, instances, prop, key, ident) -> VerifyReport:
    """One check's report (see the module docstring); ident(instance) is the
    instance's hash."""
    rep = VerifyReport(name)
    t0 = time.perf_counter()
    for instance in _guarded(instances, rep):
        rep.count(ident(instance))
        try:
            for failure in prop(instance):
                rep.fail(*failure)
        except Exception as exc:  # a raising kernel fails this instance only
            rep.fail(key(instance), "no exception", _raised(exc))
    rep.seconds = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# criterion sweeps

def check_involution(max_size: int = 8, seed: int = 0) -> VerifyReport:
    """rho1 o rho1 = id on all ballot pairs, via switching and internally.

    An image keeps lam, so it is one of the pairs swept, and each commutor
    is memoised while the sweep is on one lam: it runs once per pair, and
    rho1(rho1(p)) reads the image's own entry.  ``lr_pairs`` yields the
    pairs by lam, so the memos are cleared when lam changes and hold one
    lam's pairs and images only, with every hit kept.  rho1 is pure, so a
    hit is what computing it again would give; a raise is not memoised, and
    fails each instance that meets it."""
    commutors = (("switching", cache(rho1_switching)),
                 ("internal", cache(rho1_internal)))
    lam = None

    def prop(p):
        nonlocal lam
        if p.skew.outer != lam:  # no later pair or image meets the memos
            lam = p.skew.outer
            for _name, rho in commutors:
                rho.cache_clear()
        for name, rho in commutors:
            back = rho(rho(p))
            if back != p:
                yield f"{name}: {_pair_key(p)}", _pair_key(p), _pair_key(back)

    return _sweep("involution", lr_pairs(max_size), prop, _pair_key, _pair_hash)


def check_coincidence(max_size: int = 8, seed: int = 0) -> VerifyReport:
    """rho1_switching = rho1_internal = rho1_scratch on all ballot pairs."""
    def prop(p):
        a = rho1_switching(p)
        b = rho1_internal(p)
        c = rho1_scratch(p)
        if not (a == b == c):
            yield _pair_key(p), _pair_key(a), f"{_pair_key(b)} / {_pair_key(c)}"

    return _sweep("coincidence", lr_pairs(max_size), prop, _pair_key, _pair_hash)


def check_confluence(max_size: int = 8, seed: int = 0) -> VerifyReport:
    """Every order of admissible switches, and infusion, ends on greedy's
    terminal board, and greedy's (S, H) stay Knuth equivalent to (V, U).
    An instance with an empty member admits no switch: it is counted, and
    reported as skipped."""
    @cache  # each filling is read once per check
    def fillings(outer, inner):
        """The packed fillings of outer/inner, each with its hash and its
        Knuth class (the P-tableau rows of its reading word)."""
        inner += (0,) * (len(outer) - len(inner))
        return [(t, _hash_tableau(t), p_tableau_rows(reading_word(t)))
                for t in packed_fillings(outer, inner)]

    def instances():
        for gamma in partitions_up_to(max_size):
            for lam in subpartitions(gamma):
                vs = fillings(gamma, lam)
                for mu in subpartitions(lam):
                    g = _geometry(gamma, mu)
                    for u, h_u, p_u in fillings(lam, mu):
                        for v, h_v, p_v in vs:
                            yield u, v, _pair(h_u, h_v), (p_v, p_u), g

    skipped = 0

    def prop(instance):
        nonlocal skipped
        u, v, _h, want, g = instance
        if u.size == 0 or v.size == 0:
            skipped += 1
            return  # no switch can ever apply
        board = _board(u, v)
        ends = _terminals(g, board)
        end = next(ends)  # greedy's board
        s, h = _split_cells(g, end, g.inner)
        got = tuple(p_tableau_rows(reading_word(t)) for t in (s, h))
        if got != want:
            left = " and ".join(m for m, x, w in zip("SH", got, want) if x != w)
            yield (f"knuth: {u!r} {v!r}", f"P(V), P(U) = {want}",
                   f"{left} left its class: P(S), P(H) = {got}")
        alt = tuple(_infuse(g, board, _infusion_order(g, board)))
        if alt != end:
            yield f"infusion: {u!r} {v!r}", _cells_of(g, end), _cells_of(g, alt)
        alt = next((b for b in ends if b != end), None)
        if alt is not None:
            yield f"order: {u!r} {v!r}", _cells_of(g, end), _cells_of(g, alt)

    rep = _sweep("confluence", instances(), prop, lambda i: f"{i[0]!r} {i[1]!r}",
                 itemgetter(2))
    rep.skipped = skipped
    return rep


# --- the depth-first insertion walk ----------------------------------------

def _snapshot(inner, rows) -> tuple:
    """A copy of the lists, which the kernels leave alone."""
    return [*inner], list(map(list, rows))


def _walk(inner: list, rows: list, depth: int, enter, on_raise, on_undo):
    """Walk the valid words of the lists' inner border, up to depth letters
    (none at depth 0), depth first on one mutable (inner, rows) state.

    A node is a walked word w, and its children are the rows i of
    ``_corners`` of the inner border it reaches.  ``trail`` holds the traces
    of the insertions from the root, the new one last, each built from the
    cell the kernel created and the route list it filled; ``enter(v, trail)``,
    with v = w + (i,), reads the state reached in the lists, leaving it as
    it is.  Then the walk backtracks by reverse-bumping from the created
    cell, which must give back the vacated cell and w's state: the walk
    keeps a snapshot of each node it walks on from.

    An insertion that raises calls ``on_raise(words, actual)``; a backtrack
    that raises, or gives back another cell or state, calls
    ``on_undo(words, expected, actual)``, where words iterates over v and
    then the valid words that extend it.  Either way the lists are reset to
    w's snapshot and the walk goes on.  The kernels are read from
    ``insertion`` at each walk, so a kernel replaced there is the one
    walked."""
    insert, uninsert = insertion._insert_inplace, insertion._uninsert_inplace
    trail: list = []

    def restore(state):
        inner[:] = state[0]
        rows[:] = map(list, state[1])

    def below(state, v):
        return _words_from(_grown(state[0], v[-1]), v, depth)

    def walk(w, state):
        for i in _corners(inner):
            v = w + (i,)
            route: list = []
            try:
                created = insert(inner, rows, i, route)
            except Exception as exc:  # a raising kernel fails its subtree only
                restore(state)
                on_raise(below(state, v), _raised(exc))
                continue
            # _insert_traced, inlined and keeping the list: one per node walked
            tr = InsertionTrace(route[0] if route else created, route, created)
            trail.append(tr)
            enter(v, trail)
            if len(v) < depth:  # _snapshot, inlined: one per node walked on from
                walk(v, ([*inner], list(map(list, rows))))
            trail.pop()
            try:
                back = uninsert(inner, rows, tr.created)
            except Exception as exc:
                restore(state)
                on_undo(below(state, v), "no exception", _raised(exc))
                continue
            if back != tr.vacated or inner != state[0] or rows != state[1]:
                actual = (f"undoing {tr.created} gives back {back}, "
                          f"{_freeze(inner, rows)!r}")
                restore(state)
                on_undo(below(state, v), f"{tr.vacated}, {_freeze(*state)!r}",
                        actual)

    if depth > 0:
        walk((), _snapshot(inner, rows))
    del walk  # it holds itself: free the callbacks now, not in a gc cycle pass


def _fillings_by_border(max_size: int):
    """Each inner border mu of at most max_size boxes, with the packed
    fillings of at most max_size boxes inside it, each with its hash."""
    outers: dict = {}
    for lam in partitions_up_to(max_size):
        for mu in subpartitions(lam):
            outers.setdefault(mu, []).append(lam)
    for mu, lams in outers.items():
        yield mu, [(t, _hash_tableau(t)) for lam in lams
                   for t in packed_fillings(lam, mu + (0,) * (len(lam) - len(mu)))]


# --- th:U and route geometry share one sweep ------------------------------

def _strictly_left(r1, r2):
    cols1 = dict(r1)  # a route meets each row at most once
    for row, col in r2:
        if row in cols1 and not cols1[row] < col:
            return False
    return True


def _weakly_left(r1, r2):
    cols2 = dict(r2)
    for row, col in r1:
        if row in cols2 and not col <= cols2[row]:
            return False
    return True


def _route_pair_ok(first_row, first_tr, second_row, second_tr):
    """Relative position of two successive non-blank bumping routes."""
    if first_row >= second_row:
        # case (a): earlier route strictly left, earlier box strictly left
        # of and weakly below the later one
        b, bp = first_tr.created, second_tr.created
        return (_strictly_left(first_tr.route, second_tr.route)
                and b[1] < bp[1] and b[0] >= bp[0])
    # case (b): later route weakly left, later box weakly left of and
    # strictly below the earlier one
    b, bp = first_tr.created, second_tr.created
    return (_weakly_left(second_tr.route, first_tr.route)
            and bp[1] <= b[1] and bp[0] > b[0])


def _words_from(inner, w, word_len: int):
    """w and every valid word that extends it to at most word_len letters,
    where inner is the inner border that w reaches: which words are valid
    depends on nothing else."""
    yield w
    if len(w) < word_len:
        for i in _corners(inner):
            yield from _words_from(_grown(inner, i), w + (i,), word_len)


def _border_words(inner, word_len: int) -> tuple[int, int, dict, list]:
    """The number of valid words of 1 to word_len letters at this inner
    border and the sum of their hashes; and each word's partner, the word
    made by the elementary Knuth move on its last three letters (its order
    word's first three), if any: a dict of the valid partners and a list of
    (word, partner) for the others.  Three letters admit at most one move,
    and making it twice gives them back."""
    words = frozenset(_words_from(inner, (), word_len)) - {()}
    partners, unpaired = {}, []
    for v in words:
        for m in elementary_moves(v[:-4:-1]):
            p = v[:-3] + m[::-1]
            if p in words:
                partners[v] = p
            else:
                unpaired.append((v, p))
    return len(words), sum(map(_seq_hash, words)), partners, unpaired


def _grown(inner, i: int) -> tuple:
    """The inner border after an insertion at row i, which vacates the cell
    just right of row i's inner border."""
    inner = tuple(inner)
    grown = (inner[i - 1] if i <= len(inner) else 0) + 1
    return inner[:i - 1] + (grown,) + inner[i:]


@cache
def _thu_sweep(max_size: int, word_len: int) -> tuple[VerifyReport, VerifyReport]:
    """For each packed filling t, one ``_walk`` applies every valid order
    word of length up to word_len once.  A word whose first three letters
    (the last three walked) admit an elementary Knuth move has a partner,
    the word that move makes, which must be valid too and reach the same
    state.  Each insertion whose route and the one before are both
    non-blank makes a route pair, whose relative position is checked.

    Knuth equivalence is generated by the elementary relations on three
    adjacent letters, so the partners cover each word's whole class: a move
    anywhere else in an order word is the move on the first three letters
    of one of its suffixes, which the walk applies first, as a shorter
    walked word, and equal states stay equal under the same later
    insertions.  Which partners are valid depends only on the inner border,
    so ``_border_words`` tests that once per border.  And each insertion
    grows the filling by one box, so if every order word of length 3 acts
    like its whole Knuth class at every filling of at most N boxes, then
    every word of length L acts like its class at every filling of at most
    N - L + 3 boxes: ``_thu_sweep(N, 3)`` covers every Knuth claim of
    ``_thu_sweep(N - L + 3, L)``.

    Returns the knuth-commutativity report over the valid words of each
    filling's inner border, on which alone they depend (so a filling that
    fails outside the kernels still counts all of them), and the
    route-geometry report over the route pairs met, both timed by the sweep.
    An insertion that raises fails its word and each word below it in
    knuth-commutativity, and fails once in route-geometry, whose route pairs
    below it cannot be known.  A backtrack that raises or restores another
    state fails its word in knuth-commutativity.  The walk goes on."""
    knuth = VerifyReport("knuth-commutativity")
    route = VerifyReport("route-geometry")
    t0 = time.perf_counter()
    for mu, fillings in _guarded(_fillings_by_border(max_size), knuth, route):
        n_words, words_hash, partners, unpaired = _border_words(mu, word_len)
        for t, h_t in fillings:
            inner, rows = _thaw(t)
            # a walked word w inserts at rows w[0], w[1], ... in turn: it
            # applies the order word w[::-1], which the failures show
            pairs: list = []  # the word ending each route pair met
            waiting: dict = {}  # each word met before its partner: its state

            def enter(v, trail):
                tr = trail[-1]
                if len(v) > 1 and tr.route:
                    prev_tr = trail[-2]
                    if prev_tr.route:
                        pairs.append(v)
                        if not _route_pair_ok(v[-2], prev_tr, v[-1], tr):
                            route.fail(f"{t!r} word={v}", "route geometry",
                                       f"routes {prev_tr} then {tr}")
                p = partners.get(v)
                if p is not None:
                    u = waiting.pop(p, None)
                    if u is None:
                        waiting[v] = _snapshot(inner, rows)
                    elif inner != u[0] or rows != u[1]:
                        knuth.fail(f"{t!r} u={p[::-1]} v={v[::-1]}",
                                   f"{_freeze(*u)!r}", f"{_freeze(inner, rows)!r}")

            def on_raise(words, actual):
                words = list(words)  # the word that raised, first
                route.fail(f"{t!r} word={words[0]}", "no exception", actual)
                for v in words:
                    knuth.fail(f"{t!r} word={v}", "no exception", actual)

            def on_undo(words, expected, actual):
                knuth.fail(f"{t!r} word={next(words)}", expected, actual)

            try:
                _walk(inner, rows, word_len, enter, on_raise, on_undo)
            except Exception as exc:  # outside the kernels: fails this filling
                for rep in (knuth, route):
                    rep.fail(repr(t), "no exception", _raised(exc))
            for u, v in unpaired:
                knuth.fail(f"{t!r} v={v[::-1]}", "v applies",
                           f"u={u[::-1]} applies, v does not")
            # the sum of _pair(h_t, hash of w) over the words
            knuth.count(_pair(n_words * h_t, words_hash), n_words)
            route.count(_pair(len(pairs) * h_t, sum(map(_seq_hash, pairs))),
                        len(pairs))
    knuth.seconds = route.seconds = time.perf_counter() - t0
    return knuth, route


def check_knuth_commutativity(max_size: int = 7, seed: int = 0,
                              word_len: int = 5) -> VerifyReport:
    """Knuth-equivalent order words stay valid and act identically."""
    knuth, _route = _thu_sweep(max_size, word_len)
    return knuth.copy()  # the sweep is cached


def check_route_geometry(max_size: int = 7, seed: int = 0,
                         word_len: int = 5) -> VerifyReport:
    """Successive bumping routes keep their expected relative positions."""
    _knuth, route = _thu_sweep(max_size, word_len)
    return route.copy()


def check_skew_rsk(max_size: int = 6, seed: int = 0) -> VerifyReport:
    """Forward-then-inverse identity plus class preservation for all pairs
    (T, U) that share their inner border, within the ambient bound.

    The forward steps of (T, U) insert T at the rows of U's standard order,
    so pairs whose row sequences share a prefix share its steps.  A U's row
    sequence is a valid word of its inner border mu, and each valid word of
    at most max_size - |mu| letters is the row sequence of the standard
    filling it grows, a packed U: so one ``_walk`` of that depth per T, on
    one copy of T's lists, inserts each prefix once and meets each U at its
    row sequence.  There P's class is tested once, and for each U, Q's
    class.  The inverse undoes the cells of Q's standard order, last first.
    Equal letters of U create cells strictly left to right (the row-bumping
    lemma), so Q's standard order must be the order in which its cells were
    created, or the instance fails; then the inverse is exactly the walk's
    backtracking from that word, which must give back each vacated cell and
    state.  Q's rows are the letters of U's standard order, put by
    ``skew_rsk_forward``'s own ``_rows_at`` in the rows of the created
    cells, on Q's inner border, which is T's outer one: so U's letters, the
    created cells and that border fix Q, and both Q tests read Q's class
    and standard-order cells from a memo of the side keyed by those three.
    Q's rows are built on a miss, and otherwise only to report a failure,
    as a frozen tableau is.  A raise at a word fails each instance below it
    once, and the walk goes on."""
    rep = VerifyReport("skew-rsk")
    t0 = time.perf_counter()
    for mu, fillings in _guarded(_fillings_by_border(max_size), rep):
        side = []  # (filling, class, standard order, its letters, hash)
        for t, h in fillings:
            order = standard_order(t)
            side.append((t, p_tableau_rows(reading_word(t)), order,
                         tuple(x for x, _c in order), h))
        ends: dict = {}  # row sequence -> [the U's indices in side, hash sum]
        for j, (_u, _w, order, _letters, h) in enumerate(side):
            entry = ends.setdefault(tuple(r for _x, (r, _c) in order), [[], 0])
            entry[0].append(j)
            entry[1] += h
        # a side meets few distinct P and Q; the memos end with the side
        memos = cache(_reading_class), {}
        for t, w_t, _order, _letters, h_t in side:
            _skew_rsk_walk(rep, t, w_t, h_t, side, ends, max_size - sum(mu),
                           memos)
    rep.seconds = time.perf_counter() - t0
    return rep


def _reading_class(rows: tuple) -> tuple:
    """The P-tableau rows of the reading word of a filling with these rows:
    its Knuth class."""
    return p_tableau_rows(chain.from_iterable(reversed(rows)))


def _order_cells(q: tuple) -> tuple:
    """The cells of ``_standard_order(*q)``, in that order."""
    return tuple(c for _x, c in _standard_order(*q))


def _q_rows(order, created, q_inner) -> tuple:
    """Q's rows: the letters of order at the rows of the created cells."""
    return tuple(map(tuple, _rows_at(order, created, len(q_inner))))


def _skew_rsk_walk(rep: VerifyReport, t, w_t, h_t, side, ends: dict,
                   depth: int, memos):
    """Every instance (t, U) of one side, on one ``_walk`` of the given
    depth; ends maps a row sequence to the U's that have it, and memos are
    the side's ``_reading_class`` and its dict from (U's standard-order
    letters, the created cells, Q's inner border) to Q's class and Q's
    standard-order cells.  Q's standard order must be its cells' creation
    order, so that the walk's backtracking is the inverse of each U."""
    reading_class, q_memo = memos
    inner, rows = _thaw(t)
    settled: set = set()  # the U's whose round trip has failed

    def at(js, ends_hash, trail):
        """The tests of the U's js, which end here, with P in the lists."""
        rep.count(_pair(len(js) * h_t, ends_hash), len(js))
        q_inner = t.outer + (0,) * (len(rows) - len(t.outer))
        created = tuple(tr.created for tr in trail)
        p_class = None
        for j in js:
            u, w_u, order, letters, _h = side[j]
            try:
                if p_class is None:  # once per word, unless it raises
                    # keyed by P's entries: each row without its blanks' 0s
                    p_class = reading_class(
                        tuple(map(tuple, map(filter, repeat(None), rows))))
                if p_class != w_t:
                    rep.fail(f"{t!r} {u!r}", "P = T class",
                             f"{_freeze(inner, rows)!r}")
                key = letters, created, q_inner
                q = q_memo.get(key)
                if q is None:  # a raise is not memoised
                    q_rows = _q_rows(order, created, q_inner)
                    q = q_memo[key] = (reading_class(q_rows),
                                       _order_cells((q_inner, q_rows)))
                q_class, cells = q
                if q_class != w_u:
                    q_rows = _q_rows(order, created, q_inner)
                    rep.fail(f"{t!r} {u!r}", "Q = U class",
                             f"{_tableau(q_inner, q_rows)!r}")
                # the creation-order claim: the inverse, which undoes Q's
                # standard order, is then the walk's backtracking
                if cells != created:
                    settled.add(j)
                    q_rows = _q_rows(order, created, q_inner)
                    rep.fail(f"{t!r} {u!r}",
                             f"Q's standard order is the created cells {created}",
                             f"{_tableau(q_inner, q_rows)!r} orders {cells}")
            except Exception as exc:  # a raising kernel fails this U only
                settled.add(j)
                rep.fail(f"{t!r} {u!r}", "no exception", _raised(exc))

    def under(words):  # the U's whose row sequence is one of words
        return (j for v in words if v in ends for j in ends[v][0])

    def enter(v, trail):
        entry = ends.get(v)
        if entry:
            at(*entry, trail)

    def on_raise(words, actual):
        for j in under(words):
            rep.count(_pair(h_t, side[j][4]))
            rep.fail(f"{t!r} {side[j][0]!r}", "no exception", actual)

    def on_undo(words, expected, actual):
        # the inverse of each U below runs through this backtrack
        for j in under(words):
            if j not in settled:
                settled.add(j)
                rep.fail(f"{t!r} {side[j][0]!r}", expected, actual)

    if () in ends:  # the U's with no boxes
        at(*ends[()], [])
    _walk(inner, rows, depth, enter, on_raise, on_undo)


def _content(exponent) -> tuple[int, ...]:
    """The partition an exponent sorts to, zeros dropped."""
    return tuple(sorted(filter(None, exponent), reverse=True))


def check_lr_oracle(max_size: int = 8, seed: int = 0) -> VerifyReport:
    """The LR rule's counts match the product of Schur polynomials, and the
    commutor witnesses the symmetry bijectively.  Both sides of the product
    identity are symmetric, so they are compared in the monomial basis, on
    partition exponents alpha only, where s_lam has the Kostka number
    K(lam, sort(beta)) at x^beta: s_mu s_nu has the sum over beta <= alpha,
    |beta| = |mu|, of K(mu, sort(beta)) K(nu, sort(alpha - beta)), and the
    expansion has sum_lam c_lam K(lam, alpha).  Each count must equal the
    reverse count c^lam_{nu,mu} and the number of its ballot witnesses."""
    kostka = _kostka_counter()

    def instances():
        for a in range(max_size + 1):
            for b in range(max_size + 1 - a):
                n_vars = max(1, a + b)
                alphas = [alpha + (0,) * (n_vars - len(alpha))
                          for alpha in partitions_of(a + b)]
                for mu in partitions_of(a):
                    for nu in partitions_of(b):
                        yield mu, nu, n_vars, alphas

    def prop(instance):
        mu, nu, n_vars, alphas = instance
        expansion = schur_product(mu, nu, max_rows=n_vars)
        size = sum(mu)
        for alpha in alphas:
            lhs = sum(kostka(mu, _content(beta))
                      * kostka(nu, _content(map(sub, alpha, beta)))
                      for beta in product(*(range(x + 1) for x in alpha))
                      if sum(beta) == size)
            rhs = sum(c * kostka(lam, _content(alpha))
                      for lam, c in expansion.items())
            if lhs != rhs:
                yield f"mu={mu} nu={nu} alpha={alpha}", lhs, rhs
                break
        for lam, c in expansion.items():
            c_rev = lr_coefficient(lam, nu, mu)
            if c_rev != c:
                yield f"{lam} {mu} {nu}", c, c_rev
            witnesses = enumerate_ballot(SkewShape(lam, mu), nu)
            if len(witnesses) != c:
                yield f"{lam} {mu} {nu}", f"{c} ballot tableaux", len(witnesses)
            image = {rho1_switching(glued_pair(t)).skew for t in witnesses}
            target = set(enumerate_ballot(SkewShape(lam, nu), mu))
            if image != target:
                yield (f"{lam} {mu} {nu}", "bijection onto opposite ballot set",
                       f"{len(image)} vs {len(target)}")

    return _sweep("lr-oracle", instances(), prop, lambda i: f"mu={i[0]} nu={i[1]}",
                  lambda i: _pair(_seq_hash(i[0]), _seq_hash(i[1])))


def check_recursion(max_size: int = 8, seed: int = 0) -> VerifyReport:
    """Staged switching stops with the expected row structure, and the
    commutor factors through the intermediate state, wherever it applies."""
    def instances():
        for p in lr_pairs(max_size):
            t = p.skew
            mu, np1 = as_partition(t.inner), len(t.outer)
            if np1 < 2 or not mu or len(mu) > np1 - 1:
                continue
            f_word = tuple(x for x in t.rows[-1] if x <= np1 - 1)
            if f_word:
                yield p, mu, f_word

    def prop(instance):
        p, mu, f_word = instance
        key = _pair_key(p)
        d, s, f_hat, big_d, q = staged_decomposition(p)
        if any(x != d for x in big_d) or len(big_d) != len(f_word) - len(f_hat) \
                or not big_d:
            yield (key, "D = d^{|F|-|F hat|}, nonempty",
                   f"d={d} D={big_d} F={f_word} Fhat={f_hat}")
        if any(q.rows[k] for k in range(d - 1)):
            yield key, "Q empty above row d", f"{q!r}"
        nu = tableau_content(p.skew)
        if p_tableau_rows(reading_word(s)) != yamanouchi_tableau(nu).rows:
            yield key, "S = Y_nu class", f"{s!r}"
        shifted = tuple((d + k,) * mu[d - 1 + k] for k in range(len(mu) - d + 1)
                        if mu[d - 1 + k])
        if p_tableau_rows(reading_word(q)) != shifted:
            yield key, "Q = shifted Yamanouchi class", f"{q!r}"
        full = rho1_switching(p)
        part = rho1_switching(glued_pair(s))
        combined = GluedPair(part.yam, glue(part.skew, q))
        if combined != full:
            yield key, _pair_key(full), _pair_key(combined)

    return _sweep("recursion", instances(), prop, lambda i: _pair_key(i[0]),
                  lambda i: _pair_hash(i[0]))


CHECKS = {
    "involution": check_involution,
    "coincidence": check_coincidence,
    "confluence": check_confluence,
    "knuth-commutativity": check_knuth_commutativity,
    "route-geometry": check_route_geometry,
    "skew-rsk": check_skew_rsk,
    "lr-oracle": check_lr_oracle,
    "recursion": check_recursion,
}


def run_checks(names, max_size: int) -> Iterator[VerifyReport]:
    """Raise ``ValueError`` at once on a negative size or an unknown name;
    run the named checks lazily, as the reports are iterated."""
    if max_size < 0:
        raise ValueError(f"max_size must be at least 0, got {max_size}")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; valid names: "
                         f"{', '.join(sorted(CHECKS))}")
    return (CHECKS[n](max_size=max_size) for n in names)
