import gc
from bisect import bisect_left, bisect_right
from collections import Counter

import pytest

from lrcommute import commutor, insertion, schur, verify
from lrcommute.insertion import glued_pair
from lrcommute.tableaux import (SkewShape, enumerate_ballot, enumerate_ssyt,
                                partitions_of, reading_word, subpartitions)
from lrcommute.verify import (_thu_sweep, check_confluence, check_involution,
                              check_knuth_commutativity, check_lr_oracle,
                              check_recursion, check_route_geometry,
                              check_skew_rsk, lr_pairs, packed_fillings,
                              partitions_up_to)
from probe import counting


def _lr_pairs_by_content(max_boxes):
    """The reference for lr_pairs: one ballot search per (lam, mu, nu)."""
    for lam in partitions_up_to(max_boxes):
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu)
            for nu in partitions_of(shape.size, max_len=len(lam)):
                for t in enumerate_ballot(shape, nu):
                    yield glued_pair(t)


def _packed_by_filter(outer, inner):
    """The reference for packed_fillings: every filling over the alphabet
    [size], kept when its letters are 1..k."""
    shape = SkewShape(outer, inner)
    words = ((t, reading_word(t))
             for t in enumerate_ssyt(shape, max(shape.size, 1)))
    return tuple(t for t, w in words if len(set(w)) == max(w, default=0))


def test_lr_pairs_searches_each_skew_shape_once():
    # the same pairs in the same order as one search per content; a count
    # that machine noise cannot move: one search per lam/mu of at most 8
    # boxes, where a search per content made 3,145, 1,815 of them empty
    assert list(lr_pairs(7)) == list(_lr_pairs_by_content(7))
    with counting("verify.enumerate_ballot") as calls:
        assert sum(1 for _ in lr_pairs(8)) == 1351
    assert calls == {"verify.enumerate_ballot": 862}


def test_packed_fillings_builds_only_packed_fillings(monkeypatch):
    # the same fillings in the same order as filtering every filling over
    # the alphabet [size]; a count that machine noise cannot move: on the
    # shapes of at most 6 boxes the search builds the 1,753 packed fillings
    # and no other, where the filter built 10,310
    built = Counter()
    search = verify.enumerate_ssyt

    def counting(*args, **kwargs):
        found = search(*args, **kwargs)
        built["fillings"] += len(found)
        return found

    monkeypatch.setattr(verify, "enumerate_ssyt", counting)
    kept = 0
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            mu += (0,) * (len(lam) - len(mu))
            fillings = packed_fillings.__wrapped__(lam, mu)
            assert fillings == _packed_by_filter(lam, mu)
            kept += len(fillings)
    assert kept == built["fillings"] == 1753


def test_involution_runs_each_commutor_once_per_pair():
    # a count that machine noise cannot move: every image is a pair swept,
    # so each commutor runs once per pair, 295 times at size 6, where
    # computing rho1(rho1(p)) afresh ran it 590 times
    with counting("commutor.rho1_switching", "commutor.rho1_internal") as calls:
        rep = check_involution(max_size=6)
    assert rep.instances == 295 and rep.passed
    assert calls == {"commutor.rho1_switching": 295,
                     "commutor.rho1_internal": 295}


@pytest.mark.parametrize("name", list(commutor.METHODS))
def test_coincidence_names_the_one_method_that_differs(monkeypatch, name):
    # an entry that returns its input differs on every pair but the 9 that
    # rho1 fixes, and each failure names that method and no other, with the
    # image the other three agree on as expected
    family = commutor.METHODS[name].family
    monkeypatch.setitem(commutor.METHODS, name,
                        commutor.Method(lambda p, hook=None: p, family))
    rep = verify.check_coincidence(max_size=4)
    assert (rep.instances, rep.failure_count) == (57, 48)
    for key, expected, actual in rep.failures:
        assert [m for m in commutor.METHODS if f"{m}: " in actual] == [name]
        assert actual == f"{name}: {key}" and expected != key


def test_coincidence_names_every_method_that_raises(monkeypatch):
    # an input guard that raises makes all four methods raise alike: a raise
    # is no image and never votes, so every instance fails, naming all four
    def refuse(p):
        raise RuntimeError("refused")

    monkeypatch.setattr(commutor, "_require_lr_pair", refuse)
    rep = verify.check_coincidence(max_size=4)
    assert (rep.instances, rep.failure_count) == (57, 57)
    raised = " / ".join(f"{m}: raises RuntimeError: refused"
                        for m in commutor.METHODS)
    assert {(expected, actual) for _key, expected, actual in rep.failures} == {
        ("no exception", raised)}


def test_coincidence_fails_a_pair_once_for_a_raise_and_a_wrong_image(
        monkeypatch):
    # scratch raises and infusion returns its input: each pair that infusion
    # gets wrong fails once, naming both, with the image switching and
    # internal agree on after "no exception"
    def refuse(p, hook=None):
        raise RuntimeError("refused")

    for name, rho in (("scratch", refuse), ("infusion", lambda p, hook=None: p)):
        monkeypatch.setitem(commutor.METHODS, name, commutor.Method(
            rho, commutor.METHODS[name].family))
    rep = verify.check_coincidence(max_size=4)
    assert (rep.instances, rep.failure_count) == (57, 57)
    # the report keeps the first 50 failures: 8 of the 9 fixed pairs are among them
    assert Counter(expected == "no exception"
                   for _key, expected, _actual in rep.failures) == {
        False: 42, True: 8}
    for key, expected, actual in rep.failures:
        if expected == "no exception":  # a pair that rho1 fixes
            assert actual == "scratch: raises RuntimeError: refused"
        else:
            assert expected.removeprefix("no exception and ") != key
            assert actual == f"scratch: raises RuntimeError: refused / infusion: {key}"


def test_route_geometry_reports_the_shared_sweep_time():
    # route-geometry reads the knuth sweep from its cache, and reports the
    # time that sweep took rather than the time of the cache lookup
    knuth = check_knuth_commutativity(max_size=5, word_len=4)
    route = check_route_geometry(max_size=5, word_len=4)
    assert route.seconds == knuth.seconds > 0


# (max_size, word_len, words, route pairs) of small shared walks; by the
# length-3 reduction in _thu_sweep's docstring, (6, 3) covers every Knuth
# claim that (4, 5) checks
SMALL_WALKS = [(5, 3, 6384, 3280), (6, 3, 26599, 16311), (4, 5, 13557, 4146)]


def _small_walks(walks=SMALL_WALKS):
    """The (knuth, route) reports of each walk in walks, walked afresh with
    the kernels as they are now."""
    _thu_sweep.cache_clear()
    try:
        return [(_thu_sweep(max_size, word_len), counts)
                for max_size, word_len, *counts in walks]
    finally:
        _thu_sweep.cache_clear()


@pytest.mark.parametrize("max_size, word_len, words, pairs", SMALL_WALKS[1:])
def test_knuth_sweep_by_generators_at_small_sizes(max_size, word_len, words,
                                                  pairs):
    knuth, route = _thu_sweep(max_size, word_len)
    assert (knuth.instances, route.instances) == (words, pairs)
    assert knuth.passed and route.passed


def test_knuth_sweep_flags_a_broken_bump(monkeypatch):
    # bumping the leftmost entry >= x instead of > x breaks the insertion,
    # and both checks that read the sweep must report it at every small
    # size; the walk backtracks by the reverse bump, which cannot undo some
    # broken bumps and raises there: that word fails, the walk goes on, and
    # every word is still walked and counted
    monkeypatch.setattr(insertion, "bisect_right", bisect_left)
    for (knuth, route), (words, _pairs) in _small_walks():
        assert knuth.instances == words and not knuth.passed
        assert not route.passed


@pytest.mark.parametrize("max_size, word_len, fillings", [(6, 3, 535),
                                                         (4, 5, 34)])
def test_knuth_comparison_flags_a_broken_bump_on_its_own(
        monkeypatch, max_size, word_len, fillings):
    # a broken bump also fails the sweep through the raises and the undoes,
    # so the state comparison is pinned apart from them: the fillings where
    # a word and its partner (the word one elementary Knuth move away) reach
    # different states are those where some Knuth class walked from the
    # filling splits
    monkeypatch.setattr(insertion, "bisect_right", bisect_left)
    monkeypatch.setattr(verify, "MAX_STORED_FAILURES", 10**6)
    [((knuth, _route), _counts)] = _small_walks([(max_size, word_len)])
    compared = {key.split(" u=")[0] for key, _expected, _actual in knuth.failures
                if " u=" in key}
    assert len(compared) == fillings


def test_knuth_sweep_flags_a_broken_reverse_bump(monkeypatch):
    # reverse-bumping the rightmost entry <= x instead of < x breaks the
    # walk's backtracking, which must fail the sweep at every small size
    monkeypatch.setattr(insertion, "bisect_left", bisect_right)
    for (knuth, _route), (words, _pairs) in _small_walks():
        assert knuth.instances == words and not knuth.passed


def test_skew_rsk_flags_a_broken_reverse_bump(monkeypatch):
    # reverse-bumping the rightmost entry <= x instead of < x breaks the
    # inverse, which then raises on some instances: each such instance is a
    # failed round trip, and the sweep still walks every instance
    monkeypatch.setattr(insertion, "bisect_left", bisect_right)
    rep = check_skew_rsk(max_size=4)
    assert rep.instances == 3430 and not rep.passed
    # each stored failure names its own instance
    assert len({key for key, _expected, _actual in rep.failures}) == 50


def test_skew_rsk_inserts_each_prefix_once():
    # a cost record that machine noise cannot move: each T inserts along each
    # edge of the trie of its side's standard-order row sequences once, and
    # backtracks along it once (a forward and an inverse run per instance
    # would make 10,664 of each)
    with counting("insertion._insert_inplace",
                  "insertion._uninsert_inplace") as calls:
        rep = check_skew_rsk(max_size=4)
    assert rep.instances == 3430 and rep.passed
    assert calls == {"insertion._insert_inplace": 1466,
                     "insertion._uninsert_inplace": 1466}


def test_skew_rsk_builds_each_q_once_per_memo_key():
    # a cost record that machine noise cannot move: Q's rows are built once
    # per (U's letters, created cells, Q's inner border) of a side, 1,053
    # times at size 4, where building them for each instance made 3,430;
    # Q's class shares the side's class memo with P's, 759 calls either way
    with counting("verify._rows_at", "verify._reading_class") as calls:
        rep = check_skew_rsk(max_size=4)
    assert rep.instances == 3430 and rep.passed
    assert calls == {"verify._rows_at": 1053, "verify._reading_class": 759}


def test_skew_rsk_memo_gives_each_u_its_own_q(monkeypatch):
    # reversing each row of Q breaks both Q tests on many instances; a memo
    # that handed one U the Q of another U, T or word would fail a different
    # set of them, so each test's failure count is pinned, as built with Q
    # made afresh for every instance
    rows_at = verify._rows_at

    def reversed_rows(order, cells, n):
        return [row[::-1] for row in rows_at(order, cells, n)]

    monkeypatch.setattr(verify, "_rows_at", reversed_rows)
    monkeypatch.setattr(verify, "MAX_STORED_FAILURES", 10**6)
    rep = check_skew_rsk(max_size=4)
    assert rep.instances == 3430 and rep.failure_count == 2338
    kinds = Counter(expected.split(" is ")[0] for _k, expected, _a in rep.failures)
    assert kinds == {"Q = U class": 983, "Q's standard order": 1355}


def test_confluence_lists_each_states_sites_once():
    # a cost record that machine noise cannot move: the every-order search
    # tests each candidate switch of each state it meets once, 2,583 site
    # tests at size 5, as on the dict boards of the earlier engine
    with counting("commutor._admissible") as calls:
        rep = check_confluence(max_size=5)
    assert rep.instances == 1569 and rep.passed
    assert calls == {"commutor._admissible": 2583}


@pytest.mark.parametrize("max_size, word_len, words",
                         [walk[:3] for walk in SMALL_WALKS[1:]])
def test_knuth_walk_inserts_each_word_once(max_size, word_len, words):
    # a cost record that machine noise cannot move: the shared walk inserts
    # and backtracks once per valid word, and no more
    with counting("insertion._insert_inplace",
                  "insertion._uninsert_inplace") as calls:
        [((knuth, _route), _counts)] = _small_walks([(max_size, word_len)])
    assert knuth.instances == words and knuth.passed
    assert calls == {"insertion._insert_inplace": words,
                     "insertion._uninsert_inplace": words}


def test_skew_rsk_needs_q_to_number_the_created_cells(monkeypatch):
    # the round trip is the walk's own backtracking only where Q's standard
    # order is the order of the created cells; an order that swaps the first
    # two cells breaks that claim on every U of two or more boxes, each of
    # which fails once, and the sweep still walks every instance
    order_cells = verify._order_cells

    def swapped(q):
        cells = order_cells(q)
        return cells[1:2] + cells[:1] + cells[2:]

    monkeypatch.setattr(verify, "_order_cells", swapped)
    rep = check_skew_rsk(max_size=4)
    assert rep.instances == 3430 and rep.failure_count == 3141
    assert all(expected.startswith("Q's standard order is the created cells ")
               for _key, expected, _actual in rep.failures)


def test_the_walks_leave_no_reference_cycles():
    # the walker's callbacks hold skew-rsk's per-side memos and the Knuth
    # walk's snapshots; left to the cycle collector, several sides' memos
    # pile up, 2.7 MB of peak RSS on skew-rsk(5)
    gc.collect()
    gc.disable()
    try:
        check_skew_rsk(max_size=3)
        _thu_sweep.__wrapped__(3, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_confluence_flags_a_broken_switch(monkeypatch):
    # admitting every switch lets a colour class stop being semistandard;
    # the sweep must report the instances that break, not raise out of the
    # whole sweep
    monkeypatch.setattr(commutor, "_admissible", lambda *args: True)
    rep = check_confluence(max_size=4)
    assert rep.instances == 341 and not rep.passed
    assert len({key for key, _expected, _actual in rep.failures}) == 50


def test_confluence_compares_the_alternative_orders_as_boards(monkeypatch):
    # a site that is not admissible (a u-cell with a v-cell weakly southeast
    # of it, so every switch still moves a v-letter northwest and the walk
    # ends) joins every choice of two or more; greedy never takes it and
    # infusion slides without the site list, so only the other orders of the
    # search go wrong, and the sweep records one of their terminal boards as
    # the failure without splitting it
    find = commutor._find_sites

    def with_a_bad_site(g, board):
        sites = find(g, board)
        if len(sites) > 1:
            cell = [commutor._cell(g, i) for i in range(len(board) - 1)]
            sites += [(iu, iv) for iu, a in enumerate(board) if a > 0
                      for iv, b in enumerate(board) if b < 0
                      and cell[iv][0] >= cell[iu][0] and cell[iv][1] >= cell[iu][1]
                      and (iu, iv) not in sites][:1]
        return sites

    monkeypatch.setattr(commutor, "_find_sites", with_a_bad_site)
    rep = check_confluence(max_size=4)
    assert rep.instances == 341 and not rep.passed
    assert all(key.startswith("order: ")
               for key, _expected, _actual in rep.failures)


def test_confluence_flags_an_unslid_infusion(monkeypatch):
    # an infusion that leaves the board as it is ends off greedy's board on
    # every instance where a switch applies, and on nothing else: 113 of the
    # 125 with both members non-empty (u = (2)/(1) under v = (2, 1)/(2), say,
    # admits no switch)
    monkeypatch.setattr(verify, "_infuse",
                        lambda g, board, order, on_frame=None: list(board))
    monkeypatch.setattr(verify, "MAX_STORED_FAILURES", 10**6)
    rep = check_confluence(max_size=4)
    assert rep.instances == 341 and len(rep.failures) == 113
    assert all(key.startswith("infusion: ")
               for key, _expected, _actual in rep.failures)


def test_confluence_records_the_classes_a_member_left(monkeypatch):
    # with every switch admitted, greedy's members can leave their Knuth
    # classes; each such failure names the member and shows the P-tableau
    # rows of V and U (expected) and of S and H (actual)
    monkeypatch.setattr(commutor, "_admissible", lambda *args: True)
    rep = check_confluence(max_size=4)
    knuth = [f for f in rep.failures if f[0].startswith("knuth: ")]
    assert len(knuth) == 4
    assert knuth[0] == (
        "knuth: SkewTableau((2, 1), (0, 0), ((1, 2), (3,))) "
        "SkewTableau((2, 2), (2, 1), ((), (1,)))",
        "P(V), P(U) = (((1,),), ((1, 2), (3,)))",
        "H left its class: P(S), P(H) = (((1,),), ((1,), (2,), (3,)))")
    for _key, expected, actual in knuth:
        assert expected.startswith("P(V), P(U) = (((")
        assert actual.startswith(("S left its class: P(S), P(H) = (((",
                                  "H left its class: P(S), P(H) = (((",
                                  "S and H left its class: P(S), P(H) = ((("))


def test_recursion_records_the_pairs_that_raise(monkeypatch):
    # a slide that takes the east neighbour on ties breaks staged switching,
    # which then raises on some pairs: each such pair fails, and the sweep
    # still walks every pair
    def infuse_east_on_ties(g, board, order, on_frame=None):
        board = list(board)
        for i in order:
            while True:
                # v-letters are negative: of two, the smaller letter is larger
                s, e = g.south[i], i + 1
                if board[e] < 0 and (board[e] >= board[s] or board[s] >= 0):
                    j = e
                elif board[s] < 0:
                    j = s
                else:
                    break
                board[i], board[j] = board[j], board[i]
                i = j
        return board

    assert check_recursion(max_size=6).passed
    monkeypatch.setattr(commutor, "_infuse", infuse_east_on_ties)
    monkeypatch.setattr(verify, "MAX_STORED_FAILURES", 10**6)
    rep = check_recursion(max_size=6)
    assert rep.instances == 137 and not rep.passed
    raised = {key for key, _expected, actual in rep.failures
              if actual.startswith("raises ")}
    assert len(raised) == 53


def _one_too_many(counts):
    """counts with every coefficient of at least 2 one too many."""
    def broken(*args):
        return {lam: c + 1 if c >= 2 else c
                for lam, c in counts(*args).items()}
    return broken


def test_lr_oracle_flags_a_broken_count(monkeypatch):
    # every count of at least 2 is one too many on both count paths: the
    # rule, which gives the forward and the reverse counts, and the witness
    # lists, which repeat their first tableau; the two counts still agree,
    # both match the witnesses, and the witness sets are untouched, so only
    # the polynomial identity can see the error
    rep = check_lr_oracle(max_size=6)
    assert rep.instances == 139 and rep.passed
    ballot = verify.enumerate_ballot

    def padded(shape, nu):
        witnesses = ballot(shape, nu)
        return witnesses + witnesses[:1] if len(witnesses) >= 2 else witnesses

    monkeypatch.setattr(schur, "_lr_counts", _one_too_many(schur._lr_counts))
    monkeypatch.setattr(verify, "enumerate_ballot", padded)
    rep = check_lr_oracle(max_size=6)
    assert rep.instances == 139 and not rep.passed
    # one failure per (mu, nu) instance: the first differing exponent, with
    # the coefficient of s_mu s_nu and that of the expansion
    assert rep.failures == [
        ("mu=(2, 1) nu=(2, 1) alpha=(3, 2, 1, 0, 0, 0)", "6", "7")]


def test_lr_oracle_counts_the_witnesses(monkeypatch):
    # a broken rule alone, with the witness lists intact, fails the witness
    # count of c^(3,2,1)_{(2,1),(2,1)} as well as the polynomial identity
    monkeypatch.setattr(schur, "_lr_counts", _one_too_many(schur._lr_counts))
    rep = check_lr_oracle(max_size=6)
    assert rep.instances == 139 and rep.failures == [
        ("mu=(2, 1) nu=(2, 1) alpha=(3, 2, 1, 0, 0, 0)", "6", "7"),
        ("(3, 2, 1) (2, 1) (2, 1)", "3 ballot tableaux", "2")]


def _raising_at_row_3(kernel, row_of):
    def broken(*args):
        if row_of(*args) == 3:
            raise RuntimeError("broken at row 3")
        return kernel(*args)
    return broken


@pytest.mark.parametrize("name, kernel, instances, failures", [
    ("involution", "switch", 57, 3),
    ("coincidence", "insert", 57, 5),
    ("confluence", "switch", 341, 6),
    ("skew-rsk", "insert", 3430, 658),
    ("lr-oracle", "switch", 38, 3),
    ("recursion", "switch", 18, 3),
    # in the shared walk, each of the 1,680 insertions at row 3 fails its
    # word once in route-geometry, and in knuth-commutativity its word and
    # the words below it (the valid words depend only on the inner border):
    # 9,115 of the 13,557 words fail; the 985 route pairs counted are those
    # met, as the pairs below a raise cannot be known
    ("knuth-commutativity", "insert", 13557, 9115),
    ("route-geometry", "insert", 985, 1680),
])
def test_a_raising_kernel_fails_its_instances_not_the_sweep(
        monkeypatch, name, kernel, instances, failures):
    # a switch or an insertion at row 3 raises: each instance that meets it
    # fails, with the exception's type and message, and the sweep goes on
    if kernel == "switch":
        monkeypatch.setattr(commutor, "_admissible", _raising_at_row_3(
            commutor._admissible, lambda g, board, iu, iv: commutor._cell(g, iu)[0]))
    else:
        broken = _raising_at_row_3(insertion._insert_inplace,
                                   lambda inner, rows, i, *run: i)
        monkeypatch.setattr(insertion, "_insert_inplace", broken)
        monkeypatch.setattr(commutor, "_insert_inplace", broken)
    _thu_sweep.cache_clear()
    try:
        rep = verify.CHECKS[name](max_size=4)
    finally:
        _thu_sweep.cache_clear()
    assert rep.instances == instances and rep.failure_count == failures
    raised = "raises RuntimeError: broken at row 3"
    if name == "coincidence":  # runs each method on its own, and names it
        raised = f"internal: {raised} / scratch: {raised}"
    assert {actual for _key, _expected, actual in rep.failures} == {raised}
    assert len({key for key, _expected, _actual in rep.failures}) == min(failures, 50)
