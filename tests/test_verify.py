from bisect import bisect_left, bisect_right

import pytest

from lrcommute import commutor, insertion, schur, verify
from lrcommute.commutor import SwitchSite
from lrcommute.verify import (_thu_sweep, check_confluence,
                              check_knuth_commutativity, check_lr_oracle,
                              check_recursion, check_route_geometry,
                              check_skew_rsk)


def test_route_geometry_reports_the_shared_sweep_time():
    # route-geometry reads the knuth sweep from its cache, and reports the
    # time that sweep took rather than the time of the cache lookup
    knuth = check_knuth_commutativity(max_size=5, word_len=4)
    route = check_route_geometry(max_size=5, word_len=4)
    assert route.seconds == knuth.seconds > 0


def test_knuth_sweep_flags_a_broken_bump(monkeypatch):
    # bumping the leftmost entry >= x instead of > x breaks the insertion,
    # and both checks that read the sweep must report it; the walk
    # backtracks by the reverse bump, which cannot undo some broken bumps
    # and raises there, so it stops short of the 6,384 words it reaches
    # unbroken
    monkeypatch.setattr(insertion, "bisect_right", bisect_left)
    _thu_sweep.cache_clear()
    try:
        knuth = check_knuth_commutativity(max_size=5, word_len=3)
        route = check_route_geometry(max_size=5, word_len=3)
    finally:
        _thu_sweep.cache_clear()
    assert knuth.instances == 4796 and not knuth.passed
    assert not route.passed


def test_knuth_sweep_flags_a_broken_reverse_bump(monkeypatch):
    # reverse-bumping the rightmost entry <= x instead of < x breaks the
    # walk's backtracking, which must fail the sweep
    monkeypatch.setattr(insertion, "bisect_left", bisect_right)
    _thu_sweep.cache_clear()
    try:
        knuth = check_knuth_commutativity(max_size=5, word_len=3)
    finally:
        _thu_sweep.cache_clear()
    assert not knuth.passed


def test_skew_rsk_flags_a_broken_reverse_bump(monkeypatch):
    # reverse-bumping the rightmost entry <= x instead of < x breaks the
    # inverse, which then raises on some instances: each such instance is a
    # failed round trip, and the sweep still walks every instance
    monkeypatch.setattr(insertion, "bisect_left", bisect_right)
    rep = check_skew_rsk(max_size=4)
    assert rep.instances == 3430 and not rep.passed
    # each stored failure names its own instance
    assert len({key for key, _expected, _actual in rep.failures}) == 50


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

    def with_a_bad_site(cells):
        sites = find(cells)
        if len(sites) > 1:
            board = sorted(cells.items())
            sites += [SwitchSite(cu, cv) for cu, (_x, a) in board if a == "u"
                      for cv, (_y, b) in board if b == "v"
                      and cv[0] >= cu[0] and cv[1] >= cu[1]
                      and SwitchSite(cu, cv) not in sites][:1]
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
                        lambda board, order, on_frame=None: dict(board))
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
    def infuse_east_on_ties(board, order, on_frame=None):
        cells = dict(board)
        for r, c in order:
            while True:
                south, east = (e[0] if e and e[1] == "v" else commutor._TOP
                               for e in (cells.get((r + 1, c)),
                                         cells.get((r, c + 1))))
                if south == east == commutor._TOP:
                    break
                cv = (r + 1, c) if south < east else (r, c + 1)
                commutor._swap(cells, (r, c), cv)
                r, c = cv
        return cells

    assert check_recursion(max_size=6).passed
    monkeypatch.setattr(commutor, "_infuse", infuse_east_on_ties)
    monkeypatch.setattr(verify, "MAX_STORED_FAILURES", 10**6)
    rep = check_recursion(max_size=6)
    assert rep.instances == 137 and not rep.passed
    raised = {key for key, _expected, actual in rep.failures
              if actual.startswith("raises ")}
    assert len(raised) == 53


def test_lr_oracle_flags_a_broken_count(monkeypatch):
    # every count of at least 2 is one too many on both count paths, so the
    # forward and reverse counts still agree and the witness sets are
    # untouched: only the polynomial identity can see the error
    rep = check_lr_oracle(max_size=6)
    assert rep.instances == 139 and rep.passed
    count = schur.lr_coefficient

    def broken(lam, mu, nu):
        c = count(lam, mu, nu)
        return c + 1 if c >= 2 else c

    monkeypatch.setattr(schur, "lr_coefficient", broken)
    monkeypatch.setattr(verify, "lr_coefficient", broken)
    rep = check_lr_oracle(max_size=6)
    assert rep.instances == 139 and not rep.passed
    # one failure per (mu, nu) instance: the first differing exponent, with
    # the coefficient of s_mu s_nu and that of the expansion
    assert rep.failures == [
        ("mu=(2, 1) nu=(2, 1) alpha=(3, 2, 1, 0, 0, 0)", "6", "7")]


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
    # the shared walk counts the words and route pairs it reaches: each of
    # the 114 packed fillings meets row 3 within 5 steps, fails once in both
    # reports and stops there, short of 13,557 words and 4,146 route pairs;
    # the walk inserts lazily, depth first, so the counts are those met in
    # preorder before the first insertion at row 3
    ("knuth-commutativity", "insert", 983, 114),
    ("route-geometry", "insert", 212, 114),
])
def test_a_raising_kernel_fails_its_instances_not_the_sweep(
        monkeypatch, name, kernel, instances, failures):
    # a switch or an insertion at row 3 raises: each instance (or filling,
    # for the shared walk) that meets it fails, with the exception's type
    # and message, and the sweep goes on to the next one
    if kernel == "switch":
        monkeypatch.setattr(commutor, "_admissible", _raising_at_row_3(
            commutor._admissible, lambda cells, cu, cv: cu[0]))
    else:
        broken = _raising_at_row_3(insertion._insert_inplace,
                                   lambda inner, rows, i: i)
        monkeypatch.setattr(insertion, "_insert_inplace", broken)
        monkeypatch.setattr(commutor, "_insert_inplace", broken)
    _thu_sweep.cache_clear()
    try:
        rep = verify.CHECKS[name](max_size=4)
    finally:
        _thu_sweep.cache_clear()
    assert rep.instances == instances and rep.failure_count == failures
    assert {actual for _key, _expected, actual in rep.failures} == {
        "raises RuntimeError: broken at row 3"}
    assert len({key for key, _expected, _actual in rep.failures}) == min(failures, 50)
