"""Acceptance suite: the full desk-scale verification program.

One test per criterion, each at its pinned size, printing a pass/fail line.
The heavy sweeps here are the point of the harness; the whole module runs in
a few minutes.
"""

import time

from lrcommute.golden import run_golden
from lrcommute.verify import (check_coincidence, check_confluence,
                              check_involution, check_knuth_commutativity,
                              check_lr_oracle, check_recursion,
                              check_route_geometry, check_skew_rsk)


def _report(rep, instances, digest, max_seconds=None):
    # the instance counts pin the sweeps: a refactor that walks fewer (or
    # more) instances is not the same check; the digests pin the instance
    # sets, so one that walks as many but others is not the same check either
    print(rep.line())
    assert rep.instances == instances
    assert rep.digest == digest, hex(rep.digest)
    assert rep.passed, rep.failures[:5]
    if max_seconds is not None:
        assert rep.seconds < max_seconds, (
            f"{rep.name} took {rep.seconds:.1f}s, target {max_seconds}s")


def test_criterion_1_golden_examples():
    t0 = time.time()
    results = run_golden()
    elapsed = time.time() - t0
    for res in results:
        print(res.line())
        assert res.passed, res.messages
    print(f"golden total                  time={elapsed:.2f}s")
    assert len(results) == 7
    assert elapsed < 1.0


def test_criterion_2_involution():
    _report(check_involution(max_size=8), 1351, 0x7c3e940ed39260dc,
            max_seconds=120)


def test_criterion_3_commutor_coincidence():
    _report(check_coincidence(max_size=8), 1351, 0x7c3e940ed39260dc)


def test_criterion_4_strategy_confluence():
    rep = check_confluence(max_size=8)
    _report(rep, 209293, 0x9943dc2910926ca6)
    assert rep.skipped == 71273  # the instances with an empty member


def test_criterion_5_knuth_commutativity():
    _report(check_knuth_commutativity(max_size=7, word_len=5), 982678,
            0x239308aa350d7f30)


def test_criterion_6_skew_rsk_bijection():
    _report(check_skew_rsk(max_size=6), 778783, 0x8789b0c92015a828)


def test_criterion_7_route_geometry():
    _report(check_route_geometry(max_size=7, word_len=5), 628894,
            0xe38b859f4fcf56c6)


def test_criterion_8_lr_rule_vs_polynomial_oracle():
    _report(check_lr_oracle(max_size=8), 434, 0xaadb70aa6bb4668c,
            max_seconds=300)


def test_criterion_9_recursion_structure():
    _report(check_recursion(max_size=8), 769, 0x0c80e9bfe8337ce6)
