"""The tableaux below are built on the library's one trusted path,
``SkewTableau._fast``, without validation.  The validating constructor stays
here as their oracle: it must accept each of them and build the very same
tableau, normalised borders included."""

from lrcommute.commutor import STRATEGIES, switching
from lrcommute.insertion import skew_rsk_forward, skew_rsk_inverse
from lrcommute.knuth import rsk
from lrcommute.tableaux import (SkewShape, SkewTableau, enumerate_ballot,
                                enumerate_ssyt, partitions_of, subpartitions)
from lrcommute.verify import packed_fillings, partitions_up_to


def assert_valid(*tableaux):
    for x in tableaux:
        assert SkewTableau(x.outer, x.inner, x.rows) == x, repr(x)


def fillings(lam, mu):
    return packed_fillings(lam, mu + (0,) * (len(lam) - len(mu)))


def test_skew_rsk_outputs_pass_validation():
    by_mu: dict = {}
    for lam in partitions_up_to(4):
        for mu in subpartitions(lam):
            by_mu.setdefault(mu, []).extend(fillings(lam, mu))
    pairs = 0
    for side in by_mu.values():
        for u in side:
            for t in side:
                pairs += 1
                assert_valid(*skew_rsk_forward(t, u))
    assert pairs == 3430
    # the inverse, on every shared-outer pair that it inverts
    inverted = 0
    for lam in partitions_up_to(4):
        side = [t for mu in subpartitions(lam) for t in fillings(lam, mu)]
        for p in side:
            for q in side:
                try:
                    t, u = skew_rsk_inverse(p, q)
                except ValueError:
                    continue
                inverted += 1
                assert_valid(t, u)
    assert inverted == 286


def test_switching_outputs_pass_validation():
    instances = 0
    for gamma in partitions_up_to(4):
        for lam in subpartitions(gamma):
            for mu in subpartitions(lam):
                for u in fillings(lam, mu):
                    for v in fillings(gamma, lam):
                        if u.size and v.size:
                            instances += 1
                            for strategy in STRATEGIES:
                                assert_valid(*switching(u, v, strategy))
    assert instances == 125


def test_enumerator_outputs_pass_validation():
    for lam in partitions_up_to(5):
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu + (0,) * (len(lam) - len(mu)))
            assert_valid(*enumerate_ssyt(shape, max(shape.size, 1)))
            for nu in partitions_of(shape.size):
                assert_valid(*enumerate_ballot(shape, nu))


def test_rsk_outputs_pass_validation():
    words = [()]
    for _ in range(5):
        words = [w + (x,) for w in words for x in (1, 2, 3)]
        for w in words:
            assert_valid(*rsk(w))
