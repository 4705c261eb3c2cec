"""The tableaux below are built on the library's one trusted path,
``SkewTableau._fast``, without validation.  The validating constructor stays
here as their oracle: it must accept each of them and build the very same
tableau, normalised borders included."""

from lrcommute.commutor import METHODS, STRATEGIES, switching
from lrcommute.insertion import (_append_inplace, _corners, _freeze, _thaw,
                                 glued_pair, internal_insert, order_word_steps,
                                 skew_rsk_forward, skew_rsk_inverse)
from lrcommute.knuth import rsk
from lrcommute.tableaux import (SkewShape, SkewTableau, enumerate_ballot,
                                enumerate_ssyt, partitions_of, subpartitions)
from lrcommute.verify import lr_pairs, packed_fillings, partitions_up_to


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
    # the inverse, on every shared-outer pair that it inverts; on the others
    # it raises one message
    inverted = not_inverted = 0
    for lam in partitions_up_to(4):
        side = [t for mu in subpartitions(lam) for t in fillings(lam, mu)]
        for p in side:
            for q in side:
                try:
                    t, u = skew_rsk_inverse(p, q)
                except ValueError as exc:
                    assert str(exc) == "reverse bump ran past the first row", (p, q)
                    not_inverted += 1
                    continue
                inverted += 1
                assert_valid(t, u)
    assert (inverted, not_inverted) == (286, 1538)


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


def test_internal_insertion_outputs_pass_validation():
    # every insertion at an inner corner, and every order word of two
    # letters, applied to each packed filling
    words = 0
    for lam in partitions_up_to(5):
        for mu in subpartitions(lam):
            for t in fillings(lam, mu):
                for i in _corners(t.inner):
                    once, _trace = internal_insert(t, i)
                    assert_valid(once)
                    for j in _corners(once.inner):
                        words += 1
                        assert_valid(order_word_steps(t, (j, i))[0])
    assert words == 1603


def test_glued_pair_operators_pass_validation():
    appended = inserted = 0
    for p in lr_pairs(5):
        for i in range(1, len(p.skew.rows) + 2):
            inner, rows = _thaw(p.skew)
            try:
                _append_inplace(inner, rows, i)
            except ValueError:
                continue
            appended += 1
            assert_valid(_freeze(inner, rows))
        for i in _corners(p.skew.inner):
            inserted += 1
            assert_valid(*glued_pair(internal_insert(p.skew, i)[0]))
    assert (appended, inserted) == (347, 268)


def test_commutor_outputs_pass_validation():
    pairs = 0
    for p in lr_pairs(6):
        pairs += 1
        for method in METHODS.values():
            assert_valid(*method.rho(p))
    assert pairs == 295
