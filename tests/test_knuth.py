from collections import defaultdict
from itertools import product

import pytest

from lrcommute.knuth import (elementary_moves, knuth_class, knuth_equivalent,
                             p_tableau_rows, rsk, schensted_insert)
from lrcommute.tableaux import (EMPTY, SkewTableau, enumerate_ballot,
                                partitions_of, reading_word, skew_shape,
                                yamanouchi_tableau)


def test_schensted_insert_examples():
    p, cell = schensted_insert(SkewTableau((2, 1), (), [(1, 2), (2,)]), 1)
    assert p.rows == ((1, 1), (2, 2)) and cell == (2, 2)
    p, cell = schensted_insert(SkewTableau((2, 1), (), [(1, 2), (2,)]), 9)
    assert p.rows == ((1, 2, 9), (2,)) and cell == (1, 3)
    p, cell = schensted_insert(EMPTY, 1)
    assert p.rows == ((1,),) and cell == (1, 1)
    with pytest.raises(ValueError):
        schensted_insert(SkewTableau((2,), (1,), [(1,)]), 1)
    with pytest.raises(ValueError, match="letter 0 < 1"):
        schensted_insert(EMPTY, 0)


def test_rsk_examples():
    pair = rsk(())
    assert pair.p == EMPTY and pair.q == EMPTY
    with pytest.raises(ValueError, match="letter 0 < 1"):
        rsk((0, -3))
    pair = rsk((1, 1, 2, 3))
    assert pair.p.rows == ((1, 1, 2, 3),)
    assert pair.q.rows == ((1, 2, 3, 4),)
    # stability across the Knuth class of the running companion word
    w = (2, 1, 3, 2, 3, 1, 3)
    base = rsk(w).p
    for v in knuth_class(w, 10000):
        assert rsk(v).p == base


def test_rsk_q_standard():
    for w in product((1, 2, 3), repeat=5):
        pair = rsk(w)
        pair.p._validate()
        pair.q._validate()
        labels = sorted(x for row in pair.q.rows for x in row)
        assert labels == list(range(1, 6))


def test_knuth_equivalent_examples():
    assert knuth_equivalent((1, 2, 1, 2, 1), (2, 1, 1, 2, 1))
    assert knuth_equivalent((3, 1, 2), (3, 1, 2))
    assert not knuth_equivalent((1, 2), (2, 1))


def test_elementary_moves_examples():
    assert (2, 1, 1, 2, 1) in elementary_moves((1, 2, 1, 2, 1))
    assert elementary_moves((1, 2)) == []
    assert elementary_moves(()) == []
    assert elementary_moves((1, 3, 2)) == [(3, 1, 2)]


def test_three_letters_admit_at_most_one_move_which_undoes_itself():
    # the Knuth sweep compares each order word with the word made by the
    # move on its first three letters, which needs that move to be unique
    # and to give the word back when made twice
    for w in product(range(1, 6), repeat=3):
        moves = elementary_moves(w)
        assert len(moves) <= 1, w
        for m in moves:
            assert elementary_moves(m) == [w], (w, m)


def test_elementary_moves_preserve_class():
    for w in product((1, 2, 3), repeat=5):
        for m in elementary_moves(w):
            assert knuth_equivalent(w, m), (w, m)


def test_knuth_class_examples():
    cls = knuth_class((1, 2, 1, 2, 1), 100)
    assert (2, 1, 1, 2, 1) in cls
    assert knuth_class((1,), 10) == [(1,)]
    with pytest.raises(ValueError):
        knuth_class((1, 2, 1, 2, 1), 2)
    with pytest.raises(ValueError):
        knuth_class((1,), 0)


def test_knuth_class_deterministic():
    assert knuth_class((1, 2, 1, 2, 1), 100) == knuth_class((1, 2, 1, 2, 1), 100)


def test_class_closure_matches_rsk_criterion():
    # words of length <= 6 over [4]: move closure = same-P-tableau classes
    groups = defaultdict(list)
    for n in range(7):
        for w in product((1, 2, 3, 4), repeat=n):
            groups[p_tableau_rows(w)].append(w)
    for members in groups.values():
        assert set(knuth_class(members[0], 10 ** 6)) == set(members)


def _ballot_words(max_len):
    # grow words leftward; the suffix contents stay partitions throughout
    counts = [0] * (max_len + 1)

    def rec(word):
        yield word
        if len(word) == max_len:
            return
        for v in range(1, max_len + 1):
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            counts[v] += 1
            yield from rec((v,) + word)
            counts[v] -= 1

    yield from rec(())


def test_ballot_words_insert_to_yamanouchi():
    # every ballot word w with |w| <= 8 has P tableau Y_content
    n_words = 0
    for w in _ballot_words(8):
        n_words += 1
        from lrcommute.tableaux import content
        assert rsk(w).p == yamanouchi_tableau(content(w))
    assert n_words > 1000
    # and reading words of skew ballot tableaux, at a smaller ambient size
    for n in range(7):
        for lam in partitions_of(n):
            from lrcommute.tableaux import subpartitions
            for mu in subpartitions(lam):
                shape = skew_shape(lam, mu)
                cells = shape.size
                for nu in partitions_of(cells, max_len=len(lam)):
                    for t in enumerate_ballot(shape, nu):
                        assert rsk(reading_word(t)).p == yamanouchi_tableau(nu)
