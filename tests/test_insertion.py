import pytest

from lrcommute import insertion
from lrcommute.insertion import (GluedPair, _append_inplace, _freeze,
                                 _insert_inplace, _thaw, _uninsert_inplace,
                                 apply_order_word, extended_insert,
                                 glued_pair, inner_corners, internal_insert,
                                 is_lr_pair, lr_violation, order_word_steps,
                                 skew_rsk_forward, skew_rsk_inverse)
from lrcommute.knuth import p_tableau_rows
from lrcommute.tableaux import (EMPTY, SkewTableau, empty_of_shape,
                                is_ballot_tableau, reading_word, subpartitions,
                                yamanouchi_tableau)
from lrcommute.verify import _walk, packed_fillings, partitions_up_to
from probe import counting

T_WORDS = SkewTableau((3, 2), (1, 0), [(1, 3), (2, 3)])
RESULT_WORDS = SkewTableau((4, 3, 2, 1), (4, 2, 0, 0), [(), (3,), (1, 3), (2,)])


def small_tableaux(max_boxes):
    for lam in partitions_up_to(max_boxes):
        for mu in subpartitions(lam):
            yield from packed_fillings(lam, mu + (0,) * (len(lam) - len(mu)))


def test_inner_corners_examples():
    assert inner_corners(T_WORDS) == [1, 2]
    assert inner_corners(EMPTY) == [1]
    assert inner_corners(empty_of_shape((2,))) == [1, 2]


def test_inner_corners_match_insertability():
    for t in small_tableaux(5):
        listed = set(inner_corners(t))
        for i in range(1, len(t.outer) + 3):
            try:
                internal_insert(t, i)
                ok = True
            except ValueError:
                ok = False
            assert ok == (i in listed), (t, i)


def test_internal_insert_blank_cases():
    out, tr = internal_insert(EMPTY, 1)
    assert out == empty_of_shape((1,))
    assert tr.route == () and tr.created == tr.vacated == (1, 1)
    # a blank corner needs room under the row above
    t = empty_of_shape((2, 2))
    assert inner_corners(t) == [1, 3]
    assert internal_insert(t, 1)[0] == empty_of_shape((3, 2))
    assert internal_insert(t, 3)[0] == empty_of_shape((2, 2, 1))
    with pytest.raises(ValueError):
        internal_insert(t, 2)


def test_internal_insert_word_steps():
    # the five steps of phi_{12121}, each state frozen
    t1, tr1 = internal_insert(T_WORDS, 1)
    assert (t1.outer, t1.inner, t1.rows) == ((3, 2, 1), (2, 0, 0),
                                             ((3,), (1, 3), (2,)))
    assert tr1.route == ((1, 2), (2, 1), (3, 1)) and tr1.created == (3, 1)
    t2, _ = internal_insert(t1, 2)
    assert (t2.outer, t2.rows) == ((3, 2, 1, 1), ((3,), (3,), (1,), (2,)))
    t3, _ = internal_insert(t2, 1)
    assert (t3.outer, t3.rows) == ((3, 3, 1, 1), ((), (3, 3), (1,), (2,)))
    t4, _ = internal_insert(t3, 2)
    assert (t4.outer, t4.rows) == ((3, 3, 2, 1), ((), (3,), (1, 3), (2,)))
    t5, tr5 = internal_insert(t4, 1)
    assert t5 == RESULT_WORDS
    assert tr5.route == ()  # final step adjoins a blank corner


def test_internal_insert_shape_accounting():
    for t in small_tableaux(5):
        for i in inner_corners(t):
            out, tr = internal_insert(t, i)
            out._validate()
            assert sum(out.inner) == sum(t.inner) + 1
            assert sum(out.outer) == sum(t.outer) + 1
            assert out.size == t.size
            if tr.route:
                rows = [c[0] for c in tr.route]
                assert rows == list(range(tr.vacated[0], tr.vacated[0] + len(rows)))
                assert tr.created == tr.route[-1]
            else:
                assert tr.created == tr.vacated


def test_uninsert_undoes_insert():
    for t in small_tableaux(6):
        for i in inner_corners(t):
            inner, rows = _thaw(t)
            route = []
            created = _insert_inplace(inner, rows, i, route)
            vacated = route[0] if route else created
            assert _uninsert_inplace(inner, rows, created) == vacated
            assert (inner, rows) == _thaw(t)


def _insert_walk(t, depth):
    """Each valid word of 1 to depth letters on t, as (the tableau before
    its last letter, that letter)."""
    for i in inner_corners(t):
        yield t, i
        if depth > 1:
            yield from _insert_walk(internal_insert(t, i)[0], depth - 1)


def test_the_kernel_records_a_route_only_in_a_given_list():
    # every valid word of up to 4 letters on the 426 packed fillings of at
    # most 5 boxes, 17,914 words: the last letter's insertion makes the same
    # move with a route list and without, the list is internal_insert's
    # route, and reverse-bumping from the created cell undoes it
    words = 0
    for t in small_tableaux(5):
        for s, i in _insert_walk(t, 4):
            words += 1
            bare = _thaw(s)
            created = _insert_inplace(*bare, i)
            inner, rows = _thaw(s)
            route = []
            assert _insert_inplace(inner, rows, i, route) == created
            assert (inner, rows) == bare
            out, trace = internal_insert(s, i)
            assert route == list(trace.route) and created == trace.created
            assert _freeze(inner, rows) == out
            assert _uninsert_inplace(inner, rows, created) == trace.vacated
            assert (inner, rows) == _thaw(s)
    assert words == 17914


def test_the_kernels_keep_each_rows_blanks_as_its_leading_0s(monkeypatch):
    # every insertion and every undoing on the walk of each valid word of up
    # to 4 letters on the packed fillings of at most 5 boxes leaves row k as
    # inner[k] 0s, then entries of at least 1
    def checking(kernel):
        def run(inner, rows, *args):
            created = kernel(inner, rows, *args)
            assert len(inner) == len(rows)
            for a, row in zip(inner, rows):
                assert row[:a] == [0] * a and min(row[a:], default=1) >= 1
            return created
        return run

    for name in ("_insert_inplace", "_uninsert_inplace"):
        monkeypatch.setattr(insertion, name, checking(getattr(insertion, name)))

    def fail(*args):
        pytest.fail(repr(args))

    with counting("insertion._insert_inplace",
                  "insertion._uninsert_inplace") as calls:
        for t in small_tableaux(5):
            assert _freeze(*_thaw(t)) == t
            _walk(*_thaw(t), 4, lambda v, trail: None, fail, fail)
    assert calls == {"insertion._insert_inplace": 17914,
                     "insertion._uninsert_inplace": 17914}


def _outcome(insert, t, i, count):
    state = _thaw(t)
    try:
        return insert(*state, i, count), state
    except ValueError as exc:
        return str(exc)


def _as_one_run(inner, rows, i, count):
    return _insert_inplace(inner, rows, i, None, count)


def _one_at_a_time(inner, rows, i, count):
    for _ in range(count):
        created = _insert_inplace(inner, rows, i)
    return created


def test_a_run_of_insertions_is_checked_once_at_its_last_cell():
    # count insertions at a row, filled or blank, as one call: the same
    # state and last created cell as count calls, or the same error
    kinds = set()
    for t in small_tableaux(5):
        for i in range(1, len(t.outer) + 3):
            for count in (2, 3, 4):
                run = _outcome(_as_one_run, t, i, count)
                assert run == _outcome(_one_at_a_time, t, i, count)
                filled = i <= len(t.rows) and bool(t.rows[i - 1])
                kinds.add("raises" if type(run) is str else
                          "filled" if filled else "blank")
    assert kinds == {"raises", "filled", "blank"}


def _append_one_at_a_time(inner, rows, i, count):
    for _ in range(count):
        _append_inplace(inner, rows, i)


@pytest.mark.parametrize("inner, rows, i, count, why", [
    # the last cell outgrows row i - 1 by one, in row 2 and in a new row 3
    ([0, 0], [[1, 1, 1], [2]], 2, 3, "row 2 would outgrow row 1"),
    ([1, 0], [[1, 1], [2, 2]], 3, 3, "row 3 would outgrow row 2"),
    # the last cell meets an entry >= i above it, under no border and one
    ([0, 0], [[1, 1, 2], [2]], 2, 2, "column 3 not strictly increasing at row 2"),
    ([1, 1], [[1, 1, 2], [2]], 2, 2, "column 4 not strictly increasing at row 2"),
    # the first cell breaks weak increase
    ([0, 0], [[1, 1, 1, 1], [3]], 2, 2, "row 2 not weakly increasing"),
])
def test_an_append_run_checks_its_first_and_last_cells(inner, rows, i, count, why):
    # a run is checked once, and says what appending letter by letter says
    t = SkewTableau([a + len(r) for a, r in zip(inner, rows)], inner, rows)
    message = f"appending {i} to row {i} breaks the tableau: {why}"
    for append in (_append_inplace, _append_one_at_a_time):
        state = _thaw(t)
        with pytest.raises(ValueError) as exc:
            append(*state, i, count)
        assert str(exc.value) == message
    # the run one cell shorter is accepted, as it is letter by letter
    if why.endswith("weakly increasing"):
        return
    run = _thaw(t)
    _append_inplace(*run, i, count - 1)
    one_at_a_time = _thaw(t)
    _append_one_at_a_time(*one_at_a_time, i, count - 1)
    assert run == one_at_a_time
    assert run[1][i - 1][-(count - 1):] == [i] * (count - 1)


def test_internal_insert_preserves_knuth_and_ballot():
    for t in small_tableaux(8):
        w = p_tableau_rows(reading_word(t))
        ballot = is_ballot_tableau(t)
        for i in inner_corners(t):
            out, _ = internal_insert(t, i)
            assert p_tableau_rows(reading_word(out)) == w
            if ballot:
                assert is_ballot_tableau(out)


def test_three_letter_commutations():
    # phi_i phi_n phi_k = phi_n phi_i phi_k (i <= k < n) and
    # phi_k phi_i phi_n = phi_k phi_n phi_i (i < k <= n), where defined
    checked = 0
    for t in small_tableaux(5):
        n_rows = len(t.outer) + 1
        for n in range(1, n_rows + 1):
            for k in range(1, n):
                for i in range(1, k + 1):
                    lhs = _try_word(t, (i, n, k))
                    rhs = _try_word(t, (n, i, k))
                    if lhs is not None and rhs is not None:
                        assert lhs == rhs
                        checked += 1
            for k in range(2, n + 1):
                for i in range(1, k):
                    lhs = _try_word(t, (k, i, n))
                    rhs = _try_word(t, (k, n, i))
                    if lhs is not None and rhs is not None:
                        assert lhs == rhs
                        checked += 1
    assert checked > 100


def _try_word(t, word):
    try:
        return apply_order_word(t, word)
    except ValueError:
        return None


def test_apply_order_word_examples():
    assert apply_order_word(T_WORDS, (1, 2, 1, 2, 1)) == RESULT_WORDS
    assert apply_order_word(T_WORDS, (2, 1, 1, 2, 1)) == RESULT_WORDS
    assert apply_order_word(T_WORDS, ()) == T_WORDS
    word = (2, 3, 4, 2, 3, 4, 1, 2, 3, 1, 2, 1, 1)
    assert apply_order_word(EMPTY, word) == empty_of_shape((4, 4, 3, 2))


def test_apply_order_word_reports_step():
    with pytest.raises(ValueError, match="step 2"):
        apply_order_word(EMPTY, (9, 1))


def test_order_word_steps_traces():
    result, traces = order_word_steps(T_WORDS, (1, 2, 1, 2, 1))
    assert result == RESULT_WORDS
    assert len(traces) == 5
    assert traces[0].created == (3, 1)


def test_extended_insert_level2_frames():
    # first-level state of the running example, then phibar_2, phibar_1
    state = GluedPair(yamanouchi_tableau((2,)),
                      SkewTableau((6,), (2,), [(1, 1, 1, 1)]))
    after2 = extended_insert(state, 2)
    assert after2.yam == yamanouchi_tableau((2, 1))
    assert (after2.skew.outer, after2.skew.inner) == ((6, 1), (2, 1))
    after1 = extended_insert(after2, 1)
    assert after1.yam == yamanouchi_tableau((3, 1))
    assert after1.skew.rows == ((1, 1, 1), (1,))


def test_extended_insert_blank_and_errors():
    p = GluedPair(yamanouchi_tableau((2,)), empty_of_shape((2,)))
    q = extended_insert(p, 1)
    assert q.yam == yamanouchi_tableau((3,))
    assert q.skew == empty_of_shape((3,))
    with pytest.raises(ValueError):
        extended_insert(p, 3)  # only one row in the Yamanouchi factor
    bad = GluedPair(yamanouchi_tableau((1,)),
                    SkewTableau((2, 1), (1, 0), [(1,), (1,)]))
    with pytest.raises(ValueError):
        extended_insert(bad, 3)
    mismatched = GluedPair(yamanouchi_tableau((1,)), empty_of_shape((2,)))
    with pytest.raises(ValueError, match="inner border"):
        extended_insert(mismatched, 1)


def test_skew_rsk_forward_example():
    u = SkewTableau((4, 2), (1, 0), [(1, 3, 5), (2, 4)])
    p, q = skew_rsk_forward(T_WORDS, u)
    assert p == RESULT_WORDS
    assert q == SkewTableau((4, 3, 2, 1), (3, 2, 0, 0),
                            [(5,), (3,), (1, 4), (2,)])
    q._validate()


def test_skew_rsk_trivial_cases():
    mu = (2, 1)
    t = SkewTableau((3, 2), (2, 1), [(1,), (1,)])
    p, q = skew_rsk_forward(t, empty_of_shape(mu))
    assert p == t
    assert q.size == 0 and q.outer == t.outer
    t2, u2 = skew_rsk_inverse(p, q)
    assert t2 == t and u2 == empty_of_shape(mu)
    with pytest.raises(ValueError):
        skew_rsk_forward(t, empty_of_shape((3,)))


def test_skew_rsk_round_trip_small():
    for mu in partitions_up_to(2):
        shapes = [lam for lam in partitions_up_to(4)
                  if all(a >= b for a, b in zip(lam + (0,) * 9, mu + (0,) * 9))
                  and len(lam) >= len(mu)]
        pool = []
        for lam in shapes:
            pool.extend(packed_fillings(lam, mu + (0,) * (len(lam) - len(mu))))
        for t in pool:
            for u in pool:
                p, q = skew_rsk_forward(t, u)
                p._validate()
                q._validate()
                assert skew_rsk_inverse(p, q) == (t, u)


def test_skew_rsk_inverse_rejects_malformed():
    with pytest.raises(ValueError):
        skew_rsk_inverse(SkewTableau((2,), (), [(1, 2)]),
                         SkewTableau((2,), (1,), [(1,)]))


def test_lr_pair_validation():
    good = glued_pair(SkewTableau((2, 1), (1, 0), [(1,), (1,)]))
    assert is_lr_pair(good)
    assert lr_violation(good) is None
    bad = GluedPair(yamanouchi_tableau((2,)),
                    SkewTableau((2, 1), (1, 0), [(1,), (1,)]))
    assert not is_lr_pair(bad)
    assert "Yamanouchi" in lr_violation(bad)
    not_ballot = glued_pair(SkewTableau((2,), (1,), [(2,)]))
    assert "ballot" in lr_violation(not_ballot)
