import functools
import json
import re
import sys

import pytest
from hypothesis import given, strategies as st

from lrcommute.schur import lr_coefficient
from lrcommute.tableaux import (EMPTY, SkewShape, SkewTableau, as_partition,
                                companion_word, enumerate_ballot,
                                enumerate_ssyt, from_json_dict, from_text,
                                glue, is_ballot_tableau, json_ints,
                                partitions_of, read_json, reading_word,
                                restrict_rows, skew_shape, standardize,
                                subpartitions, tableau_content, to_json_dict,
                                to_text, yamanouchi_tableau)

T_BALLOT = SkewTableau((4, 3, 2), (2, 1, 0), [(1, 1), (1, 2), (2, 3)])
H_NOT_BALLOT = SkewTableau((4, 3, 2), (2, 1, 0), [(1, 2), (1, 3), (1, 2)])
U_STD = SkewTableau((5, 4, 3), (3, 2, 0), [(1, 3), (2, 4), (1, 2, 3)])


def to_json(t: SkewTableau) -> str:
    return json.dumps(to_json_dict(t))


def from_json(s: str) -> SkewTableau:
    """A tableau read from JSON text, as the CLI reads one."""
    return read_json(s, from_json_dict)


def all_shapes(max_boxes):
    for lam in (p for k in range(max_boxes + 1) for p in partitions_of(k)):
        for mu in subpartitions(lam):
            yield SkewShape(lam, mu + (0,) * (len(lam) - len(mu)))


def test_partition_normalisation():
    assert as_partition((6, 4, 0, 0)) == (6, 4)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, -1))


def test_non_integer_parts_and_entries_raise():
    # floats are never truncated: a part, an entry or an LR argument that
    # is not an integer is a TypeError
    with pytest.raises(TypeError):
        as_partition([2.7, 1.2])
    with pytest.raises(TypeError):
        SkewTableau((2,), (), [(1.9, 2.2)])
    with pytest.raises(TypeError):
        lr_coefficient((2.5, 1), (1,), (1.9, 0.5))


def test_reading_word_examples():
    assert reading_word(T_BALLOT) == (2, 3, 1, 2, 1, 1)
    assert reading_word(SkewTableau((3, 1), (3, 1), ())) == ()
    assert reading_word(SkewTableau((2,), (), [(3, 5)])) == (3, 5)


def content(word) -> tuple[int, ...]:
    """counts[i] = multiplicity of letter i+1; length = largest letter.
    Letter by letter: the oracle of ``tableau_content``."""
    counts: list[int] = []
    for x in word:
        if x < 1:
            raise ValueError(f"letter {x} < 1")
        if x > len(counts):
            counts.extend([0] * (x - len(counts)))
        counts[x - 1] += 1
    return tuple(counts)


def is_ballot(word) -> bool:
    """True iff the content of every suffix is a partition.  Letter by
    letter: the oracle of ``is_ballot_tableau``."""
    counts: dict[int, int] = {}
    for x in reversed(tuple(word)):
        counts[x] = counts.get(x, 0) + 1
        if x > 1 and counts.get(x - 1, 0) < counts[x]:
            return False
    return True


def test_content_examples():
    assert content((2, 3, 1, 2, 1, 1)) == (3, 2, 1)
    assert content(()) == ()
    assert content((3, 3)) == (0, 0, 2)
    # only an unvalidated tableau holds a letter below 1; it is named
    with pytest.raises(ValueError, match=r"^letter 0 < 1$"):
        tableau_content(SkewTableau._fast((3,), (0,), ((0, 1, 1),)))


def test_is_ballot_examples():
    assert not is_ballot((1, 2, 1, 3, 1, 2))  # word of H
    assert is_ballot((2, 3, 1, 2, 1, 1))      # word of T
    assert is_ballot(())


@given(st.lists(st.integers(min_value=1, max_value=5), max_size=9))
def test_is_ballot_matches_suffix_definition(letters):
    word = tuple(letters)

    def suffix_ok(k):
        c = content(word[k:])
        return all(a >= b for a, b in zip(c, c[1:]))

    naive = all(suffix_ok(k) for k in range(len(word) + 1))
    assert is_ballot(word) == naive


def test_standardize_examples():
    assert standardize(U_STD).rows == ((2, 6), (4, 7), (1, 3, 5))
    std = SkewTableau((3,), (), [(1, 2, 3)])
    assert standardize(std) == std
    assert standardize(SkewTableau((2,), (), [(1, 1)])).rows == ((1, 2),)


def test_standardize_idempotent():
    for shape in all_shapes(5):
        for t in enumerate_ssyt(shape, max(1, shape.size)):
            assert standardize(standardize(t)) == standardize(t)


def test_companion_word_examples():
    assert companion_word(U_STD) == (2, 1, 3, 2, 3, 1, 3)
    assert companion_word(SkewTableau((2, 1), (2, 1), ())) == ()
    assert companion_word(SkewTableau((3,), (), [(1, 2, 3)])) == (1, 1, 1)


def test_companion_word_standardisation_invariant():
    for shape in all_shapes(5):
        for t in enumerate_ssyt(shape, max(1, shape.size)):
            assert companion_word(t) == companion_word(standardize(t))


def _standard_tableaux(shape) -> list[SkewTableau]:
    """Every standard filling of the shape, built entry by entry: entry k
    goes at the end of any row whose filled border it may extend."""
    outer, inner = shape
    found = []

    def fill(border, rows, k):
        if k > shape.size:
            found.append(SkewTableau(outer, inner, rows))
        for r, (b, o) in enumerate(zip(border, outer)):
            if b < o and (r == 0 or border[r - 1] > b):
                fill(border[:r] + (b + 1,) + border[r + 1:],
                     rows[:r] + (rows[r] + (k,),) + rows[r + 1:], k + 1)

    fill(inner, ((),) * len(outer), 1)
    return found


@functools.cache
def _standard_count(outer, inner) -> int:
    """The number of standard fillings of outer/inner (borders of one
    length): the largest entry sits in a corner of outer."""
    if outer == inner:
        return 1
    return sum(_standard_count(outer[:r] + (o - 1,) + outer[r + 1:], inner)
               for r, o in enumerate(outer)
               if o > inner[r] and (r + 1 == len(outer) or outer[r + 1] < o))


def test_companion_word_injective_on_standard_tableaux():
    for shape in all_shapes(8):
        standard = _standard_tableaux(shape)
        assert len(standard) == _standard_count(*shape)
        assert all(sorted(reading_word(t)) == list(range(1, shape.size + 1))
                   for t in standard)
        assert len({companion_word(t) for t in standard}) == len(standard)


def test_yamanouchi_examples():
    assert yamanouchi_tableau((2, 1)).rows == ((1, 1), (2,))
    assert yamanouchi_tableau((0,)) == EMPTY
    assert yamanouchi_tableau((6, 4, 0, 0)).rows == ((1,) * 6, (2,) * 4)


def test_tableau_ballot_and_content_match_the_reading_word():
    # one run of equal letters at a time, against letter by letter, on
    # every filling of at most 6 boxes over letters up to 4
    fillings = [t for shape in all_shapes(6) for t in enumerate_ssyt(shape, 4)]
    ballot = 0
    for t in fillings:
        word = reading_word(t)
        assert is_ballot_tableau(t) == is_ballot(word), t
        assert tableau_content(t) == content(word), t
        ballot += is_ballot(word)
    assert (len(fillings), ballot) == (4538, 290)


def test_yamanouchi_is_ballot_up_to_8():
    for n in range(9):
        for mu in partitions_of(n):
            y = yamanouchi_tableau(mu)
            assert is_ballot_tableau(y)
            assert tableau_content(y) == mu


def test_restrict_rows():
    t = SkewTableau((9, 7, 6, 5), (6, 4, 0, 0),
                    [(1, 1, 1), (1, 1, 2), (1, 2, 2, 2, 2, 3), (3, 3, 3, 3, 4)])
    bottom, top = restrict_rows(t, 3)
    assert bottom.rows == ((3, 3, 3, 3, 4),)
    assert (bottom.outer, bottom.inner) == ((5,), (0,))
    assert top.outer == (9, 7, 6)
    b0, t0 = restrict_rows(t, 0)
    assert b0 == t and t0 == EMPTY
    b4, t4 = restrict_rows(t, 4)
    assert t4 == t and b4 == EMPTY
    with pytest.raises(ValueError):
        restrict_rows(t, 5)


def test_validation_rejects_bad_fillings():
    with pytest.raises(ValueError):
        SkewTableau((2,), (), [(2, 1)])        # row decreasing
    with pytest.raises(ValueError):
        SkewTableau((1, 1), (), [(1,), (1,)])  # column not strict
    with pytest.raises(ValueError):
        SkewTableau((1,), (2,), [()])          # inner not contained
    with pytest.raises(ValueError):
        SkewTableau((2,), (), [(0, 1)])        # entries below 1


# Each message as the per-entry checks wrote it; the inputs put the first
# offending entry, row or column before a smaller or a later one, so a check
# that finds its fault in another order names another.
@pytest.mark.parametrize("build, args, message", [
    (SkewTableau, ((2,), (), [(0, -1)]), "entry 0 < 1 in row 1"),
    (SkewTableau, ((2, 2), (1,), [(1,), (0, 2)]), "entry 0 < 1 in row 2"),
    (SkewTableau, ((3, 3), (), [(1, 2, 3), (2, 2, 3)]),
     "column 2 not strictly increasing at row 2"),
    (SkewTableau, ((4, 4), (1,), [(1, 2, 3), (1, 2, 2, 3)]),
     "column 3 not strictly increasing at row 2"),
    (SkewTableau, ((2, 2, 2), (), [(1, 2), (2, 3), (2, 3)]),
     "column 1 not strictly increasing at row 3"),
    (SkewTableau, ((3,), (), [(2, 3, 1)]), "row 1 not weakly increasing"),
    (SkewTableau, ((3, 3), (), [(1, 2, 3), (1, 3, 2)]),
     "row 2 not weakly increasing"),
    (SkewTableau, ((3, 3), (), [(2, 1, 3), (1, 2, 2)]),
     "row 1 not weakly increasing"),
    (SkewTableau, ((3, 2), (1,), [(1, 1), (2,)]),
     "row 2 has 1 entries, expected 2"),
    (SkewTableau, ((3, 2), (1,), [(3, 1), (2,)]), "row 1 not weakly increasing"),
    (SkewTableau, ((1,), (2,), [()]), "inner (2,) not contained in outer (1,)"),
    (as_partition, ((3, 1, 2),), "not weakly decreasing: (3, 1, 2)"),
    (as_partition, ((2, 0, -1),), "negative part in (2, 0, -1)"),
    (json_ints, ([1, True],), "expected an array of integers, got [1, true]"),
    (json_ints, ([1, 2.0],), "expected an array of integers, got [1, 2.0]"),
    (from_json, ('{"outer": [2], "inner": [], "rows": [[1, true]]}',),
     "rows: expected an array of integers, got [1, true]"),
    (from_json, ('{"outer": [1, 1], "inner": [], "rows": [[1], [2.5]]}',),
     "rows: expected an array of integers, got [2.5]"),
    (from_json, ('{"outer": [1, 1], "inner": [], "rows": [[1], 2]}',),
     "rows: expected an array of integers, got 2"),
    (from_json, ('{"outer": [2, false], "inner": [], "rows": [[1, 1]]}',),
     "outer: expected an array of integers, got [2, false]"),
])
def test_validation_messages_name_the_first_fault(build, args, message):
    with pytest.raises(ValueError) as exc:
        build(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize("check", [True, False])
def test_rows_beyond_the_outer_shape_are_rejected(check):
    with pytest.raises(ValueError, match="row count mismatch with outer shape"):
        SkewTableau((1,), (), [(1,), (2,)], check)
    # the borders too: an inner border with more rows, or a wider row
    with pytest.raises(ValueError, match="row count mismatch with outer shape"):
        SkewTableau((1,), (1, 1), [], check)
    with pytest.raises(ValueError, match=r"inner \(2,\) not contained"):
        SkewTableau((1,), (2,), [()], check)


def test_enumerate_ballot_examples():
    only = enumerate_ballot(skew_shape((2, 1), ()), (2, 1))
    assert only == [yamanouchi_tableau((2, 1))]
    assert len(enumerate_ballot(skew_shape((3, 2, 1), (2, 1)), (2, 1))) == 2
    hits = enumerate_ballot(skew_shape((4, 3, 2), (2, 1)), (3, 2, 1))
    assert T_BALLOT in hits


def test_enumerate_ballot_normal_shape_forces_yamanouchi():
    for n in range(7):
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                got = enumerate_ballot(skew_shape(lam, ()), nu)
                if lam == nu:
                    assert got == [yamanouchi_tableau(nu)]
                else:
                    assert got == []


def test_enumerate_ballot_against_filter_oracle():
    # independent oracle: plain fill-and-filter over all semistandard fillings
    for shape in all_shapes(6):
        n = shape.size
        by_content = []
        for nu in partitions_of(n, max_len=max(1, len(shape.outer))):
            brute = [t for t in enumerate_ssyt(shape, max(1, len(nu) or 1))
                     if tableau_content(t) == nu and is_ballot_tableau(t)]
            fast = enumerate_ballot(shape, nu)
            assert fast == sorted(brute, key=reading_word)
            for t in fast:
                t._validate()
            by_content += fast
        # every content in one search: by content, then reading word
        assert enumerate_ballot(shape) == by_content


def test_enumerate_ssyt_examples():
    assert [t.rows for t in enumerate_ssyt(skew_shape((1,), ()), 3)] == \
        [((1,),), ((2,),), ((3,),)]
    assert [t.rows for t in enumerate_ssyt(skew_shape((2,), ()), 2)] == \
        [((1, 1),), ((1, 2),), ((2, 2),)]
    assert len(enumerate_ssyt(skew_shape((2, 1), ()), 2)) == 2


def test_enumerate_ssyt_valid_and_lex_sorted():
    for shape in all_shapes(5):
        ts = enumerate_ssyt(shape, 3)
        words = [reading_word(t) for t in ts]
        assert words == sorted(words)
        for t in ts:
            t._validate()


def test_enumerate_ssyt_packed_keeps_the_initial_segments():
    # the packed search lists exactly the fillings whose letters are 1..k,
    # in the same order, on an alphabet shorter or longer than the shape
    for shape in all_shapes(5):
        for max_letter in range(1, 7):
            words = [(t, reading_word(t))
                     for t in enumerate_ssyt(shape, max_letter)]
            packed = [t for t, w in words if len(set(w)) == max(w, default=0)]
            assert enumerate_ssyt(shape, max_letter, packed=True) == packed


def test_subpartitions_order():
    assert list(subpartitions((2, 2))) == [(2, 2), (2, 1), (2,), (1, 1), (1,), ()]
    assert list(subpartitions(())) == [()]


def test_partitions_of_order_and_bounds():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1),
                                      (1, 1, 1, 1)]
    assert list(partitions_of(5, max_len=2, max_part=3)) == [(3, 2)]
    assert list(partitions_of(0, max_len=0)) == [()]
    assert list(partitions_of(3, max_len=0)) == []


def test_enumerators_walk_deep_shapes():
    # explicit stacks: a 1,100-row column is past the recursion limit
    column = (1,) * 1100
    assert sum(1 for _ in subpartitions(column)) == 1101
    assert list(partitions_of(1100, max_part=1)) == [column]
    assert list(partitions_of(1100, max_len=1)) == [(1100,)]
    only = enumerate_ssyt(skew_shape(column, ()), 1100)
    assert [t.rows for t in only] == [tuple((x,) for x in range(1, 1101))]
    assert enumerate_ssyt(skew_shape(column, ()), 1100, packed=True) == only
    assert enumerate_ballot(skew_shape(column, ())) == only
    # a column longer than the alphabet has no filling
    assert enumerate_ssyt(skew_shape((1, 1, 1), ()), 2) == []


def test_glue():
    a = yamanouchi_tableau((2, 1))
    b = SkewTableau((3, 2), (2, 1), [(1,), (2,)])
    g = glue(a, b)
    assert g.rows == ((1, 1, 1), (2, 2))
    with pytest.raises(ValueError):
        glue(a, SkewTableau((3, 2), (1, 1), [(1, 1), (2,)]))


def test_json_round_trip_examples():
    for t in (T_BALLOT, EMPTY, SkewTableau((2, 2), (2, 2), ()), yamanouchi_tableau((3, 1))):
        assert from_json(to_json(t)) == t
    d = json.loads(to_json(T_BALLOT))
    assert d == {"outer": [4, 3, 2], "inner": [2, 1, 0],
                 "rows": [[1, 1], [1, 2], [2, 3]]}


def test_from_json_rejects_deep_nesting():
    # past the decoder's recursion limit, and just inside it, where showing
    # the bad value in the error message recurses too: ValueError either way
    limit = sys.getrecursionlimit()
    for depth in [*range(limit - 100, limit + 1), 100000]:
        with pytest.raises(ValueError):
            from_json('{"outer": ' + "[" * depth + "]" * depth + "}")
    with pytest.raises(ValueError, match="^JSON nested too deeply$"):
        from_json("[" * 100000 + "]" * 100000)


@pytest.mark.parametrize("text", ["5", "null", "[1]", '"rows"'])
def test_from_json_needs_an_object(text):
    # valid JSON that is not an object is a ValueError that says so, like a
    # bad field, not a TypeError from looking a field up in it
    with pytest.raises(ValueError, match="^expected an object with the fields "
                       f"outer, inner and rows, got {re.escape(text)}$"):
        from_json(text)


def test_json_errors_quote_a_bounded_prefix():
    # a long or deep bad value is shown by its first characters only
    deep: list = []
    for _ in range(500):
        deep = [deep]
    for value in ([[1]] * 100000, deep):
        with pytest.raises(ValueError, match=r"^expected an array of integers, "
                           r"got \[\[.*\.\.\.$") as exc:
            json_ints(value)
        assert len(str(exc.value)) < 100


def test_text_round_trip_exhaustive():
    for shape in all_shapes(5):
        for t in enumerate_ssyt(shape, 2):
            assert from_text(to_text(t)) == t
            assert from_json(to_json(t)) == t


def test_text_format_shape():
    assert to_text(T_BALLOT) == ". . 1 1\n. 1 2\n2 3"
    assert to_text(SkewTableau((2,), (2,), ())) == ". ."
    assert to_text(EMPTY) == ""


@given(st.integers(min_value=0, max_value=8))
def test_partitions_of_are_partitions(n):
    seen = set()
    for p in partitions_of(n):
        assert sum(p) == n
        assert as_partition(p) == p
        seen.add(p)
    assert len(seen) == len(list(partitions_of(n)))
