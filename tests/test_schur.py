from collections import Counter
from math import factorial, prod

from lrcommute.schur import _kostka_counter, lr_coefficient, schur_product
from lrcommute.tableaux import (SkewShape, contains, enumerate_ballot,
                                enumerate_ssyt, partitions_of, skew_shape,
                                tableau_content)

import pytest

# sparse polynomial: {exponent tuple: integer coefficient}, fixed arity
Poly = dict[tuple[int, ...], int]


def schur_polynomial(lam, n_vars: int) -> Poly:
    """The oracle for the Kostka counter: the tableau generating function,
    the sum of content monomials over all semistandard fillings of lam with
    entries at most n_vars."""
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    if len(lam) > n_vars:
        return {}
    poly: Poly = {}
    for t in enumerate_ssyt(skew_shape(lam, ()), n_vars):
        c = tableau_content(t)
        key = c + (0,) * (n_vars - len(c))
        poly[key] = poly.get(key, 0) + 1
    return poly


def test_lr_coefficient_examples():
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            assert lr_coefficient(lam, mu, ()) == (1 if lam == mu else 0)
    assert lr_coefficient((2,), (1,), (2,)) == 0  # size mismatch
    assert lr_coefficient((1, 1), (2,), (1,)) == 0  # not contained


def test_lr_coefficient_deep_row_and_column():
    # 1,100 cells in one row or one column, past the default recursion limit
    assert lr_coefficient((1100,), (), (1100,)) == 1
    assert lr_coefficient((1,) * 1100, (), (1,) * 1100) == 1


def test_lr_coefficient_deep_one_part():
    # one strip of 654,321 cells, in the one row that can take them
    assert lr_coefficient((654321, 654321), (654321,), (654321,)) == 1


def _ballot_count(lam, mu, nu):
    if not contains(lam, mu):
        return 0
    return len(enumerate_ballot(SkewShape(lam, mu + (0,) * (len(lam) - len(mu))), nu))


def test_lr_coefficient_counts_the_ballot_tableaux():
    triples = 0
    for total in range(8):
        for a in range(total + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    for lam in partitions_of(total):
                        assert lr_coefficient(lam, mu, nu) == \
                            _ballot_count(lam, mu, nu), (lam, mu, nu)
                        triples += 1
    assert triples == 2760


def test_lr_coefficient_symmetric_small():
    for total in range(7):
        for a in range(total + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    for lam in partitions_of(total):
                        assert lr_coefficient(lam, mu, nu) == \
                            lr_coefficient(lam, nu, mu)


def test_schur_product_examples():
    assert schur_product((1,), (1,), 2) == {(2,): 1, (1, 1): 1}
    assert schur_product((), (2, 1), 3) == {(2, 1): 1}
    expansion = schur_product((2, 1), (2, 1), 4)
    assert expansion[(3, 2, 1)] == 2
    assert expansion[(2, 2, 1, 1)] == 1
    assert (4, 2) in expansion
    with pytest.raises(ValueError):
        schur_product((2, 1), (1,), 1)


def test_schur_product_lists_the_ballot_tableaux_of_each_shape():
    delta = (5, 4, 3, 2, 1)
    expected = {}
    for lam in partitions_of(30, max_len=10, max_part=10):
        c = _ballot_count(lam, delta, delta)
        if c:
            expected[lam] = c
    assert schur_product(delta, delta, 30) == expected
    assert len(expected) == 1433


def test_kostka_counter_reads_the_schur_polynomial():
    kostka = _kostka_counter()
    for size in range(7):
        for lam in partitions_of(size):
            for n in range(1, size + 2):
                poly = schur_polynomial(lam, n)
                for kappa in partitions_of(size, max_len=n):
                    assert kostka(lam, kappa) == \
                        poly.get(kappa + (0,) * (n - len(kappa)), 0), (lam, kappa)
    assert kostka((), ()) == 1 and kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((1,), ()) == 0 and kostka((1, 1), (2,)) == 0


def test_schur_polynomial_examples():
    assert schur_polynomial((1,), 2) == {(1, 0): 1, (0, 1): 1}
    assert schur_polynomial((1, 1), 2) == {(1, 1): 1}
    s21 = schur_polynomial((2, 1), 3)
    assert sum(s21.values()) == 8
    assert schur_polynomial((1, 1, 1), 2) == {}


def test_schur_polynomial_homogeneous_and_symmetric():
    # symmetry is what lets lr-oracle compare only partition exponents
    terms = 0
    for n in range(7):
        for lam in partitions_of(n):
            poly = schur_polynomial(lam, 6)
            assert all(sum(e) == n for e in poly)
            for e, c in poly.items():
                assert poly[tuple(sorted(e, reverse=True))] == c, (lam, e)
            # and each present exponent brings all its rearrangements
            orbits = Counter(tuple(sorted(e, reverse=True)) for e in poly)
            for alpha, k in orbits.items():
                assert k == factorial(6) // prod(
                    factorial(m) for m in Counter(alpha).values()), (lam, alpha)
            terms += len(poly)
    assert terms == 4550
