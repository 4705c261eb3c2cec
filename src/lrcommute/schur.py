"""LR coefficients by ballot enumeration, with a polynomial oracle.

``lr_coefficient`` and ``schur_product`` count ballot tableaux directly; the
generating-function route, ``schur_polynomial``, is kept as an independent
cross-check and never feeds the counts.  The oracle compares in the monomial
basis: symmetric polynomials agree exactly when their coefficients agree on
the monomials whose exponent is a partition (Macdonald, I.2).
"""

from __future__ import annotations

from .tableaux import (SkewShape, as_partition, contains, enumerate_ballot,
                       enumerate_ssyt, partitions_of, skew_shape,
                       tableau_content)

# sparse polynomial: {exponent tuple: integer coefficient}, fixed arity
Poly = dict[tuple[int, ...], int]


def lr_coefficient(lam, mu, nu) -> int:
    """Number of ballot tableaux of shape lam/mu and content nu."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    if not contains(lam, mu):
        return 0
    if sum(lam) - sum(mu) != sum(nu):
        return 0
    return len(enumerate_ballot(SkewShape(lam, mu + (0,) * (len(lam) - len(mu))), nu))


def schur_product(mu, nu, max_rows: int) -> dict[tuple[int, ...], int]:
    """Expansion of the product of two Schur functions over shapes with at
    most max_rows rows, zero terms omitted."""
    mu, nu = as_partition(mu), as_partition(nu)
    if max_rows < max(len(mu), len(nu)):
        raise ValueError("max_rows too small for the factors")
    total = sum(mu) + sum(nu)
    terms = {}
    # c^lam_{mu,nu} != 0 forces lam inside mu + nu and l(lam) <= l(mu) + l(nu)
    for lam in partitions_of(total, max_len=min(max_rows, len(mu) + len(nu)),
                             max_part=sum(mu[:1]) + sum(nu[:1])):
        c = lr_coefficient(lam, mu, nu)
        if c:
            terms[lam] = c
    return terms


def schur_polynomial(lam, n_vars: int) -> Poly:
    """The tableau generating function: sum of content monomials over all
    semistandard fillings of lam with entries at most n_vars."""
    lam = as_partition(lam)
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
