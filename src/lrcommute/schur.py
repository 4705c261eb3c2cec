"""LR coefficients by the row-by-row rule, with a tableau-count oracle.

``lr_coefficient`` and ``schur_product`` share one forward pass over the
letters of the content, ``_lr_counts``: letter k adds a horizontal strip
whose cells in rows 1..r number at most the (k-1)'s in rows 1..r-1 (the
reverse reading word is ballot), and equal states merge, so no tableau is
listed; Buch's ``lrcalc`` iterates the same rule.  The oracle never calls
it: ``_kostka_counter`` counts semistandard tableaux of a shape and a content
as chains of horizontal strips, and ``schur_polynomial`` lists them.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import sub

from .tableaux import (as_partition, contains, enumerate_ssyt, skew_shape,
                       tableau_content)

# sparse polynomial: {exponent tuple: integer coefficient}, fixed arity
Poly = dict[tuple[int, ...], int]


def lr_coefficient(lam, mu, nu) -> int:
    """Number of ballot tableaux of shape lam/mu and content nu."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    if not contains(lam, mu) or sum(lam) - sum(mu) != sum(nu):
        return 0
    return _lr_counts(mu, nu, lam).get(lam, 0)


def schur_product(mu, nu, max_rows: int) -> dict[tuple[int, ...], int]:
    """Expansion of the product of two Schur functions over shapes with at
    most max_rows rows, zero terms omitted."""
    mu, nu = as_partition(mu), as_partition(nu)
    if max_rows < max(len(mu), len(nu)):
        raise ValueError("max_rows too small for the factors")
    # c^lam_{mu,nu} != 0 forces lam inside mu + nu and l(lam) <= l(mu) + l(nu)
    rows = min(max_rows, len(mu) + len(nu))
    return _lr_counts(mu, nu, (sum(mu[:1]) + sum(nu[:1]),) * rows)


def _lr_counts(mu, nu, outer) -> dict[tuple[int, ...], int]:
    """The nonzero c^lam_{mu,nu} over lam inside ``outer``, which bounds each
    row's length and by its length the rows, for normalised partitions.  A
    state is a shape and its last letter's (row, cells) pairs; letter 0 fills
    row -1, so only the shape bounds letter 1."""
    states = {(mu, ((-1, sum(nu)),)): 1}
    for k, size in enumerate(nu, 1):
        grown: dict = {}
        for (shape, prev), n in states.items():
            for new, counts in _strips(shape, prev, size, outer):
                # the last letter's counts bound nothing: merge by shape
                key = new if k == len(nu) else (new, counts)
                grown[key] = grown.get(key, 0) + n
        states = grown
    return states if nu else {mu: 1}


def _strips(shape, prev, size, outer):
    """Each (new shape, counts) that adds ``size`` cells of the next letter
    to ``shape`` as a horizontal strip inside ``outer``, with at most as many
    in rows 0..r as the previous letter has in rows 0..r-1.  ``prev`` and
    counts are (row, cells) pairs.  Partial strips grow one row that can take
    cells at a time, and the last such row takes what the others leave."""
    above = dict(prev)
    padded = shape + (0,)
    slots, cap = [], 0  # (row, room, cap on the letter's cells up to row)
    # no cell of the letter sits in or above the previous letter's top row
    for r in range(prev[0][0] + 1, min(len(padded), len(outer))):
        cap += above.get(r - 1, 0)
        room = (min(outer[r], padded[r - 1]) if r else outer[0]) - padded[r]
        if room > 0:
            slots.append((r, room, cap))
    if not slots:
        return
    strips = [((), 0)]  # (counts, cells) over the rows so far
    below = sum(room for _r, room, _cap in slots)
    *upper, (last, room, cap) = slots
    for r, room_r, cap_r in upper:
        below -= room_r  # the rows under r must take what r leaves
        strips = [(counts + ((r, a),) if a else counts, used + a)
                  for counts, used in strips
                  for a in range(max(0, size - used - below),
                                 min(room_r, cap_r - used, size - used) + 1)]
    for counts, used in strips:
        a = size - used
        if a <= min(room, cap - used):
            counts += ((last, a),) if a else ()
            new = list(padded)
            for r, a in counts:
                new[r] += a
            yield tuple(new) if new[-1] else tuple(new[:-1]), counts


def _kostka_counter():
    """A memoised K(lam, kappa), for partitions: the number of semistandard
    tableaux of shape lam and content kappa, counted as chains of horizontal
    strips, the last letter's taken off first (one level per part of kappa)."""
    @cache
    def kostka(lam, kappa):
        if len(lam) > len(kappa):  # a column longer than the alphabet
            return 0
        if not kappa:
            return 1
        total = 0
        # the strip takes cut[i] cells off row i, leaving at least row i + 1
        for cut in product(*(range(a - b + 1) for a, b in zip(lam, lam[1:] + (0,)))):
            if sum(cut) == kappa[-1]:
                rho = tuple(map(sub, lam, cut))
                total += kostka(rho if rho[-1] else rho[:-1], kappa[:-1])
        return total
    return kostka


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
