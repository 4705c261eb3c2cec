"""Exhaustive desk-scale property sweeps, shared by pytest and the CLI.

Each check enumerates every instance within an ambient box bound and records
failures into a report.  Factor fillings range over packed tableaux (entries
occupying an initial segment of the alphabet); any semistandard filling is
order-isomorphic to a packed one and all the checked operations depend only
on that order type, so the sweeps cover every alphabet.

The driver ``_sweep(name, instances, prop, key)`` times a check and counts
its instances; it records each (instance, expected, actual) that ``prop``
yields, and an ``Exception`` that ``prop`` raises as that instance's failure
(``key(instance)``, ``raises <Type>: <message>``), and goes on.  Knuth
commutativity and route geometry share one walk (``_thu_sweep``) that does
the same per filling.  A raising instance generator fails its check once.  A
report counts every failure and stores the first ``MAX_STORED_FAILURES``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain
from operator import sub
from typing import Iterator

from . import insertion
from .commutor import (TwoColorTableau, _infuse, _split_cells, _terminals,
                       rho1_internal, rho1_scratch, rho1_switching,
                       staged_decomposition)
from .insertion import (GluedPair, _corners, _forward_inplace, _freeze,
                        _inverse_inplace, _thaw, glued_pair)
from .knuth import knuth_class, p_tableau_rows
from .schur import lr_coefficient, schur_polynomial, schur_product
from .tableaux import (SkewShape, SkewTableau, _standard_order, as_partition,
                       enumerate_ballot, enumerate_ssyt, glue, partitions_of,
                       reading_word, standard_order, subpartitions,
                       tableau_content, yamanouchi_tableau)

MAX_STORED_FAILURES = 50


@dataclass
class VerifyReport:
    name: str
    instances: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0
    failure_count: int = 0

    @property
    def passed(self) -> bool:
        return not self.failure_count

    def fail(self, instance, expected, actual):
        self.failure_count += 1
        if len(self.failures) < MAX_STORED_FAILURES:
            self.failures.append((str(instance), str(expected), str(actual)))

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"{self.name:<22} {status}  instances={self.instances}"
                f"  failures={self.failure_count}  time={self.seconds:.1f}s")


def partitions_up_to(n):
    for k in range(n + 1):
        yield from partitions_of(k)


@lru_cache(maxsize=None)
def packed_fillings(outer, inner) -> tuple[SkewTableau, ...]:
    """Semistandard fillings whose letters form an initial segment 1..k."""
    shape = SkewShape(outer, inner)
    words = ((t, reading_word(t))
             for t in enumerate_ssyt(shape, max(shape.size, 1)))
    return tuple(t for t, w in words if len(set(w)) == max(w, default=0))


def lr_pairs(max_boxes: int):
    """Every ballot pair of partition shape with at most max_boxes boxes."""
    for lam in partitions_up_to(max_boxes):
        for mu in subpartitions(lam):
            shape = SkewShape(lam, mu)
            for nu in partitions_of(shape.size, max_len=len(lam)):
                for t in enumerate_ballot(shape, nu):
                    yield glued_pair(t)


def _pair_key(p: GluedPair) -> str:
    return f"{p.skew.outer}/{p.skew.inner} rows={p.skew.rows}"


def _raised(exc: Exception) -> str:
    return f"raises {type(exc).__name__}: {exc}"


def _guarded(instances, *reports):
    """instances, up to a raise, which fails each report once and ends them."""
    try:
        yield from instances
    except Exception as exc:  # a raising generator ends its check only
        for rep in reports:
            rep.fail("instance generator", "no exception", _raised(exc))


def _sweep(name: str, instances, prop, key) -> VerifyReport:
    """One check's report (see the module docstring)."""
    rep = VerifyReport(name)
    t0 = time.perf_counter()
    for instance in _guarded(instances, rep):
        rep.instances += 1
        try:
            for failure in prop(instance):
                rep.fail(*failure)
        except Exception as exc:  # a raising kernel fails this instance only
            rep.fail(key(instance), "no exception", _raised(exc))
    rep.seconds = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------
# criterion sweeps

def check_involution(max_size: int = 8, seed: int = 0) -> VerifyReport:
    """rho1 o rho1 = id on all ballot pairs, via switching and internally."""
    def prop(p):
        for name, rho in (("switching", rho1_switching), ("internal", rho1_internal)):
            back = rho(rho(p))
            if back != p:
                yield f"{name}: {_pair_key(p)}", _pair_key(p), _pair_key(back)

    return _sweep("involution", lr_pairs(max_size), prop, _pair_key)


def check_coincidence(max_size: int = 8, seed: int = 0) -> VerifyReport:
    """rho1_switching = rho1_internal = rho1_scratch on all ballot pairs."""
    def prop(p):
        a = rho1_switching(p)
        b = rho1_internal(p)
        c = rho1_scratch(p)
        if not (a == b == c):
            yield _pair_key(p), _pair_key(a), f"{_pair_key(b)} / {_pair_key(c)}"

    return _sweep("coincidence", lr_pairs(max_size), prop, _pair_key)


def check_confluence(max_size: int = 8, seed: int = 0) -> VerifyReport:
    """Every order of admissible switches, and infusion, ends on greedy's
    terminal board, and greedy's (S, H) stay Knuth equivalent to (V, U)."""
    def instances():
        for gamma in partitions_up_to(max_size):
            for lam in subpartitions(gamma):
                vs = packed_fillings(gamma, lam + (0,) * (len(gamma) - len(lam)))
                for mu in subpartitions(lam):
                    for u in packed_fillings(lam, mu + (0,) * (len(lam) - len(mu))):
                        infusion = [c for _x, c in reversed(standard_order(u))]
                        for v in vs:
                            yield u, v, infusion

    def prop(instance):
        u, v, infusion = instance
        if u.size == 0 or v.size == 0:
            return  # no switch can ever apply
        board = TwoColorTableau.from_pair(u, v)
        ends = _terminals(board.cells)
        end = next(ends)  # greedy's board
        s, h = _split_cells(board.outer, board.inner, end)
        want = tuple(p_tableau_rows(reading_word(t)) for t in (v, u))
        got = tuple(p_tableau_rows(reading_word(t)) for t in (s, h))
        if got != want:
            left = " and ".join(m for m, g, w in zip("SH", got, want) if g != w)
            yield (f"knuth: {u!r} {v!r}", f"P(V), P(U) = {want}",
                   f"{left} left its class: P(S), P(H) = {got}")
        alt = _infuse(board.cells, infusion)
        if alt != end:
            yield f"infusion: {u!r} {v!r}", end, alt
        alt = next((b for b in ends if b != end), None)
        if alt is not None:
            yield f"order: {u!r} {v!r}", end, alt

    return _sweep("confluence", instances(), prop, lambda i: f"{i[0]!r} {i[1]!r}")


# --- th:U and route geometry share one sweep ------------------------------

def _strictly_left(r1, r2):
    cols1 = dict((c[0], c[1]) for c in r1)
    for row, col in r2:
        if row in cols1 and not cols1[row] < col:
            return False
    return True


def _weakly_left(r1, r2):
    cols2 = dict((c[0], c[1]) for c in r2)
    for row, col in r1:
        if row in cols2 and not col <= cols2[row]:
            return False
    return True


def _route_pair_ok(first_row, first_tr, second_row, second_tr):
    """Relative position of two successive non-blank bumping routes."""
    if first_row >= second_row:
        # case (a): earlier route strictly left, earlier box strictly left
        # of and weakly below the later one
        b, bp = first_tr.created, second_tr.created
        return (_strictly_left(first_tr.route, second_tr.route)
                and b[1] < bp[1] and b[0] >= bp[0])
    # case (b): later route weakly left, later box weakly left of and
    # strictly below the earlier one
    b, bp = first_tr.created, second_tr.created
    return (_weakly_left(second_tr.route, first_tr.route)
            and bp[1] <= b[1] and bp[0] > b[0])


@lru_cache(maxsize=None)
def _class_of(word):
    """The Knuth class of word, sorted: its least member comes first."""
    return tuple(sorted(knuth_class(word, 100000)))


@lru_cache(maxsize=None)
def _thu_sweep(max_size: int, word_len: int) -> tuple[VerifyReport, VerifyReport]:
    """For each packed filling t, one walk applies every valid order word of
    length up to word_len once; then every member of each Knuth class met
    must be a walked word reaching the same state.

    The walk keeps one mutable copy of t and goes depth first.  At each row
    that ``_corners`` lists (exactly the insertable rows), it inserts in
    place, stores a tuple snapshot of the state, checks the route against
    the one before, walks on, and backtracks by reverse-bumping from the
    created cell, which must give back the vacated one.  States are frozen
    only to print a failure.

    Returns the knuth-commutativity report over the words walked and the
    route-geometry report over the route pairs met, both timed by the sweep.
    A filling whose walk raises, or whose backtrack gives back another cell,
    fails once in both and stops there: the words and route pairs reached
    before that count, the later ones do not."""
    knuth = VerifyReport("knuth-commutativity")
    route = VerifyReport("route-geometry")
    # read from the module at each sweep, so a kernel replaced there is the
    # one walked
    insert, uninsert = insertion._insert_inplace, insertion._uninsert_inplace

    def walk(w, prev_tr):
        """Apply each valid letter after w to the current filling's lists,
        walk on from there, and undo it."""
        for i in _corners(inner):
            tr = insert(inner, rows, i)
            v = w + (i,)
            after[v] = (tuple(inner), tuple(map(tuple, rows)))
            if prev_tr is not None and prev_tr.route and tr.route:
                route.instances += 1
                if not _route_pair_ok(w[-1], prev_tr, i, tr):
                    route.fail(f"{t!r} word={v}", "route geometry",
                               f"routes {prev_tr} then {tr}")
            if len(v) < word_len:
                walk(v, tr)
            back = uninsert(inner, rows, tr.created)
            if back != tr.vacated:
                raise ValueError(f"undoing word {v} gives back {back}, "
                                 f"not the vacated {tr.vacated}")

    t0 = time.perf_counter()
    fillings = (t for lam in partitions_up_to(max_size) for mu in subpartitions(lam)
                for t in packed_fillings(lam, mu + (0,) * (len(lam) - len(mu))))
    for t in _guarded(fillings, knuth, route):
        inner, rows = _thaw(t)
        # after[w]: the state reached by inserting at rows w[0], w[1], ... in
        # turn, filled in depth-first preorder
        after: dict = {}
        try:
            walk((), None)
            classes_done: set = set()
            for w, state in after.items():
                u = w[::-1]  # the applied word, reading right to left
                cls = _class_of(u)
                if cls[0] in classes_done:
                    continue
                classes_done.add(cls[0])
                for v in cls:
                    other = after.get(v[::-1])
                    if other is None:
                        knuth.fail(f"{t!r} v={v}", "v applies",
                                   f"u={u} applies, v does not")
                    elif other != state:
                        knuth.fail(f"{t!r} u={u} v={v}", f"{_freeze(*state)!r}",
                                   f"{_freeze(*other)!r}")
        except Exception as exc:  # a raising kernel fails this filling only
            for rep in (knuth, route):
                rep.fail(repr(t), "no exception", _raised(exc))
        knuth.instances += len(after)
    knuth.seconds = route.seconds = time.perf_counter() - t0
    return knuth, route


def check_knuth_commutativity(max_size: int = 7, seed: int = 0,
                              word_len: int = 5) -> VerifyReport:
    """Knuth-equivalent order words stay valid and act identically."""
    knuth, _route = _thu_sweep(max_size, word_len)
    return replace(knuth, failures=list(knuth.failures))  # the sweep is cached


def check_route_geometry(max_size: int = 7, seed: int = 0,
                         word_len: int = 5) -> VerifyReport:
    """Successive bumping routes keep their expected relative positions."""
    _knuth, route = _thu_sweep(max_size, word_len)
    return replace(route, failures=list(route.failures))


def check_skew_rsk(max_size: int = 6, seed: int = 0) -> VerifyReport:
    """Forward-then-inverse identity plus class preservation for all
    shared-border pairs within the ambient bound.  Each pair runs the two
    kernels on one copy of t's lists and freezes only to report a failure."""
    def instances():
        by_mu: dict = {}
        for lam in partitions_up_to(max_size):
            for mu in subpartitions(lam):
                by_mu.setdefault(mu, []).append(lam)
        for mu, lams in by_mu.items():
            # each filling with its P-tableau rows, standard order and lists
            side = [(t, p_tableau_rows(reading_word(t)), standard_order(t), _thaw(t))
                    for lam in lams
                    for t in packed_fillings(lam, mu + (0,) * (len(lam) - len(mu)))]
            for u_side in side:
                for t_side in side:
                    yield t_side, u_side

    def prop(instance):
        (t, w_t, _, (t_inner, t_rows)), (u, w_u, order, (_, u_rows_want)) = instance
        inner, rows = t_inner[:], [r[:] for r in t_rows]
        q_rows = _forward_inplace(inner, rows, order)
        q_inner = t.outer + (0,) * (len(rows) - len(t.outer))
        if p_tableau_rows(chain.from_iterable(reversed(rows))) != w_t:
            yield f"{t!r} {u!r}", "P = T class", f"{_freeze(inner, rows)!r}"
        if p_tableau_rows(chain.from_iterable(reversed(q_rows))) != w_u:
            yield f"{t!r} {u!r}", "Q = U class", f"{_freeze(q_inner, q_rows)!r}"
        # Q's standard order comes from Q's own cells, not the forward steps
        u_rows = _inverse_inplace(inner, rows, _standard_order(q_inner, q_rows))
        if inner != t_inner or rows != t_rows or u_rows != u_rows_want:
            u2 = _freeze((inner + [0] * len(u_rows))[:len(u_rows)], u_rows)
            yield f"{t!r} {u!r}", "round trip", f"{_freeze(inner, rows)!r} {u2!r}"

    return _sweep("skew-rsk", instances(), prop, lambda i: f"{i[0][0]!r} {i[1][0]!r}")


@lru_cache(maxsize=None)
def _schur_poly(lam, n_vars):
    return schur_polynomial(lam, n_vars)


def check_lr_oracle(max_size: int = 8, seed: int = 0) -> VerifyReport:
    """Ballot-tableau counts match the polynomial product, and the commutor
    witnesses the symmetry bijectively.  Both sides of the product identity
    are symmetric, so they are compared in the monomial basis: on partition
    exponents alpha only, s_mu s_nu as sum_beta s_mu[beta] s_nu[alpha-beta]."""
    def instances():
        for a in range(max_size + 1):
            for b in range(max_size + 1 - a):
                n_vars = max(1, a + b)
                alphas = [alpha + (0,) * (n_vars - len(alpha))
                          for alpha in partitions_of(a + b)]
                for mu in partitions_of(a):
                    for nu in partitions_of(b):
                        yield mu, nu, n_vars, alphas

    def prop(instance):
        mu, nu, n_vars, alphas = instance
        expansion = schur_product(mu, nu, max_rows=n_vars)
        small, big = sorted((_schur_poly(mu, n_vars), _schur_poly(nu, n_vars)),
                            key=len)
        for alpha in alphas:
            # a negative exponent of alpha - beta misses in big
            lhs = sum(c * big.get(tuple(map(sub, alpha, beta)), 0)
                      for beta, c in small.items())
            rhs = sum(c * _schur_poly(lam, n_vars).get(alpha, 0)
                      for lam, c in expansion.items())
            if lhs != rhs:
                yield f"mu={mu} nu={nu} alpha={alpha}", lhs, rhs
                break
        for lam, c in expansion.items():
            c_rev = lr_coefficient(lam, nu, mu)
            if c_rev != c:
                yield f"{lam} {mu} {nu}", c, c_rev
            witnesses = enumerate_ballot(SkewShape(lam, mu), nu)
            image = {rho1_switching(glued_pair(t)).skew for t in witnesses}
            target = set(enumerate_ballot(SkewShape(lam, nu), mu))
            if image != target:
                yield (f"{lam} {mu} {nu}", "bijection onto opposite ballot set",
                       f"{len(image)} vs {len(target)}")

    return _sweep("lr-oracle", instances(), prop, lambda i: f"mu={i[0]} nu={i[1]}")


def check_recursion(max_size: int = 8, seed: int = 0) -> VerifyReport:
    """Staged switching stops with the expected row structure, and the
    commutor factors through the intermediate state, wherever it applies."""
    def instances():
        for p in lr_pairs(max_size):
            t = p.skew
            mu, np1 = as_partition(t.inner), len(t.outer)
            if np1 < 2 or not mu or len(mu) > np1 - 1:
                continue
            f_word = tuple(x for x in t.rows[-1] if x <= np1 - 1)
            if f_word:
                yield p, mu, f_word

    def prop(instance):
        p, mu, f_word = instance
        key = _pair_key(p)
        d, s, f_hat, big_d, q = staged_decomposition(p)
        if any(x != d for x in big_d) or len(big_d) != len(f_word) - len(f_hat) \
                or not big_d:
            yield (key, "D = d^{|F|-|F hat|}, nonempty",
                   f"d={d} D={big_d} F={f_word} Fhat={f_hat}")
        if any(q.rows[k] for k in range(d - 1)):
            yield key, "Q empty above row d", f"{q!r}"
        nu = tableau_content(p.skew)
        if p_tableau_rows(reading_word(s)) != yamanouchi_tableau(nu).rows:
            yield key, "S = Y_nu class", f"{s!r}"
        shifted = tuple((d + k,) * mu[d - 1 + k] for k in range(len(mu) - d + 1)
                        if mu[d - 1 + k])
        if p_tableau_rows(reading_word(q)) != shifted:
            yield key, "Q = shifted Yamanouchi class", f"{q!r}"
        full = rho1_switching(p)
        part = rho1_switching(glued_pair(s))
        combined = GluedPair(part.yam, glue(part.skew, q))
        if combined != full:
            yield key, _pair_key(full), _pair_key(combined)

    return _sweep("recursion", instances(), prop, lambda i: _pair_key(i[0]))


CHECKS = {
    "involution": check_involution,
    "coincidence": check_coincidence,
    "confluence": check_confluence,
    "knuth-commutativity": check_knuth_commutativity,
    "route-geometry": check_route_geometry,
    "skew-rsk": check_skew_rsk,
    "lr-oracle": check_lr_oracle,
    "recursion": check_recursion,
}


def run_checks(names, max_size: int) -> Iterator[VerifyReport]:
    """Raise ``ValueError`` at once on a negative size or an unknown name;
    run the named checks lazily, as the reports are iterated."""
    if max_size < 0:
        raise ValueError(f"max_size must be at least 0, got {max_size}")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; valid names: "
                         f"{', '.join(sorted(CHECKS))}")
    return (CHECKS[n](max_size=max_size) for n in names)
