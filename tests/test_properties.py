"""Property tests over random small towers, codes and message bounds.

The raw word scan (coset walk over all order**n words) and the class scan
(annihilator sieve over the candidate subspaces) share no code beyond
field arithmetic, so agreement on random codes checks both.  The
same holds for the single-word search and the codeword-enumerating
oracle, checked on towers with random irreducible moduli.  The rank
echelon and the span automaton are checked against an elimination over
the prime field, the least-weight kernels against the brute-force first
minimum on both rank routes, the class scan's rows against the per-class witness
search, and that search, which walks the levels upward, against a
top-down reference descent that accepts by Ore's criterion, and its
per-code plan of candidates against the streamed enumeration.  The
search, which reads a word's q-degree from per-code functionals and
never interpolates, is checked against the interpolant's own
classification.  The packed characteristic-2 sieve is
checked against the digit-list sieve it replaced for p = 2, entry for
entry, and the code-level annihilator kernel against the roots it must
have.  The F_p-span kernel that lists codewords, subfields, spans and
sieve rows is checked against a sum of digit multiples, and the
translation route it adds with against ``add``; the oracle on the odd
table route's addition rows, under every state of their memo, against
the full-weight reference of ``test_code``.  The Hamming class
histogram at k = 1 is checked against its closed form over set partitions.
"""

import itertools
import math
import operator
import random
from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from gablab import (NEG_INF, FieldCtx, GabidulinCode, LinPoly, SubspaceBasis,  # noqa: E402
                    annihilator, classify_poly, covering_radius_raw,
                    covering_radius_scan, dist_to_code_exhaustive,
                    distance_by_search, subspace_bases)
import gablab.code  # noqa: E402
from gablab import deephole  # noqa: E402
from gablab import field  # noqa: E402
from gablab.code import _least_weight  # noqa: E402
from gablab.deephole import (DEFAULT_CLASS_SCAN_CAP, DEFAULT_SUBSPACE_CAP,  # noqa: E402
                             _accepting_cover,
                             _witness_codes)
from gablab.field import (_SPAN_AUTOMATON_LIMIT, _TABLE_LIMIT,  # noqa: E402
                          _base_digits, _combine_rows, _span_flat, gaussian_binomial)
from gablab.linpoly import _annihilator_codes, _eval_codes  # noqa: E402
from test_code import _reference_distance  # noqa: E402

WORD_LIMIT = 4096


# (p, s, m, n) with order**n <= WORD_LIMIT.  One word length n = 1 per
# (p, s) keeps q = 9, where no n = 2 fits.
SHAPES = [(p, s, m, n) for p in (2, 3) for s in (1, 2) for m in range(1, 7)
          for n in range(1, m + 1)
          if (p ** (s * m)) ** n <= WORD_LIMIT and (n > 1 or m == 1)]


@lru_cache(maxsize=None)
def _ctx(p: int, s: int, m: int) -> FieldCtx:
    return FieldCtx(p, s, m)


@st.composite
def small_codes(draw):
    """A tower with p in {2, 3}, s in {1, 2} and its default modulus,
    n random independent points and a random k in 1..n."""
    p, s, m, n = draw(st.sampled_from(SHAPES))
    ctx = _ctx(p, s, m)
    points = draw(st.lists(st.integers(1, ctx.order - 1), min_size=n, max_size=n))
    assume(ctx.span_dim(points) == n)
    k = draw(st.integers(1, n))
    return GabidulinCode(ctx, points, k)


# (p, s, m, n) for the sieve property: p in {2, 3, 5}, fields of order at
# most 1024 and every 3 <= n <= m (n = 2 leaves no sieve level at any k).
# k is drawn so that the per-class search that checks the scan tries at
# most DESCENT_BUDGET candidates: units times the candidates of levels
# k..n-1.
DESCENT_BUDGET = 10_000
SIEVE_SHAPES = [(p, s, m, n) for p in (2, 3, 5) for s in (1, 2) for m in range(2, 7)
                for n in range(3, m + 1) if p ** (s * m) <= 1024]


def _descent_cost(ctx: FieldCtx, n: int, k: int) -> int:
    units = 1 + (ctx.order ** (n - k) - 1) // (ctx.order - 1)
    return units * sum(gaussian_binomial(n, t, ctx.q) for t in range(k, n))


@st.composite
def sieve_codes(draw):
    """A tower with p in {2, 3, 5}, s in {1, 2}, n random independent
    points, and k in 1..n within the descent budget; k = n - 1 and k = n,
    which leave the sieve no level, are included."""
    p, s, m, n = draw(st.sampled_from(SIEVE_SHAPES))
    ctx = _ctx(p, s, m)
    points = draw(st.lists(st.integers(1, ctx.order - 1), min_size=n, max_size=n))
    assume(ctx.span_dim(points) == n)
    low = next(k for k in range(1, n + 1) if _descent_cost(ctx, n, k) <= DESCENT_BUDGET)
    return GabidulinCode(ctx, points, draw(st.integers(low, n)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(code=sieve_codes())
@example(code=GabidulinCode(_ctx(5, 1, 3), (1, 5, 25), 1))
def test_sieve_rows_equal_the_descent_per_class(code):
    # Every unit's own class, and 64 other classes that take a unit's
    # answer through a scalar.
    order, width = code.ctx.order, code.n - code.k
    classes = order ** width
    units = {0}.union(*(range(order ** j, 2 * order ** j) for j in range(width)))
    checked = units | set(random.Random(classes).sample(range(classes), min(classes, 64)))
    for metric in ("rank", "hamming"):
        rows = list(covering_radius_scan(code, metric).rows())
        for idx in sorted(checked):
            _, codes, dist, deep, wit = rows[idx]
            res = classify_poly(code, LinPoly(code.ctx, codes), metric)
            assert (dist, deep, wit) == (res.distance, res.is_deep_hole,
                                         _witness_codes(res.witness))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(code=small_codes())
def test_raw_histogram_is_class_histogram_times_class_size(code):
    per_class = code.ctx.order ** code.k
    for metric in ("rank", "hamming"):
        radius, hist = covering_radius_raw(code, metric)
        scan = covering_radius_scan(code, metric)
        assert radius == scan.radius
        assert hist == {d: c * per_class for d, c in scan.histogram.items()}
        # A class's row is its orbit unit's answer; it must be the class's own.
        for _, codes, dist, deep, wit in scan.rows():
            res = classify_poly(code, LinPoly(code.ctx, codes), metric)
            assert (dist, deep, wit) == (res.distance, res.is_deep_hole,
                                         _witness_codes(res.witness))


def _set_partition_block_sizes(n: int) -> list[list[int]]:
    """The block sizes of every set partition of n elements: each element
    joins one of the blocks so far or opens a new one."""
    parts = [[]]
    for _ in range(n):
        parts = ([p[:j] + [p[j] + 1] + p[j + 1:] for p in parts for j in range(len(p))]
                 + [p + [1] for p in parts])
    return parts


def _hamming_k1_histogram(order: int, n: int) -> dict[int, int]:
    """The Hamming class histogram of any [n, 1] code over F_Q, Q = order,
    in closed form.  Over the code a*g, a word u is at distance n minus the
    largest fibre of its ratio vector u_i/g_i, and u -> u/g is a bijection.
    The maps [n] -> F_Q whose fibres form the set partition pi number
    Q(Q-1)...(Q-|pi|+1); a class is Q words."""
    hist: dict[int, int] = {}
    for sizes in _set_partition_block_sizes(n):
        d = n - max(sizes)
        hist[d] = hist.get(d, 0) + math.perm(order, len(sizes))
    return {d: c // order for d, c in sorted(hist.items())}


# (p, s, m, n) for the closed form: n >= 2, fields of order at most 2**16
# and at most DEFAULT_CLASS_SCAN_CAP classes, so the scan runs uncapped.
CLOSED_FORM_SHAPES = [(p, s, m, n) for p in (2, 3, 5) for s in (1, 2) for m in range(2, 17)
                      for n in range(2, m + 1)
                      if p ** (s * m) <= 1 << 16
                      and p ** (s * m * (n - 1)) <= DEFAULT_CLASS_SCAN_CAP]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(shape=st.sampled_from(CLOSED_FORM_SHAPES), data=st.data())
def test_hamming_k1_histogram_is_the_closed_form(shape, data):
    p, s, m, n = shape
    ctx = _ctx(p, s, m)
    points = data.draw(st.lists(st.integers(1, ctx.order - 1), min_size=n, max_size=n))
    assume(ctx.span_dim(points) == n)
    scan = covering_radius_scan(GabidulinCode(ctx, points, 1), "hamming")
    assert scan.histogram == _hamming_k1_histogram(ctx.order, n)
    # A deep unit is a monic class at distance n - 1: an injective ratio
    # vector, up to the scalars.
    deep_units = sum(deep for block in scan.blocks for _, deep, _ in block)
    assert deep_units == math.perm(ctx.order - 2, n - 2)


# (p, s, m, n) for the search-vs-oracle property: p in {2, 3, 5}, n >= 2
# (at n = 1 every word is a codeword) and order**n <= 2**16; k is drawn
# with order**k <= CODEWORD_LIMIT, so the oracle's enumeration stays short.
CODEWORD_LIMIT = 1024
SEARCH_SHAPES = [(p, s, m, n) for p in (2, 3, 5) for s in (1, 2) for m in range(1, 7)
                 for n in range(2, m + 1)
                 if (p ** (s * m)) ** n <= 1 << 16]


@lru_cache(maxsize=None)
def _irreducibles(p: int, d: int) -> list[tuple[int, ...]]:
    """Every monic irreducible of degree d over F_p, degree 0 first: the
    candidates FieldCtx accepts as a modulus."""
    out = []
    for low in range(p ** d):
        coeffs = tuple((low // p ** i) % p for i in range(d)) + (1,)
        try:
            FieldCtx(p, 1, d, modulus=coeffs)
        except ValueError as exc:
            assert str(exc) == "modulus is reducible over the prime field"
            continue
        out.append(coeffs)
    return out


@lru_cache(maxsize=None)
def _ctx_with(p: int, s: int, m: int, modulus: tuple[int, ...]) -> FieldCtx:
    return FieldCtx(p, s, m, modulus=modulus)


@st.composite
def small_codes_and_words(draw):
    """A tower with a random irreducible modulus, random independent
    points, a random k and three words: uniform, a codeword plus an error
    of F_q-rank <= r and a codeword plus an error on r positions, with r
    random in 1..n-1."""
    p, s, m, n = draw(st.sampled_from(SEARCH_SHAPES))
    ctx = _ctx_with(p, s, m, draw(st.sampled_from(_irreducibles(p, s * m))))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    points = []
    while len(points) < n:
        g = rng.randrange(1, ctx.order)
        if ctx.span_dim(points + [g]) == len(points) + 1:
            points.append(g)
    k_max = max(k for k in range(1, n + 1) if ctx.order ** k <= CODEWORD_LIMIT)
    code = GabidulinCode(ctx, points, rng.randint(1, k_max))
    scalars = [e.code for e in ctx.subfield_elements()]
    words = [[rng.randrange(ctx.order) for _ in range(n)]]
    for kind in ("rank", "support"):
        msg = LinPoly(ctx, [rng.randrange(ctx.order) for _ in range(code.k)])
        err = [0] * n
        r = rng.randint(1, n - 1)
        if kind == "rank":
            for _ in range(r):
                e = rng.randrange(1, ctx.order)
                err = [ctx.add(x, ctx.mul(rng.choice(scalars), e)) for x in err]
        else:
            for j in rng.sample(range(n), r):
                err[j] = rng.randrange(1, ctx.order)
        words.append([ctx.add(a, b) for a, b in zip(code.encode(msg).codes, err)])
    return code, [code.word(w) for w in words]


# (m, n) per s for the packed-sieve property: p = 2, every 3 <= n <= m,
# fields of order at most 64 for s = 1 and 256 for s = 2; k is drawn so
# that the digit path walks at most PACKED_CLASS_LIMIT classes.
PACKED_CLASS_LIMIT = 1 << 14
PACKED_SHAPES = {s: [(m, n) for m in range(2, 9) for n in range(3, m + 1)
                     if 2 ** (s * m) <= (64 if s == 1 else 256)] for s in (1, 2)}


@st.composite
def packed_codes(draw):
    """A p = 2 tower (s drawn first, so both are common) with a random
    irreducible modulus, n random independent points and k in 1..n with at
    most PACKED_CLASS_LIMIT classes; k = n - 1 and k = n leave the sieve
    no level."""
    s = draw(st.sampled_from((1, 2)))
    m, n = draw(st.sampled_from(PACKED_SHAPES[s]))
    ctx = _ctx_with(2, s, m, draw(st.sampled_from(_irreducibles(2, s * m))))
    points = draw(st.lists(st.integers(1, ctx.order - 1), min_size=n, max_size=n))
    assume(ctx.span_dim(points) == n)
    low = next(k for k in range(1, n + 1) if ctx.order ** (n - k) <= PACKED_CLASS_LIMIT)
    return GabidulinCode(ctx, points, draw(st.integers(low, n)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(code=packed_codes(), seed=st.integers(0, 2 ** 32 - 1))
@example(code=GabidulinCode(_ctx(2, 1, 4), (1, 2, 4, 8), 1), seed=0)
@example(code=GabidulinCode(_ctx(2, 2, 3), (1, 2, 4), 1), seed=0)
# n - k = 4, which no drawn code reaches: g of q-degree up to 3 at level k+1.
@example(code=GabidulinCode(_ctx_with(2, 1, 5, (1, 0, 0, 1, 0, 1)), (1, 3, 7, 15, 31), 1),
         seed=0)
def test_packed_sieve_equals_the_digit_sieve(code, seed):
    # The packed route is the one _sieve takes for p = 2; the digit route,
    # put in its place, is the reference, entry for entry, witness codes
    # included.
    for metric in ("rank", "hamming"):
        packed = deephole._sieve(code, metric)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(deephole, "_fill_packed", deephole._fill_digits)
            assert packed == deephole._sieve(code, metric)
    # The annihilator kernel on the code's candidates: monic of q-degree
    # dim, vanishing on the whole span, equal to the LinPoly wrapper; a
    # generator in the span of the others is refused by both.
    ctx = code.ctx
    for t in range(code.n + 1):
        for basis in itertools.islice(subspace_bases(code.span, t), 20):
            a = _annihilator_codes(ctx, basis.codes)
            assert a == annihilator(basis).codes
            assert len(a) == t + 1 and a[-1] == 1
            assert all(_eval_codes(ctx, a, u) == 0 for u in basis.element_codes())
    rng = random.Random(seed)
    basis = rng.choice(list(itertools.islice(subspace_bases(code.span, rng.randint(1, code.n)),
                                             20)))
    coeffs = [rng.choice(ctx._subfield_codes()) for _ in range(basis.dim)]
    extra = _combine_rows(ctx, [coeffs], basis.codes)[0]
    at = rng.randint(0, basis.dim)
    dependent = SubspaceBasis._unchecked(ctx, basis.codes[:at] + (extra,) + basis.codes[at:])
    for build in (lambda: annihilator(dependent),
                  lambda: _annihilator_codes(ctx, dependent.codes)):
        with pytest.raises(ValueError, match="^dependent generators passed to annihilator$"):
            build()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=small_codes_and_words())
def test_search_distance_equals_oracle(case):
    code, words = case
    for w in words:
        for metric in ("rank", "hamming"):
            res = distance_by_search(code, w, metric)
            assert res.distance == dist_to_code_exhaustive(code, w, metric)[0]
            assert res.is_deep_hole == (res.distance == code.n - code.k)


def _descent(code, f, metric):
    """Reference for classify_poly: (distance, deep flag, witness codes)
    from the top-down walk t = deg_q f, ..., k that stops at the first
    level with an accepting candidate.  Level k always accepts.

    Acceptance shares no code with the search's Moore solves.  It is Ore's
    criterion: some v of q-degree < k agrees with f on U exactly when f - v
    = g o A_U, that is when f's right remainder by the annihilator A_U has
    q-degree < k (t >= k, so that remainder is v).  U is each subspace of
    the point span in rank, and the span of each subset of the points in
    Hamming, in canonical order."""
    n, k, d = code.n, code.k, f.deg_q
    if d is NEG_INF or d < k:
        return 0, n == k, None
    points = code.span.codes
    for t in range(d, k - 1, -1):
        if metric == "rank":
            cands = ((sub, sub) for sub in subspace_bases(code.span, t))
        else:
            cands = ((idx, SubspaceBasis(code.ctx, [points[i] for i in idx]))
                     for idx in itertools.combinations(range(n), t))
        for wit, span in cands:
            if f.right_divmod(annihilator(span))[1].deg_q < k:
                return n - t, t == k, _witness_codes(wit)
    raise AssertionError("level t = k must always accept")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=small_codes_and_words())
def test_ascent_equals_the_reference_descent(case):
    code, words = case
    for w in words:
        f = code.sigma_inverse(w)
        for metric in ("rank", "hamming"):
            res = classify_poly(code, f, metric)
            assert (res.distance, res.is_deep_hole,
                    _witness_codes(res.witness)) == _descent(code, f, metric)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=small_codes_and_words())
def test_plan_route_equals_the_streamed_route(case):
    # With the plan limit at 0 every level streams as candidates are drawn;
    # with the default limit the levels are listed once per code and a
    # second search of a word is served from the plan.
    code, words = case
    streamed = GabidulinCode(code.ctx, code.span.codes, code.k)

    def answer(c, w, metric):
        res = distance_by_search(c, w, metric)
        return res.distance, res.bound, res.is_deep_hole, _witness_codes(res.witness)

    for metric in ("rank", "hamming"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(deephole, "_PLAN_LIMIT", 0)
            expected = [answer(streamed, w, metric) for w in words]
        assert not any(isinstance(key[0], int) for key in streamed._plan)
        for _ in range(2):
            assert [answer(code, w, metric) for w in words] == expected


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=small_codes_and_words())
def test_first_k_witness_is_the_first_enumerated_candidate(case):
    # The first k-dimensional candidate in canonical order has pivots
    # 0..k-1 and every free cell 0, so the witness is read off the code
    # for every k, with nothing kept in the plan.
    code, _ = case
    for k in range(1, code.n + 1):
        c = GabidulinCode(code.ctx, code.span.codes, k)
        first = next(subspace_bases(c.span, k))
        assert deephole._first_k_witness(c, "rank").codes == first.codes
        first = next(deephole._candidates(c, k, "hamming"))[0]
        assert deephole._first_k_witness(c, "hamming") == first
        assert c._plan == {}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=small_codes_and_words(), seed=st.integers(0, 2 ** 32 - 1))
def test_search_without_interpolation_equals_classify_poly(case, seed):
    # The search reads the q-degree from the functionals a_i(w) and never
    # interpolates; classify_poly starts from the interpolant itself.  Words
    # of every planted q-degree 0..n-1 (below k: codewords) and the zero
    # word ride along with the case's three.
    code, words = case
    ctx, n, k = code.ctx, code.n, code.k
    rng = random.Random(seed)
    for deg in range(n):
        coeffs = [rng.randrange(ctx.order) for _ in range(deg)] + [rng.randrange(1, ctx.order)]
        words.append(code.evaluate(LinPoly(ctx, coeffs)))
    words.append(code.word([0] * n))
    for w in words:
        f = code.sigma_inverse(w)
        assert deephole._class_degree(code, w.codes) == (f.deg_q if f.deg_q >= k else NEG_INF)
        for metric in ("rank", "hamming"):
            got, want = distance_by_search(code, w, metric), classify_poly(code, f, metric)
            assert ((got.distance, got.bound, got.is_deep_hole, _witness_codes(got.witness))
                    == (want.distance, want.bound, want.is_deep_hole,
                        _witness_codes(want.witness)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(code=sieve_codes())
def test_top_functionals_invert_the_moore_matrix(code):
    # The word of x^(q^i') on the points has interpolant coefficients
    # e_i', so its functionals a_i, i = n-1 down to k, are the unit vector
    # delta(i, i'): L * M = I on every kept row of L, at every k.
    ctx, n, points = code.ctx, code.n, code.span.codes
    for k in range(1, n + 1):
        rows = deephole._top_functionals(GabidulinCode(ctx, points, k))
        for i2 in range(n):
            word = [ctx.frob(g, i2) for g in points]
            assert _combine_rows(ctx, rows, word) == [int(i == i2)
                                                      for i in range(n - 1, k - 1, -1)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=small_codes_and_words())
def test_accepting_levels_form_a_prefix(case):
    # If v agrees with f on U it agrees on every subspace (subset) of U,
    # so the accepting levels are k..t*, and t* = n - distance.
    code, words = case
    for w in words:
        f = code.sigma_inverse(w)
        if f.deg_q is NEG_INF or f.deg_q < code.k:
            continue
        fvals = [f(g).code for g in code.points]
        for metric in ("rank", "hamming"):
            accepting = [t for t in range(code.k, f.deg_q + 1)
                         if _accepting_cover(code, fvals, t, metric,
                                             DEFAULT_SUBSPACE_CAP) is not None]
            assert accepting == list(range(code.k, code.k + len(accepting)))
            assert accepting[-1] == code.n - classify_poly(code, f, metric).distance


# (p, s, m, n) for the decoding-rung property: p in {2, 3, 5}, s in {1, 2},
# 4 <= n <= min(m, 6) (n - k >= 3 needs n >= 4), fields of order at most
# 4096 and at most RUNG_BUDGET candidates on the levels 2..n-1 the
# walk-only reference may draw at k = 1.
RUNG_BUDGET = 3000
RUNG_SHAPES = [(p, s, m, n) for p in (2, 3, 5) for s in (1, 2) for m in range(4, 7)
               for n in range(4, min(m, 6) + 1)
               if p ** (s * m) <= 4096
               and sum(gaussian_binomial(n, t, p ** s) for t in range(2, n)) <= RUNG_BUDGET]


@st.composite
def rung_codes_and_words(draw):
    """A tower of RUNG_SHAPES with its default modulus, random independent
    points, a random k with n - k >= 3, and words: one codeword plus an
    error of F_q-rank exactly r for each r in 0..tau+1 (tau = (n-k) // 2),
    and one uniform word."""
    p, s, m, n = draw(st.sampled_from(RUNG_SHAPES))
    ctx = _ctx(p, s, m)
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    points = []
    while len(points) < n:
        g = rng.randrange(1, ctx.order)
        if ctx.span_dim(points + [g]) == len(points) + 1:
            points.append(g)
    code = GabidulinCode(ctx, points, draw(st.integers(1, n - 3)))
    scalars = ctx._subfield_codes()
    words = [[rng.randrange(ctx.order) for _ in range(n)]]
    for r in range((n - code.k) // 2 + 2):
        err = [0] * n
        while ctx.span_dim(err) != r:
            betas = [rng.randrange(1, ctx.order) for _ in range(r)]
            err = [_combine_rows(ctx, [[rng.choice(scalars) for _ in betas]], betas)[0]
                   for _ in range(n)]
        msg = LinPoly(ctx, [rng.randrange(ctx.order) for _ in range(code.k)])
        words.append([ctx.add(a, b) for a, b in zip(code.encode(msg).codes, err)])
    return code, [code.word(w) for w in words]


def _walk_only(code, w):
    """Reference for the decoding rung: the rank ascent with no rung, every
    level k+1..deg_q f walked by ``_accepting_cover`` until one rejects, as
    (distance, bound, deep flag, witness codes)."""
    n, k, d = code.n, code.k, code.sigma_inverse(w).deg_q
    if d is NEG_INF or d < k:
        return 0, 0, n == k, None
    t, wit = k, deephole._first_k_witness(code, "rank")
    while t < d:
        above = _accepting_cover(code, w.codes, t + 1, "rank", None)
        if above is None:
            break
        t, wit = t + 1, above
    return n - t, n - d, t == k, _witness_codes(wit)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(case=rung_codes_and_words())
def test_decoding_rung_equals_the_walk(case):
    # Both entry points take the rung through the shared ascent; each must
    # give the walk's distance, bound, flag and witness codes, and the
    # oracle's distance where it is short enough to run.
    code, words = case
    ctx, n, k = code.ctx, code.n, code.k
    for w in words:
        want = _walk_only(code, w)
        for res in (distance_by_search(code, w, "rank"),
                    classify_poly(code, code.sigma_inverse(w), "rank")):
            assert (res.distance, res.bound, res.is_deep_hole,
                    _witness_codes(res.witness)) == want
        if ctx.order ** k <= CODEWORD_LIMIT:
            assert dist_to_code_exhaustive(code, w, "rank")[0] == want[0]


@pytest.mark.parametrize("m,k,points,word", [
    (6, 2, [62, 60, 41, 53, 7, 8], [53, 50, 3, 14, 4, 1]),
    (6, 1, [27, 46, 63, 25, 31], [5, 58, 10, 37, 5]),
    (6, 2, [2, 17, 56, 11, 5, 8], [60, 3, 40, 53, 17, 26]),
], ids=["n6k2", "n5k1", "n6k2-second"])
def test_decoding_rung_declines_a_word_past_tau(m, k, points, word):
    # Over GF(2^m), n - k even: each word lies tau + 1 from more than one
    # codeword, and the quotient the rung reads off its kernel vector is
    # one of them, but not the one whose candidate comes first.  The rung
    # must decline (its rank check admits r <= tau only), and the walk's
    # first witness at level n - tau - 1 stands.
    code = GabidulinCode(_ctx(2, 1, m), points, k)
    w = code.word(word)
    assert deephole._decode_within_tau(code, w.codes) is None
    want = _walk_only(code, w)
    assert want[0] == (code.n - k) // 2 + 1
    res = distance_by_search(code, w, "rank")
    assert (res.distance, res.bound, res.is_deep_hole, _witness_codes(res.witness)) == want


# (p, s, m) towers with p in {2, 3, 5} and s in {1, 2}, order <= 5**4.
WEIGHT_TOWERS = [(p, s, m) for p in (2, 3, 5) for s in (1, 2) for m in (1, 2, 3)
                 if p ** (s * m) <= 625]


def _limit_row(ctx: FieldCtx, metric: str, limit: int, length: int) -> list[int]:
    """A row of ``length`` codes of weight ``limit``: 1, x, ..., x^(limit-1)
    for rank (F_q-independent while limit <= m, as x generates the top
    field over F_q), limit ones for Hamming; zeros pad it."""
    row = [ctx.p ** j for j in range(limit)] if metric == "rank" else [1] * limit
    return row + [0] * (length - limit)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(tower=st.sampled_from(WEIGHT_TOWERS), data=st.data())
def test_bounded_weight_is_the_full_weight_capped(tower, data):
    # A row after one of weight `limit` is weighed only up to that limit:
    # the kernel returns min(full, limit), and the first row on a tie.
    ctx = _ctx(*tower)
    codes = data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=6))
    for metric in ("rank", "hamming"):
        def weigh(row):
            return _least_weight(ctx, metric, [row], len(row))[0]

        full = weigh(codes)
        it = iter(codes)
        assert _least_weight(ctx, metric, [it], len(codes)) == (full, 0)
        assert list(it) == []  # the first row is walked whole
        top = len(codes) + 1 if metric == "hamming" else min(len(codes) + 1, ctx.m)
        for limit in range(top + 1):
            length = max(len(codes), limit)
            padded = codes + [0] * (length - len(codes))
            it = iter(padded)
            rows = [_limit_row(ctx, metric, limit, length), it]
            assert weigh(rows[0]) == limit
            assert _least_weight(ctx, metric, rows, length) == (
                min(full, limit), 0 if limit <= full else 1)
            drawn = length - len(list(it))
            if metric == "hamming":
                # Zeros are counted at C speed over the whole row.
                assert drawn == length
                continue
            # Codes are drawn only up to the shortest prefix whose weight
            # reaches the limit.
            assert drawn == next((j for j in range(length + 1)
                                  if weigh(padded[:j]) >= limit),
                                 length)


# (p, s, m) towers with p in {2, 3, 5, 7}, s in {1, 2} and order <= 7**4.
GREEDY_TOWERS = [(p, s, m) for p in (2, 3, 5, 7) for s in (1, 2) for m in (1, 2, 3, 4)
                 if p ** (s * m) <= 7 ** 4]


def _dependent_codes(ctx: FieldCtx, base: list[int], combos, perm) -> list[int]:
    """base, then one F_q-combination of base per entry of combos (its
    scalars index F_q), permuted by perm."""
    scalars = [e.code for e in ctx.subfield_elements()]
    codes = list(base)
    for coeffs in combos:
        acc = 0
        for c, x in zip(coeffs, base):
            acc = ctx.add(acc, ctx.mul(scalars[c % len(scalars)], x))
        codes.append(acc)
    return [codes[i] for i in perm]


def _check_greedy(ctx: FieldCtx, codes: list[int], greedy_reference) -> None:
    ref = greedy_reference(ctx, codes)
    assert ctx._greedy_codes(codes) == ref
    for limit in range(len(codes) + 2):
        assert ctx._greedy_codes(codes, limit) == ref[:limit]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(tower=st.sampled_from(GREEDY_TOWERS), data=st.data())
def test_greedy_codes_match_prime_field_elimination(tower, data, greedy_reference):
    ctx = _ctx(*tower)
    base = data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=4))
    combos = data.draw(st.lists(st.lists(st.integers(0, ctx.q - 1), min_size=len(base),
                                         max_size=len(base)), max_size=3))
    perm = data.draw(st.permutations(range(len(base) + len(combos))))
    _check_greedy(ctx, _dependent_codes(ctx, base, combos, perm), greedy_reference)


@pytest.mark.parametrize("p,s,m", [(3, 1, 11), (5, 1, 7), (3, 2, 6)])
def test_greedy_codes_on_the_direct_route(p, s, m, greedy_reference):
    ctx = _ctx(p, s, m)
    rng = random.Random(f"greedy/{p}/{s}/{m}")
    for _ in range(12):
        base = [rng.randrange(ctx.order) for _ in range(rng.randint(0, 4))]
        combos = [[rng.randrange(ctx.q) for _ in base] for _ in range(rng.randint(0, 3))]
        perm = rng.sample(range(len(base) + len(combos)), len(base) + len(combos))
        _check_greedy(ctx, _dependent_codes(ctx, base, combos, perm), greedy_reference)
    assert ctx._exp is None


def _automaton_fits(p: int, s: int, m: int) -> bool:
    """The span automaton's size rule: a table-route field whose
    F_q-subspace count times order is at most the limit."""
    order = p ** (s * m)
    count = sum(gaussian_binomial(m, t, p ** s) for t in range(m + 1))
    return order <= _TABLE_LIMIT and count * order <= _SPAN_AUTOMATON_LIMIT


# (p, s, m) towers with p in {2, 3, 5}, s in {1, 2}, order <= 729 and a
# span automaton.
SPAN_TOWERS = [(p, s, m) for p in (2, 3, 5) for s in (1, 2) for m in range(1, 7)
               if p ** (s * m) <= 729 and _automaton_fits(p, s, m)]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(tower=st.sampled_from(SPAN_TOWERS), data=st.data())
def test_span_automaton_rank_matches_the_echelon(tower, data, greedy_reference):
    ctx = _ctx(*tower)
    assert ctx._span_zero is not None
    base = data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=4))
    combos = data.draw(st.lists(st.lists(st.integers(0, ctx.q - 1), min_size=len(base),
                                         max_size=len(base)), max_size=3))
    perm = data.draw(st.permutations(range(len(base) + len(combos))))
    codes = _dependent_codes(ctx, base, combos, perm)
    ref = greedy_reference(ctx, codes)
    assert ctx._least_rank([codes]) == (len(ctx._greedy_codes(codes)), 0) == (len(ref), 0)
    for limit in range(len(codes) + 1):
        assert len(ctx._greedy_codes(codes, limit)) == len(ref[:limit])
        if limit <= ctx.m:
            # After a row of rank `limit`, the row's rank capped at it.
            rank, _ = ctx._least_rank([_limit_row(ctx, "rank", limit, limit), codes])
            assert rank == len(ref[:limit])


@lru_cache(maxsize=None)
def _echelon_ctx(p: int, s: int, m: int) -> FieldCtx:
    """The tower built with the span automaton off, so ranks take the
    echelon route."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_SPAN_AUTOMATON_LIMIT", 0)
        return FieldCtx(p, s, m)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(tower=st.sampled_from(sorted(set(WEIGHT_TOWERS) | set(SPAN_TOWERS))),
       data=st.data())
def test_least_weight_is_the_first_minimum(tower, data, greedy_reference):
    # Each kernel against the brute-force minimum and its first index, on
    # rows with repeats (tied minima) and perhaps a zero row.  The rank
    # kernel, on both routes, draws no row past the first of rank 0, and
    # a row's codes only until its rank reaches the least so far.
    ctx = _ctx(*tower)
    n = data.draw(st.integers(1, 4))
    pool = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=3))
    entry = st.one_of(st.sampled_from(pool), st.integers(0, ctx.order - 1))
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))
    rows = data.draw(st.permutations(rows))
    if data.draw(st.booleans()):
        rows.insert(data.draw(st.integers(0, len(rows))), [0] * n)

    hamming = [sum(1 for c in row if c) for row in rows]
    least = min(hamming)
    assert _least_weight(ctx, "hamming", rows, n) == (least, hamming.index(least))

    def rank(codes):
        return len(greedy_reference(ctx, codes))

    ranks = [rank(row) for row in rows]
    least = min(ranks)
    stop = ranks.index(0) + 1 if 0 in ranks else len(rows)
    # Codes drawn from row i: the shortest prefix whose rank reaches the
    # least rank of the rows before it, or the whole row.
    expect = [next((j for j in range(n + 1) if i and rank(row[:j]) >= min(ranks[:i])), n)
              for i, row in enumerate(rows[:stop])]
    echelon = _echelon_ctx(*tower)
    assert echelon._span_zero is None
    assert (ctx._span_zero is not None) == (tower in SPAN_TOWERS)
    for route in (ctx, echelon):
        drawn = []

        def counted(row, i):
            for c in row:
                drawn[i] += 1
                yield c

        def stream():
            for i, row in enumerate(rows):
                drawn.append(0)
                yield counted(row, i)

        assert route._least_rank(stream()) == (least, ranks.index(least))
        assert drawn == expect


def test_span_automaton_size_rule():
    for tower, fits in (((3, 1, 4), True), ((2, 1, 5), True), ((5, 2, 2), True),
                        ((2, 1, 6), False), ((3, 1, 5), False), ((2, 5, 2), False),
                        ((3, 1, 11), False)):
        assert _automaton_fits(*tower) == fits
        assert (_ctx(*tower)._span_zero is not None) == fits


def test_complete_span_walk_of_gf81_has_one_state_per_subspace():
    ctx = FieldCtx(3, 1, 4)
    todo, seen = [ctx._span_zero], {id(ctx._span_zero)}
    while todo:
        row = todo.pop()
        for c in range(ctx.order):
            nxt = ctx._span_step(row, c)
            assert nxt is row[c]
            if id(nxt) not in seen:
                seen.add(id(nxt))
                todo.append(nxt)
    assert len(seen) == len(ctx._span_rows) == 212
    assert 212 == sum(gaussian_binomial(4, t, 3) for t in range(5))
    for members, row in ctx._span_rows.items():
        assert len(members) == 3 ** row[ctx.order]
        assert all(ctx.add(a, b) in members for a in members for b in members)


# (p, s, m) towers for the F_p-span kernel: p in {2, 3, 5}, s in {1, 2},
# order <= 5**4, and the two direct-route fields of the CI reach steps.
KERNEL_TOWERS = [(p, s, m) for p in (2, 3, 5) for s in (1, 2) for m in (1, 2, 3)
                 if p ** (s * m) <= 625] + [(2, 1, 17), (3, 1, 11)]


def _span_by_definition(ctx: FieldCtx, units, n: int) -> list[int]:
    """Row i is sum_l d_l * units[l] over the base-p digits d_l of i, a
    digit being its own code in F_p, summed with ctx.add and ctx.mul; the
    rows in index order, flattened."""
    out = []
    for i in range(ctx.p ** len(units)):
        row = [0] * n
        for d, unit in zip(_base_digits(i, ctx.p, len(units)), units):
            row = [ctx.add(x, ctx.mul(d, u)) for x, u in zip(row, unit)]
        out += row
    return out


@pytest.mark.parametrize("tower", KERNEL_TOWERS, ids=lambda t: "-".join(map(str, t)))
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_span_kernel_and_translation_match_their_definitions(tower, data):
    ctx = _ctx(*tower)
    p, order = ctx.p, ctx.order
    n = data.draw(st.integers(1, 4))
    entry = st.integers(0, order - 1)
    units = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               max_size=max(l for l in range(9) if p ** l <= 256)))
    assert _span_flat(ctx, units, n) == _span_by_definition(ctx, units, n)
    # Below, at and past the field order: tables exactly on the odd table
    # route from the order on, XOR for p = 2, add otherwise.
    vec = data.draw(st.lists(entry, min_size=n, max_size=n))
    xs = sorted({0, 1, order - 1} | set(random.Random(order).sample(range(order),
                                                                   min(order, 200))))
    for uses in (order - 1, order, data.draw(st.integers(0, 2 * order))):
        op, args = ctx._translation(vec, uses)
        tables = p != 2 and order <= _TABLE_LIMIT and uses >= order
        assert (op is list.__getitem__) == tables
        assert tables or op == (operator.xor if p == 2 else ctx.add)
        for j, c in enumerate(vec):
            assert all(op(args[j], x) == ctx.add(x, c) for x in xs)


# Odd table-route towers for the oracle's addition rows: p in {3, 5, 7},
# s in {1, 2}, order at most 7^4.  Drawn codes hold at most ROW_BUDGET
# codewords, far under the oracle cap, since the reference weighs each one
# in Python; one example is the oracle-odd benchmark's shape, GF(3^4) n = 4
# k = 2 (6,561 codewords).
ROW_TOWERS = [(p, s, m) for p in (3, 5, 7) for s in (1, 2) for m in (1, 2, 3, 4)
              if p ** (s * m) <= 7 ** 4]
ROW_BUDGET = 2500


@st.composite
def row_route_codes(draw):
    """A code on a ``ROW_TOWERS`` tower with at most ``ROW_BUDGET``
    codewords, and two or three words of its length."""
    p, s, m = draw(st.sampled_from(ROW_TOWERS))
    ctx = _ctx(p, s, m)
    n, k = draw(st.sampled_from([(n, k) for n in range(1, m + 1) for k in range(1, n + 1)
                                 if ctx.order ** k <= ROW_BUDGET]))
    points = draw(st.lists(st.integers(1, ctx.order - 1), min_size=n, max_size=n))
    assume(ctx.span_dim(points) == n)
    words = draw(st.lists(st.lists(st.integers(0, ctx.order - 1), min_size=n, max_size=n),
                          min_size=2, max_size=3))
    return GabidulinCode(ctx, points, k), words


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=row_route_codes())
@example(case=(GabidulinCode(_ctx(3, 1, 4), (1, 3, 9, 27), 2),
               [[5, 17, 40, 66], [1, 3, 9, 27], [0, 0, 0, 80]]))
@example(case=(GabidulinCode(_ctx(3, 2, 2), (1, 3), 1), [[40, 7], [0, 80]]))
def test_oracle_on_the_addition_rows_equals_the_reference(case, greedy_reference):
    # The oracle translates each cached column, or each streamed block of
    # at least the field order, through the addition-table rows of its
    # context's memo.  Its distance and message must equal the full-weight
    # reference's with the memo cold (a fresh context per word), warm (one
    # context across the words, and the shared one across examples), kept
    # to no row (limit 0) and to one row (limit = order), each on the
    # cached columns and on streams forced by the cache limits 1 (blocks
    # of p rows, below the order: ``add``) and the order (blocks of order
    # rows: the memo).  The shifted rows themselves must equal the
    # codewords plus the word entry by entry, since a weight cannot see a
    # permutation of the positions.
    code, words = case
    ctx, points, k = code.ctx, code.span.codes, code.k
    count = code.message_count()
    codewords = [cw for _, cw in code.iter_codewords()]
    refs = {}
    for w in words:
        refs[tuple(w)] = [tuple(ctx.add(x, c) for x, c in zip(cw, w)) for cw in codewords]
        for metric in ("rank", "hamming"):
            d, msg = _reference_distance(code, code.word(w), metric, greedy_reference)
            refs[tuple(w), metric] = (d, LinPoly(ctx, msg).codes)
    cache_limits = [None] + [x for x in (1, ctx.order) if x < count]
    for mode in ("cold", "warm", "none", "one"):
        for cache_limit in cache_limits:
            with pytest.MonkeyPatch.context() as mp:
                if mode in ("none", "one"):
                    mp.setattr(field, "_ADD_ROW_MEMO_LIMIT", 0 if mode == "none" else ctx.order)
                if cache_limit is not None:
                    mp.setattr(gablab.code, "_CODEWORD_CACHE_LIMIT", cache_limit)
                shared = code if mode == "warm" else GabidulinCode(
                    FieldCtx(ctx.p, ctx.s, ctx.m), points, k)
                for w in words:
                    here = (GabidulinCode(FieldCtx(ctx.p, ctx.s, ctx.m), points, k)
                            if mode == "cold" else shared)
                    for metric in ("rank", "hamming"):
                        d, msg = dist_to_code_exhaustive(here, here.word(w), metric)
                        assert (d, msg.codes) == refs[tuple(w), metric], (mode, cache_limit)
                    assert list(here._codeword_rows(shift=w)) == refs[tuple(w)]
                    assert len(here.ctx._add_rows) * ctx.order <= field._ADD_ROW_MEMO_LIMIT
