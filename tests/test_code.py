"""Code construction, brute-force distance oracles, and spec-file I/O.

covering_radius_raw's coset walk is cross-checked here against one
dist_to_code_exhaustive call per word (GF(8), GF(9), GF(25), GF(4^2)) and
against the class scan on GF(27).  The oracles take weights only up to the
best so far; a plain full-weight reference, with rank weights from the
independent elimination in ``conftest``, checks their answers.  A pinned
digest holds the oracle answers on odd-characteristic codes fixed.
"""

import hashlib
import itertools
import random

import pytest

import gablab.code
import gablab.field
from gablab import (FieldCtx, FieldElement, GabidulinCode, LinPoly, SubspaceBasis, Word,
                    covering_radius_raw, covering_radius_scan, dist_to_code_exhaustive,
                    format_code_spec, min_distance, parse_code_spec, weight)
from gablab.cli import main
from gablab.code import DEFAULT_ORACLE_CAP
from gablab.field import _base_digits
from gablab.linpoly import _moore_rows


@pytest.fixture(scope="module")
def gf4_code(gf4):
    return GabidulinCode(gf4, (1, 2), 1)


# -- words and weights ----------------------------------------------------------


def test_word_construction_and_arithmetic(gf8, gf16):
    w = Word(gf8, (1, 2, 4))
    assert w.codes == (1, 2, 4)
    assert len(w) == 3
    assert w[1].code == 2
    assert w == Word(gf8, [gf8.element(c) for c in (1, 2, 4)])
    assert w != Word(gf8, (1, 1, 1))
    assert w != Word(gf16, (1, 2, 4))  # equal codes, another context
    with pytest.raises(ValueError):
        Word(gf8, ())
    with pytest.raises(ValueError):
        Word(gf8, (8,))


def test_an_index_read_wraps_one_code(gf16, monkeypatch):
    # w[i] and basis[i] build the one FieldElement they return, not all n;
    # a slice still gives the tuple of its elements.
    w = Word(gf16, (1, 2, 4, 8))
    basis = SubspaceBasis(gf16, (1, 2, 4, 8))
    built = []
    real = FieldElement.__init__

    def counting(self, ctx, code):
        built.append(code)
        real(self, ctx, code)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    for seq in (w, basis):
        built.clear()
        assert (seq[2].code, seq[-1].code) == (4, 8)
        assert built == [4, 8]
        assert [e.code for e in seq[1:3]] == [2, 4]


def test_weight_definitions(gf16):
    w = Word(gf16, (1, 2, 3, 0))  # 3 = 1 + 2: rank 2, hamming 3
    assert weight(w, "hamming") == 3
    assert weight(w, "rank") == 2
    assert weight(Word(gf16, (0, 0, 0, 0)), "rank") == 0
    assert weight(Word(gf16, (5, 5, 5, 5)), "rank") == 1
    with pytest.raises(ValueError):
        weight(w, "euclidean")


def test_rank_weight_via_middle_field(tower16):
    # Over q = 4 the entries 1 and 6 are dependent (6 lies in F_4).
    w = Word(tower16, (1, 6, 0))
    assert weight(w, "rank") == 1
    assert weight(w, "hamming") == 2


# -- code construction ------------------------------------------------------------


def test_code_requires_independent_points_and_valid_k(gf16):
    with pytest.raises(ValueError):
        GabidulinCode(gf16, (1, 2, 3), 1)  # dependent points
    with pytest.raises(ValueError):
        GabidulinCode(gf16, (1, 2, 4), 0)
    with pytest.raises(ValueError):
        GabidulinCode(gf16, (1, 2, 4), 4)  # k > n
    code = GabidulinCode(gf16, (1, 2, 4), 3)
    assert code.n == 3
    assert code.message_count() == 16**3


@pytest.mark.parametrize("k", [2.0, True, "2", None])
def test_code_rejects_non_integer_k(gf16, k):
    # k = 2.0 passes the range check and makes message_count() a float.
    with pytest.raises(ValueError, match="must be an integer"):
        GabidulinCode(gf16, (1, 2, 4), k)


def test_frozen_gf4_encode_and_distances(gf4, gf4_code):
    w = gf4_code.encode(LinPoly(gf4, (2,)))
    assert w.codes == (2, 3)
    d, msg = dist_to_code_exhaustive(gf4_code, gf4_code.word((1, 1)), "rank")
    assert d == 1
    assert msg.codes == ()
    d, msg = dist_to_code_exhaustive(gf4_code, gf4_code.word((1, 1)), "hamming")
    assert d == 1
    assert msg.codes == (1,)
    assert min_distance(gf4_code, "rank") == 2
    assert min_distance(gf4_code, "hamming") == 2


def test_encode_rejects_bad_messages(gf16, gf8):
    code = GabidulinCode(gf16, (1, 2, 4, 8), 2)
    with pytest.raises(ValueError):
        code.encode(LinPoly(gf16, (0, 0, 1)))  # degree 2 >= k
    with pytest.raises(ValueError):
        code.encode(LinPoly(gf8, (1,)))  # wrong context
    with pytest.raises(ValueError):
        code.evaluate(LinPoly.monomial(gf16, 4))  # degree n
    code.evaluate(LinPoly.monomial(gf16, 3))  # degree n-1 is fine


def test_sigma_inverse_round_trip(code24):
    ctx = code24.ctx
    rng = random.Random(29)
    for _ in range(100):
        w = code24.word([rng.randrange(16) for _ in range(4)])
        f = code24.sigma_inverse(w)
        assert f.deg_q is not None
        assert code24.evaluate(f) == w
    for _ in range(50):
        f = LinPoly(ctx, [rng.randrange(16) for _ in range(4)])
        assert code24.sigma_inverse(code24.evaluate(f)) == f


@pytest.mark.parametrize("other, codes", [
    (FieldCtx(2, 1, 5), (31, 17, 20, 3)),                    # another order
    (FieldCtx(2, 1, 4, (1, 0, 0, 1, 1)), (5, 6, 7, 8)),      # GF(16), x^4+x^3+1
], ids=["gf32", "gf16-other-modulus"])
def test_oracle_rejects_a_word_over_another_field(code24, other, codes):
    w = Word(other, codes)
    for metric in ("rank", "hamming"):
        with pytest.raises(ValueError, match="code's field context"):
            dist_to_code_exhaustive(code24, w, metric)
    with pytest.raises(ValueError, match="code's field context"):
        code24.sigma_inverse(w)


def test_iter_codewords_order_and_cache(gf4_code):
    pairs = list(gf4_code.iter_codewords())
    # canonical order: message coefficient tuples ascend, degree-0 fastest
    assert [mc for mc, _ in pairs] == [(c,) for c in range(4)]
    assert pairs[0][1] == (0, 0)
    assert pairs == list(gf4_code.iter_codewords())  # cached second pass


def test_codeword_set_is_linear_space(gf8):
    code = GabidulinCode(gf8, (1, 2, 4), 2)
    words = {cw for _, cw in code.iter_codewords()}
    assert len(words) == 64
    ctx = code.ctx
    sample = sorted(words)[:10]
    for a in sample:
        for b in sample:
            assert tuple(ctx.add(x, y) for x, y in zip(a, b)) in words


# -- brute oracles ------------------------------------------------------------------


def test_singleton_bounds_across_small_codes(gf8, gf16):
    for ctx, points in ((gf8, (1, 2, 4)), (gf16, (1, 2, 4, 8))):
        n = len(points)
        for k in range(1, n + 1):
            code = GabidulinCode(ctx, points, k)
            assert min_distance(code, "rank") == n - k + 1
            assert min_distance(code, "hamming") == n - k + 1


def test_distance_zero_iff_codeword(code24):
    rng = random.Random(31)
    for mc, cw in list(code24.iter_codewords())[:20]:
        d, msg = dist_to_code_exhaustive(code24, code24.word(cw), "rank")
        assert d == 0
        assert msg.codes == LinPoly(code24.ctx, mc).codes


def test_hamming_kernel_stops_after_the_block_with_a_weight_zero_row(gf16):
    # A row of weight 0 is the least weight there is: the kernel returns
    # it and leaves the rest of a long stream undrawn.
    rows = iter([[1, 2, 3]] * 3 + [[0, 0, 0]] + [[0, 5, 0]] * 9_996)
    assert gablab.code._least_weight(gf16, "hamming", rows, 3) == (0, 3)
    assert len(list(rows)) > 0


def _full_weight(ctx, codes, metric, greedy_reference):
    if metric == "rank":
        return len(greedy_reference(ctx, codes))
    return sum(1 for c in codes if c)


def _reference_distance(code, w, metric, greedy_reference):
    """Every codeword's full weight; the first strict minimum wins."""
    ctx, best, best_msg = code.ctx, None, None
    for mc, cw in code.iter_codewords():
        d = _full_weight(ctx, [ctx.sub(a, b) for a, b in zip(w.codes, cw)], metric,
                         greedy_reference)
        if best is None or d < best:
            best, best_msg = d, mc
    return best, best_msg


def _extension_min_weight(code, u, metric, greedy_reference):
    """The minimum weight of C + <u>, walked directly: the full weight of
    lam*u + c over every codeword c and every lam, (lam, c) != (0, 0)."""
    ctx = code.ctx
    return min(_full_weight(ctx, [ctx.add(ctx.mul(lam, a), b) for a, b in zip(u.codes, cw)],
                            metric, greedy_reference)
               for lam in range(ctx.order) for mc, cw in code.iter_codewords()
               if lam or any(mc))


# The identity d(u, C) = d(C + <u>) is walked for the first words u not in
# C where that takes at most EXTENSION_BUDGET weights per word.
EXTENSION_BUDGET = 8192
EXTENSION_WORDS = 3


# The first five: random points on small towers.  Then every k on one
# tower per (p, s), p in {2, 3, 5} and s in {1, 2}; GF(25^2) stops at
# k = 1, as k = 2 is 390,625 codewords, each weighed by the reference.
# Last, GF(3^4) n = 4 k = 2, the shape of the oracle-odd benchmark.  On
# the towers of ECHELON_TOWERS the oracle also runs on a context
# built with the span automaton off, so both rank routes meet the
# reference on one code.
ECHELON_TOWERS = {(2, 1, 4), (3, 1, 4)}


@pytest.mark.parametrize("ctx_args,n,k", [
    ((3, 1, 2), 2, 1),   # GF(9)
    ((3, 1, 3), 3, 1),   # GF(27)
    ((3, 1, 3), 3, 2),
    ((2, 1, 4), 4, 2),   # GF(16)
    ((2, 2, 2), 2, 1),   # tower16, q = 4
    ((2, 1, 3), 3, 1),   # GF(8)
    ((2, 1, 3), 3, 2),
    ((2, 1, 3), 3, 3),
    ((2, 2, 2), 2, 2),
    ((3, 1, 2), 2, 2),
    ((3, 2, 2), 2, 1),   # GF(9^2), q = 9
    ((3, 2, 2), 2, 2),
    ((5, 1, 2), 2, 1),   # GF(25)
    ((5, 1, 2), 2, 2),
    ((5, 2, 2), 2, 1),   # GF(25^2), q = 25
    ((3, 1, 4), 4, 2),   # GF(81)
])
def test_bounded_oracles_match_full_weight_reference(ctx_args, n, k, greedy_reference,
                                                     monkeypatch):
    # The oracle against the full weight of every codeword, and on words
    # not in the code against the minimum weight of the one-step extension;
    # min_distance, built on that identity, against its own direct walk.
    ctx = FieldCtx(*ctx_args)
    routes = [ctx]
    if ctx_args in ECHELON_TOWERS:
        assert ctx._span_zero is not None
        monkeypatch.setattr(gablab.field, "_SPAN_AUTOMATON_LIMIT", 0)
        routes.append(FieldCtx(*ctx_args))
        assert routes[1]._span_zero is None
    rng = random.Random(67)
    points = []
    while len(points) < n:
        g = rng.randrange(1, ctx.order)
        if ctx.span_dim(points + [g]) == len(points) + 1:
            points.append(g)
    code = GabidulinCode(ctx, points, k)
    walk_extension = ctx.order ** (k + 1) <= EXTENSION_BUDGET
    for metric in ("rank", "hamming"):
        extended = 0
        for _ in range(12):
            w = code.word([rng.randrange(ctx.order) for _ in range(n)])
            d, msg = dist_to_code_exhaustive(code, w, metric)
            ref_d, ref_msg = _reference_distance(code, w, metric, greedy_reference)
            assert (d, msg.codes) == (ref_d, LinPoly(ctx, ref_msg).codes)
            for other in routes[1:]:
                on = GabidulinCode(other, points, k)
                d, msg = dist_to_code_exhaustive(on, on.word(w.codes), metric)
                assert (d, msg.codes) == (ref_d, LinPoly(other, ref_msg).codes)
            if d and walk_extension and extended < EXTENSION_WORDS:
                assert d == _extension_min_weight(code, w, metric, greedy_reference)
                extended += 1
        assert extended == (EXTENSION_WORDS if walk_extension and k < n else 0)
        assert min_distance(code, metric) == min(
            _full_weight(ctx, cw, metric, greedy_reference)
            for mc, cw in code.iter_codewords() if any(mc))


def test_codeword_cache_survives_an_early_stop():
    # The first oracle call meets a codeword and stops at distance 0; the
    # enumeration it started must still fill the cache, which holds the
    # codewords' entries in n columns, one list per position, in canonical
    # order.
    ctx = FieldCtx(3, 1, 3)
    code = GabidulinCode(ctx, (1, 3, 9), 2)
    cw = code.encode(LinPoly(ctx, (5, 7)))
    d, msg = dist_to_code_exhaustive(code, cw, "rank")
    assert (d, msg.codes) == (0, (5, 7))
    assert code._cw_cache is not None and [len(col) for col in code._cw_cache] == [729] * 3
    fresh = GabidulinCode(ctx, (1, 3, 9), 2)
    msgs = [(c0, c1) for c1 in range(27) for c0 in range(27)]
    assert code._cw_cache == [list(col) for col in zip(*[fresh.encode(LinPoly(ctx, mc)).codes
                                                         for mc in msgs])]
    rng = random.Random(71)
    for metric in ("rank", "hamming"):
        for _ in range(4):
            w = code.word([rng.randrange(ctx.order) for _ in range(3)])
            d, msg = dist_to_code_exhaustive(code, w, metric)
            ref_d, ref_msg = dist_to_code_exhaustive(fresh, w, metric)
            assert (d, msg.codes) == (ref_d, ref_msg.codes)
        assert min_distance(code, metric) == min_distance(fresh, metric) == 2


def _codewords_one_by_one(code, indices):
    """Codeword i for each i, evaluated on its own: the message's
    coefficients are the base-order digits of i, and each entry is
    sum_i a_i * g_j^(q^i), k multiplications per entry."""
    ctx, k = code.ctx, code.k
    pows = _moore_rows(ctx, code.span.codes, k)
    for idx in indices:
        mc = _base_digits(idx, ctx.order, k)
        wc = []
        for pj in pows:
            acc = 0
            for a, x in zip(mc, pj):
                if a:
                    acc = ctx.add(acc, ctx.mul(a, x))
            wc.append(acc)
        yield tuple(wc)


# (p, s, m), n, k, points 1, p, p**2, ...: p in {2, 3, 5}, s in {1, 2}, k in
# {1, 2, 3}.  p = 5 with k = 3 needs order >= 125, so 125^3 codewords, past
# the oracle cap.
LINEARITY_CODES = [((2, 1, 3), 3, 1), ((2, 1, 3), 3, 2), ((2, 1, 3), 3, 3),
                   ((2, 2, 2), 2, 1), ((2, 2, 2), 2, 2), ((3, 1, 3), 3, 1),
                   ((3, 1, 3), 3, 2), ((3, 1, 3), 3, 3), ((3, 2, 2), 2, 1),
                   ((3, 2, 2), 2, 2), ((5, 1, 2), 2, 1), ((5, 1, 2), 2, 2),
                   ((5, 1, 3), 3, 2), ((5, 2, 2), 2, 1)]


@pytest.mark.parametrize("ctx_args,n,k", LINEARITY_CODES)
def test_codewords_by_linearity_match_the_one_by_one_evaluator(ctx_args, n, k, monkeypatch,
                                                                greedy_reference):
    # The cached columns, then the streams forced by the cache limits 1,
    # p, p^2 + 1 and one short of the codeword count (those below it), each
    # under an oracle cap of exactly that count.  Each also shifted by a
    # random vector, entry by entry against the reference rows; and in each
    # forced stream the oracle's answers on three random words per metric
    # equal the full-weight reference, taken once from the cached list.
    ctx = FieldCtx(*ctx_args)
    points = [ctx.p ** i for i in range(n)]
    code = GabidulinCode(ctx, points, k)
    count = code.message_count()
    rng = random.Random(f"linearity/{ctx_args}/{n}/{k}")
    ref = list(_codewords_one_by_one(code, range(count)))
    shift = [rng.randrange(ctx.order) for _ in range(n)]
    shifted = [tuple(ctx.add(x, c) for x, c in zip(cw, shift)) for cw in ref]
    assert list(code._codeword_rows(oracle_cap=count)) == ref
    assert list(code._codeword_rows(oracle_cap=count, shift=shift)) == shifted
    assert code._cw_cache == [list(col) for col in zip(*ref)]
    assert [mc for mc, _ in code.iter_codewords()] == [
        tuple(_base_digits(i, ctx.order, k)) for i in range(count)]
    answers = []
    for metric in ("rank", "hamming"):
        for _ in range(3):
            w = code.word([rng.randrange(ctx.order) for _ in range(n)])
            ref_d, ref_msg = _reference_distance(code, w, metric, greedy_reference)
            answers.append((w, metric, ref_d, LinPoly(ctx, ref_msg).codes))
    for limit in sorted({x for x in (1, ctx.p, ctx.p ** 2 + 1, count - 1) if x < count}):
        monkeypatch.setattr(gablab.code, "_CODEWORD_CACHE_LIMIT", limit)
        fresh = GabidulinCode(ctx, points, k)
        assert list(fresh._codeword_rows(oracle_cap=count)) == ref
        assert list(fresh._codeword_rows(oracle_cap=count, shift=shift)) == shifted
        assert fresh._cw_cache is None
        with pytest.raises(ValueError, match="raise the cap to proceed"):
            fresh._codeword_rows(oracle_cap=count - 1)
        for w, metric, ref_d, ref_codes in answers:
            d, msg = dist_to_code_exhaustive(fresh, w, metric)
            assert (d, msg.codes) == (ref_d, ref_codes)


def test_addition_row_memo_holds_to_its_limit():
    # GF(3^10), order 59,049, n = 3, k = 1: 59,049 cached codewords, so
    # every shift of the oracle stream takes one addition-table row per
    # position.  Over fresh addends the context's memo keeps rows while
    # they fit in _ADD_ROW_MEMO_LIMIT codes and never holds more; a kept
    # row is served again, a row past the limit is built and dropped, and
    # the shifted stream starts with the shift itself (codeword 0).
    ctx = FieldCtx(3, 1, 10)
    code = GabidulinCode(ctx, (1, 3, 9), 1)
    limit, memo = gablab.field._ADD_ROW_MEMO_LIMIT, ctx._add_rows
    assert 0 < limit // ctx.order < 12
    addends = random.Random(59049).sample(range(ctx.order), 12)
    for j in range(0, 12, 3):
        shift = addends[j:j + 3]
        rows = code._codeword_rows(shift=shift)
        assert len(memo) * ctx.order <= limit
        assert next(rows) == tuple(shift)
        assert next(rows) == tuple(ctx.add(col[1], c) for col, c in zip(code._cw_cache, shift))
    assert len(memo) == limit // ctx.order
    assert set(memo) == set(addends[:len(memo)])
    kept, dropped = addends[0], addends[-1]
    _, (row,) = ctx._translation([kept], ctx.order)
    assert row is memo[kept]
    _, (row,) = ctx._translation([dropped], ctx.order)
    assert dropped not in memo and row[0] == dropped and len(row) == ctx.order
    assert len(memo) == limit // ctx.order


def test_codewords_at_the_cache_limit_and_the_oracle_cap():
    # GF(2^8), n = k = 2: exactly _CODEWORD_CACHE_LIMIT codewords, all
    # cached.  GF(2^10), n = k = 2: exactly DEFAULT_ORACLE_CAP, streamed
    # under the default cap and sampled every 997th codeword.
    code = GabidulinCode(FieldCtx(2, 1, 8), (1, 2), 2)
    assert code.message_count() == gablab.code._CODEWORD_CACHE_LIMIT
    ref = list(_codewords_one_by_one(code, range(code.message_count())))
    assert list(code._codeword_rows()) == ref
    assert code._cw_cache == [list(col) for col in zip(*ref)]
    code = GabidulinCode(FieldCtx(2, 1, 10), (1, 2), 2)
    assert code.message_count() == DEFAULT_ORACLE_CAP
    sample, got = [], []
    for i, cw in enumerate(code._codeword_rows()):
        if i % 997 == 0:
            sample.append(i)
            got.append(cw)
    assert i + 1 == DEFAULT_ORACLE_CAP and code._cw_cache is None
    assert got == list(_codewords_one_by_one(code, sample))


@pytest.mark.parametrize("bad", [True, 8.0, "8"])
def test_oracle_cap_must_be_an_integer(gf8, bad):
    # GF(8), n = 3, k = 2: 64 codewords.  A cap that is not an int is
    # refused before any comparison; an integer cap keeps its message, and
    # None is the fixed default.
    code = GabidulinCode(gf8, (1, 2, 4), 2)
    w = code.word([1, 0, 0])
    calls = (lambda cap: dist_to_code_exhaustive(code, w, "rank", oracle_cap=cap),
             lambda cap: min_distance(code, "rank", oracle_cap=cap))
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == f"oracle cap must be an integer, got {bad!r}"
        with pytest.raises(ValueError) as exc:
            call(63)
        assert str(exc.value) == "64 codewords exceed the oracle cap 63; raise the cap to proceed"
        assert call(64) == call(None)
    assert min_distance(code, "rank", oracle_cap=None) == 2


# (p, s, m), n, k: the oracle-odd shape GF(81) n=4 k=2 and small odd
# codes, points 1, p, p**2, ...
ORACLE_DIGEST_CODES = [((3, 1, 4), 4, 2), ((3, 1, 3), 3, 1), ((3, 1, 3), 3, 2),
                       ((5, 1, 2), 2, 1), ((3, 2, 2), 2, 1)]
RAW_DIGEST_CODES = [((3, 1, 2), 2, 1), ((3, 1, 3), 2, 1)]


def test_odd_characteristic_oracle_answers_match_pinned_digest():
    # Per code and metric: five seeded words, one codeword, min_distance;
    # then the raw scan's radius and histogram.  Pinned from the digit-list
    # echelon that preceded the code-level one.
    answers = []
    for (p, s, m), n, k in ORACLE_DIGEST_CODES:
        ctx = FieldCtx(p, s, m)
        code = GabidulinCode(ctx, [p ** i for i in range(n)], k)
        rng = random.Random(f"oracle/{p}/{s}/{m}/{n}/{k}")
        for metric in ("rank", "hamming"):
            for _ in range(5):
                w = code.word([rng.randrange(ctx.order) for _ in range(n)])
                d, msg = dist_to_code_exhaustive(code, w, metric)
                answers.append((d, msg.codes))
            cw = code.encode(LinPoly(ctx, [rng.randrange(ctx.order) for _ in range(k)]))
            d, msg = dist_to_code_exhaustive(code, cw, metric)
            answers.append((d, msg.codes))
            answers.append(min_distance(code, metric))
    for (p, s, m), n, k in RAW_DIGEST_CODES:
        code = GabidulinCode(FieldCtx(p, s, m), [p ** i for i in range(n)], k)
        for metric in ("rank", "hamming"):
            answers.append(covering_radius_raw(code, metric))
    assert hashlib.sha256(repr(answers).encode()).hexdigest()[:16] == "f7d1ff4b9b05ffec"


def test_covering_radius_raw_frozen_gf8(gf8_code, monkeypatch):
    radius, hist = covering_radius_raw(gf8_code, "rank")
    assert radius == 2
    assert hist == {0: 8, 1: 392, 2: 112}
    radius_h, hist_h = covering_radius_raw(gf8_code, "hamming")
    assert radius_h == 2
    assert sum(hist_h.values()) == 512
    assert hist_h[0] == 8
    # Every coset streamed (cache limit 1), on a fresh code: the same answers.
    monkeypatch.setattr(gablab.code, "_CODEWORD_CACHE_LIMIT", 1)
    fresh = GabidulinCode(gf8_code.ctx, gf8_code.span.codes, gf8_code.k)
    assert covering_radius_raw(fresh, "rank") == (radius, hist)
    assert covering_radius_raw(fresh, "hamming") == (radius_h, hist_h)
    assert fresh._cw_cache is None


def test_packed_scan_matches_per_word_oracle(gf8_code):
    # The coset walk against one-word-at-a-time distances, in char 2.
    ctx = gf8_code.ctx
    for metric in ("rank", "hamming"):
        _, hist = covering_radius_raw(gf8_code, metric)
        recount: dict[int, int] = {}
        for a in range(8):
            for b in range(8):
                for c in range(8):
                    d, _ = dist_to_code_exhaustive(
                        gf8_code, gf8_code.word((a, b, c)), metric)
                    recount[d] = recount.get(d, 0) + 1
        assert recount == hist


@pytest.mark.parametrize("p,s,m,points", [
    (3, 1, 2, (1, 3)),   # GF(9)
    (5, 1, 2, (1, 5)),   # GF(25)
    (2, 2, 2, (1, 4)),   # GF(4^2), q = 4
])
@pytest.mark.parametrize("metric", ["rank", "hamming"])
def test_raw_scan_matches_per_word_oracle_beyond_gf8(p, s, m, points, metric):
    # Per-word distances do not rely on the coset property the walk uses.
    ctx = FieldCtx(p, s, m)
    code = GabidulinCode(ctx, points, 1)
    radius, hist = covering_radius_raw(code, metric)
    recount: dict[int, int] = {}
    for wc in itertools.product(range(ctx.order), repeat=code.n):
        d, _ = dist_to_code_exhaustive(code, code.word(wc), metric)
        recount[d] = recount.get(d, 0) + 1
    assert hist == recount
    assert radius == max(recount)


def test_generic_branch_matches_class_scan_gf27(gf27):
    # The coset walk in odd characteristic; the class scan (translation-
    # invariance route) must produce a consistent histogram.
    code = GabidulinCode(gf27, (1, 3), 1)
    radius, hist = covering_radius_raw(code, "rank")
    scan = covering_radius_scan(code, "rank")
    assert radius == scan.radius == 1
    assert hist == {d: c * 27 for d, c in scan.histogram.items()}
    radius_h, hist_h = covering_radius_raw(code, "hamming")
    scan_h = covering_radius_scan(code, "hamming")
    assert radius_h == scan_h.radius
    assert hist_h == {d: c * 27 for d, c in scan_h.histogram.items()}


def test_word_cap_guards():
    # Each guard fires at its constant: 2^25 words, 2^25 codewords and a
    # field of order 2^25 are all above it.
    gf32 = FieldCtx(2, 1, 5)
    with pytest.raises(ValueError, match=r"^33554432 words exceed the scan cap 1048576$"):
        covering_radius_raw(GabidulinCode(gf32, (1, 2, 4, 8, 16), 1), "rank")
    code55 = GabidulinCode(gf32, (1, 2, 4, 8, 16), 5)
    # No caller of iter_codewords can raise its cap, so no remedy is named;
    # the oracles take the caller's cap and name it.
    with pytest.raises(ValueError, match=r"^33554432 codewords exceed the oracle cap 1048576$"):
        list(code55.iter_codewords())
    with pytest.raises(ValueError, match=r"^33554432 codewords exceed the oracle cap 1048576; "
                                         r"raise the cap to proceed$"):
        min_distance(code55, "rank")
    with pytest.raises(ValueError, match=r"^33554432 codewords exceed the oracle cap 1048576; "
                                         r"raise the cap to proceed$"):
        dist_to_code_exhaustive(code55, code55.word([0] * 5), "rank")
    with pytest.raises(ValueError, match=r"^field order 2\^25 exceeds the cap 16777216$"):
        FieldCtx(2, 1, 25)


# -- spec files ----------------------------------------------------------------------


def test_format_parse_round_trip(code24, gf27):
    code27 = GabidulinCode(gf27, (1, 3, 9), 2)
    for code in (code24, code27):
        text = format_code_spec(code)
        back = parse_code_spec(text)
        assert back.k == code.k
        assert back.ctx.modulus == code.ctx.modulus
        assert [g.code for g in back.points] == [g.code for g in code.points]


def test_parse_code_spec_defaults_and_comments():
    text = """
# evaluation code over GF(2^3)
p=2
s=1
m=3

n=3
k=1
g=1,2,4
"""
    code = parse_code_spec(text)
    assert code.ctx.modulus == (1, 1, 0, 1)  # default modulus kicks in
    assert code.n == 3


@pytest.mark.parametrize("mutation,fragment", [
    ("drop", "missing keys"),
    ("noeq", "not key=value"),
    ("badnum", "malformed number"),
    ("badcount", "lists 2 points"),
    ("dependent", "dependent"),
])
def test_parse_code_spec_malformed(mutation, fragment):
    base = {"p": "2", "s": "1", "m": "3", "n": "3", "k": "1", "g": "1,2,4"}
    lines = []
    if mutation == "drop":
        base.pop("k")
    elif mutation == "badnum":
        base["k"] = "one"
    elif mutation == "badcount":
        base["g"] = "1,2"
    elif mutation == "dependent":
        base["g"] = "1,2,3"
    lines = [f"{k}={v}" for k, v in base.items()]
    if mutation == "noeq":
        lines.append("just some text")
    with pytest.raises(ValueError, match=fragment):
        parse_code_spec("\n".join(lines))


def test_parse_code_spec_rejects_unknown_and_duplicate_keys():
    base = "p=2\ns=1\nm=3\nn=3\nk=1\ng=1,2,4\n"
    with pytest.raises(ValueError, match="unknown key 'modulos'"):
        parse_code_spec(base + "modulos=1,0,1,1\n")
    with pytest.raises(ValueError, match="repeats key 'k'"):
        parse_code_spec(base + "k=2\n")
    with pytest.raises(ValueError, match="repeats key 'modulus'"):
        parse_code_spec(base + "modulus=1,1,0,1\nmodulus=1,0,1,1\n")


def test_parse_respects_field_cap(tmp_path, capsys):
    # GF(2^25) is above the default field cap of 2^24.
    text = "p=2\ns=1\nm=25\nn=1\nk=1\ng=1\n"
    with pytest.raises(ValueError, match="exceeds the cap"):
        parse_code_spec(text)
    spec = tmp_path / "big.txt"
    spec.write_text(text)
    assert main(["field", "--spec", str(spec)]) == 1
    assert "exceeds the cap" in capsys.readouterr().err
