"""Deep-hole classification against the exhaustive codeword oracle.

The central property: for every translation class over the small binary
fields, the witness search must report exactly the distance the
brute-force oracle computes, in both metrics.  Everything else here pins
invariances (translation, scaling), the two independent witness routes at
q-degree k+1, scan determinism across worker counts, and the structured
families.
"""

import hashlib
import random
import re

import pytest

import gablab.code
from gablab import deephole, subspaces
from gablab import (FieldCtx, FieldElement, GabidulinCode, LinPoly, annihilator,
                    classify_poly, covering_radius_raw, covering_radius_scan,
                    dist_to_code_exhaustive, distance_by_search,
                    equality_witness, excluded_leading_set, family_check,
                    min_distance, minor_coeff, parse_code_spec, q_lagrange,
                    q_lagrange_by_minors, quadric_census, quadric_v, ratio_lemma_check,
                    subspace_bases)
from gablab.deephole import _witness_codes
from gablab.field import _INV_MEMO_LIMIT, _base_digits, gaussian_binomial


def _class_poly(code, idx):
    """The representative of class idx: digits of idx over the field order
    as the coefficients a_k..a_{n-1}, zeros below."""
    return LinPoly(code.ctx, [0] * code.k + _base_digits(idx, code.ctx.order, code.n - code.k))


# -- search == oracle, exhaustively ------------------------------------------------


@pytest.mark.parametrize("m,k", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_classify_matches_oracle_on_every_class(m, k):
    ctx = FieldCtx(2, 1, m)
    points = [2**j for j in range(m)]
    code = GabidulinCode(ctx, points, k)
    n = m
    for metric in ("rank", "hamming"):
        for idx in range(ctx.order ** (n - k)):
            f = _class_poly(code, idx)
            res = classify_poly(code, f, metric)
            oracle, _ = dist_to_code_exhaustive(code, code.evaluate(f), metric)
            assert res.distance == oracle
            assert res.is_deep_hole == (oracle == n - k)
            d = f.deg_q
            if d >= k:
                assert res.bound == n - d
                assert n - d <= res.distance <= n - k
            else:
                assert res.distance == 0


def test_distance_is_translation_invariant(code24):
    # Adding any codeword never changes the reported distance.
    ctx = code24.ctx
    rng = random.Random(101)
    for _ in range(25):
        w = code24.word([rng.randrange(16) for _ in range(4)])
        msg = LinPoly(ctx, [rng.randrange(16) for _ in range(code24.k)])
        shifted = code24.word([ctx.add(a, b)
                               for a, b in zip(w.codes, code24.encode(msg).codes)])
        for metric in ("rank", "hamming"):
            assert (distance_by_search(code24, w, metric).distance
                    == distance_by_search(code24, shifted, metric).distance)


def test_distance_is_scaling_invariant(code24):
    ctx = code24.ctx
    rng = random.Random(103)
    for _ in range(25):
        w = code24.word([rng.randrange(16) for _ in range(4)])
        c = rng.randrange(1, 16)
        scaled = code24.word([ctx.mul(c, x) for x in w.codes])
        for metric in ("rank", "hamming"):
            assert (distance_by_search(code24, w, metric).distance
                    == distance_by_search(code24, scaled, metric).distance)


def test_classify_word_alias_and_codeword_case(code24):
    zero = code24.word((0, 0, 0, 0))
    res = distance_by_search(code24, zero, "rank")
    assert res.distance == 0
    assert res.bound == 0
    assert not res.is_deep_hole
    assert res.witness is None
    cw = code24.encode(LinPoly(code24.ctx, (7, 9)))
    assert distance_by_search(code24, cw, "hamming").distance == 0


def test_full_dimension_code_words_are_deep_holes(gf8):
    # k = n: every word is a codeword, distance 0 = n - k.
    code = GabidulinCode(gf8, (1, 2, 4), 3)
    res = distance_by_search(code, code.word((3, 5, 6)), "rank")
    assert res.distance == 0
    assert res.is_deep_hole


def test_classify_rejects_overdegree_and_foreign_polynomials(code24, gf8):
    with pytest.raises(ValueError):
        classify_poly(code24, LinPoly.monomial(code24.ctx, 4), "rank")
    with pytest.raises(ValueError):
        classify_poly(code24, LinPoly(gf8, (1,)), "rank")
    with pytest.raises(ValueError):
        classify_poly(code24, LinPoly.monomial(code24.ctx, 3), "euclid")


POLY_ENTRY_POINTS = {
    "encode": lambda code, f: code.encode(f),
    "evaluate": lambda code, f: code.evaluate(f),
    "classify_poly": lambda code, f: classify_poly(code, f, "rank"),
    "equality_witness": lambda code, f: equality_witness(code, f, "rank"),
    "ratio_lemma_check": lambda code, f: ratio_lemma_check(code, f, "rank"),
    "family_check": lambda code, f: family_check(code, "frobenius_shift", low=f),
}


# family_check's low=None is the zero low part, not a bad value.
@pytest.mark.parametrize("entry,bad", [
    (entry, bad) for entry in POLY_ENTRY_POINTS
    for bad in ("tuple", "list", "None", "other-context")
    if (entry, bad) != ("family_check", "None")])
def test_polynomial_entry_points_refuse_non_polynomials_alike(code24, entry, bad):
    # Each reads its argument by code._check_poly, before its degree check;
    # a tuple or a list of codes is not a LinPoly, and neither is a LinPoly
    # of another context with the same parameters.
    f = {"tuple": (0, 0, 1), "list": [0, 0, 1], "None": None,
         "other-context": LinPoly(FieldCtx(2, 1, 4), (0, 0, 1))}[bad]
    with pytest.raises(ValueError, match="^polynomial must be a LinPoly over the code's field "
                                         "context$"):
        POLY_ENTRY_POINTS[entry](code24, f)


# -- search on a field above the table limit ------------------------------------------------


def _bigfield_words():
    """A GF(2^17), n = 5, k = 1 code and ten seeded words: three random,
    four codewords plus an error of F_2-rank <= 1, 2, 3, 1 and three plus
    an error on 1, 2, 3 positions."""
    ctx = FieldCtx(2, 1, 17)
    rng = random.Random(1711)
    while True:
        points = [rng.randrange(1, ctx.order) for _ in range(5)]
        if ctx.span_dim(points) == 5:
            break
    code = GabidulinCode(ctx, points, 1)
    words = []
    for i in range(10):
        cw = code.encode(LinPoly(ctx, [rng.randrange(ctx.order)])).codes
        err = [0] * 5
        if i < 3:
            err = [rng.randrange(ctx.order) for _ in range(5)]
        elif i < 7:
            for _ in range((1, 2, 3, 1)[i - 3]):
                e = rng.randrange(1, ctx.order)
                err = [x ^ (e if rng.randrange(2) else 0) for x in err]
        else:
            for j in rng.sample(range(5), i - 6):
                err[j] = rng.randrange(1, ctx.order)
        words.append(code.word([a ^ b for a, b in zip(cw, err)]))
    return code, words


def test_bigfield_search_answers_are_pinned():
    # Computed before the descent moved to word values; distance and
    # witness codes in both metrics.
    code, words = _bigfield_words()
    answers = []
    for w in words:
        for metric in ("rank", "hamming"):
            res = distance_by_search(code, w, metric)
            answers.append((metric, res.distance, _witness_codes(res.witness)))
    digest = hashlib.sha256(repr(answers).encode()).hexdigest()
    assert digest[:16] == "183acba9e411dc0b"


def test_bigfield_search_matches_the_streamed_oracle():
    # The exhaustive oracle walks all 2^17 codewords per call, streamed
    # past the cache limit.  Four of the ten words, for time, give every
    # rank distance 1..4 and the Hamming distances 2, 3 and 4.
    code, words = _bigfield_words()
    assert code.message_count() == 1 << 17
    for i in (0, 3, 8, 9):
        for metric in ("rank", "hamming"):
            d, _ = dist_to_code_exhaustive(code, words[i], metric)
            assert distance_by_search(code, words[i], metric).distance == d
    assert code._cw_cache is None


def test_search_evaluates_the_representative_at_most_n_times(monkeypatch):
    code, words = _bigfield_words()
    calls = []
    real = LinPoly.__call__

    def counting(self, u):
        calls.append(1)
        return real(self, u)

    monkeypatch.setattr(LinPoly, "__call__", counting)
    res = distance_by_search(code, words[0], "rank")  # a random word: deep
    assert res.distance == 4
    assert len(calls) <= code.n


def test_deep_word_search_walks_level_k_plus_1_only(monkeypatch):
    # A deep hole is settled by one rejected level k+1, and the first
    # k-dimensional witness is read off the code: [5,2]_2 = 155
    # candidates in rank and C(5,2) = 10 in Hamming.  Walking down from
    # deg_q f = 4 would take 31 + 155 + 155 + 1 = 342 in rank.
    code, words = _bigfield_words()
    walked = []
    real = deephole._candidates

    def counting(*args):
        for cand in real(*args):
            walked.append(1)
            yield cand

    monkeypatch.setattr(deephole, "_candidates", counting)
    for metric, most in (("rank", 155), ("hamming", 10)):
        walked.clear()
        res = distance_by_search(code, words[0], metric)
        assert res.is_deep_hole
        assert len(walked) <= most


def test_search_builds_few_field_elements(monkeypatch):
    # Candidates are walked on integer codes: a FieldElement is built only
    # at the API edge (the word, the points, f's values on them), never
    # per candidate subspace.
    ctx = FieldCtx(2, 1, 6)
    code = GabidulinCode(ctx, [2 ** j for j in range(6)], 1)
    w = code.word([5, 9, 17, 33, 3, 40])
    built = []
    real = FieldElement.__init__

    def counting(self, ctx, code):
        built.append(1)
        real(self, ctx, code)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    res = distance_by_search(code, w, "rank")
    assert res.witness.dim == code.n - res.distance
    assert len(built) <= 30


def test_paths_below_the_api_edge_build_no_field_element(monkeypatch):
    # Int operands are read by FieldCtx._code and kept as codes: parsing a
    # spec, evaluating, making a word, both interpolation routes, both
    # witness routes (which normalise f on codes) and a family check on a
    # parsed spec build no FieldElement at all.
    built = []
    real = FieldElement.__init__

    def counting(self, ctx, code):
        built.append(code)
        real(self, ctx, code)

    monkeypatch.setattr(FieldElement, "__init__", counting)
    counts = {}

    def run(label, fn, *args, **kwargs):
        built.clear()
        out = fn(*args, **kwargs)
        counts[label] = len(built)
        return out

    code = run("parse_code_spec", parse_code_spec,
               "p=2\ns=1\nm=5\nn=5\nk=1\ng=1,2,4,8,16\nmodulus=1,0,1,0,0,1\n")
    f = LinPoly(code.ctx, (3, 7, 5))  # q-degree k + 1, lead 5
    w = run("evaluate", code.evaluate, f)
    assert run("word", code.word, list(w.codes)) == w
    assert run("q_lagrange", q_lagrange, code.span, w.codes) == f
    assert run("q_lagrange_by_minors", q_lagrange_by_minors, code.span, w.codes) == f
    for metric in ("rank", "hamming"):
        run(f"equality_witness {metric}", equality_witness, code, f, metric)
        run(f"ratio_lemma_check {metric}", ratio_lemma_check, code, f, metric)
        assert run(f"family_check {metric}", family_check, code, "k1_odd_m", c=3,
                   metric=metric).agree
    assert counts == dict.fromkeys(counts, 0)
    assert len(counts) == 11


def _direct_route_words(which):
    """A fresh code above the table limit, so a fresh inverse memo, with a
    deep word x^(q^(k+1)) on the points, a codeword plus an error of
    F_p-rank 1, one of F_p-rank 2 and a random word.  GF(2^17), n = 5,
    k = 1 is ``_bigfield_words``."""
    if which == "gf2^17 n5 k1":
        return _bigfield_words()
    p, m, n, k = {"gf2^17 n6 k2": (2, 17, 6, 2), "gf3^11 n4 k1": (3, 11, 4, 1)}[which]
    ctx = FieldCtx(p, 1, m)
    code = GabidulinCode(ctx, [p ** j for j in range(n)], k)
    rng = random.Random(m * 100 + n)
    words = [code.evaluate(LinPoly.monomial(ctx, k + 1))]
    for rank in (1, 2):
        err = [0] * n
        for _ in range(rank):
            e = rng.randrange(1, ctx.order)
            err = [ctx.add(x, ctx.mul(e, rng.randrange(p))) for x in err]
        cw = code.encode(LinPoly(ctx, [rng.randrange(ctx.order) for _ in range(k)]))
        words.append(code.word([ctx.add(a, b) for a, b in zip(cw.codes, err)]))
    words.append(code.word([rng.randrange(ctx.order) for _ in range(n)]))
    return code, words


@pytest.mark.parametrize("which", ["gf2^17 n5 k1", "gf2^17 n6 k2", "gf3^11 n4 k1"])
def test_search_answers_do_not_depend_on_the_inverse_memo(monkeypatch, which):
    # Every Moore pivot is word-independent, so the memo turns per-word
    # inversions into hits; with no room in the memo every inverse is
    # computed afresh.  Both runs must give the same answers.
    answers = []
    for limit in (0, _INV_MEMO_LIMIT):
        monkeypatch.setattr("gablab.field._INV_MEMO_LIMIT", limit)
        code, words = _direct_route_words(which)
        answers.append([_answer(distance_by_search(code, w, metric))
                        for w in words for metric in ("rank", "hamming")])
        assert bool(code.ctx._inv_memo) == bool(limit)
    assert answers[0] == answers[1]
    assert any(dist == code.n - code.k for dist, *_ in answers[0])  # a deep word


# -- the per-code plan of candidates ---------------------------------------------------


def _answer(res):
    return res.distance, res.bound, res.is_deep_hole, _witness_codes(res.witness)


def test_plan_limit_keeps_the_bench_levels_and_streams_gf256_level_3():
    # GF(2^17), n = 5: levels of 155, 155, 31 and 1 candidates are kept;
    # GF(2^8), n = 8, k = 2: level 3 (97,155 candidates) streams.
    assert max(gaussian_binomial(5, t, 2) for t in range(1, 6)) <= deephole._PLAN_LIMIT
    assert gaussian_binomial(8, 3, 2) > deephole._PLAN_LIMIT


def test_search_walks_each_planned_level_once_per_code(monkeypatch):
    # The first deep word lists level k+1 whole; a second word on the same
    # code draws no candidate and evaluates f nowhere.
    code, words = _bigfield_words()
    walked, evals = [], []
    real_cands, real_call = deephole._candidates, LinPoly.__call__

    def counting(*args):
        for cand in real_cands(*args):
            walked.append(1)
            yield cand

    def counting_call(self, u):
        evals.append(1)
        return real_call(self, u)

    monkeypatch.setattr(deephole, "_candidates", counting)
    monkeypatch.setattr(LinPoly, "__call__", counting_call)
    for metric, level in (("rank", 155), ("hamming", 10)):
        walked.clear()
        first = distance_by_search(code, words[0], metric)
        assert first.is_deep_hole and len(walked) == level
        assert len(code._plan[2, metric]) == level
        second = distance_by_search(code, words[1], metric)
        assert second.is_deep_hole and len(walked) == level
    assert evals == []


def test_streamed_level_is_not_kept(monkeypatch, code24):
    code = GabidulinCode(code24.ctx, code24.span.codes, 1)
    monkeypatch.setattr(deephole, "_PLAN_LIMIT", 34)  # [4,2]_2 = 35
    w = code.evaluate(LinPoly.monomial(code.ctx, 3))
    for metric in ("rank", "hamming"):
        distance_by_search(code, w, metric)
    assert (2, "rank") not in code._plan
    assert len(code._plan[2, "hamming"]) == 6


def test_one_word_searched_twice_gives_identical_answers():
    code, words = _bigfield_words()
    for w in words:
        for metric in ("rank", "hamming"):
            first = distance_by_search(code, w, metric)
            assert _answer(distance_by_search(code, w, metric)) == _answer(first)


def test_short_lived_codes_match_the_oracle():
    # Each code is dropped after one word, so a later code may reuse its
    # id; every plan belongs to its own code, so no answer is stale.
    rng = random.Random(2112)
    for m in (3, 4) * 40:
        ctx = FieldCtx(2, 1, m)
        while True:
            points = [rng.randrange(1, ctx.order) for _ in range(m)]
            if ctx.span_dim(points) == m:
                break
        code = GabidulinCode(ctx, points, rng.randint(1, 2))
        w = code.word([rng.randrange(ctx.order) for _ in range(m)])
        for metric in ("rank", "hamming"):
            assert (distance_by_search(code, w, metric).distance
                    == dist_to_code_exhaustive(code, w, metric)[0])


@pytest.mark.parametrize("metric,what", [("rank", "subspaces"), ("hamming", "subsets")])
def test_subspace_cap_is_checked_alike_in_both_metrics(code24, metric, what):
    # Level 3 of n = 4 holds [4,3]_2 = 15 subspaces or C(4,3) = 4 subsets.
    code = GabidulinCode(code24.ctx, code24.span.codes, 2)
    w = code.word([1, 2, 4, 9])
    count = 15 if metric == "rank" else 4
    expected = _answer(distance_by_search(code, w, metric))
    code._plan.clear()
    for cached in (False, True):
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match=f"^subspace cap must be an integer, got {bad}$"):
                distance_by_search(code, w, metric, subspace_cap=bad)
        for cap in (-1, count - 1):
            msg = (f"{count} candidate {what} exceed the subspace cap {cap}; "
                   "raise the cap to proceed")
            with pytest.raises(ValueError) as exc:
                distance_by_search(code, w, metric, subspace_cap=cap)
            assert str(exc.value) == msg
        assert ((3, metric) in code._plan) == cached
        assert _answer(distance_by_search(code, w, metric, subspace_cap=None)) == expected
        assert _answer(distance_by_search(code, w, metric, subspace_cap=count)) == expected


@pytest.mark.parametrize("metric", ["rank", "hamming"])
@pytest.mark.parametrize("bad", ["x", True, 1.5])
def test_subspace_cap_is_read_before_any_level(code24, metric, bad):
    # A codeword and a class of q-degree k walk no level, yet a cap that
    # is not an integer is refused for them too, by both entry points.
    msg = f"^{re.escape(f'subspace cap must be an integer, got {bad!r}')}$"
    for f in (LinPoly(code24.ctx, (3, 5)), LinPoly.monomial(code24.ctx, code24.k, 7)):
        with pytest.raises(ValueError, match=msg):
            classify_poly(code24, f, metric, subspace_cap=bad)
        with pytest.raises(ValueError, match=msg):
            distance_by_search(code24, code24.evaluate(f), metric, subspace_cap=bad)


# Every enumerating entry point, on GF(2^4) with code24's points and k = 2:
# (call with the cap, count, what is counted, the cap's name, the module
# constant that holds a fixed cap or None when the caller passes it, the
# first thing drawn after the guard).  Level 3 holds [4,3]_2 = 15 subspaces
# or C(4,3) = 4 subsets; the code has 16^2 = 256 codewords and classes, the
# field 15^2 = 225 quadric pairs, and there are 16^4 = 65,536 words.
_DEG3 = (0, 0, 0, 1)
CAP_ENTRIES = {
    "search-rank": (
        lambda code, cap: distance_by_search(code, code.word([1, 2, 4, 9]), "rank", cap),
        15, "candidate subspaces", "subspace", None, (deephole, "_candidates")),
    "search-hamming": (
        lambda code, cap: distance_by_search(code, code.word([1, 2, 4, 9]), "hamming", cap),
        4, "candidate subsets", "subspace", None, (deephole, "_candidates")),
    "classify_poly": (
        lambda code, cap: classify_poly(code, LinPoly(code.ctx, _DEG3), "rank", cap),
        15, "candidate subspaces", "subspace", None, (deephole, "_candidates")),
    "family_check": (
        lambda code, cap: family_check(code, "frobenius_shift", subspace_cap=cap),
        15, "candidate subspaces", "subspace", None, (deephole, "_candidates")),
    "subspace_bases": (
        lambda code, cap: list(subspace_bases(code.span, 3, cap)),
        15, "candidate subspaces", "subspace", None, (subspaces, "_combine_rows")),
    "dist_to_code_exhaustive": (
        lambda code, cap: dist_to_code_exhaustive(code, code.word([1, 0, 0, 0]), "rank", cap),
        256, "codewords", "oracle", None, (gablab.code, "_span_flat")),
    "min_distance": (
        lambda code, cap: min_distance(code, "rank", cap),
        256, "codewords", "oracle", None, (gablab.code, "_least_weight")),
    "covering_radius_scan": (
        lambda code, cap: covering_radius_scan(code, "rank", cap),
        256, "classes", "scan", None, (deephole, "_sieve")),
    "quadric_census": (
        lambda code, cap: quadric_census(code.ctx, 1, cap=cap),
        225, "pairs", "quadric", None, (deephole, "_pair_quadric_value")),
    "equality_witness": (
        lambda code, _: equality_witness(code, LinPoly(code.ctx, _DEG3), "rank"),
        15, "candidate subspaces", "subspace", (deephole, "DEFAULT_SUBSPACE_CAP"),
        (deephole, "subspace_bases")),
    "ratio_lemma_check": (
        lambda code, _: ratio_lemma_check(code, LinPoly(code.ctx, _DEG3), "rank"),
        15, "candidate subspaces", "subspace", (deephole, "DEFAULT_SUBSPACE_CAP"),
        (deephole, "subspace_bases")),
    "sieve": (
        lambda code, _: covering_radius_scan(code, "rank"),
        15, "candidate subspaces", "subspace", (deephole, "DEFAULT_SUBSPACE_CAP"),
        (deephole, "subspace_bases")),
    "covering_radius_raw": (
        lambda code, _: covering_radius_raw(code, "rank"),
        65536, "words", "scan", (gablab.code, "DEFAULT_WORD_SCAN_CAP"),
        (GabidulinCode, "_codeword_rows")),
    "iter_codewords": (
        lambda code, _: list(code.iter_codewords()),
        256, "codewords", "oracle", (gablab.code, "DEFAULT_ORACLE_CAP"),
        (gablab.code, "_span_flat")),
    "dist_to_code_exhaustive-None": (
        lambda code, _: dist_to_code_exhaustive(code, code.word([1, 0, 0, 0]), "rank", None),
        256, "codewords", "oracle", (gablab.code, "DEFAULT_ORACLE_CAP"),
        (gablab.code, "_span_flat")),
}


def _drawn(*args, **kwargs):
    raise AssertionError("drawn before the cap was checked")


@pytest.mark.parametrize("entry", list(CAP_ENTRIES))
def test_every_cap_follows_one_rule(monkeypatch, code24, entry):
    # A cap that is not an int, and a count one above the cap, are refused
    # before the first draw; only a cap the caller passed names the remedy.
    # A cap equal to the count runs.  Each call gets a fresh code, so no
    # plan or codeword list is left over from an earlier one.
    call, count, what, name, fixed, draw = CAP_ENTRIES[entry]

    def run(cap, guarded):
        with monkeypatch.context() as patch:
            if fixed:
                patch.setattr(*fixed, cap)
            if guarded:
                patch.setattr(*draw, _drawn)
            return call(GabidulinCode(code24.ctx, code24.span.codes, 2), cap)

    for bad in (True, 2.5, "8"):
        with pytest.raises(ValueError) as exc:
            run(bad, guarded=True)
        assert str(exc.value) == f"{name} cap must be an integer, got {bad!r}"
    with pytest.raises(ValueError) as exc:
        run(count - 1, guarded=True)
    remedy = "" if fixed else "; raise the cap to proceed"
    assert str(exc.value) == f"{count} {what} exceed the {name} cap {count - 1}{remedy}"
    run(count, guarded=False)


# -- equality witnesses ---------------------------------------------------------------


def test_equality_witness_certifies_bound_attainment(code24):
    # Constructed positive: f = annihilator of a 3-dim subspace has
    # distance exactly n - 3 = 1, witnessed by that subspace.
    sub3 = next(iter(subspace_bases(code24.span, 3, None)))
    f = annihilator(sub3)
    wit = equality_witness(code24, f, "rank")
    assert wit is not None
    assert wit.same_span(sub3)
    assert classify_poly(code24, f, "rank").distance == 1


def test_equality_witness_absent_for_deep_degree_k_plus_1(code24):
    # x^(q^3) at k = 2, n = 4: distance is n - k = 2 > n - 3, so no witness.
    f = LinPoly.monomial(code24.ctx, 3)
    assert equality_witness(code24, f, "rank") is None
    res = classify_poly(code24, f, "rank")
    assert res.distance == 2
    assert res.is_deep_hole


def test_equality_witness_absent_on_gf32_square_frobenius():
    ctx = FieldCtx(2, 1, 5)
    code = GabidulinCode(ctx, [2**j for j in range(5)], 1)
    f = LinPoly.monomial(ctx, 2)  # x^(q^2), k = 1: deep, bound not attained
    for metric in ("rank", "hamming"):
        assert equality_witness(code, f, metric) is None


def test_equality_witness_iff_oracle_meets_bound(gf8):
    code = GabidulinCode(gf8, (1, 2, 4), 1)
    for metric in ("rank", "hamming"):
        for idx in range(64):
            f = _class_poly(code, idx)
            if f.deg_q < 1:
                continue
            oracle, _ = dist_to_code_exhaustive(code, code.evaluate(f), metric)
            wit = equality_witness(code, f, metric)
            assert (wit is not None) == (oracle == 3 - f.deg_q)


def test_equality_witness_degree_guards(code24):
    with pytest.raises(ValueError):
        equality_witness(code24, LinPoly(code24.ctx, (1,)), "rank")  # deg 0 < k
    with pytest.raises(ValueError):
        equality_witness(code24, LinPoly.monomial(code24.ctx, 4), "rank")
    with pytest.raises(ValueError):
        equality_witness(code24, LinPoly.zero(code24.ctx), "rank")


# -- the two witness routes at degree k+1 ------------------------------------------------


def test_ratio_route_equals_annihilator_route_everywhere(gf16):
    # All 256 monic degree-2 representatives at k = 1, both metrics: same
    # accept/reject decision and the same first witness.
    code = GabidulinCode(gf16, (1, 2, 4, 8), 1)
    for metric in ("rank", "hamming"):
        for a1 in range(16):
            for a0 in range(16):
                f = LinPoly(gf16, (a0, a1, 1))
                w1 = equality_witness(code, f, metric)
                w2 = ratio_lemma_check(code, f, metric)
                if w1 is None:
                    assert w2 is None
                elif metric == "rank":
                    assert w2 is not None
                    assert w1.same_span(w2)
                else:
                    assert w1 == w2


@pytest.mark.parametrize("metric", ["rank", "hamming"])
def test_witness_routes_are_invariant_under_scaling(gf27, metric):
    # Both routes normalise f on codes, one inverse of its lead and then
    # products: f and lam*f give the same witness for every lam != 0.
    code = GabidulinCode(gf27, (1, 3, 9), 1)
    witnessed = 0
    for a1 in range(gf27.order):
        for a0 in (0, 4):
            f = LinPoly(gf27, (a0, a1, 1))
            want = [_witness_codes(route(code, f, metric))
                    for route in (equality_witness, ratio_lemma_check)]
            witnessed += want[0] is not None
            for lam in range(1, gf27.order):
                assert [_witness_codes(route(code, f * lam, metric))
                        for route in (equality_witness, ratio_lemma_check)] == want
    assert 0 < witnessed < 2 * gf27.order


def test_ratio_lemma_check_degree_guards(code24, gf8):
    with pytest.raises(ValueError):
        ratio_lemma_check(code24, LinPoly.monomial(code24.ctx, 2), "rank")  # deg != k+1
    full = GabidulinCode(gf8, (1, 2, 4), 2)
    with pytest.raises(ValueError):
        # k + 1 = n: the lemma range is empty for this code.
        ratio_lemma_check(full, LinPoly.monomial(gf8, 3), "rank")


# -- class scans ---------------------------------------------------------------------------


def test_scan_frozen_gf8_and_row_content(gf8_code):
    scan = covering_radius_scan(gf8_code, "rank")
    assert scan.radius == 2
    assert scan.classes == 64
    assert scan.histogram == {0: 1, 1: 49, 2: 14}
    rows = list(scan.rows())
    assert list(scan.rows()) == rows  # every call expands the blocks afresh
    assert [r[0] for r in rows] == list(range(64))
    for idx, codes, dist, deep, wit in rows:
        assert len(codes) == 3 and codes[0] == 0  # a_0..a_2, zero below k
        assert deep == (dist == 2)
        f = LinPoly(gf8_code.ctx, codes)
        assert classify_poly(gf8_code, f, "rank").distance == dist
    # degree-k classes: leading coefficient at q-degree 1, zero above
    deg_k = [r for r in rows if r[1][2] == 0 and r[1][1]]
    assert [r[0] for r in deg_k] == list(range(1, 8))
    assert all(r[2] == 2 for r in deg_k)


def test_scan_without_rows_and_caps(gf8_code):
    with pytest.raises(ValueError):
        covering_radius_scan(gf8_code, "rank", scan_cap=63)


@pytest.mark.parametrize("bad", [True, False, 64.0, None, "64"])
def test_scan_cap_must_be_an_integer(gf8_code, bad):
    # GF(8), n = 3, k = 1: 64 classes.  A cap that is not an int is refused
    # before any comparison; an integer cap keeps its message.
    with pytest.raises(ValueError) as exc:
        covering_radius_scan(gf8_code, "rank", scan_cap=bad)
    assert str(exc.value) == f"scan cap must be an integer, got {bad!r}"
    with pytest.raises(ValueError) as exc:
        covering_radius_scan(gf8_code, "rank", scan_cap=63)
    assert str(exc.value) == "64 classes exceed the scan cap 63; raise the cap to proceed"
    assert covering_radius_scan(gf8_code, "rank", scan_cap=64).classes == 64


def _per_class_scan(code, metric):
    # Reference: classify every class on its own, no orbit reduction.
    hist, rows = {}, []
    for idx in range(code.ctx.order ** (code.n - code.k)):
        f = _class_poly(code, idx)
        res = classify_poly(code, f, metric)
        hist[res.distance] = hist.get(res.distance, 0) + 1
        coeffs = f.codes + (0,) * (code.n - len(f.codes))
        rows.append((idx, coeffs, res.distance, res.is_deep_hole,
                     _witness_codes(res.witness)))
    return dict(sorted(hist.items())), rows


@pytest.mark.parametrize("field_fixture,points,k", [
    ("gf8", (1, 2, 4), 1),
    ("gf16", (1, 2, 4, 8), 2),
    ("gf27", (1, 3, 9), 1),
    ("tower16", (1, 4), 1),
    # Three class digits: rows two digits below the top coefficient.
    ("gf16", (1, 2, 4, 8), 1),
])
def test_orbit_scan_equals_per_class_reference(request, field_fixture, points, k):
    code = GabidulinCode(request.getfixturevalue(field_fixture), points, k)
    for metric in ("rank", "hamming"):
        hist, rows = _per_class_scan(code, metric)
        scan = covering_radius_scan(code, metric)
        assert scan.histogram == hist
        assert list(scan.rows()) == rows
        assert scan.radius == max(hist)
        assert scan.classes == len(rows)


def test_scan_makes_no_descent_and_one_annihilator_per_candidate(gf8_code, monkeypatch):
    # The sieve builds its annihilators with the code-level kernel, so the
    # count goes through the name it calls, not the LinPoly wrapper.
    descents, annihilators = [], []
    real_classify, real_kernel = deephole.classify_poly, deephole._annihilator_codes

    def counting_classify(code, f, *args, **kwargs):
        descents.append(f.codes)
        return real_classify(code, f, *args, **kwargs)

    def counting_kernel(ctx, codes):
        annihilators.append(tuple(codes))
        return real_kernel(ctx, codes)

    monkeypatch.setattr(deephole, "classify_poly", counting_classify)
    monkeypatch.setattr(deephole, "_annihilator_codes", counting_kernel)
    for metric in ("rank", "hamming"):
        annihilators.clear()
        scan = covering_radius_scan(gf8_code, metric)
        assert sum(1 for _ in scan.rows()) == 64
        # At most one per candidate of the sieve levels t = k+1..n-1: the
        # 7 planes of GF(2)^3, or the 3 point pairs.
        assert 0 < len(annihilators) <= (7 if metric == "rank" else 3)
        assert len(set(annihilators)) == len(annihilators)
    assert descents == []


def test_scan_radius_equals_n_minus_k_on_small_mrd_codes(gf16):
    for k in (1, 2, 3):
        code = GabidulinCode(gf16, (1, 2, 4, 8), k)
        assert covering_radius_scan(code, "rank").radius == 4 - k


def test_scan_histograms_at_the_default_cap():
    # GF(2^5), n = m = 5, k = 1: 2^20 classes, 33,826 units.  Both
    # histograms were checked unit by unit against classify_poly.
    ctx = FieldCtx(2, 1, 5, modulus=(1, 0, 1, 0, 0, 1))
    code = GabidulinCode(ctx, (1, 2, 4, 8, 16), 1)
    rank = covering_radius_scan(code, "rank")
    assert rank.classes == 1 << 20
    assert rank.histogram == {0: 1, 1: 961, 2: 144150, 3: 903340, 4: 124}
    hamming = covering_radius_scan(code, "hamming")
    assert hamming.histogram == {0: 1, 1: 155, 2: 9610, 3: 283650, 4: 755160}


def test_scan_histograms_gf64_n6_k2():
    # GF(2^6) with its default modulus, n = m = 6, k = 2: 2^24 classes,
    # 266,305 units, past the default cap.  Pinned from the digit-list
    # sieve, which summed class vectors digit by digit.
    code = GabidulinCode(FieldCtx(2, 1, 6), (1, 2, 4, 8, 16, 32), 2)
    rank = covering_radius_scan(code, "rank", scan_cap=1 << 24)
    assert rank.histogram == {0: 1, 1: 3969, 2: 2542806, 3: 14230314, 4: 126}
    hamming = covering_radius_scan(code, "hamming", scan_cap=1 << 24)
    assert hamming.histogram == {0: 1, 1: 378, 2: 59535, 3: 4615884, 4: 12101418}


# -- excluded leading set --------------------------------------------------------------------


def test_excluded_set_is_the_minor_ratio_image(gf27):
    code = GabidulinCode(gf27, (1, 3, 9), 1)
    excl = excluded_leading_set(code)
    assert len(excl) == 13
    image = {minor_coeff(sub, 1).code
             for sub in subspace_bases(code.span, 2, None)}
    assert image == set(excl)
    # closed form: (-1)^n b^(1-q) with n = 3 odd
    for b in range(1, 27):
        elem = gf27.element(b)
        assert (-(elem ** (1 - gf27.q))).code in excl


def test_excluded_set_even_length_case(gf16):
    code = GabidulinCode(gf16, (1, 2, 4, 8), 2)
    excl = excluded_leading_set(code)
    # n = 4 even: plain b^(1-q) image; q = 2 makes it all of F* here
    assert excl == frozenset(range(1, 16))


# -- families ----------------------------------------------------------------------------------


def test_family_hypothesis_violations_raise(gf16, gf8, gf27):
    short = GabidulinCode(gf16, (1, 2, 4), 1)  # n = 3 < m = 4
    with pytest.raises(ValueError):
        family_check(short, "frobenius_shift")
    code16 = GabidulinCode(gf16, (1, 2, 4, 8), 1)  # k != n - 2
    with pytest.raises(ValueError):
        family_check(code16, "k_eq_n_minus_2", a=1)
    code16_2 = GabidulinCode(gf16, (1, 2, 4, 8), 2)
    with pytest.raises(ValueError):
        family_check(code16_2, "k_eq_n_minus_2")  # a missing
    with pytest.raises(ValueError):
        family_check(code16_2, "k1_odd_m", c=1)  # m even, k != 1
    gf8_code2 = GabidulinCode(gf8, (1, 2), 1)  # n = 2 < 3
    with pytest.raises(ValueError):
        family_check(gf8_code2, "k1_odd_m", c=1)
    code27 = GabidulinCode(gf27, (1, 3, 9), 1)
    with pytest.raises(ValueError):
        family_check(code27, "binary_quartic", b=1)  # p != 2
    with pytest.raises(ValueError):
        family_check(code16_2, "no_such_family")
    with pytest.raises(ValueError):
        family_check(code16_2, "frobenius_shift", low=LinPoly.monomial(gf16, 2))
    with pytest.raises(ValueError):
        family_check(code16_2, "frobenius_shift", low=LinPoly(gf8, (1,)))


def test_frobenius_shift_family_observed_deep(code24):
    rng = random.Random(107)
    for metric in ("rank", "hamming"):
        for _ in range(5):
            low = LinPoly(code24.ctx, [rng.randrange(16) for _ in range(code24.k)])
            v = family_check(code24, "frobenius_shift", low=low, metric=metric)
            assert v.predicted == "deep_hole"
            assert v.observed.is_deep_hole
            assert v.agree
            assert v.params["low"] == list(low.codes)


def test_k_eq_n_minus_2_family_verdicts(gf27):
    code = GabidulinCode(gf27, (1, 3, 9), 1)
    excl = excluded_leading_set(code)
    inside = next(iter(sorted(excl)))
    outside = next(c for c in range(1, 27) if c not in excl)
    v_in = family_check(code, "k_eq_n_minus_2", a=inside)
    assert v_in.predicted == "not_guaranteed"
    assert v_in.agree  # open prediction never disagrees
    assert not v_in.observed.is_deep_hole
    v_out = family_check(code, "k_eq_n_minus_2", a=outside)
    assert v_out.predicted == "deep_hole"
    assert v_out.observed.is_deep_hole
    assert v_out.agree


def test_k1_odd_m_family_with_shortened_support():
    # n < m: points span a proper subspace; still deep for every c.
    ctx = FieldCtx(2, 1, 5)
    code = GabidulinCode(ctx, (1, 2, 4), 1)
    for c in (0, 1, 17, 31):
        for metric in ("rank", "hamming"):
            v = family_check(code, "k1_odd_m", c=c, metric=metric)
            assert v.predicted == "deep_hole"
            assert v.observed.is_deep_hole
            assert v.agree


def test_binary_quartic_family_both_metrics():
    ctx = FieldCtx(2, 1, 5)
    full = GabidulinCode(ctx, (1, 2, 4, 8, 16), 1)
    short = GabidulinCode(ctx, (1, 2, 4), 1)
    for code in (full, short):
        for metric in ("rank", "hamming"):
            for b in range(0, 32, 5):
                v = family_check(code, "binary_quartic", b=b, c=3, metric=metric)
                assert v.agree
                assert v.predicted in ("deep_hole", "not_deep_hole")
                assert v.observed.is_deep_hole == (v.predicted == "deep_hole")
    # n = m = 5, odd: deep exactly at b = 0
    assert family_check(full, "binary_quartic", b=0).observed.is_deep_hole
    assert not family_check(full, "binary_quartic", b=1).observed.is_deep_hole


def test_family_verdicts_oracle_spot_check():
    ctx = FieldCtx(2, 1, 5)
    code = GabidulinCode(ctx, (1, 2, 4, 8, 16), 1)
    v = family_check(code, "k1_odd_m", c=9)
    d, _ = dist_to_code_exhaustive(code, code.evaluate(LinPoly(ctx, (9, 0, 1))), "rank")
    assert v.observed.distance == d == 4


# -- quadric census ------------------------------------------------------------------------------


def test_quadric_census_counts_and_solution_invariants(gf8, gf16):
    for ctx in (gf8, gf16):
        for b in range(ctx.order):
            cen = quadric_census(ctx, b, materialize=True)
            for c1, c2 in cen.solutions:
                assert c1.code != 0 and c2.code != 0 and c1.code != c2.code
                assert (c1 * c1 + c1 * c2 + c2 * c2).code == b
            # diagonal point (sqrt(b), sqrt(b)) accounts for the off-by-one
            assert cen.count - len(cen.solutions) == (1 if b else 0)
    assert quadric_census(gf8, 0).count == 0
    assert quadric_census(gf8, 5).count == 7
    assert quadric_census(gf16, 0).count == 30
    assert quadric_census(gf16, 7).count == 13


def test_quadric_census_rejects_odd_characteristic_and_towers(gf27, tower16):
    with pytest.raises(ValueError):
        quadric_census(gf27, 1)
    with pytest.raises(ValueError):
        quadric_census(tower16, 1)


def test_quadric_census_holds_its_pairs_to_the_cap(monkeypatch):
    # GF(2^10): 1,046,529 pairs, under the default cap, and q - 3 solutions
    # at b != 0 (m even); one pair less is refused.  GF(2^11): 4,190,209
    # pairs, refused by default before the first pair is drawn.  A cap that
    # is not an int is refused.
    gf1024 = FieldCtx(2, 1, 10)
    assert quadric_census(gf1024, 1).count == 1021
    with pytest.raises(ValueError) as exc:
        quadric_census(gf1024, 1, cap=1046528)
    assert str(exc.value) == ("1046529 pairs exceed the quadric cap 1046528; "
                              "raise the cap to proceed")
    monkeypatch.setattr(deephole, "_pair_quadric_value", None)
    with pytest.raises(ValueError) as exc:
        quadric_census(FieldCtx(2, 1, 11), 1)
    assert str(exc.value) == ("4190209 pairs exceed the quadric cap 1048576; "
                              "raise the cap to proceed")
    for bad in (True, 8.0, "8"):
        with pytest.raises(ValueError) as exc:
            quadric_census(gf1024, 1, cap=bad)
        assert str(exc.value) == f"quadric cap must be an integer, got {bad!r}"


def test_quadric_v_steps(gf8):
    assert quadric_v(gf8, 0) == 7
    assert quadric_v(gf8, 3) == -1
