"""Built-in verification suite at fixed desk-scale parameters.

Each criterion function receives a seeded ``random.Random`` (some ignore
it), asserts everything it claims, and returns a one-line summary.  The
functions are consumed twice: ``tests/test_acceptance.py`` runs one pytest
per criterion, and ``gab selftest`` prints one PASS/FAIL line per
criterion.  Every numeric expectation in here is either proved in the
module docstrings' references to the theory or cross-checked against an
independent brute-force route in the same criterion.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .code import (METRICS, GabidulinCode, Word, covering_radius_raw,
                   dist_to_code_exhaustive, min_distance, weight)
from .deephole import (classify_poly, covering_radius_scan, equality_witness,
                       excluded_leading_set, family_check,
                       _pair_quadric_value, quadric_census, quadric_v,
                       ratio_lemma_check)
from .field import BasisSpec, FieldCtx, FieldElement
from .linpoly import (LinPoly, annihilator, matrix_rank, minor_coeff, moore_det,
                      root_space)
from .subspaces import subspace_bases


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str


@lru_cache(maxsize=None)
def _ctx(p: int, s: int, m: int) -> FieldCtx:
    return FieldCtx(p, s, m)


@lru_cache(maxsize=None)
def _code(p: int, s: int, m: int, gcodes: tuple, k: int) -> GabidulinCode:
    return GabidulinCode(_ctx(p, s, m), gcodes, k)


def _code24() -> GabidulinCode:
    return _code(2, 1, 4, (1, 2, 4, 8), 2)


def _code23() -> GabidulinCode:
    return _code(2, 1, 3, (1, 2, 4), 1)


def rng_for(seed: int, number: int) -> random.Random:
    """Per-criterion RNG, independent of which criteria run in a session."""
    return random.Random(f"{seed}:{number}")


# --------------------------------------------------------------------------


def criterion_1(rng: random.Random) -> str:
    code = _code24()
    dr = min_distance(code, "rank")
    dh = min_distance(code, "hamming")
    assert dr == 3, f"rank minimum distance is {dr}, expected n-k+1 = 3"
    assert dh == 3, f"hamming minimum distance is {dh}, expected n-k+1 = 3"
    return "GF(2^4) n=4 k=2: exhaustive minimum distance 3 in both metrics"


def criterion_2(rng: random.Random) -> str:
    code = _code24()
    scan = covering_radius_scan(code, "rank")
    raw_radius, raw_hist = covering_radius_raw(code, "rank")
    assert scan.radius == 2, f"class-scan radius {scan.radius} != 2"
    assert raw_radius == 2, f"raw-scan radius {raw_radius} != 2"
    assert scan.classes == 256
    per_class = code.ctx.order ** code.k
    assert raw_hist == {d: c * per_class for d, c in scan.histogram.items()}, \
        "raw word histogram is not the class histogram times words-per-class"
    return (f"radius 2 from 256 classes and from all 65536 words; "
            f"class histogram {scan.histogram}")


def criterion_3(rng: random.Random) -> str:
    code = _code24()
    ctx, n, k = code.ctx, code.n, code.k
    informative = 0
    for a2 in range(ctx.order):
        for a3 in range(ctx.order):
            f = LinPoly(ctx, (0, 0, a2, a3))
            w = code.evaluate(f)
            for metric in METRICS:
                oracle_d, _ = dist_to_code_exhaustive(code, w, metric)
                if f.is_zero():
                    assert oracle_d == 0
                    continue
                d = f.deg_q
                assert n - d <= oracle_d <= n - k, \
                    f"class ({a2},{a3}) {metric}: distance {oracle_d} outside bounds"
                wit = equality_witness(code, f, metric)
                assert (wit is not None) == (oracle_d == n - d), \
                    f"class ({a2},{a3}) {metric}: witness existence disagrees with oracle"
                res = classify_poly(code, f, metric)
                assert res.distance == oracle_d and res.bound == n - d
                informative += 1
    return (f"255 informative classes x 2 metrics ({informative} checks): bound holds, "
            "witness iff equality, search equals oracle")


def criterion_4(rng: random.Random) -> str:
    code = _code23()
    ctx = code.ctx
    scan = covering_radius_scan(code, "rank")
    assert scan.radius == 2
    assert scan.histogram == {0: 1, 1: 49, 2: 14}, \
        f"unexpected class histogram {scan.histogram}"
    deg_k = [row for row in scan.rows() if 0 < row[0] < ctx.order]
    assert len(deg_k) == ctx.order - 1 == 7
    for idx, codes, dist, deep, _wit in deg_k:
        assert dist == 2 and deep, f"degree-k class {codes} is not a deep hole"
        hres = classify_poly(code, LinPoly(ctx, codes), "hamming")
        assert hres.is_deep_hole, f"degree-k class {codes} not deep in hamming"
    words_per_class = ctx.order ** code.k
    deg_k_words = len(deg_k) * words_per_class
    deep_words = scan.histogram[2] * words_per_class
    floor = (ctx.order - 1) * ctx.order ** code.k
    assert deg_k_words == 56 and floor == 56 and deep_words >= floor
    return (f"all 7 degree-k classes deep in both metrics: {deg_k_words} words at "
            f"distance n-k (lower bound {floor}); {deep_words} deep-hole words total")


def criterion_5(rng: random.Random) -> str:
    ctx = _ctx(2, 1, 4)
    checks = 0
    for k in (1, 2, 3):
        code = _code(2, 1, 4, (1, 2, 4, 8), k)
        for _ in range(10):
            low = LinPoly(ctx, [rng.randrange(ctx.order) for _ in range(k)])
            for metric in METRICS:
                v = family_check(code, "frobenius_shift", low=low, metric=metric)
                assert v.predicted == "deep_hole" and v.agree
                assert v.observed.is_deep_hole and v.observed.distance == 4 - k, \
                    f"k={k} low={list(low.codes)} {metric}: not a deep hole"
                checks += 1
    return f"x^(q^3)+low deep at k=1,2,3, 10 random lows each, both metrics ({checks} checks)"


def criterion_6(rng: random.Random) -> str:
    code = _code(3, 1, 3, (1, 3, 9), 1)
    ctx = code.ctx
    excluded = excluded_leading_set(code)
    assert len(excluded) == 13, f"excluded set has {len(excluded)} elements, expected 13"
    outside_checks = inside_checks = 0
    for a in range(1, ctx.order):
        if a not in excluded:
            for _ in range(5):
                low = LinPoly(ctx, [rng.randrange(ctx.order)])
                v = family_check(code, "k_eq_n_minus_2", a=a, low=low)
                assert v.predicted == "deep_hole" and v.agree and v.observed.is_deep_hole, \
                    f"a={a} outside the excluded set must be deep"
                outside_checks += 1
        else:
            v = family_check(code, "k_eq_n_minus_2", a=a)
            assert v.predicted == "not_guaranteed" and v.agree
            f = LinPoly.monomial(ctx, 2) - LinPoly.monomial(ctx, 1, a)
            wit = equality_witness(code, f, "rank")
            ratio = ratio_lemma_check(code, f, "rank")
            assert wit is not None and ratio is not None, \
                f"a={a} inside the excluded set has no non-deep witness"
            assert not v.observed.is_deep_hole and v.observed.distance == 1
            inside_checks += 1
    return (f"excluded set size 13; {outside_checks} deep checks outside it; "
            f"both witness routes confirm non-deep for all {inside_checks} inside")


def criterion_7(rng: random.Random) -> str:
    checks = 0
    for n in (3, 5):
        code = _code(2, 1, 5, (1, 2, 4, 8, 16)[:n], 1)
        ctx = code.ctx
        for c in range(ctx.order):
            v = family_check(code, "k1_odd_m", c=c)
            assert v.predicted == "deep_hole" and v.agree
            assert v.observed.distance == n - 1, f"n={n} c={c}: rank distance wrong"
            vh = family_check(code, "k1_odd_m", c=c, metric="hamming")
            assert vh.agree and vh.observed.is_deep_hole, f"n={n} c={c}: hamming not deep"
            f = LinPoly(ctx, (c, 0, 1))
            oracle_d, _ = dist_to_code_exhaustive(code, code.evaluate(f), "rank")
            assert oracle_d == n - 1, f"n={n} c={c}: oracle disagrees"
            checks += 1
    return f"x^(q^2)+cx deep for all 32 c at n=3 and n=5, search and oracle ({checks} cases)"


def criterion_8(rng: random.Random) -> str:
    code = _code(2, 1, 5, (1, 2, 4, 8, 16), 1)
    ctx = code.ctx
    checks = 0
    for b in range(ctx.order):
        for _ in range(8):
            c = rng.randrange(ctx.order)
            v = family_check(code, "binary_quartic", b=b, c=c)
            assert v.agree
            assert v.predicted == ("deep_hole" if b == 0 else "not_deep_hole")
            assert v.observed.is_deep_hole == (b == 0), \
                f"b={b} c={c}: deep-hole status must depend on b alone"
            checks += 1
    return f"x^4+bx^2+cx deep iff b=0 at n=m=5 (32 b x 8 random c = {checks} cases)"


def criterion_9(rng: random.Random) -> str:
    for m in (3, 4, 5):
        ctx = _ctx(2, 1, m)
        q = ctx.order
        full = {b: 0 for b in range(q)}
        for c1 in range(q):
            for c2 in range(q):
                full[_pair_quadric_value(ctx, c1, c2)] += 1
        for b in range(q):
            count = quadric_census(ctx, b).count
            if m % 2:
                expected = 0 if b == 0 else q - 1
                assert full[b] == q - quadric_v(ctx, b), \
                    f"m={m} b={b}: full-plane solution count off"
            else:
                expected = 2 * q - 2 if b == 0 else q - 3
                assert full[b] == (2 * q - 1 if b == 0 else q - 1), \
                    f"m={m} b={b}: full-plane solution count off"
            assert count == expected, f"m={m} b={b}: census {count} != {expected}"
    return "census matches the closed forms for every b at m=3,4,5 (full-plane counts too)"


def criterion_10(rng: random.Random) -> str:
    code = _code24()
    ctx = code.ctx

    for _ in range(1000):
        f = LinPoly(ctx, [rng.randrange(ctx.order) for _ in range(rng.randrange(8))])
        g = LinPoly.zero(ctx)
        while g.is_zero():
            g = LinPoly(ctx, [rng.randrange(ctx.order) for _ in range(rng.randrange(1, 6))])
        h, r = f.right_divmod(g)
        assert h.compose(g) + r == f
        assert r.is_zero() or r.deg_q < g.deg_q

    full = code.span
    sub_count = 0
    for t in range(4):
        for sub in subspace_bases(full, t):
            a = annihilator(sub)
            assert a.codes[-1] == 1
            roots = {c for c in range(ctx.order) if a(FieldElement(ctx, c)).code == 0}
            assert roots == sub.element_codes(), \
                f"annihilator roots differ from the span for {sub!r}"
            assert root_space(a).same_span(sub)
            sub_count += 1
    assert sub_count == 1 + 15 + 35 + 15

    for _ in range(1000):
        w = code.word([rng.randrange(ctx.order) for _ in range(code.n)])
        f = code.sigma_inverse(w)
        assert f.is_zero() or f.deg_q < code.n
        assert code.evaluate(f) == w

    moore_cases = 0
    for t in range(1, 5):
        for combo in itertools.combinations(range(ctx.order), t):
            elems = [FieldElement(ctx, c) for c in combo]
            det = moore_det(elems)
            indep = ctx.span_dim(elems) == t
            assert (det.code != 0) == indep, \
                f"Moore determinant disagrees with independence on {combo}"
            moore_cases += 1
    assert moore_cases == 2516

    minor_cases = 0
    for t in (2, 3):
        for sub in subspace_bases(full, t):
            a = annihilator(sub)
            for i in range(1, t + 1):
                h_i = minor_coeff(sub, i).code
                expected = h_i if i % 2 == 0 else ctx.neg(h_i)
                assert a.codes[t - i] == expected, \
                    f"minor ratio i={i} disagrees with annihilator for {sub!r}"
            minor_cases += 1
    assert minor_cases == 50

    return ("1000 divisions, 66 annihilator root sets, 1000 interpolation round "
            "trips, 2516 Moore/independence cases, 50 minor-ratio subspaces: 0 failures")


def criterion_11(rng: random.Random) -> str:
    ctx = _ctx(2, 1, 4)
    bases = [BasisSpec([ctx.element(c) for c in bs])
             for bs in ((1, 2, 4, 8), (1, 3, 5, 9), (15, 7, 3, 1))]
    for _ in range(500):
        w = Word(ctx, [rng.randrange(ctx.order) for _ in range(4)])
        r0 = weight(w, "rank")
        for basis in bases:
            mat = [ctx.coords(e, basis) for e in w.entries]
            assert matrix_rank(mat) == r0, \
                f"rank in basis {basis!r} differs from span_dim for {w!r}"
    return "span_dim equals coordinate-matrix rank in 3 bases on 500 random words"


CRITERIA: tuple[tuple[int, str, object], ...] = (
    (1, "minimum distance meets the rank and Hamming Singleton bounds", criterion_1),
    (2, "covering radius n-k by class scan and raw word scan", criterion_2),
    (3, "degree bound and equality witnesses across all translation classes", criterion_3),
    (4, "every degree-k leading class is a deep hole, counted", criterion_4),
    (5, "frobenius-shift family always deep", criterion_5),
    (6, "k = n-2 family controlled by the excluded leading set", criterion_6),
    (7, "x^(q^2)+cx family deep for odd extension degree", criterion_7),
    (8, "binary quartic deep exactly at b = 0 when n = m", criterion_8),
    (9, "quadric census matches the closed forms", criterion_9),
    (10, "algebra suite: division, annihilators, interpolation, minors", criterion_10),
    (11, "rank weight is basis invariant", criterion_11),
)


def run_all(numbers=None, seed: int = 0) -> list[CriterionResult]:
    """Run the selected criteria (all by default), catching assertion
    failures into results instead of raising.  A number that is not an
    int (a bool included) or names no criterion is an error."""
    wanted = list(numbers or ())
    unknown = ([x for x in wanted if type(x) is not int]
               or sorted(set(wanted) - {num for num, _, _ in CRITERIA}))
    if unknown:
        raise ValueError(f"no matching criteria: {', '.join(map(str, unknown))}")
    results = []
    for num, title, fn in CRITERIA:
        if wanted and num not in wanted:
            continue
        try:
            detail = fn(rng_for(seed, num))
            results.append(CriterionResult(num, title, True, detail))
        except AssertionError as exc:
            results.append(CriterionResult(num, title, False, str(exc) or "assertion failed"))
    return results
