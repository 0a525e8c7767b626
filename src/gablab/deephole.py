"""Distance bounds, deep-hole classification and structured-family checks.

Words correspond to linearized polynomials of q-degree < n; translation by
codewords only changes coefficients below k, so distance is a function of
the coefficients a_k..a_{n-1} alone and scans can run over those classes
(the reduction itself is oracle-tested, not assumed).  For a representative
f with k <= deg_q f < n the distance is n - t*, where t* is the largest t
such that some v of q-degree < k agrees with f on a t-dimensional subspace
of the span of the evaluation points (Hamming: on a t-subset of the points
themselves).  f - v is nonzero of q-degree deg_q f, so its roots form a
space of dimension at most deg_q f: t* <= deg_q f, and the distance is at
least n - deg_q f.  At t = k an interpolant through any k independent
points always exists, so every word sits within n - k of the code and
``is_deep_hole`` means distance == n - k in both metrics.

Acceptance is monotone: a v that agrees with f on U agrees with it on
every subspace (subset) of U, so the accepting levels are exactly k..t*.
The word search therefore walks t upward from k+1 and stops at the first
level with no accepting candidate; a deep hole is settled by one rejected
level k+1, where a walk down from deg_q f would reject every level above.

In the rank metric the ascent has one decoding rung, run once when level
k+1 accepts below deg_q f.  A Welch-Berlekamp decoder (Loidreau 2005),
one ``_nullspace`` of an n x (2tau+k+1) system with tau = (n-k) // 2,
finds the codeword c within tau of the word when there is one; the code
is MRD, so there is at most one, and rank(w - c) is the distance.  The
witness is then the only candidate of its level that accepts, the
F_q-kernel of w - c on the point span, with no level above k+1 walked.
When no codeword lies within tau the distance is at least tau + 1, so
the walk stops at level n - tau - 1.  A deep word is settled at level
k+1 and never reaches the rung.  Hamming keeps the plain walk.

Scaling f by a nonzero field scalar lam scales the word and permutes the
code (the code is F_{q^m}-linear), and both weights are invariant under
entry scaling, so distance is constant on scalar orbits.  The witness is
too: a candidate's Moore system with right side lam*f's values has the
solutions lam*v of the one with f's values, so it is consistent for lam*f
exactly when it is for f, in both metrics.  The search therefore
accepts at the same levels with the same first witness in canonical order,
which is why class scans classify one monic class per orbit.

``_candidates`` yields every candidate as (witness, generator codes,
coefficient rows over the points), with no LinPoly or FieldElement built; a
rank witness is the SubspaceBasis that ``subspace_bases`` yields, built
unchecked.  The search reads the rows and the generators' Moore rows, the
sieve and ``equality_witness`` their annihilator, and ``ratio_lemma_check``
their Moore determinants.

The search never evaluates f on a candidate.  Every candidate generator
is an F_q-combination u = sum_j c_j g_j of the points, and f is
F_q-linear, so f(u) = sum_j c_j f(g_j): the same combination of f's values
on the points, which are the word's entries.  ``distance_by_search`` passes
those entries as f's values, so f is evaluated nowhere; ``classify_poly``
called on f alone evaluates it once on the points.  Each candidate's
values are row combinations of those codes (XORs when q = 2).  A
candidate U with generators u_1..u_t accepts when the t x k Moore system
sum_i v_i u_j^(q^i) = f(u_j) is consistent: one elimination on codes,
with no polynomial built or evaluated.  Its rank is k (t >= k independent
generators), so a solution is unique and is the interpolant through
u_1..u_k, which then agrees with f on all of U.

Nor does ``distance_by_search`` interpolate the word: the ascent needs f
only through its values and deg_q f.  f's coefficients are a = L w, with
L the inverse of the transposed Moore matrix of the points, so deg_q f is
the first i from n-1 down to k with a_i(w) = sum_j L[i][j] w_j nonzero,
and a codeword has none.  L is found once per code, read off one
elimination of [M | I]; a random word then costs one functional, n
products, where interpolation solved an n x n system.

Only the right side f(u_j) depends on the word, so each code keeps a plan
for the search, filled as the search first reaches each level: per
(level t, metric) every candidate in canonical order with its witness, its
coefficient rows over the points and its Moore rows, and, for both
metrics, the rows of L.  A level is listed whole from ``_candidates``
before it is published, so a level in the plan is always complete; a word
then builds one right side and runs one elimination (on a copy) per
candidate it walks.  A level of more than ``_PLAN_LIMIT`` candidates
streams from ``_candidates`` on every walk.  The subspace cap is read once
per search, before any level, and checked against each level the search
walks; a level the decoding rung skips is not walked and not checked.
``equality_witness``, ``ratio_lemma_check`` and the sieve take no cap and
hold each level to the fixed ``DEFAULT_SUBSPACE_CAP``, whose refusal names
no remedy.  Every cap here goes through the one guard,
``gablab.field._check_cap``.

Class scans run no search per class; an annihilator sieve classifies
every unit (a monic class, one per scalar orbit of nonzero classes) in
one pass over the candidates.  A unit f accepts a t-dimensional
candidate U when f - v vanishes on U for some v of q-degree < k, that is
(Ore 1933) when f - v = g o A_U with A_U the monic annihilator of U, of
q-degree t.  The coefficients of g o A_U at q-degrees k..n-1 are
F_{q^m}-linear in g, and its top coefficient is g's, so for t > k the
units that accept U are exactly the class parts of g o A_U over monic g
of q-degree <= n-1-t.  The sieve walks t = n-1 down to k+1 and, within a
level, the candidates in canonical order; the first hit on a unit fixes
its distance n - t and its witness U.  A unit is never hit above its own
q-degree, so that is its highest accepting level and, within it, its
first accepting candidate: the word search's answer.  Units never hit take
n - k and the first k-dimensional candidate, which always accepts; every
entry starts as that result, so no pass over the blocks fills them in.  The
cost is one annihilator per candidate, on codes with no polynomial built,
and (order**(n-t) - 1)/(order - 1) short vector sums per candidate at level
t, once per code, filled by the characteristic.  For p = 2
(``_fill_packed``) each sum is one XOR: field addition is XOR of codes and
a class index is the concatenation of its sm-bit digit codes, so the index
of a digit-wise sum is the XOR of the indices.  Each twist x^(q^i) o A_U
is packed into one index, c times it for every code c is the F_p-span
(``_span_flat``) of the sm packed products 2^b times it (sm
multiplications per coefficient where the digit lists take order), and
each combination reads its block entry directly.  Odd p
(``_fill_digits``) lists the sums as digit rows of one F_p-span of the
twists, moves them by each twist in turn and reads each index from its
digits.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field
from operator import itemgetter

from .code import GabidulinCode, Word, _check_metric, _check_poly, _check_word
from .field import (FieldCtx, FieldElement, _check_cap, _combine_rows, _eliminate,
                    _from_base_digits, _nullspace, _prime_field, _solve, _span_flat,
                    gaussian_binomial)
from .linpoly import (LinPoly, NEG_INF, SubspaceBasis, _annihilator_codes, _eval_codes,
                      _moore_det, _moore_rows)
from .linpoly import q_lagrange  # noqa: F401  unused; bench/gabtrace.py patches it here
from .subspaces import subspace_bases

DEFAULT_SUBSPACE_CAP = 10 ** 6
DEFAULT_CLASS_SCAN_CAP = 1 << 20
# Search levels with at most this many candidates are kept in the code's
# plan; larger ones are enumerated afresh on every walk.
_PLAN_LIMIT = 1 << 12

# The parameters each family kind takes; any other one is an error.
FAMILY_PARAMS = {"frobenius_shift": ("low",), "k_eq_n_minus_2": ("a", "low"),
                 "k1_odd_m": ("c",), "binary_quartic": ("b", "c")}
FAMILY_KINDS = tuple(FAMILY_PARAMS)

PREDICT_DEEP = "deep_hole"
PREDICT_NOT_DEEP = "not_deep_hole"
PREDICT_OPEN = "not_guaranteed"


@dataclass
class ClassifyResult:
    """Outcome of a distance search for one word.

    ``bound`` is n - deg_q f for representatives in the informative range
    k <= deg_q f < n and 0 otherwise; ``distance`` always satisfies
    bound <= distance <= n - k.  ``witness`` certifies the accepting level:
    a SubspaceBasis for the rank metric, a tuple of point indices for
    Hamming, or None when the word is a codeword.
    """

    distance: int
    bound: int
    is_deep_hole: bool
    witness: object = None


def _level_size(code: GabidulinCode, t: int, metric: str) -> tuple[int, str]:
    """Number of t-level candidates and what they are: [n, t]_q subspaces in
    the rank metric, C(n, t) subsets in Hamming."""
    if metric == "rank":
        return gaussian_binomial(code.n, t, code.ctx.q), "candidate subspaces"
    return math.comb(code.n, t), "candidate subsets"


def _candidates(code: GabidulinCode, t: int, metric: str, fixed_cap: bool = False):
    """(witness, generator codes, coefficient rows over the points) for
    every t-dimensional candidate, canonical order.  Rank: each subspace of
    the point span is its own witness, with its RREF rows.  Hamming: each
    t-subset of the points, as an index tuple, with its unit rows.  With
    ``fixed_cap`` more than ``DEFAULT_SUBSPACE_CAP`` candidates are refused
    before the first is drawn, naming no remedy: no such caller takes a cap."""
    if fixed_cap:
        _check_cap(DEFAULT_SUBSPACE_CAP, "subspace", *_level_size(code, t, metric), fixed=True)
    if metric == "rank":
        for sub in subspace_bases(code.span, t):
            yield sub, sub.codes, sub._rows
        return
    n, points = code.n, code.span.codes
    units = [[int(j == i) for j in range(n)] for i in range(n)]
    for idx in itertools.combinations(range(n), t):
        yield idx, [points[i] for i in idx], [units[i] for i in idx]


def _first_k_witness(code: GabidulinCode, metric: str):
    """The first k-dimensional candidate's witness, for a word that no
    higher level accepts (level k accepts every candidate).  In canonical
    order it has pivots 0..k-1 and every free cell 0: the span of the
    first k points (Hamming: their indices).  No cap applies."""
    if metric == "rank":
        return SubspaceBasis._unchecked(code.ctx, code.span.codes[:code.k])
    return tuple(range(code.k))


def _plan_level(code: GabidulinCode, t: int, metric: str, cap: int | None):
    """The t-level candidates in canonical order as (witness, coefficient
    rows over the points, Moore rows) triples; the Moore row of generator
    u_j is u_j^(q^i) for i < k.  The level is held to ``cap`` (None: no
    cap) on every call.  A level of at most ``_PLAN_LIMIT`` candidates is
    listed whole on first use and only then published in the code's plan,
    so a plan level is always complete; a larger level is a fresh stream on
    each call."""
    count, what = _level_size(code, t, metric)
    if cap is not None:
        _check_cap(cap, "subspace", count, what)
    level = code._plan.get((t, metric))
    if level is not None:
        return level
    ctx, k = code.ctx, code.k
    level = ((wit, rows, _moore_rows(ctx, gens, k))
             for wit, gens, rows in _candidates(code, t, metric))
    if count > _PLAN_LIMIT:
        return level
    return code._plan.setdefault((t, metric), list(level))


def equality_witness(code: GabidulinCode, f: LinPoly, metric: str):
    """Witness that the distance of f's word meets its lower bound.

    For monic-normalized f with k <= deg_q f < n, searches for a
    deg_q(f)-dimensional subspace H of the point span (rank metric) or a
    deg_q(f)-subset E of the points (Hamming) whose annihilator differs
    from f only below q-degree k.  Returns the first such H / index tuple
    in canonical order, or None; existence is equivalent to
    distance == n - deg_q f.
    """
    _check_metric(metric)
    _check_poly(code, f)
    d = f.deg_q
    if d is NEG_INF or not code.k <= d < code.n:
        raise ValueError(f"representative q-degree must lie in {code.k}..{code.n - 1}")
    ctx, k = code.ctx, code.k
    inv = ctx.inv(f.codes[-1])
    top = tuple(ctx.mul(inv, c) for c in f.codes[k:])
    for wit, gens, _ in _candidates(code, d, metric, fixed_cap=True):
        if _annihilator_codes(ctx, gens)[k:] == top:
            return wit
    return None


def _accepting_cover(code: GabidulinCode, fvals, t: int, metric: str,
                     subspace_cap: int | None):
    """First t-level witness U whose t x k Moore system (row j: u_j^(q^i)
    for i < k, right side f(u_j)) is consistent, or None: a solution is a v
    of q-degree < k agreeing with f on U.  ``fvals`` are f's values on the
    points; f's values on U's generators are their row combinations.  Only
    the right side is built per word; ``_solve`` eliminates a copy, so the
    plan's rows are never changed."""
    ctx = code.ctx
    for wit, rows, moore in _plan_level(code, t, metric, subspace_cap):
        if _solve(ctx, moore, _combine_rows(ctx, rows, fvals)) is not None:
            return wit
    return None


def _decoder_points(code: GabidulinCode) -> list[list[int]]:
    """Row j: -g_j^(q^i) for i < tau + k, the point part of the decoder's
    system (tau = (n-k) // 2), found once per code and kept in its plan."""
    rows = code._plan.get("decoder")
    if rows is None:
        ctx, k = code.ctx, code.k
        moore = _moore_rows(ctx, code.span.codes, (code.n - k) // 2 + k)
        rows = code._plan.setdefault("decoder", [[ctx.neg(x) for x in r] for r in moore])
    return rows


def _decode_within_tau(code: GabidulinCode, fvals) -> SubspaceBasis | None:
    """The ascent's witness for a word within tau = (n-k) // 2 of the code
    in the rank metric, or None when no codeword lies that close.

    Welch-Berlekamp (Loidreau 2005): any nonzero kernel vector (V, N) of
    the n x (2tau+k+1) system V(w_j) = N(g_j), V of q-degree <= tau and N
    of q-degree < tau+k, one ``_nullspace``.  V = 0 would make N vanish on
    the n-dimensional point span, so V != 0.  If c = f(g) has rank(w - c)
    <= tau, R = N - V o f vanishes on the span of the sum a_j g_j with
    sum a_j (w_j - c_j) = 0, of dimension >= n - tau above R's q-degree
    < tau + k <= n - tau, so N = V o f and f (q-degree < k) is N's left
    quotient by V, read from the top.  The code is MRD, so c is then the
    only codeword within tau and r = rank(w - c) is the distance.  The one
    rank check decides: an empty kernel, or a quotient that is not exact,
    leaves no codeword within tau.

    Exactly one (n-r)-dimensional candidate then accepts: an agreeing v
    puts v(g) within r of w, so v(g) = c, and the candidate lies in the
    (n-r)-dimensional {sum a_j g_j : sum a_j e_j = 0}, e = w - c.  That
    F_q-kernel is the F_p-kernel of the digits of the lifts beta*e_j (beta
    in ``_subfield_pbasis``) combined back to F_q, and its RREF rows are
    those ``subspace_bases`` yields for it."""
    ctx, n, k = code.ctx, code.n, code.k
    tau, frob, mul, sub = (n - k) // 2, ctx.frob, ctx.mul, ctx.sub
    points = _decoder_points(code)
    kernel = _nullspace(ctx, [w + g for w, g in zip(_moore_rows(ctx, fvals, tau + 1), points)])
    if not kernel:
        return None
    v, nn = kernel[0][:tau + 1], kernel[0][tau + 1:]
    dv = max(i for i, c in enumerate(v) if c)
    lead, back = ctx.inv(v[dv]), -dv % ctx.m
    f = [0] * k
    for j in range(k - 1, -1, -1):
        # (V o f)_{dv+j} = sum_i V_i f_{dv+j-i}^(q^i); f_l is known for l > j.
        acc = nn[dv + j]
        for i in range(max(0, dv + j - k + 1), dv):
            if f[dv + j - i]:
                acc = sub(acc, mul(v[i], frob(f[dv + j - i], i)))
        f[j] = frob(mul(lead, acc), back)
    # The point rows hold -g_j^(q^i), so they combine to -f(g_j).
    err = [ctx.add(w, c) for w, c in zip(fvals, _combine_rows(ctx, [r[:k] for r in points], f))]
    if len(ctx._greedy_codes(err, tau + 1)) > tau:
        return None
    lifts, s = ctx._subfield_pbasis(), ctx.s
    digits = ctx._digit_matrix([e if b == 1 else mul(b, e) for e in err for b in lifts])
    rows = [_combine_rows(ctx, [x[j * s:(j + 1) * s] for j in range(n)], lifts)
            for x in _nullspace(_prime_field(ctx.p), digits)]
    red, pivots, _, _ = _eliminate(ctx, rows, n)
    rows = red[:len(pivots)]
    return SubspaceBasis._unchecked(ctx, _combine_rows(ctx, rows, code.span.codes), rows)


def _ascend(code: GabidulinCode, fvals, d: int | float, metric: str,
            subspace_cap: int | None) -> ClassifyResult:
    """The ascent for a word whose polynomial f has q-degree d (NEG_INF or
    any d < k: a codeword) and values ``fvals`` on the points.

    Acceptance is monotone in t, so the accepting levels are k..t*: walk
    t = k+1 up to d and stop at the first level with no accepting
    candidate.  t* is the last level that accepted and its witness is that
    level's first accepting candidate; when level k+1 rejects, the first
    k-dimensional candidate witnesses, since level k accepts them all.  A
    non-int cap (None: no cap) is refused first.

    In the rank metric, once level k+1 accepts below d, the decoding rung
    (``_decode_within_tau``) runs once.  A word within tau = (n-k) // 2 of
    the code takes its distance and witness from it, with no level above
    k+1 walked; any other word has t* <= n - tau - 1, so the walk stops
    there.  (k+1 < d <= n-1 gives n - k >= 3, so tau >= 1 and that stop
    is at least k+1.)  A deep word never reaches the rung.
    """
    n, k = code.n, code.k
    if subspace_cap is not None:
        _check_cap(subspace_cap, "subspace")
    if d < k:
        return ClassifyResult(distance=0, bound=0, is_deep_hole=(n == k), witness=None)
    t, wit, top = k, None, d
    while t < top:
        above = _accepting_cover(code, fvals, t + 1, metric, subspace_cap)
        if above is None:
            break
        t, wit = t + 1, above
        if t == k + 1 < d and metric == "rank":
            near = _decode_within_tau(code, fvals)
            if near is not None:
                t, wit = near.dim, near
                break
            top = min(d, n - (n - k) // 2 - 1)
    if wit is None:
        wit = _first_k_witness(code, metric)
    dist = n - t
    return ClassifyResult(distance=dist, bound=n - d, is_deep_hole=(dist == n - k),
                          witness=wit)


def classify_poly(code: GabidulinCode, f: LinPoly, metric: str,
                  subspace_cap: int = DEFAULT_SUBSPACE_CAP) -> ClassifyResult:
    """Distance of the word represented by f, by ascending witness search
    from f's values on the points."""
    _check_metric(metric)
    _check_poly(code, f)
    if f.deg_q >= code.n:
        raise ValueError("representative q-degree must be < n")
    fvals = [_eval_codes(code.ctx, f.codes, g) for g in code.span.codes]
    return _ascend(code, fvals, f.deg_q, metric, subspace_cap)


def _top_functionals(code: GabidulinCode) -> list[list[int]]:
    """Rows n-1 down to k of L, the inverse of the transposed Moore matrix
    M (row j: g_j^(q^i), i < n) of the points.  A word's interpolant has
    coefficients a = L * w, so row i is the functional a_i.  L is found
    once per code: M is invertible, so one elimination of [M | I] reduces
    it to [I | L]; the code's plan keeps the rows."""
    rows = code._plan.get("functionals")
    if rows is None:
        ctx, n, k = code.ctx, code.n, code.k
        moore = _moore_rows(ctx, code.span.codes, n)
        red = _eliminate(ctx, [r + [int(i == j) for i in range(n)]
                               for j, r in enumerate(moore)], n)[0]
        rows = code._plan.setdefault("functionals", [red[i][n:] for i in range(n - 1, k - 1, -1)])
    return rows


def _class_degree(code: GabidulinCode, codes) -> int | float:
    """The q-degree of the class part (coefficients k..n-1) of the word's
    interpolant: the top i with a_i(w) != 0, read from i = n-1 down, or
    NEG_INF when every one vanishes and the word is a codeword."""
    ctx = code.ctx
    for d, row in zip(range(code.n - 1, code.k - 1, -1), _top_functionals(code)):
        if _combine_rows(ctx, (row,), codes)[0]:
            return d
    return NEG_INF


def distance_by_search(code: GabidulinCode, w: Word, metric: str,
                       subspace_cap: int = DEFAULT_SUBSPACE_CAP) -> ClassifyResult:
    """Distance of a word by the ascent, with no interpolation: the word's
    entries are its polynomial's values on the points, and that
    polynomial's q-degree is read from the functionals a_i(w)."""
    _check_word(code, w)
    _check_metric(metric)
    return _ascend(code, w.codes, _class_degree(code, w.codes), metric, subspace_cap)


def ratio_lemma_check(code: GabidulinCode, f: LinPoly, metric: str):
    """Second witness route for representatives of q-degree exactly k+1.

    After monic normalization f = x^(q^(k+1)) - a_1 x^(q^k) + lower; the
    word misses deep-hole status iff some (k+1)-dimensional subspace of the
    point span (rank; Hamming: (k+1)-subset of the points) has first
    Moore-minor ratio equal to a_1.  Returns that witness or None; must
    agree with :func:`equality_witness` at this degree.
    """
    _check_metric(metric)
    _check_poly(code, f)
    k = code.k
    if f.deg_q != k + 1:
        raise ValueError(f"representative q-degree must be exactly {k + 1}")
    if k + 1 >= code.n:
        raise ValueError("degree k+1 must stay below the word length")
    ctx = code.ctx
    a1 = ctx.neg(ctx.div(f.codes[k], f.codes[-1]))
    for wit, gens, _ in _candidates(code, k + 1, metric, fixed_cap=True):
        if ctx.div(_moore_det(ctx, gens, k), _moore_det(ctx, gens)) == a1:
            return wit
    return None


# ---------------------------------------------------------------------------
# Class scans.  A class is the coefficient tuple (a_k, ..., a_{n-1}); its
# representative has zeros below q-degree k.  Every nonzero class is a
# scalar multiple of one monic class (top nonzero coefficient 1); the sieve
# classifies every monic class in one pass and the scan reads each class's
# result from its monic class.


@dataclass
class ScanResult:
    """Outcome of a class scan.

    ``histogram`` maps each distance to its number of classes.  ``rows()``
    yields one tuple per class in index order, expanded from the sieve's
    blocks on each call: (class index, coefficient codes a_0..a_{n-1},
    distance, deep flag, witness codes).  The witness codes are those of
    ``_witness_codes``, None for the zero class.
    """

    radius: int
    histogram: dict[int, int]
    classes: int
    code: GabidulinCode = field(repr=False)
    blocks: list[list[tuple]] = field(repr=False)

    def rows(self):
        """Class lam*order**j + i takes the entry of block j whose digits
        are lam^-1 times those of i; the entry indices are built a digit
        at a time, so each (j, lam) costs one inversion."""
        ctx, n, k = self.code.ctx, self.code.n, self.code.k
        order = ctx.order
        yield (0, (0,) * n, 0, n == k, None)
        pre, lows = (0,) * k, [()]
        for j, block in enumerate(self.blocks):
            if j:
                lows = [(c,) + low for low in lows for c in range(order)]
            for lam in range(1, order):
                # offs[i]: block index of lam^-1 times the digits of i.
                lam_inv = ctx.inv(lam)
                scale = [ctx.mul(lam_inv, c) for c in range(order)]
                offs = [0]
                for _ in range(j):
                    offs = [scale[c] + order * o for o in offs for c in range(order)]
                base, top = lam * order ** j, (lam,) + (0,) * (n - k - 1 - j)
                yield from ((base + i, pre + low + top) + block[o]
                            for i, (low, o) in enumerate(zip(lows, offs)))


def _witness_codes(wit) -> tuple[int, ...] | None:
    if wit is None:
        return None
    if isinstance(wit, SubspaceBasis):
        return wit.codes
    return tuple(wit)


def _sieve(code: GabidulinCode, metric: str) -> list[list[tuple]]:
    """(distance, deep flag, witness codes) of every monic class, by the
    annihilator sieve of the module docstring: levels t = n-1 down to k+1,
    candidates in canonical order, one annihilator A_U per candidate.
    Every entry starts as the never-hit result (n - k and the first
    k-dimensional witness); the fill (packed for p = 2, else digit lists)
    gives the candidate's result to each entry no earlier candidate hit.

    ``blocks[j][i]`` is the monic class whose top coefficient a_{k+j} is 1
    and whose lower class digits are those of i: class index order**j + i.
    """
    ctx, n, k = code.ctx, code.n, code.k
    frob = ctx.frob
    fill = _fill_packed if ctx.p == 2 else _fill_digits
    deep = (n - k, True, _witness_codes(_first_k_witness(code, metric)))
    blocks = [[deep] * ctx.order ** j for j in range(n - k)]
    for t in range(n - 1, k, -1):
        for wit, gens, _ in _candidates(code, t, metric, fixed_cap=True):
            a = _annihilator_codes(ctx, gens)
            # twists[i]: the class part (q-degrees k..n-1) of x^(q^i) o A_U.
            twists = [([0] * i + [frob(c, i) for c in a] + [0] * (n - 1 - t - i))[k:]
                      for i in range(n - t)]
            fill(ctx, blocks, twists, t - k, deep, (n - t, False, _witness_codes(wit)))
    return blocks


def _fill_digits(ctx: FieldCtx, blocks, twists, lift: int, deep, hit) -> None:
    """Give ``hit`` to every still-``deep`` unit of the class part of
    g o A_U over monic g, on digit lists.  For g = x^(q^d) + sum_{i<d} g_i
    x^(q^i) the part has its leading 1 at class position top = d + lift and
    the digits below vary: twist d plus every sum of g_i times twist i.
    Those sums are the first order**d rows of one ``_span_flat`` of the
    twists times the codes p**b, cut to ``width`` positions (every sum is
    0 from its top up); each is moved by twist d and indexed by its digits."""
    p, order, mul = ctx.p, ctx.order, ctx.mul
    width = lift + len(twists) - 1
    span = _span_flat(ctx, [[mul(p ** b, x) for x in tw[:width]]
                            for tw in twists[:-1] for b in range(ctx.sm)], width)
    for d, tw in enumerate(twists):
        top = d + lift
        op, args = ctx._translation(tw[:top] + [0] * (width - top), order ** d)
        vecs = map(op, itertools.cycle(args), span[:order ** d * width])
        block = blocks[top]
        for v in zip(*[vecs] * width):
            i = _from_base_digits(v, order)
            if block[i] is deep:
                block[i] = hit


def _fill_packed(ctx: FieldCtx, blocks, twists, lift: int, deep, hit) -> None:
    """``_fill_digits`` for p = 2, where a class index is the concatenation
    of its sm-bit digit codes, so the index of a digit-wise sum is the XOR
    of the indices.  Each twist is packed once; c * twist i over the codes
    c is the F_p-span (``_span_flat``, XOR for p = 2) of the sm packed
    products 2^b * twist i; each monic g is then one XOR, and its index
    reads the block directly.  ``span`` holds the packed sum_{i<d} g_i
    x^(q^i) o A_U over every g_0..g_{d-1}; the level of its last step is
    walked, not kept."""
    sm, order, mul = ctx.sm, ctx.order, ctx.mul
    span = [0]
    for d, tw in enumerate(twists):
        top = d + lift
        base = _from_base_digits(tw[:top], order)
        packed = [[_from_base_digits([mul(1 << b, x) for x in twists[d - 1]], order)]
                  for b in range(sm)] if d else []
        steps = _span_flat(ctx, packed, 1)
        block = blocks[top]
        for s in steps:
            sb = s ^ base
            for x in span:
                i = x ^ sb
                if block[i] is deep:
                    block[i] = hit
        if d + 1 < len(twists):
            span = [x ^ s for s in steps for x in span]


def covering_radius_scan(code: GabidulinCode, metric: str,
                         scan_cap: int = DEFAULT_CLASS_SCAN_CAP) -> ScanResult:
    """Max distance over all order**(n-k) translation classes.

    The sieve classifies the monic classes; each result stands for its
    order - 1 scalar multiples (see the module docstring).
    """
    _check_metric(metric)
    order = code.ctx.order
    total = order ** (code.n - code.k)
    _check_cap(scan_cap, "scan", total, "classes")
    blocks = _sieve(code, metric)
    counts = collections.Counter()
    for block in blocks:
        counts.update(map(itemgetter(0), block))
    # Units are never codewords, so no unit has distance 0.
    hist = {0: 1, **{dist: c * (order - 1) for dist, c in sorted(counts.items())}}
    return ScanResult(radius=max(hist), histogram=hist, classes=total, code=code,
                      blocks=blocks)


# ---------------------------------------------------------------------------
# Structured families.


@dataclass
class FamilyVerdict:
    kind: str
    params: dict
    predicted: str
    observed: ClassifyResult
    agree: bool


def excluded_leading_set(code: GabidulinCode) -> frozenset[int]:
    """Codes of (-1)^n * b^(1-q) over nonzero b.

    This is the exact image of the next-to-leading annihilator ratio h1
    over (n-1)-dimensional subspaces of F_{q^n}: the hyperplane that kills
    the trace form x -> Tr(bx) has monic annihilator sum_i b^(q^i - q^(n-1))
    x^(q^i), whose x^(q^(n-2)) coefficient is c^(1-q) with c = b^(q^(n-2)),
    and h1 is the negative of that coefficient.  A word with leading part
    x^(q^(n-1)) - a x^(q^(n-2)) at k = n-2 is a deep hole exactly when a
    misses this set.
    """
    ctx, n = code.ctx, code.n
    sign = 1 if n % 2 == 0 else ctx.neg(1)
    out = set()
    for b in range(1, ctx.order):
        out.add(ctx.mul(sign, ctx.pow(b, 1 - ctx.q)))
    return frozenset(out)


def _pair_quadric_value(ctx: FieldCtx, b1: int, b2: int) -> int:
    # x1^2 + x1*x2 + x2^2 at a pair of codes (char 2 census form).
    return ctx.add(ctx.add(ctx.mul(b1, b1), ctx.mul(b1, b2)), ctx.mul(b2, b2))


def family_check(code: GabidulinCode, kind: str, *, a=None, b=None, c=None,
                 low: LinPoly | None = None, metric: str = "rank",
                 subspace_cap: int = DEFAULT_SUBSPACE_CAP) -> FamilyVerdict:
    """Build one structured representative, predict, then classify.

    Hypothesis violations raise; they are never silently skipped, and
    neither is a parameter the kind does not take (see ``FAMILY_PARAMS``).
    ``predicted`` is one of deep_hole / not_deep_hole / not_guaranteed, and
    ``agree`` is True when the observation does not contradict it.
    """
    _check_metric(metric)
    if kind not in FAMILY_PARAMS:
        raise ValueError(f"unknown family kind {kind!r}; choose from {FAMILY_KINDS}")
    given = {"a": a, "b": b, "c": c, "low": low}
    extra = [name for name, val in given.items()
             if val is not None and name not in FAMILY_PARAMS[kind]]
    if extra:
        raise ValueError(f"{kind} family does not take {', '.join(extra)}")
    ctx, n, k = code.ctx, code.n, code.k
    low = LinPoly.zero(ctx) if low is None else low
    _check_poly(code, low)
    params: dict = {}

    def check_low(max_deg: int) -> None:
        if low.deg_q > max_deg:
            raise ValueError(f"low part must have q-degree <= {max_deg}")

    if kind == "frobenius_shift":
        if n != ctx.m:
            raise ValueError("frobenius_shift family needs n == m")
        check_low(k - 1)
        f = LinPoly.monomial(ctx, n - 1) + low
        predicted = PREDICT_DEEP
        params = {"low": list(low.codes)}
    elif kind == "k_eq_n_minus_2":
        if n != ctx.m:
            raise ValueError("k_eq_n_minus_2 family needs n == m")
        if k != n - 2:
            raise ValueError("k_eq_n_minus_2 family needs k == n - 2")
        if a is None:
            raise ValueError("k_eq_n_minus_2 family needs the coefficient a")
        ac = ctx._code(a)
        check_low(n - 3)
        f = (LinPoly.monomial(ctx, n - 1)
             - LinPoly.monomial(ctx, n - 2, ac) + low)
        predicted = (PREDICT_DEEP if ac not in excluded_leading_set(code)
                     else PREDICT_OPEN)
        params = {"a": ac, "low": list(low.codes)}
    elif kind == "k1_odd_m":
        if k != 1:
            raise ValueError("k1_odd_m family needs k == 1")
        if ctx.m % 2 == 0:
            raise ValueError("k1_odd_m family needs odd m")
        if not 3 <= n <= ctx.m:
            raise ValueError("k1_odd_m family needs 3 <= n <= m")
        cc = ctx._code(c) if c is not None else 0
        f = LinPoly(ctx, (cc, 0, 1))
        predicted = PREDICT_DEEP
        params = {"c": cc}
    else:  # binary_quartic
        if ctx.p != 2 or ctx.s != 1:
            raise ValueError("binary_quartic family needs q == 2 (p = 2, s = 1)")
        if k != 1:
            raise ValueError("binary_quartic family needs k == 1")
        if not 3 <= n <= ctx.m:
            raise ValueError("binary_quartic family needs 3 <= n <= m")
        bc = ctx._code(b) if b is not None else 0
        cc = ctx._code(c) if c is not None else 0
        f = LinPoly(ctx, (cc, bc, 1))
        if metric == "rank":
            span_codes = sorted(code.span.element_codes())
            pool = [x for x in span_codes if x]
        else:
            pool = list(code.span.codes)
        hit = any(_pair_quadric_value(ctx, b1, b2) == bc
                  for b1, b2 in itertools.combinations(pool, 2))
        predicted = PREDICT_NOT_DEEP if hit else PREDICT_DEEP
        params = {"b": bc, "c": cc}

    observed = classify_poly(code, f, metric, subspace_cap)
    agree = (predicted == PREDICT_OPEN
             or (predicted == PREDICT_DEEP) == observed.is_deep_hole)
    return FamilyVerdict(kind=kind, params=params, predicted=predicted,
                         observed=observed, agree=agree)


# ---------------------------------------------------------------------------
# Census of the plane quadric x1^2 + x1x2 + x2^2 = b over even-order fields,
# with coordinates restricted to distinct nonzero values.


@dataclass
class QuadricCensus:
    """N together with (optionally) the distinct-coordinate pair set.

    ``count`` follows the closed forms, which tally every pair
    with both coordinates nonzero; ``solutions`` additionally drops the
    diagonal, because only independent (hence distinct) pairs can seed a
    2-dimensional subspace.  In characteristic 2 the diagonal point
    (sqrt(b), sqrt(b)) lies on the quadric whenever b != 0, so count and
    len(solutions) then differ by exactly one.
    """

    b: FieldElement
    count: int
    solutions: list[tuple[FieldElement, FieldElement]] | None = None


def quadric_v(ctx: FieldCtx, b) -> int:
    """The stepped indicator used in point-count formulas: order-1 at zero,
    -1 elsewhere."""
    return ctx.order - 1 if ctx._code(b) == 0 else -1


def quadric_census(ctx: FieldCtx, b, materialize: bool = False,
                   cap: int = DEFAULT_CLASS_SCAN_CAP) -> QuadricCensus:
    """Exhaustive census of x1^2 + x1x2 + x2^2 = b over nonzero pairs.
    The (order - 1)**2 pairs are held to ``cap`` before the first is drawn."""
    if ctx.p != 2 or ctx.s != 1:
        raise ValueError("the quadric census is defined over fields of order 2^m")
    _check_cap(cap, "quadric", (ctx.order - 1) ** 2, "pairs")
    bc = ctx._code(b)
    sols = [] if materialize else None
    count = 0
    for c1 in range(1, ctx.order):
        for c2 in range(1, ctx.order):
            if _pair_quadric_value(ctx, c1, c2) == bc:
                count += 1
                if materialize and c1 != c2:
                    sols.append((FieldElement(ctx, c1), FieldElement(ctx, c2)))
    return QuadricCensus(b=FieldElement(ctx, bc), count=count, solutions=sols)
