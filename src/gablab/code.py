"""Evaluation codes of linearized polynomials and brute-force oracles.

A code is determined by n independent evaluation points g_1..g_n in the
top field and a message degree bound k: codewords are the evaluations of
every linearized polynomial of q-degree < k.  The generator matrix is the
square-free Moore matrix of the points, the code is F_{q^m}-linear, and
words of length n correspond one-to-one to polynomials of q-degree < n by
interpolation (``sigma_inverse``).

The oracle ``dist_to_code_exhaustive`` enumerates codewords outright and
is the ground truth the fast search paths in :mod:`gablab.deephole` are
tested against; ``min_distance`` walks no codeword of its own, but makes
k - 1 oracle calls on one-step extensions of the code (see there).
Enumeration order of messages is canonical: coefficient tuples ascend
with the degree-0 coefficient varying fastest, and reported witnesses are
the first minimizer in that order.  Codeword i is the evaluation of the
message whose coefficient codes are the base-order digits of i, so a
message is rebuilt from its index when it is needed.

Codewords are F_p-linear in the base-p digits d_l of their index i (digit
l = j*sm + t is digit t of coefficient j): codeword i is sum(d_l * B_l),
where B_l is the codeword of the message whose only nonzero coefficient is
p**t at q-degree j.  So the codewords, in canonical order, are the rows
of the field's F_p-span kernel (``gablab.field._span_flat``) on the B_l:
the list so far is followed by p - 1 blocks, each the one before plus B_l,
so a codeword costs n additions and no multiplication, each added the way
``FieldCtx._translation`` picks (XOR, a lookup table or ``add``).  Codes with
at most ``_CODEWORD_CACHE_LIMIT`` codewords list them on first use in one
flat list of entry codes, n per codeword; the messages are not stored.
Larger codes stream theirs: the list of the lower half of the levels,
bounded by the same limit, is translated by each combination of the upper
levels in turn.

The oracles shift the codeword stream itself: ``_codeword_rows`` yields
x + shift, the cached list translated as it is read, or, when streamed,
the shift carried in each block's offset, so no entry is translated
twice.  The distance oracle asks for the shift -w and weighs x - w, not
w - x (a weight does not change under negation); the raw scan asks for
the shift w and takes the coset w + C, the same set as w - C.  That is
one XOR per entry for p = 2, and on the odd table route one lookup per
entry in a table per position, all inside ``map``.  Each stream is then
weighed in one call of its metric's kernel (``_least_weight``), which
returns the least weight and the first row with it: for rank
``FieldCtx._least_rank`` (see :mod:`gablab.field`), and for Hamming the
first row with the most zeros, counted at C speed.
"""

from __future__ import annotations

import itertools
import operator

from .field import (FieldCtx, FieldElement, _base_digits, _check_cap, _from_base_digits,
                    _span_flat)
from .linpoly import LinPoly, SubspaceBasis, _eval_codes, _moore_rows, q_lagrange

DEFAULT_ORACLE_CAP = 1 << 20
DEFAULT_WORD_SCAN_CAP = 1 << 20
_CODEWORD_CACHE_LIMIT = 1 << 16

METRICS = ("rank", "hamming")


def _check_metric(metric: str) -> str:
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    return metric


class Word:
    """A length-n tuple of field elements.  The entries are stored as their
    integer ``codes``; ``entries`` wraps them in FieldElements on each read."""

    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: FieldCtx, entries):
        self.ctx = ctx
        self.codes = tuple(ctx._code(e) for e in entries)
        if not self.codes:
            raise ValueError("a word needs at least one entry")

    @property
    def entries(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.ctx, c) for c in self.codes)

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.entries[i]
        return FieldElement(self.ctx, self.codes[i])

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return other.ctx is self.ctx and other.codes == self.codes

    def __hash__(self):
        return hash(self.codes)

    def __repr__(self):
        return f"Word({list(self.codes)})"


def _check_word(code: GabidulinCode, w) -> None:
    """Refuse anything but a Word of the code's length over its field."""
    if not isinstance(w, Word) or w.ctx is not code.ctx:
        raise ValueError("word must live over the code's field context")
    if len(w) != code.n:
        raise ValueError("word length mismatch")


def _check_poly(code: GabidulinCode, f) -> None:
    """Refuse anything but a LinPoly over the code's field."""
    if not isinstance(f, LinPoly) or f.ctx is not code.ctx:
        raise ValueError("polynomial must be a LinPoly over the code's field context")


def _least_weight(ctx: FieldCtx, metric: str, rows, n: int) -> tuple[int, int]:
    """(least weight, index of the first row with it) over a nonempty
    iterable of rows of n codes each.  Rank is ``FieldCtx._least_rank``;
    Hamming counts zeros at C speed in blocks of 1,024 rows, keeps the first
    row with the most, and stops after a block with a row of weight 0."""
    if metric == "rank":
        return ctx._least_rank(rows)
    counts = map(operator.countOf, rows, itertools.repeat(0))
    zeros, idx, start = -1, 0, 0
    while zeros < n and (block := list(itertools.islice(counts, 1024))):
        top = max(block)
        if top > zeros:
            zeros, idx = top, start + block.index(top)
        start += len(block)
    return n - zeros, idx


def weight(w: Word, metric: str) -> int:
    """Rank weight (span dimension over F_q) or Hamming weight of a word."""
    _check_metric(metric)
    return _least_weight(w.ctx, metric, [w.codes], len(w))[0]


class GabidulinCode:
    __slots__ = ("ctx", "k", "span", "_cw_cache", "_plan")

    def __init__(self, ctx: FieldCtx, points, k: int):
        self.ctx = ctx
        self.span = SubspaceBasis(ctx, points)  # rejects dependent points
        n = self.span.dim
        if type(k) is not int or not 1 <= k <= n:
            raise ValueError(f"message degree bound k must be an integer in 1..{n}, got {k!r}")
        self.k = k
        self._cw_cache = None
        self._plan = {}  # the witness search's per-code candidates (gablab.deephole)

    @property
    def n(self) -> int:
        return self.span.dim

    @property
    def points(self) -> tuple[FieldElement, ...]:
        return self.span.gens

    def __repr__(self):
        return (f"GabidulinCode(n={self.n}, k={self.k}, "
                f"points={list(self.span.codes)})")

    def encode(self, msg: LinPoly) -> Word:
        _check_poly(self, msg)
        if msg.deg_q >= self.k:
            raise ValueError(f"message q-degree must be < {self.k}")
        return self.evaluate(msg)

    def evaluate(self, f: LinPoly) -> Word:
        """Word of f's values on the points, for any f of q-degree < n."""
        _check_poly(self, f)
        if f.deg_q >= self.n:
            raise ValueError(f"representative q-degree must be < {self.n}")
        return Word(self.ctx, [_eval_codes(self.ctx, f.codes, g) for g in self.span.codes])

    def sigma_inverse(self, w: Word) -> LinPoly:
        """The unique q-degree < n polynomial whose value word is w."""
        _check_word(self, w)
        return q_lagrange(self.span, w.codes)

    def word(self, codes) -> Word:
        w = Word(self.ctx, codes)
        if len(w) != self.n:
            raise ValueError(f"expected {self.n} entries, got {len(w)}")
        return w

    def message_count(self) -> int:
        return self.ctx.order ** self.k

    def iter_codewords(self):
        """(message coefficient codes, codeword codes) pairs, canonical order."""
        messages = (m[::-1] for m in itertools.product(range(self.ctx.order), repeat=self.k))
        return zip(messages, self._codeword_rows())

    def _codeword_rows(self, oracle_cap: int | None = None, shift=None):
        """The codewords' entry tuples in canonical order, each plus the
        vector ``shift`` of n codes when one is given: row i is the
        evaluation of the message whose digits are those of i in base order.
        They are built by linearity (``_span_flat``), one level per base-p
        digit of i, n additions per codeword.  Up to
        ``_CODEWORD_CACHE_LIMIT`` codewords are listed on first use in one
        flat list of entry codes, n per codeword, and later passes are served
        from it, translated by the shift as they are read; more are streamed
        (``_stream_rows``) from a list of about the square root of their
        number, the shift folded into each block's offset, so no entry is
        translated twice.  Each translation runs inside ``map`` by the
        route ``FieldCtx._translation`` picks.  The count is held to
        ``oracle_cap`` (None: the fixed ``DEFAULT_ORACLE_CAP``) by
        ``_check_oracle_cap``."""
        count = self.message_count()
        _check_oracle_cap(count, oracle_cap)
        if count > _CODEWORD_CACHE_LIMIT:
            return _stream_rows(self.ctx, self._unit_codewords(), self.n, shift)
        if self._cw_cache is None:
            self._cw_cache = _span_flat(self.ctx, self._unit_codewords(), self.n)
        return _rows(self.ctx, self._cw_cache, self.n, shift)

    def _unit_codewords(self) -> list[list[int]]:
        """The codeword of each unit message, in the order of the base-p
        digits of a codeword's index: level i*sm + t is the message whose
        only nonzero coefficient is p**t (the element x**t) at q-degree i."""
        ctx = self.ctx
        moore = _moore_rows(ctx, self.span.codes, self.k)
        return [[ctx.mul(ctx.p ** t, row[i]) for row in moore]
                for i in range(self.k) for t in range(ctx.sm)]


def _check_oracle_cap(count: int, oracle_cap: int | None) -> None:
    """Hold ``count`` codewords to ``oracle_cap`` by the one guard; None is
    the fixed ``DEFAULT_ORACLE_CAP``, whose refusal names no remedy."""
    _check_cap(DEFAULT_ORACLE_CAP if oracle_cap is None else oracle_cap, "oracle", count,
               "codewords", fixed=oracle_cap is None)


def _rows(ctx: FieldCtx, flat: list[int], n: int, shift):
    """The rows of ``flat``, n codes each, as tuples, each plus ``shift``
    (None: as they are), drawn row by row."""
    if shift is None:
        return zip(*[iter(flat)] * n)
    op, args = ctx._translation(shift, len(flat) // n)
    return zip(*[map(op, itertools.cycle(args), flat)] * n)


def _stream_rows(ctx: FieldCtx, units, n: int, shift):
    """The rows of ``_span_flat(ctx, units, n)`` as tuples, in the same
    order, each plus ``shift`` (None: as they are): the flat list of the
    lower half of the levels (fewer when that would pass
    ``_CODEWORD_CACHE_LIMIT`` rows, but at least one), translated by each
    combination of the upper levels in turn, which are streamed the same
    way with the shift added.  So about the square root of the rows is held
    at once, and every row is translated once."""
    low = (len(units) + 1) // 2
    while low > 1 and ctx.p ** low > _CODEWORD_CACHE_LIMIT:
        low -= 1
    flat = _span_flat(ctx, units[:low], n)
    if low == len(units):
        yield from _rows(ctx, flat, n, shift)
        return
    for offset in _stream_rows(ctx, units[low:], n, shift):
        yield from _rows(ctx, flat, n, offset)


def dist_to_code_exhaustive(code: GabidulinCode, w: Word, metric: str,
                            oracle_cap: int = DEFAULT_ORACLE_CAP) -> tuple[int, LinPoly]:
    """Exact distance by enumerating every codeword, plus the first-closest
    message polynomial in canonical order.  The codeword stream is shifted
    by -w (``GabidulinCode._codeword_rows``), so each row is x - w, which
    has the weight of w - x, and the metric's kernel (``_least_weight``)
    weighs the whole stream in one call.  The message is rebuilt from the
    index of the first closest codeword."""
    _check_metric(metric)
    _check_word(code, w)
    ctx = code.ctx
    rows = code._codeword_rows(oracle_cap, [ctx.neg(a) for a in w.codes])
    best, best_idx = _least_weight(ctx, metric, rows, code.n)
    return best, LinPoly(ctx, _base_digits(best_idx, ctx.order, code.k))


def min_distance(code: GabidulinCode, metric: str,
                 oracle_cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Minimum weight over the nonzero codewords, by one-step extensions.
    For a linear code C and a word u not in C, d(C + <u>) = min(d(C),
    d(u, C)), as a weight does not change under scaling.  On the same
    points Gab_(j+1) = Gab_j + <u_j>, u_j the word of x^(q^j), and every
    nonzero word of Gab_1 is a scalar times the point vector g, so
    d(Gab_k) = min(wt(g), d(u_1, Gab_1), ..., d(u_(k-1), Gab_(k-1))):
    k - 1 oracle calls, which walk Q + ... + Q^(k-1) codewords, not Q^k.
    The cap is held to Q^k, the code's own count, before any call."""
    _check_metric(metric)
    _check_oracle_cap(code.message_count(), oracle_cap)
    ctx, points = code.ctx, code.span.codes
    best = _least_weight(ctx, metric, [points], code.n)[0]
    for j in range(1, code.k):
        u = code.word([ctx.frob(g, j) for g in points])
        d, _ = dist_to_code_exhaustive(GabidulinCode(ctx, points, j), u, metric, oracle_cap)
        best = min(best, d)
    return best


def covering_radius_raw(code: GabidulinCode, metric: str) -> tuple[int, dict[int, int]]:
    """max over ALL words of the exhaustive distance, with a histogram.

    Independent of the class-based scan and of any polynomial theory: it
    walks all order**n words by index (entry 0 the lowest base-order
    digit).  A word w's distance is the least weight in its coset w + C
    (the same set as w - C, C being linear), and every member of that coset
    has the same distance, so each unseen word's coset is the codeword
    stream shifted by w, each member's weight is taken once, and the
    minimum, one ``_least_weight`` call per coset, is credited to every
    member not yet seen.  That is order**n weight computations in all, not
    order**n * |C|.  The words are held to the fixed
    ``DEFAULT_WORD_SCAN_CAP``, whose refusal names no remedy.
    """
    _check_metric(metric)
    ctx, n, order = code.ctx, code.n, code.ctx.order
    total = order ** n
    _check_cap(DEFAULT_WORD_SCAN_CAP, "scan", total, "words", fixed=True)
    seen = bytearray(total)
    hist: dict[int, int] = {}
    for idx in range(total):
        if seen[idx]:
            continue
        coset = list(code._codeword_rows(shift=_base_digits(idx, order, n)))
        d = _least_weight(ctx, metric, coset, n)[0]
        for member in coset:
            j = _from_base_digits(member, order)
            if not seen[j]:
                seen[j] = 1
                hist[d] = hist.get(d, 0) + 1
    return max(hist), dict(sorted(hist.items()))


# ---------------------------------------------------------------------------
# Code-spec files: plain key=value lines naming a code over a tower.


SPEC_KEYS = ("p", "s", "m", "n", "k", "g", "modulus")


def parse_code_spec(text: str) -> GabidulinCode:
    kv = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ValueError(f"line {ln} of code spec is not key=value: {raw!r}")
        key = key.strip()
        if key not in SPEC_KEYS:
            raise ValueError(f"line {ln} of code spec has unknown key {key!r}; "
                             f"expected one of {', '.join(SPEC_KEYS)}")
        if key in kv:
            raise ValueError(f"line {ln} of code spec repeats key {key!r}")
        kv[key] = val.strip()
    missing = [k for k in ("p", "s", "m", "n", "k", "g") if k not in kv]
    if missing:
        raise ValueError(f"code spec is missing keys: {', '.join(missing)}")
    try:
        p, s, m = int(kv["p"]), int(kv["s"]), int(kv["m"])
        n, k = int(kv["n"]), int(kv["k"])
        gcodes = [int(c) for c in kv["g"].split(",")] if kv["g"] else []
        modulus = ([int(c) for c in kv["modulus"].split(",")]
                   if kv.get("modulus") else None)
    except ValueError as exc:
        raise ValueError(f"malformed number in code spec: {exc}") from None
    ctx = FieldCtx(p, s, m, modulus)
    if len(gcodes) != n:
        raise ValueError(f"code spec declares n={n} but lists {len(gcodes)} points")
    return GabidulinCode(ctx, gcodes, k)


def load_code_spec(path) -> GabidulinCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_spec(fh.read())


def format_code_spec(code: GabidulinCode) -> str:
    ctx = code.ctx
    lines = [
        f"p={ctx.p}",
        f"s={ctx.s}",
        f"m={ctx.m}",
        "modulus=" + ",".join(str(c) for c in ctx.modulus),
        f"n={code.n}",
        f"k={code.k}",
        "g=" + ",".join(str(c) for c in code.span.codes),
    ]
    return "\n".join(lines) + "\n"
