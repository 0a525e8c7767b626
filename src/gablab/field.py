"""Arithmetic in the finite-field tower F_p < F_q = F_{p^s} < F_{q^m}.

The top field is realized exactly once as F_p[x]/(modulus) with a monic
irreducible modulus of degree s*m; the middle field F_q is the fixed set of
the (p^s)-power map, never a second quotient structure.  An element is
identified by its canonical integer code ``sum(coeffs[i] * p**i)`` where
``coeffs`` is the degree-0-first coefficient vector of its residue
polynomial.  Codes biject onto ``range(p**(s*m))`` and are the wire format
of every file and CLI interface in this package.

One rule, ``FieldCtx._code``, reads every element operand, once: an
element of the same context gives its code, an int in 0..order-1 that is
not a bool is a code, and anything else raises ValueError ("code v out of
range for ...", "v is not a code of ..." or "mixed field contexts";
contexts are told apart by identity).  Every reader in every module keeps
the code and builds no FieldElement; only ``FieldCtx.element`` also reads
a coefficient sequence.  ``_element_codes`` reads a sequence of elements
(a basis, a matrix, Moore columns), and ``FieldCtx.inv`` checks its
argument inline, on the hot path, refusing the same ints, bools and floats.

The modulus is checked, and the default one found, by Rabin's
irreducibility test run in F_p[x]/(modulus) itself with the field's own
direct arithmetic (``FieldCtx._set_modulus``); there is no second
polynomial layer.  The default is the lexicographically smallest monic
irreducible of the right degree, comparing coefficient sequences from
degree 0 upward as base-p integers, so a (p, s, m) triple always names
the same field.

A ``FieldCtx`` is immutable after construction, apart from memos filled
on first use (the subfield basis, the span automaton, the direct route's
inverses, the odd table route's addition rows, the inverse q-power
tables) that never change an answer, and every operation is a pure
function of element codes, so contexts and elements can be shared freely
between threads and worker processes.
Fields up to the table limit build, once at construction, a
discrete-log table pair (exp/log) and, in odd characteristic, a
Zech-logarithm table zech[i] = log(1 + g**i) (-1 where that sum is 0),
and nothing else: a * b = g**(log a + log b), the i-fold q-power map is
g**(log a * q**i), a + b = g**(log a + zech[log b - log a]),
-a = g**(log a + (order-1)/2) and a - b = a + (-b) are lookups.  Fields
above the limit build no table and take the direct polynomial route,
where odd characteristic has one digit kernel, a - r*b for r in F_p in
one pass over the base-p digits (``FieldCtx._sub_scaled_digits``), for
addition, subtraction, negation and each reduction of the F_q-rank
echelon.  The exp table is walked by multiplying by the generator
through tables filled on the direct route (``FieldCtx._times``), and a
Zech entry costs O(1), since 1 + g**i differs from g**i in digit 0
only.  The odd-characteristic echelon (``FieldCtx._greedy_codes``)
reduces codes, not digit lists: with ``sub`` and ``mul`` on the table
route, and with the digit kernel on the direct route.

Rank weights (``FieldCtx._least_rank``: the least F_q-rank over rows of
codes, and the first row with it) walk a memoized F_q-span automaton,
inline, on table-route fields whose complete automaton is small.  A
state is an F_q-subspace of the top field, keyed by its member set; it
carries its dimension, and its transition on a code c leads to the state
of its span with c.  A row's rank is the dimension reached from the zero
space; its walk stops once that reaches the least so far, and the stream
stops at a row of rank 0.
States are made on first reach, with their members' transitions to
themselves; a transition out of a state is made on first reach for all
codes leading to the same next state.  Every state is a true subspace,
so no answer depends on the order of filling.  Fields above the
table limit, and those with more than ``_SPAN_AUTOMATON_LIMIT``
transitions in all (F_q-subspace count times order), use the echelon.

On the direct route in characteristic 2 (packed ints), a product is one
shifted copy of a per set bit of b, and its reduction is two table reads:
r = low + x^sm * h with h below x^(sm-1), and h * x^sm mod the modulus
is F_2-linear in h, so it is the XOR of one entry for h's low half and
one for its high half.  ``_set_modulus`` spans both tables from the
powers x^(sm+t) for each candidate modulus, one XOR per entry (256 + 256
at GF(2^17)), so Rabin's test, ``_pow_direct``, ``frob`` and the exp
walk's ``_times`` all reduce by table.  The inverse is extended Euclid
in F_2[x] against the modulus, and the i-fold q-power map is a**(q**i)
powered from the top set bit, which for q = 2**s is s*i squarings and no
other multiply; odd characteristic takes Fermat's a**(order - 2) and the
same powers.  Each direct-route context keeps the inverses it computes,
up to ``_INV_MEMO_LIMIT`` of them, so a pivot that every word inverts
again (the search's Moore pivots do not depend on the word) costs a dict
hit after the first.

Four helpers serve every module: ``_combine_rows`` forms F_q-combinations
of a list of codes (subspace generators, coordinates); ``_base_digits`` /
``_from_base_digits`` convert between an integer and its
least-significant-first digits in any base (element codes over p, class,
message and word indices over the field order); ``_span_flat``, the one
F_p-span kernel, lists every F_p-combination of some rows in index order
(codewords, F_q and span members, the char-2 reduction tables, the
sieve's rows); and ``FieldCtx._fp_kernel`` solves for the kernel of an
F_p-linear map of the top field (F_q, root spaces).  Adding one vector
to many rows takes its route from ``FieldCtx._translation`` alone: XOR in
characteristic 2, ``add``, or rows x -> x + c of the addition table, built
digit-wise and kept in a bounded per-context memo on the odd table route.
The i-th root of the q-power map (``FieldCtx._frob_root``) is i reads of
the F_p-linear map x -> x^(q^(m-1)) from two half tables, as ``_red`` is
read.  Every enumeration in the package is held to its cap by
``_check_cap``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_right

DEFAULT_FIELD_CAP = 1 << 24

# Above this order, multiplication falls back to direct polynomial
# arithmetic instead of materializing exp/log tables.
_TABLE_LIMIT = 1 << 16

# A table-route field walks the F_q-span automaton for rank weights when
# its complete automaton (every F_q-subspace, one transition per code)
# has at most this many transitions; larger ones keep the echelon.  The
# limit takes GF(3^4) (212 subspaces x 81) and keeps a filled automaton
# under ~0.4 MB and its first fill to a few ms; bigger automata (GF(2^6),
# GF(3^5), GF(5^4): 3.6-10 MB filled) made one-shot oracle calls slower
# than the echelon.
_SPAN_AUTOMATON_LIMIT = 1 << 15

# A direct-route field keeps the inverses it computes (``FieldCtx.inv``)
# until it holds this many, about 0.4 MB; later inverses are computed and
# not kept.  The search's Moore pivots are word-independent (30 distinct
# ones at GF(2^17), n = 5, k = 1), so they stay far below it.  Threads
# that miss at once may each store, passing the bound by less than their
# number; every entry is the true inverse, so no answer depends on it.
_INV_MEMO_LIMIT = 1 << 12

# An odd table-route field keeps the rows x -> x + c of its addition table
# that ``FieldCtx._translation`` builds while they hold at most this many
# codes in all, about 2 MB of list slots: every row of GF(3^4) (81 x 81
# codes) or GF(7^3), 419 of GF(5^4)'s 625, 4 of GF(3^10)'s.  Later rows are
# built and not kept.  Threads that miss at once may each store, passing
# the bound by less than their number of rows; every row is the true one.
_ADD_ROW_MEMO_LIMIT = 1 << 18


def _check_cap(cap, name: str, count: int | None = None, what: str = "",
               fixed: bool = False) -> None:
    """The one enumeration guard.  Refuse a cap that is not an int (a bool
    or a float included), then a ``count`` of ``what`` above it, before the
    first item is drawn; with no count the cap is only read.  The refusal
    names the remedy unless the cap is ``fixed``, one the caller did not
    pass and so cannot raise."""
    if type(cap) is not int:
        raise ValueError(f"{name} cap must be an integer, got {cap!r}")
    if count is not None and count > cap:
        remedy = "" if fixed else "; raise the cap to proceed"
        raise ValueError(f"{count} {what} exceed the {name} cap {cap}{remedy}")


def gaussian_binomial(n: int, t: int, q: int) -> int:
    """Number of t-dimensional subspaces of an n-dimensional F_q-space."""
    if t < 0 or t > n:
        return 0
    num = den = 1
    for i in range(t):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (desk scale)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Base-b digit vectors, least significant first: element codes over p
# (``FieldCtx._digits``), class and message indices over the field order.


def _base_digits(x: int, base: int, width: int) -> list[int]:
    """The ``width`` lowest base-``base`` digits of x, least significant first."""
    out = []
    for _ in range(width):
        x, d = divmod(x, base)
        out.append(d)
    return out


def _from_base_digits(ds, base: int) -> int:
    """sum(ds[i] * base**i) for a digit sequence ds; inverts _base_digits."""
    x = 0
    for d in reversed(ds):
        x = x * base + d
    return x


def _span_flat(ctx, units, n: int) -> list[int]:
    """Every F_p-combination sum(d_l * units[l]) of the length-n rows, by
    the index sum(d_l * p**l), as one flat list of codes, n per row.  Level
    l appends p - 1 blocks, block d being block d - 1 plus units[l] (block
    0 is the list so far) by ``ctx._translation``: n additions a row."""
    flat = [0] * n
    for unit in units:
        op, args = ctx._translation(unit, (ctx.p - 1) * len(flat) // n)
        block = flat
        for _ in range(ctx.p - 1):
            block = list(map(op, itertools.cycle(args), block))
            flat += block
    return flat


# ---------------------------------------------------------------------------
# Linear algebra.  ``_eliminate`` is the one Gaussian elimination: it
# takes a copy to reduced echelon form in a loop trimmed to the field
# operations the reduction needs, and determinants, solves, ranks, null
# spaces and inverses are read off that one pass.  Code matrices run it
# over their own FieldCtx, and F_p digit matrices over ``_prime_field(p)``,
# whose codes are the digits.  F_q-ranks and greedy bases, the hot ones,
# use the one incremental F_p echelon in ``FieldCtx._greedy_codes``.


def _eliminate(ctx, rows, ncols: int):
    """Reduced echelon form of a copy of a code matrix over ctx.

    Columns 0..ncols-1 are taken in turn until every row holds a pivot; a
    column's pivot is the first row at or below the current rank with a
    nonzero entry there, found by a plain scan.  It is swapped up, scaled
    to a leading 1 unless it is 1 already (one inversion, a memo hit on the
    direct route for a pivot seen before), and its tail, sliced once, is
    subtracted from every other row, so each pivot column is the unit
    vector of its pivot row.  Clearing above touches no row below, so the
    pivots are forward elimination's.  Columns from ``ncols`` on ride along
    (a right side).  Returns the rows, the pivot columns, the pivot entries
    before scaling and the number of row swaps."""
    rows = [list(r) for r in rows]
    mul, sub = ctx.mul, ctx.sub
    pivots, leads, swaps = [], [], 0
    for c in range(ncols):
        r = len(pivots)
        for piv in range(r, len(rows)):
            if rows[piv][c]:
                break
        else:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        top = rows[r]
        leads.append(top[c])
        tail = top[c + 1:]
        if top[c] != 1:
            inv = ctx.inv(top[c])
            tail = [mul(inv, x) for x in tail]
            top[c:] = [1] + tail
        for row in rows:
            f = row[c]
            if f and row is not top:
                row[c:] = [0] + [sub(a, mul(f, b)) for a, b in zip(row[c + 1:], tail)]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots, leads, swaps


def _det(ctx, rows) -> int:
    """Determinant of a square code matrix: (-1)**swaps * prod(leads)."""
    _, pivots, leads, swaps = _eliminate(ctx, rows, len(rows))
    if len(pivots) < len(rows):
        return 0
    det = functools.reduce(ctx.mul, leads, 1)
    return ctx.neg(det) if swaps % 2 else det


def _solve(ctx, rows, rhs) -> list[int] | None:
    """One solution of rows * x = rhs with free entries 0, or None."""
    n = len(rows[0])
    red, pivots, _, _ = _eliminate(ctx, [[*r, b] for r, b in zip(rows, rhs)], n)
    if any(row[n] for row in red[len(pivots):]):
        return None
    sol = [0] * n
    for row, c in zip(red, pivots):
        sol[c] = row[n]
    return sol


def _combine_rows(ctx, rows, codes) -> list[int]:
    """sum_j row[j] * codes[j] for each row of coefficient codes: the
    F_q-combinations of a basis that subspace rows, coordinates and
    subfield members denote.  A coefficient 1 costs no multiplication, a
    coefficient 0 nothing, and a term added to a zero sum no addition."""
    add, mul = ctx.add, ctx.mul
    out = []
    for row in rows:
        acc = 0
        for c, x in zip(row, codes):
            if c:
                x = x if c == 1 else mul(c, x)
                acc = add(acc, x) if acc else x
        out.append(acc)
    return out


def _nullspace(ctx, rows) -> list[list[int]]:
    """Basis of rows * x = 0: per free column f, the x with x[f] = 1,
    every other free entry 0 and x[pivot_i] = -row_i[f], ascending in f."""
    n = len(rows[0])
    red, pivots, _, _ = _eliminate(ctx, rows, n)
    neg, out = ctx.neg, []
    for f in sorted(set(range(n)).difference(pivots)):
        x = [int(j == f) for j in range(n)]
        for row, c in zip(red, pivots):
            x[c] = neg(row[f])
        out.append(x)
    return out


@functools.cache
def _prime_field(p: int) -> "FieldCtx":
    return FieldCtx(p, 1, 1)


@functools.cache
def _fp_tables(p: int, sm: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """p**i for i < sm (a code's leading base-p position is the last i with
    p**i <= code) and the digits' inverses mod p (0 for 0)."""
    return tuple(p ** i for i in range(sm)), (0,) + tuple(pow(f, -1, p) for f in range(1, p))


class FieldCtx:
    """The tower F_p < F_{p^s} < F_{p^{s*m}} with a fixed modulus.

    Code-level arithmetic (``add``, ``mul``, ...) works on raw integer
    codes and is what the scanning loops use; ``element`` wraps a code in
    a :class:`FieldElement` for operator syntax.  Two contexts are never
    interchangeable, even with equal parameters: identity is the tag.
    """

    __slots__ = (
        "p", "s", "m", "q", "sm", "order", "modulus",
        "_mod_int", "_red", "_n1", "_exp", "_log", "_zech",
        "_sub_pbasis", "_sub_codes", "_inv_memo", "_add_rows",
        "_unfrob", "_span_zero", "_span_rows",
    )

    def __init__(self, p: int, s: int, m: int, modulus=None):
        if any(type(x) is not int for x in (p, s, m)):
            raise ValueError(f"p, s and m must be integers, got {(p, s, m)!r}")
        if s < 1 or m < 1:
            raise ValueError("tower exponents s and m must be >= 1")
        sm = s * m
        # Bound p and sm before the power and the primality test: for
        # p >= 2 the order p**sm is above the cap whenever p is, or sm
        # reaches the cap's bit length.  No order above the cap is built
        # or printed.
        if p >= 2 and (p > DEFAULT_FIELD_CAP or sm >= DEFAULT_FIELD_CAP.bit_length()
                       or p ** sm > DEFAULT_FIELD_CAP):
            raise ValueError(f"field order {p}^{sm} exceeds the cap {DEFAULT_FIELD_CAP}")
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p, self.s, self.m, self.sm = p, s, m, sm
        self.q = p ** s
        self.order = order = p ** sm
        self._n1 = order - 1
        self._exp = self._log = self._zech = self._red = None
        self._inv_memo, self._add_rows = {}, {}
        self._unfrob = None
        self._set_modulus(modulus)
        if order <= _TABLE_LIMIT:
            self._build_tables()
        self._sub_pbasis = self._sub_codes = self._span_zero = self._span_rows = None
        subspaces = sum(gaussian_binomial(m, t, self.q) for t in range(m + 1))
        if self._exp is not None and subspaces * order <= _SPAN_AUTOMATON_LIMIT:
            # The zero space; the other states appear as walks reach them.
            self._span_rows = {}
            self._span_zero = self._span_state(0, frozenset((0,)))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, s={self.s}, m={self.m})"

    # -- element construction ------------------------------------------------

    def _code(self, value) -> int:
        """The code of an element operand: an element of this context, or an
        int in 0..order-1 that is not a bool.  Anything else is refused."""
        if isinstance(value, FieldElement):
            if value.ctx is not self:
                raise ValueError("mixed field contexts")
            return value.code
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{value!r} is not a code of {self!r}")
        if not 0 <= value < self.order:
            raise ValueError(f"code {value} out of range for {self!r}")
        return value

    def element(self, value) -> "FieldElement":
        """Wrap an operand that ``_code`` reads, or a coefficient sequence."""
        if isinstance(value, (int, FieldElement)):
            code = self._code(value)
            return value if isinstance(value, FieldElement) else FieldElement(self, code)
        try:
            coeffs = list(value)
        except TypeError:
            raise ValueError(f"{value!r} is not a code or coefficient sequence "
                             f"of {self!r}") from None
        if len(coeffs) > self.sm:
            raise ValueError("too many coefficients for this field")
        if any(type(c) is not int or not 0 <= c < self.p for c in coeffs):
            raise ValueError("coefficients must be integers in [0, p)")
        return FieldElement(self, self._undigits(coeffs))

    # -- digit plumbing -------------------------------------------------------

    def _digits(self, a: int) -> list[int]:
        return _base_digits(a, self.p, self.sm)

    def _undigits(self, ds) -> int:
        return _from_base_digits(ds, self.p)

    def _digit_matrix(self, codes) -> list[list[int]]:
        """The sm-row F_p matrix whose column j holds the digits of codes[j]."""
        cols = [self._digits(c) for c in codes]
        return [[col[d] for col in cols] for d in range(self.sm)]

    def _fp_kernel(self, image) -> list[int]:
        """Codes, ascending, of an F_p-basis of the kernel of the F_p-linear
        map ``image`` (code -> code): the null space of its digit matrix."""
        rows = self._digit_matrix([image(self.p ** j) for j in range(self.sm)])
        return sorted(self._undigits(v) for v in _nullspace(_prime_field(self.p), rows))

    # -- code arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._exp is None:
            return self._sub_scaled_digits(a, b, self.p - 1)
        if a == 0 or b == 0:
            return a or b
        log, n1 = self._log, self._n1
        z = self._zech[(log[b] - log[a]) % n1]
        return self._exp[(log[a] + z) % n1] if z >= 0 else 0

    def _sub_scaled_digits(self, a: int, b: int, r: int) -> int:
        """a - r*b for r in F_p, in one pass over the base-p digits (a
        prime-field multiple scales each digit): the direct route's odd
        add (r = p - 1), sub (r = 1) and neg (a = 0, r = 1)."""
        p = self.p
        out, mult = 0, 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += (da - r * db) % p * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self._exp is not None:
            return self._exp[(self._log[a] + (self._n1 >> 1)) % self._n1] if a else 0
        return self._sub_scaled_digits(0, a, 1)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._exp is None:
            return self._sub_scaled_digits(a, b, 1)
        if b:
            return self.add(a, self._exp[(self._log[b] + (self._n1 >> 1)) % self._n1])
        return a

    def _mul_direct(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.p == 2:
            r = 0
            while b:  # one shifted copy of a per set bit of b
                low = b & -b
                r ^= a * low
                b ^= low
            # r = low + x^sm * h: the low bits stay, h * x^sm is two reads.
            h = r >> self.sm
            lo, lo_mask, hi, cut = self._red
            return (r & self._n1) ^ lo[h & lo_mask] ^ hi[h >> cut]
        p = self.p
        if self.sm == 1:
            return a * b % p
        da, db = self._digits(a), self._digits(b)
        conv = [0] * (2 * self.sm - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        mod = self.modulus
        for d in range(len(conv) - 1, self.sm - 1, -1):
            c = conv[d] % p
            if c:
                off = d - self.sm
                for t in range(self.sm):
                    conv[off + t] -= c * mod[t]
            conv[d] = 0
        return self._undigits([c % p for c in conv[: self.sm]])

    def _pow_direct(self, a: int, e: int) -> int:
        # Left to right from the top set bit: no 1*a multiply, no squaring
        # past the last bit.
        if e == 0:
            return 1 % self.order
        r = a
        for bit in bin(e)[3:]:
            r = self._mul_direct(r, r)
            if bit == "1":
                r = self._mul_direct(r, a)
        return r

    def _inv_euclid2(self, a: int) -> int:
        """Inverse of a nonzero code for p = 2 by extended Euclid in F_2[x]:
        g1 * a == u and g2 * a == v modulo the modulus throughout, and the
        degrees of u and v fall until u == 1."""
        u, v, g1, g2 = a, self._mod_int, 1, 0
        du, dv = u.bit_length(), v.bit_length()
        while u != 1:
            if du < dv:
                u, v, g1, g2, du, dv = v, u, g2, g1, dv, du
            j = du - dv
            u ^= v << j
            g1 ^= g2 << j
            du = u.bit_length()
        return g1

    # -- the modulus ------------------------------------------------------------

    def _set_modulus(self, modulus) -> None:
        """Accept a given modulus, or find the default: the first monic
        candidate of degree sm, with its lower coefficients read as a
        base-p number from 0 upward, that passes ``_modulus_is_irreducible``."""
        p, sm = self.p, self.sm
        if modulus is None:
            candidates = (tuple(self._digits(low)) + (1,) for low in range(self.order))
        else:
            mod = tuple(modulus)
            if any(type(c) is not int for c in mod):
                raise ValueError(f"modulus coefficients must be integers, got {mod!r}")
            if len(mod) != sm + 1:
                raise ValueError(f"modulus must have degree {sm}, got degree {len(mod) - 1}")
            if any(not 0 <= c < p for c in mod):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if mod[-1] != 1:
                raise ValueError("modulus must be monic")
            candidates = (mod,)
        for mod in candidates:
            self.modulus = mod
            self._mod_int = _from_base_digits(mod, p)
            if p == 2:
                self._red = self._reduction_tables()
            if self._modulus_is_irreducible():
                return
        raise ValueError("modulus is reducible over the prime field")

    def _reduction_tables(self) -> tuple[list[int], int, list[int], int]:
        """For p = 2, the tables with which ``_mul_direct`` reduces a product
        r = low + x^sm * h (h below x^(sm-1)): h * x^sm mod the modulus is
        F_2-linear in h, so it is lo[low cut bits of h] ^ hi[h >> cut], with
        cut = (sm - 1) // 2.  Each table is spanned from its powers
        x^(sm+t) mod the modulus, one XOR per entry: 256 + 256 entries at
        sm = 17.  Returns (lo, its index mask, hi, cut)."""
        deg, mint = self.sm, self._mod_int
        powers, v = [], mint ^ (1 << deg)
        for _ in range(deg - 1):
            powers.append(v)
            v <<= 1
            if v >> deg:
                v ^= mint
        cut = (deg - 1) // 2
        lo, hi = ([[v] for v in half] for half in (powers[:cut], powers[cut:]))
        return _span_flat(self, lo, 1), (1 << cut) - 1, _span_flat(self, hi, 1), cut

    def _modulus_is_irreducible(self) -> bool:
        """Rabin's test, run in F_p[x]/(modulus) itself on the direct route
        (before any table exists), where x is the code p.  The modulus of
        degree d is irreducible iff x^(p^d) = x and, for every prime r | d,
        h = x^(p^(d/r)) - x is a unit.  Once x^(p^d) = x the ring is a
        product of fields F_{p^e} with e | d, so h is a unit exactly when
        h^(p^d - 1) = 1.  Every monic linear modulus is irreducible."""
        p, d, pw = self.p, self.sm, self._pow_direct
        if d == 1:
            return True
        x = p
        if pw(x, self.order) != x:
            return False
        return all(pw(self.sub(pw(x, p ** (d // r)), x), self._n1) == 1
                   for r in _prime_factors(d))

    def _build_tables(self):
        """exp/log for the first multiplicative generator g among the codes
        from 2 up (from p when sm > 1: the prime field's elements have
        orders dividing p - 1), walked by ``_times``, and Zech from exp:
        1 + g**i differs from g**i in digit 0 only."""
        p, order, n1 = self.p, self.order, self._n1
        if n1 <= 1:
            g = 1 % order
        else:
            pf = _prime_factors(n1)
            g = next((c for c in range(2 if self.sm == 1 else p, order)
                      if all(self._pow_direct(c, n1 // r) != 1 for r in pf)), None)
            if g is None:
                raise AssertionError("no multiplicative generator found")
        times_g = self._times(g)
        exp = [0] * max(n1, 1)
        log = [0] * order
        e = 1 % order
        for i in range(max(n1, 1)):
            exp[i] = e
            log[e] = i
            e = times_g(e)
        zech = None
        if p != 2:
            zech = [log[t] if t else -1
                    for t in (e - p + 1 if e % p == p - 1 else e + 1 for e in exp)]
        self._log, self._zech, self._exp = log, zech, exp

    def _times(self, g: int):
        """The map a -> a*g on codes, for the exp walk, with no digit list.
        It is F_p-linear: for a = lo + P*hi with P = p**h, h = sm // 2,
        a*g = lo*g + (P*hi)*g, two reads from tables filled by
        ``_mul_direct``, and in characteristic 2 their sum is an XOR.  In
        odd characteristic the tables hold the products "wide", digit t at
        bit w*t with w bits enough for 2p - 2, so the sum is one integer
        addition with no carry between digits; two more tables turn each
        half of the sum, its digits taken mod p, back into a code.  A prime
        field multiplies mod p."""
        p, sm = self.p, self.sm
        if sm == 1:
            return lambda a: a * g % p
        h = sm // 2
        P = p ** h
        lo = [self._mul_direct(v, g) for v in range(P)]
        hi = [self._mul_direct(v * P, g) for v in range(self.order // P)]
        if p == 2:
            return lambda a: lo[a & (P - 1)] ^ hi[a >> h]
        w = (2 * p - 2).bit_length()

        def wide(c):
            return sum(d << (w * t) for t, d in enumerate(self._digits(c)))

        def narrow(digits, scale):
            # The code of every wide value of ``digits`` digits, each < 2**w
            # and taken mod p, times scale.
            tab = [0]
            for t in range(digits):
                pt = scale * p ** t
                tab = [x + d % p * pt for d in range(1 << w) for x in tab]
            return tab

        lo, hi = [wide(c) for c in lo], [wide(c) for c in hi]
        nlo, nhi, cut = narrow(h, 1), narrow(sm - h, P), h * w
        mask = (1 << cut) - 1

        def times(a):
            x = lo[a % P] + hi[a // P]
            return nlo[x & mask] + nhi[x >> cut]
        return times

    def mul(self, a: int, b: int) -> int:
        if self._exp is None:
            return self._mul_direct(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self._n1]

    def inv(self, a: int) -> int:
        """Inverse of a nonzero code: one lookup on the table route; on the
        direct route a memo hit, else extended Euclid (p = 2) or Fermat's
        a**(order - 2), kept while the memo holds fewer than
        ``_INV_MEMO_LIMIT`` entries.  A non-code (a bool or a float
        included) is refused on both routes before any lookup."""
        if type(a) is not int or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not a nonzero element code of GF({self.p}^{self.sm})")
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(-self._log[a]) % self._n1] if self._n1 > 1 else a
        memo = self._inv_memo
        r = memo.get(a)
        if r is None:
            r = self._inv_euclid2(a) if self.p == 2 else self._pow_direct(a, self.order - 2)
            if len(memo) < _INV_MEMO_LIMIT:
                memo[a] = r
        return r

    def _translation(self, vec, uses: int):
        """(op, operands) with op(operands[j], x) == add(x, vec[j]) for
        every code x: how to add vec entry by entry to ``uses`` rows.  XOR
        for p = 2; on the table route, once there are at least as many
        rows as field elements, a lookup in the row x -> x + vec[j] of the
        addition table per position j; ``add`` otherwise.  A missing row is
        built digit-wise, adding c's base-p digits one level at a time, and
        kept while the memo holds at most ``_ADD_ROW_MEMO_LIMIT`` codes, so
        repeated addends (the oracle's words, a coset scan, the blocks of a
        stream) build each row once.  This is the one place, outside the
        arithmetic itself, where the route is chosen."""
        if self.p == 2:
            return operator.xor, vec
        if self._exp is None or uses < self.order:
            return self.add, vec
        memo, p = self._add_rows, self.p
        rows = []
        for c in vec:
            row = memo.get(c)
            if row is None:
                row = [0]
                for t, d in enumerate(self._digits(c)):
                    row = [v + x for v in [(e + d) % p * p ** t for e in range(p)] for x in row]
                if (len(memo) + 1) * self.order <= _ADD_ROW_MEMO_LIMIT:
                    memo[c] = row
            rows.append(row)
        return list.__getitem__, rows

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0 if e else 1 % self.order
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % self._n1] if self._n1 > 1 else a
        if e < 0:
            return self._pow_direct(self.inv(a), -e)
        return self._pow_direct(a, e)

    def frob(self, a: int, i: int = 1) -> int:
        """i-fold q-power map on a code; frob(a, m) == a for every a."""
        if i < 0:
            raise ValueError("frobenius power must be nonnegative")
        i %= self.m
        if i == 0:
            return a
        if self._exp is None:
            return self._pow_direct(a, self.q ** i)
        return self._exp[self._log[a] * self.q ** i % self._n1] if a else 0

    def _frob_root(self, a: int, i: int) -> int:
        """a**(q**(-i)), the code whose i-fold q-power is a, for i >= 0, as
        i reads of the inverse q-power map x -> x**(q**(m-1)).  That map is
        F_p-linear, so for a = lo + P*hi with P = p**(sm // 2) it is the sum
        of two reads from half tables spanned (``_span_flat``) from its
        values on the powers of p, made on first use and kept: 256 + 512
        codes at GF(2^17), where ``frob`` by m - i is (m - i)*s squarings."""
        if self._unfrob is None:
            p, h = self.p, self.sm // 2
            images = [[self.frob(p ** t, self.m - 1)] for t in range(self.sm)]
            self._unfrob = (_span_flat(self, images[:h], 1), _span_flat(self, images[h:], 1),
                            p ** h)
        lo, hi, P = self._unfrob
        for _ in range(i):
            a = self.add(lo[a % P], hi[a // P])
        return a

    # -- the middle field -----------------------------------------------------

    def _subfield_pbasis(self) -> tuple[int, ...]:
        """Codes of an F_p-basis of F_q, ascending, from the kernel of
        frob - id.  The first is 1: column 0 (the element 1) is zero, so its
        kernel vector is the unit vector."""
        if self._sub_pbasis is None:
            codes = self._fp_kernel(lambda u: self.sub(self.frob(u), u))
            if len(codes) != self.s:
                raise AssertionError("fixed field of the q-power map has wrong size")
            self._sub_pbasis = tuple(codes)
        return self._sub_pbasis

    def _subfield_codes(self) -> tuple[int, ...]:
        """Codes of the q elements of F_q inside the top field, ascending."""
        if self._sub_codes is None:
            codes = set(_span_flat(self, [[e] for e in self._subfield_pbasis()], 1))
            if len(codes) != self.q:
                raise AssertionError("subfield enumeration produced a wrong count")
            self._sub_codes = tuple(sorted(codes))
        return self._sub_codes

    def subfield_elements(self) -> tuple["FieldElement", ...]:
        """All q elements of F_q inside the top field, ascending by code."""
        return tuple(FieldElement(self, c) for c in self._subfield_codes())

    # -- F_q-linear structure --------------------------------------------------

    def _greedy_codes(self, codes, limit: int | None = None) -> list[int]:
        """The first maximal F_q-independent sublist of codes, in input order,
        or its first ``limit`` members: no code past those is drawn.

        Each code is reduced once against one incremental F_p echelon keyed
        by leading base-p position, of packed ints for p = 2 and of codes
        otherwise, an odd row kept as it comes with its leading digit's
        inverse: a code with leading digit f there loses r = f / (row's
        digit) mod p times the row, through ``sub`` and ``mul`` on the table
        route (no multiply when r = 1) and in one digit pass on the direct
        route (``_sub_scaled_digits``).  Its first lift (by 1, so
        unmultiplied) reduces to zero exactly when the code is dependent;
        otherwise the code is kept and its lifts by the rest of the
        F_p-basis of F_q (none when s = 1) enter the echelon too.
        """
        p, lifts = self.p, self._subfield_pbasis()
        (pw, inv), mul, sub = _fp_tables(p, self.sm), self.mul, self.sub
        direct = self._exp is None
        rows: dict = {}
        kept = []
        if limit == 0:
            return kept
        for c in codes:
            for e in lifts:
                v = c if e == 1 else mul(e, c)
                if p == 2:
                    while v:
                        w = rows.get(v.bit_length() - 1)
                        if w is None:
                            rows[v.bit_length() - 1] = v
                            break
                        v ^= w
                else:
                    while v:
                        lead = bisect_right(pw, v) - 1
                        row = rows.get(lead)
                        if row is None:
                            rows[lead] = (v, inv[v // pw[lead]])
                            break
                        r = v // pw[lead] * row[1] % p
                        if direct:
                            v = self._sub_scaled_digits(v, row[0], r)
                        else:
                            v = sub(v, row[0] if r == 1 else mul(r, row[0]))
                if not v:
                    break
            else:
                kept.append(c)
                if len(kept) == limit:
                    break
        return kept

    def _span_state(self, dim: int, members: frozenset) -> list:
        """The span automaton's state for a subspace.  A state is a list:
        the next state per code (None until reached), then its dimension,
        then the frozenset of its members, which keys it in
        ``_span_rows``.  Its members' slots lead to itself from the start.
        A new state is built whole before ``setdefault`` publishes it, so
        a transition only ever leads to a complete state, one per
        subspace."""
        row = self._span_rows.get(members)
        if row is None:
            row = [None] * self.order + [dim, members]
            for x in members:
                row[x] = row
            row = self._span_rows.setdefault(members, row)
        return row

    def _span_step(self, row: list, c: int) -> list:
        """The span automaton's state for span(row) + F_q * c, stored as
        row[c].  It is row itself when c lies in row's span, else the
        union of the cosets x + lam * c (lam in F_q), one dimension up;
        every member of that union outside row's span has the same next
        state, so all their slots are filled at once."""
        order = self.order
        elems = row[order + 1]
        if c in elems:
            return row
        add, mul = self.add, self.mul
        span = list(elems)
        for lam in self._subfield_codes()[1:]:
            lc = mul(lam, c)
            span += [add(x, lc) for x in elems]
        span = frozenset(span)
        nxt = self._span_state(row[order] + 1, span)
        for x in span - elems:
            row[x] = nxt
        return nxt

    def _least_rank(self, rows) -> tuple[int, int]:
        """(least F_q-rank, index of the first row with it) over a nonempty
        iterable of code rows.  A row's codes are drawn only until its rank
        reaches the least so far, and no row past the first of rank 0.

        Where the span automaton exists (``_span_zero``) a row's rank is the
        dimension of the state its walk from the zero space reaches, one
        memoized transition per code, walked inline; elsewhere it is the
        length of the row's greedy independent sublist.
        """
        best, first = self.m + 1, None
        zero = self._span_zero
        if zero is None:
            for idx, row in enumerate(rows):
                d = len(self._greedy_codes(row, best))
                if d < best:
                    best, first = d, idx
                    if not d:
                        break
            return best, first
        order, step = self.order, self._span_step
        for idx, row in enumerate(rows):
            state = zero
            for c in row:
                state = state[c] or step(state, c)
                if state[order] >= best:
                    break
            else:
                best, first = state[order], idx
                if not best:
                    break
        return best, first

    def span_dim(self, elems) -> int:
        """Dimension over F_q of the span of the given elements."""
        return len(self._greedy_codes([self._code(e) for e in elems]))

    def coords(self, u: "FieldElement", basis: "BasisSpec") -> list["FieldElement"]:
        """Coordinates of u over F_q in the given full basis (exact)."""
        u = self._code(u)
        if not isinstance(basis, BasisSpec):
            basis = BasisSpec(basis)
        if basis.ctx is not self:
            raise ValueError("basis belongs to a different field context")
        lifts = self._subfield_pbasis()
        rows = self._digit_matrix([self.mul(e, beta.code) for beta in basis.elems for e in lifts])
        sol = _solve(_prime_field(self.p), rows, self._digits(u))
        if sol is None:
            raise AssertionError("full basis failed to span the field")
        s = self.s
        rows = [sol[i * s:(i + 1) * s] for i in range(self.m)]
        return [FieldElement(self, c) for c in _combine_rows(self, rows, lifts)]


def _operator(code_op: str, reflected: bool = False):
    """A binary FieldElement operator: ``ctx.<code_op>`` on the two codes,
    the other operand first when reflected.  The other operand is read by
    ``FieldCtx._code``; one that is neither an int nor an element gives
    NotImplemented, so Python raises TypeError for it."""
    def op(self, other):
        if not isinstance(other, (int, FieldElement)):
            return NotImplemented
        ctx = self.ctx
        a, b = self.code, ctx._code(other)
        if reflected:
            a, b = b, a
        return FieldElement(ctx, getattr(ctx, code_op)(a, b))
    return op


class FieldElement:
    """An immutable element of a FieldCtx, identified by its integer code.

    The other operand of ``+ - * /`` is read by ``FieldCtx._code``: a plain
    int is a code of the same field, and a bool is refused.  Comparison
    with an int compares codes; a bool equals no element.
    """

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: FieldCtx, code: int):
        self.ctx = ctx
        self.code = code

    __add__ = __radd__ = _operator("add")
    __sub__ = _operator("sub")
    __rsub__ = _operator("sub", reflected=True)
    __mul__ = __rmul__ = _operator("mul")
    __truediv__ = _operator("div")
    __rtruediv__ = _operator("div", reflected=True)

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg(self.code))

    def __pow__(self, e: int):
        if type(e) is not int:
            raise ValueError(f"exponent must be an integer, got {e!r}")
        return FieldElement(self.ctx, self.ctx.pow(self.code, e))

    def frob(self, i: int = 1) -> "FieldElement":
        if type(i) is not int:
            raise ValueError(f"frobenius power must be an integer, got {i!r}")
        return FieldElement(self.ctx, self.ctx.frob(self.code, i))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.ctx._digits(self.code))

    def is_zero(self) -> bool:
        return self.code == 0

    def __bool__(self):
        return self.code != 0

    def __int__(self):
        return self.code

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return other.ctx is self.ctx and other.code == self.code
        if isinstance(other, int) and not isinstance(other, bool):
            return self.code == other
        return NotImplemented

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        return f"GF({self.ctx.p}^{self.ctx.sm})[{self.code}]"

    def __str__(self):
        return str(self.code)


def _element_codes(elems, what: str) -> tuple[FieldCtx, list[int]]:
    """(context, codes) of a nonempty sequence of FieldElements of one
    context; ``what`` names the entries in a refusal."""
    if not all(isinstance(e, FieldElement) for e in elems):
        raise ValueError(f"{what} must be field elements")
    ctx = elems[0].ctx
    if any(e.ctx is not ctx for e in elems):
        raise ValueError(f"{what} from mixed field contexts")
    return ctx, [e.code for e in elems]


class BasisSpec:
    """A full basis of the top field over F_q (exactly m independent elements)."""

    __slots__ = ("ctx", "elems")

    def __init__(self, elems):
        elems = tuple(elems)
        if not elems:
            raise ValueError("a basis needs at least one element")
        ctx, codes = _element_codes(elems, "basis entries")
        if len(elems) != ctx.m:
            raise ValueError(f"a full basis over F_q has {ctx.m} elements, got {len(elems)}")
        if len(ctx._greedy_codes(codes)) != ctx.m:
            raise ValueError("basis elements are linearly dependent over F_q")
        self.ctx = ctx
        self.elems = elems

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, i):
        return self.elems[i]

    def __repr__(self):
        return f"BasisSpec({[e.code for e in self.elems]})"
