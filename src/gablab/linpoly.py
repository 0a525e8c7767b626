"""q-linearized polynomials and their skew algebra.

A linearized polynomial L(x) = sum a_i * x^(q^i) is stored as the tuple of
its coefficient codes, degree 0 first, with no trailing zeros, plus the
field context (the zero polynomial keeps the context alive with an empty
tuple).  The q-degree of zero is the distinguished marker ``NEG_INF``,
never -1, so degree comparisons behave in every branch.

Composition is the skew product: it is associative, distributes over
addition, but does not commute; evaluation is F_q-linear in the argument.
Right division ``f = h o g + r`` with ``deg_q r < deg_q g`` re-verifies its
reconstruction identity internally before returning.

The wrappers are the API edge.  Each element operand (coefficient,
argument, scalar, generator, interpolation value) is read once by
``FieldCtx._code``, never through a FieldElement, so a bad one raises the
field's own message; interpolation data has one reader,
``_interpolation_data``.  ``SubspaceBasis`` stores its generators as codes
and an index read wraps only the one it returns.  Below the edge each job
has one kernel on codes, shared by every module: ``_eval_codes``
evaluates (``__call__``, annihilators, root spaces, code and deephole
words), ``_annihilator_codes`` annihilates a list of generators and
``_moore_det`` takes Moore minors.
"""

from __future__ import annotations

from .field import FieldCtx, FieldElement, _det, _element_codes, _eliminate, _solve, _span_flat

NEG_INF = float("-inf")


class LinPoly:
    __slots__ = ("ctx", "codes")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        codes = [ctx._code(c) for c in coeffs]
        while codes and codes[-1] == 0:
            codes.pop()
        self.ctx = ctx
        self.codes = tuple(codes)

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "LinPoly":
        return cls(ctx, ())

    @classmethod
    def x(cls, ctx: FieldCtx) -> "LinPoly":
        return cls(ctx, (1,))

    @classmethod
    def monomial(cls, ctx: FieldCtx, i: int, coeff=1) -> "LinPoly":
        """coeff * x^(q^i)"""
        if type(i) is not int or i < 0:
            raise ValueError(f"monomial q-degree must be a nonnegative integer, got {i!r}")
        return cls(ctx, (0,) * i + (coeff,))

    @property
    def deg_q(self):
        return len(self.codes) - 1 if self.codes else NEG_INF

    def is_zero(self) -> bool:
        return not self.codes

    def coeff(self, i: int) -> FieldElement:
        if type(i) is not int or i < 0:
            raise ValueError(f"coefficient index must be an integer >= 0, got {i!r}")
        code = self.codes[i] if i < len(self.codes) else 0
        return FieldElement(self.ctx, code)

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.ctx, c) for c in self.codes)

    def __call__(self, u) -> FieldElement:
        ctx = self.ctx
        return FieldElement(ctx, _eval_codes(ctx, self.codes, ctx._code(u)))

    def _binop(self, other, op):
        if not isinstance(other, LinPoly):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise ValueError("mixed field contexts in polynomial arithmetic")
        a, b = self.codes, other.codes
        if len(a) < len(b):
            a = a + (0,) * (len(b) - len(a))
        else:
            b = b + (0,) * (len(a) - len(b))
        return LinPoly(self.ctx, [op(x, y) for x, y in zip(a, b)])

    def __add__(self, other):
        return self._binop(other, self.ctx.add)

    def __sub__(self, other):
        return self._binop(other, self.ctx.sub)

    def __neg__(self):
        return LinPoly(self.ctx, [self.ctx.neg(c) for c in self.codes])

    def __mul__(self, scalar):
        """Scale every coefficient; composition is spelled .compose()."""
        if isinstance(scalar, LinPoly):
            raise TypeError("use .compose() for the skew product, * is scalar scaling")
        lam = self.ctx._code(scalar)
        return LinPoly(self.ctx, [self.ctx.mul(lam, c) for c in self.codes])

    __rmul__ = __mul__

    def compose(self, other: "LinPoly") -> "LinPoly":
        """Skew product (self o other)(x) = self(other(x))."""
        if not isinstance(other, LinPoly):
            raise TypeError("can only compose with another LinPoly")
        if other.ctx is not self.ctx:
            raise ValueError("mixed field contexts in composition")
        ctx = self.ctx
        if self.is_zero() or other.is_zero():
            return LinPoly.zero(ctx)
        out = [0] * (len(self.codes) + len(other.codes) - 1)
        for i, a in enumerate(self.codes):
            if not a:
                continue
            for j, b in enumerate(other.codes):
                if b:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(a, ctx.frob(b, i)))
        return LinPoly(ctx, out)

    def right_divmod(self, g: "LinPoly") -> tuple["LinPoly", "LinPoly"]:
        """h, r with self = h o g + r and deg_q r < deg_q g."""
        if not isinstance(g, LinPoly) or g.ctx is not self.ctx:
            raise ValueError("divisor must be a LinPoly over the same field context")
        if g.is_zero():
            raise ZeroDivisionError("right division by the zero polynomial")
        ctx = self.ctx
        e = g.deg_q
        ge = g.codes[-1]
        r = self
        hc = [0] * (len(self.codes) - len(g.codes) + 1) if self.deg_q >= e else []
        while r.deg_q >= e:
            d = r.deg_q - e
            lead = ctx.div(r.codes[-1], ctx.frob(ge, d))
            hc[d] = lead
            r = r - LinPoly.monomial(ctx, d, lead).compose(g)
        h = LinPoly(ctx, hc)
        if (h.compose(g) + r).codes != self.codes:
            raise ArithmeticError("right division failed its reconstruction check")
        return h, r

    def __eq__(self, other):
        if not isinstance(other, LinPoly):
            return NotImplemented
        return other.ctx is self.ctx and other.codes == self.codes

    def __hash__(self):
        return hash(self.codes)

    def __repr__(self):
        return f"LinPoly({list(self.codes)})"


class SubspaceBasis:
    """An independent tuple of elements spanning an F_q-subspace.

    Construction rejects dependent generators, so a SubspaceBasis is a
    certificate of independence; the empty basis spans the zero space.
    The generators are stored as their integer ``codes``; ``gens`` wraps
    them in FieldElements on each read.  ``_rows``, when not None, holds
    the F_q coefficient rows (codes) that write each generator over an
    ambient basis it was drawn from.
    """

    __slots__ = ("ctx", "codes", "_rows")

    def __init__(self, ctx: FieldCtx, gens=()):
        codes = tuple(ctx._code(g) for g in gens)
        if len(ctx._greedy_codes(codes)) != len(codes):
            raise ValueError("dependent generators cannot form a subspace basis")
        self.ctx = ctx
        self.codes = codes
        self._rows = None

    @classmethod
    def _unchecked(cls, ctx: FieldCtx, codes, rows=None) -> "SubspaceBasis":
        """Wrap codes that are independent by construction: the RREF
        enumeration's output, subsets of a code's points and root spaces.
        Nothing is re-checked; ``rows`` are the generators' coefficient
        rows over the ambient basis."""
        self = object.__new__(cls)
        self.ctx = ctx
        self.codes = tuple(codes)
        self._rows = rows
        return self

    @property
    def gens(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.ctx, c) for c in self.codes)

    @property
    def dim(self) -> int:
        return len(self.codes)

    def element_codes(self) -> frozenset[int]:
        """Codes of all q^dim span members."""
        ctx = self.ctx
        lifts = ctx._subfield_pbasis()
        return frozenset(_span_flat(ctx, [[ctx.mul(e, g)] for g in self.codes for e in lifts], 1))

    def contains(self, u) -> bool:
        u = self.ctx._code(u)
        return u == 0 or len(self.ctx._greedy_codes(self.codes + (u,))) == self.dim

    def same_span(self, other: "SubspaceBasis") -> bool:
        if other.ctx is not self.ctx:
            raise ValueError("subspaces of different field contexts")
        return self.dim == other.dim and all(self.contains(c) for c in other.codes)

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return iter(self.gens)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.gens[i]
        return FieldElement(self.ctx, self.codes[i])

    def __repr__(self):
        return f"SubspaceBasis({list(self.codes)})"


def _eval_codes(ctx: FieldCtx, coeffs, u: int) -> int:
    """sum_i coeffs[i] * u^(q^i) on codes: the value at u of the polynomial
    with those coefficient codes, one q-power step per degree."""
    add, mul, frob = ctx.add, ctx.mul, ctx.frob
    acc = 0
    for i, a in enumerate(coeffs):
        if i:
            u = frob(u)
        if a:
            acc = add(acc, mul(a, u))
    return acc


# ---------------------------------------------------------------------------
# Matrix jobs over the top field (Moore determinants, interpolation solves,
# ranks) and root spaces run the one Gaussian elimination of gablab.field.


def _moore_rows(ctx: FieldCtx, codes, k: int) -> list[list[int]]:
    """[c, c^q, ..., c^(q^(k-1))] for each code c: the transposed k-row
    Moore matrix of the codes, one row per code."""
    frob = ctx.frob
    out = []
    for c in codes:
        row = []
        for i in range(k):
            if i:
                c = frob(c)
            row.append(c)
        out.append(row)
    return out


def matrix_rank(rows) -> int:
    """Rank over the field of a matrix of FieldElements (no rows: 0)."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    if not all(rows):
        raise ValueError("matrix rows must not be empty")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("matrix rows must have equal lengths")
    ncols = len(rows[0])
    ctx, flat = _element_codes([e for r in rows for e in r], "matrix entries")
    codes = [flat[i:i + ncols] for i in range(0, len(flat), ncols)]
    return len(_eliminate(ctx, codes, ncols)[1])


def _moore_det(ctx: FieldCtx, codes, deleted_row: int | None = None) -> int:
    """det of the Moore matrix of the codes (row i their q^i-th powers,
    i < n), or with deleted_row = j of the (n+1)-row tall one without its
    q^j row, taken on the transpose from ``_moore_rows``.  No codes: the
    empty determinant 1."""
    n = len(codes)
    if deleted_row is None:
        return _det(ctx, _moore_rows(ctx, codes, n))
    return _det(ctx, [r[:deleted_row] + r[deleted_row + 1:]
                      for r in _moore_rows(ctx, codes, n + 1)])


def moore_det(elems, deleted_row=None) -> FieldElement:
    """det of the Moore matrix of elems; optionally with one q-power row
    deleted from the (n+1)-row tall version, keeping it square."""
    elems = tuple(elems)
    if not elems:
        raise ValueError("a Moore matrix needs at least one column")
    ctx, codes = _element_codes(elems, "Moore matrix entries")
    n = len(elems)
    if deleted_row is not None and (type(deleted_row) is not int
                                    or not 0 <= deleted_row <= n):
        raise ValueError(f"deleted row exponent must be an integer in 0..{n}, "
                         f"got {deleted_row!r}")
    return FieldElement(ctx, _moore_det(ctx, codes, deleted_row))


def _annihilator_codes(ctx: FieldCtx, codes) -> tuple[int, ...]:
    """Coefficient codes, degree 0 first, of the monic annihilator of the
    span of the codes, by the one-generator-at-a-time recurrence
    A_{V+<w>} = (x^q - c x) o A_V with c = A_V(w)^(q-1): coefficient i of
    the product is A_V's coefficient i-1 to the q minus c times its
    coefficient i.  A generator in the span so far (A_V(w) = 0) is refused."""
    sub, mul, frob = ctx.sub, ctx.mul, ctx.frob
    a = [1]
    for w in codes:
        val = _eval_codes(ctx, a, w)
        if val == 0:
            raise ValueError("dependent generators passed to annihilator")
        c = ctx.pow(val, ctx.q - 1)
        a = [sub(frob(hi), mul(c, lo)) for hi, lo in zip([0] + a, a + [0])]
    return tuple(a)


def annihilator(basis: SubspaceBasis) -> LinPoly:
    """Monic linearized polynomial whose roots are exactly the span; its
    q-degree is the dimension.  Dependent generators are refused."""
    if not isinstance(basis, SubspaceBasis):
        raise TypeError("annihilator takes a SubspaceBasis")
    return LinPoly(basis.ctx, _annihilator_codes(basis.ctx, basis.codes))


def root_space(f: LinPoly) -> SubspaceBasis:
    """F_q-basis of the root set of f inside the top field."""
    if f.is_zero():
        raise ValueError("the zero polynomial has the whole field as roots")
    ctx = f.ctx
    null = ctx._fp_kernel(lambda u: _eval_codes(ctx, f.codes, u))
    kept = ctx._greedy_codes(null)
    if len(kept) * ctx.s != len(null):
        raise AssertionError("root set of a linearized polynomial must be F_q-linear")
    dim = len(kept)
    if dim > f.deg_q:
        raise AssertionError("root space larger than the q-degree")
    return SubspaceBasis._unchecked(ctx, kept)


def _interpolation_data(points: SubspaceBasis, values) -> tuple[FieldCtx, tuple, list[int]]:
    """(context, point codes, value codes) of interpolation data: the points
    a SubspaceBasis of dimension n >= 1, the values n element operands."""
    if not isinstance(points, SubspaceBasis):
        raise TypeError("interpolation points must form a SubspaceBasis")
    ctx = points.ctx
    values = [ctx._code(v) for v in values]
    if len(values) != points.dim:
        raise ValueError("point/value count mismatch")
    if not values:
        raise ValueError("interpolation needs at least one point")
    return ctx, points.codes, values


def q_lagrange(points: SubspaceBasis, values) -> LinPoly:
    """The unique linearized polynomial of q-degree < n hitting the data.

    points must be independent (a SubspaceBasis of size n); values is the
    element sequence the polynomial must take on them.
    """
    ctx, codes, values = _interpolation_data(points, values)
    return LinPoly(ctx, _solve(ctx, _moore_rows(ctx, codes, len(codes)), values))


def q_lagrange_by_minors(points: SubspaceBasis, values) -> LinPoly:
    """Interpolation through an alternating sum of Moore-minor determinants.

    Independent cross-check route for the solver path; quadratic-cost, meant
    for small n only.  The points are a SubspaceBasis, so the Moore
    determinant below is nonzero.
    """
    ctx, codes, values = _interpolation_data(points, values)
    n = len(codes)
    inv_den = ctx.inv(_moore_det(ctx, codes))
    total = LinPoly.zero(ctx)
    for i in range(n):
        others = codes[:i] + codes[i + 1:]
        coeffs = []
        for t in range(n):
            sub = _moore_det(ctx, others, t)
            if (t + n - 1) % 2:
                sub = ctx.neg(sub)
            coeffs.append(sub)
        term = LinPoly(ctx, coeffs)
        scale = ctx.mul(values[i], inv_den)
        if (n - 1 - i) % 2:
            scale = ctx.neg(scale)
        total = total + term * scale
    return total


def minor_coeff(basis: SubspaceBasis, i: int) -> FieldElement:
    """Ratio of Moore determinants giving the i-th annihilator coefficient.

    For a t-dim basis, the monic annihilator is
    x^(q^t) - h_1 x^(q^(t-1)) + h_2 x^(q^(t-2)) - ...; this returns h_i as
    det(tall Moore matrix with the q^(t-i) row deleted) / det(square Moore).
    """
    t = basis.dim
    if type(i) is not int or not 1 <= i <= t:
        raise ValueError(f"coefficient index must be an integer in 1..{t}, got {i!r}")
    ctx, codes = basis.ctx, basis.codes
    return FieldElement(ctx, ctx.div(_moore_det(ctx, codes, t - i), _moore_det(ctx, codes)))
