"""Linearized-polynomial algebra against independent ordinary-polynomial
oracles.

The key cross-check: the annihilator of a subspace U, read as an ordinary
polynomial, must equal the product of (x - u) over every u in U.  That
product is computed here with plain coefficient convolution, no q-power
shortcuts, so it cannot share a bug with the recurrence under test.
"""

import random

import pytest

from gablab import (LinPoly, NEG_INF, SubspaceBasis, annihilator, matrix_rank, minor_coeff,
                    moore_det, q_lagrange, q_lagrange_by_minors, root_space,
                    subspace_bases)


def _ordinary_product_of_linear_factors(ctx, codes):
    """Coefficients (degree 0 first) of prod_{c in codes} (x - c)."""
    poly = [1]
    for c in codes:
        nc = ctx.neg(c)
        nxt = [0] * (len(poly) + 1)
        for i, a in enumerate(poly):
            nxt[i + 1] = ctx.add(nxt[i + 1], a)
            nxt[i] = ctx.add(nxt[i], ctx.mul(a, nc))
        poly = nxt
    return poly


def _as_ordinary(f: LinPoly) -> list[int]:
    """Ordinary coefficient vector of a q-linearized polynomial."""
    ctx = f.ctx
    if f.is_zero():
        return []
    out = [0] * (ctx.q ** f.deg_q + 1)
    for i, c in enumerate(f.codes):
        out[ctx.q**i] = c
    return out


# -- frozen GF(4) values --------------------------------------------------------


def test_gf4_frozen_annihilators(gf4):
    one = SubspaceBasis(gf4, (gf4.element(1),))
    assert annihilator(one).codes == (1, 1)
    full = SubspaceBasis(gf4, (gf4.element(1), gf4.element(2)))
    assert annihilator(full).codes == (1, 0, 1)


def test_gf4_frozen_division(gf4):
    f = LinPoly.monomial(gf4, 2)  # x^(q^2) = x^4
    g = LinPoly(gf4, (1, 1))
    h, r = f.right_divmod(g)
    assert h.codes == (1, 1)
    assert r.codes == (1,)


def test_gf4_frozen_composition_is_noncommutative(gf4):
    f = LinPoly(gf4, (2,))
    g = LinPoly(gf4, (0, 1))
    assert f.compose(g).codes == (0, 2)
    assert g.compose(f).codes == (0, 3)


def test_gf4_frozen_moore_and_interpolation(gf4):
    assert moore_det((gf4.element(1), gf4.element(2))).code == 1
    assert moore_det((gf4.element(1), gf4.element(2)), deleted_row=1).code == 0
    pts = SubspaceBasis(gf4, (gf4.element(1), gf4.element(2)))
    vals = (gf4.element(1), gf4.element(3))
    assert q_lagrange(pts, vals).codes == (0, 1)


# -- construction, degree, evaluation ---------------------------------------------


def test_linpoly_basics(gf8):
    z = LinPoly.zero(gf8)
    assert z.deg_q is NEG_INF
    assert z.is_zero()
    assert LinPoly.x(gf8).deg_q == 0
    f = LinPoly(gf8, (3, 0, 0))  # trailing zeros trim away
    assert f.deg_q == 0
    assert f.codes == (3,)
    m = LinPoly.monomial(gf8, 2, 5)
    assert m.deg_q == 2
    assert m.coeff(2).code == 5
    assert m.coeff(7).code == 0
    assert m.coeff(0).code == 0
    with pytest.raises(ValueError):
        LinPoly.monomial(gf8, -1)


@pytest.mark.parametrize("i", [True, False, 1.0, 1.9, "1", None])
def test_monomial_rejects_non_integer_degrees(gf8, i):
    # A bool is an int: True would read as q-degree 1.
    with pytest.raises(ValueError, match="nonnegative integer"):
        LinPoly.monomial(gf8, i)


@pytest.mark.parametrize("i", [True, False, 1.0, "1", None, -1, -5])
def test_coeff_rejects_non_integer_indices(gf8, i):
    # A bool is an int, so True would read index 1; 1.0 would escape as
    # TypeError; a negative index, like a negative monomial degree, would
    # read as a coefficient 0.
    with pytest.raises(ValueError, match="coefficient index must be an integer"):
        LinPoly(gf8, (1, 2, 3)).coeff(i)


@pytest.mark.parametrize("coeffs", [(1.9, 2.5), (1, 2.0), ("3",), (True,), (8,), (-1,), (None,)])
def test_linpoly_rejects_non_codes(gf8, coeffs):
    with pytest.raises(ValueError):
        LinPoly(gf8, coeffs)


def test_evaluation_is_q_linear(gf16, tower16):
    # F_q-linearity: f(au + bv) = a f(u) + b f(v) for a, b in the middle field.
    for ctx in (gf16, tower16):
        rng = random.Random(23)
        sub = ctx.subfield_elements()
        for _ in range(60):
            f = LinPoly(ctx, tuple(rng.randrange(ctx.order) for _ in range(3)))
            u, v = (ctx.element(rng.randrange(ctx.order)) for _ in range(2))
            a, b = rng.choice(sub), rng.choice(sub)
            assert f(a * u + b * v) == a * f(u) + b * f(v)


def test_evaluation_matches_raw_powers(gf8):
    f = LinPoly(gf8, (3, 1, 6))
    for c in range(8):
        u = gf8.element(c)
        expect = gf8.element(3) * u + u**2 + gf8.element(6) * u**4
        assert f(u) == expect
        assert f(c) == expect  # raw codes coerce


# -- ring-like laws ----------------------------------------------------------------


def test_compose_laws(gf16):
    rng = random.Random(5)
    for _ in range(40):
        f, g, h = (LinPoly(gf16, tuple(rng.randrange(16) for _ in range(rng.randint(0, 4))))
                   for _ in range(3))
        assert f.compose(g.compose(h)) == f.compose(g).compose(h)
        assert (f + g).compose(h) == f.compose(h) + g.compose(h)
        u = gf16.element(rng.randrange(16))
        assert f.compose(g)(u) == f(g(u))


def test_scalar_multiplication_only(gf8):
    f = LinPoly(gf8, (1, 2))
    assert (f * 3).codes == (3, 6)
    assert (3 * f).codes == (3, 6)
    assert (f * gf8.element(3)).codes == (3, 6)
    with pytest.raises(TypeError):
        f * f  # products of linearized polynomials go through compose


def test_right_divmod_reconstruction_property(gf16, gf27):
    for ctx in (gf16, gf27):
        rng = random.Random(ctx.order)
        for _ in range(150):
            f = LinPoly(ctx, tuple(rng.randrange(ctx.order) for _ in range(rng.randint(0, 7))))
            g = LinPoly(ctx, tuple(rng.randrange(ctx.order) for _ in range(rng.randint(1, 5))))
            if g.is_zero():
                g = LinPoly.x(ctx)
            h, r = f.right_divmod(g)
            assert h.compose(g) + r == f
            assert r.deg_q is NEG_INF or r.deg_q < g.deg_q
        with pytest.raises(ZeroDivisionError):
            LinPoly.x(ctx).right_divmod(LinPoly.zero(ctx))


# -- annihilators against the ordinary-product oracle -------------------------------


@pytest.mark.parametrize("field_fixture,t", [("gf8", 1), ("gf8", 2), ("gf16", 2),
                                             ("gf27", 1), ("gf27", 2), ("tower16", 1)])
def test_annihilator_equals_product_of_linear_factors(request, field_fixture, t):
    ctx = request.getfixturevalue(field_fixture)
    gens = [ctx.p**j for j in range(ctx.sm)][: ctx.m]
    ambient = SubspaceBasis(ctx, ctx._greedy_codes(gens))
    for sub in subspace_bases(ambient, t, 10**5):
        a = annihilator(sub)
        assert a.deg_q == t
        assert a.coeff(t).code == 1
        oracle = _ordinary_product_of_linear_factors(
            ctx, sorted(sub.element_codes()))
        assert _as_ordinary(a) == oracle


def test_annihilator_roots_and_root_space(gf16):
    ambient = SubspaceBasis(gf16, [gf16.element(c) for c in (1, 2, 4, 8)])
    for t in (0, 1, 2, 3):
        for sub in subspace_bases(ambient, t, 10**5):
            a = annihilator(sub)
            roots = {c for c in range(16) if a(c).code == 0}
            assert roots == sub.element_codes()
            assert root_space(a).same_span(sub)


def test_root_space_of_nonvanishing_polynomial(gf8):
    # x^q - ax has root space of dim 1 iff a = b^(q-1); dim 0 otherwise.
    q_minus_one_powers = {gf8.pow(b, gf8.q - 1) for b in range(1, 8)}
    for a in range(1, 8):
        f = LinPoly(gf8, (gf8.neg(a), 1))
        expect = 1 if a in q_minus_one_powers else 0
        assert root_space(f).dim == expect


# -- interpolation -------------------------------------------------------------------


@pytest.mark.parametrize("field_fixture", ["gf16", "gf27", "tower16"])
def test_q_lagrange_agrees_with_minor_formula(request, field_fixture):
    ctx = request.getfixturevalue(field_fixture)
    rng = random.Random(41)
    gens = ctx._greedy_codes([ctx.p**j for j in range(ctx.sm)])
    for t in range(1, min(len(gens), 3) + 1):
        pts = SubspaceBasis(ctx, gens[:t])
        for _ in range(20):
            vals = [ctx.element(rng.randrange(ctx.order)) for _ in range(t)]
            f1 = q_lagrange(pts, vals)
            f2 = q_lagrange_by_minors(pts, vals)
            assert f1 == f2
            assert f1.deg_q is NEG_INF or f1.deg_q < t
            for u, v in zip(pts, vals):
                assert f1(u) == v


def test_q_lagrange_input_validation(gf16):
    pts = SubspaceBasis(gf16, (gf16.element(1), gf16.element(2)))
    with pytest.raises(ValueError):
        q_lagrange(pts, (gf16.element(1),))  # value count mismatch


@pytest.mark.parametrize("route", [q_lagrange, q_lagrange_by_minors], ids=["solve", "minors"])
def test_both_interpolation_routes_refuse_bad_data_alike(gf16, route):
    # One reader checks the points' type, reads each value by the field's
    # operand rule and checks the count and n >= 1, for both routes.
    pts = SubspaceBasis(gf16, (1, 2))
    for points, values, kind, text in [
        ([1, 2], (3, 4), TypeError, "interpolation points must form a SubspaceBasis"),
        (pts, (3,), ValueError, "point/value count mismatch"),
        (SubspaceBasis(gf16, ()), (), ValueError, "interpolation needs at least one point"),
        (pts, (3, 16), ValueError, f"code 16 out of range for {gf16!r}"),
        (pts, (3, True), ValueError, f"True is not a code of {gf16!r}"),
        (pts, (3, (1, 1)), ValueError, f"(1, 1) is not a code of {gf16!r}"),
    ]:
        with pytest.raises(kind) as exc:
            route(points, values)
        assert str(exc.value) == text


# -- Moore machinery -------------------------------------------------------------------


def test_moore_det_vanishes_exactly_on_dependence(gf16):
    rng = random.Random(13)
    for _ in range(200):
        size = rng.randint(1, 4)
        elems = [gf16.element(rng.randrange(16)) for _ in range(size)]
        d = moore_det(elems)
        assert (d.code != 0) == (gf16.span_dim(elems) == size)


@pytest.mark.parametrize("field_fixture", ["gf16", "gf27", "tower16"])
def test_moore_det_against_the_leibniz_formula(request, field_fixture, leibniz_det):
    # Entries c^(q^i) by pow, determinants by permutations: no Frobenius
    # table and no elimination.  Dependent and repeated elements included.
    ctx = request.getfixturevalue(field_fixture)
    rng = random.Random(71)
    for _ in range(40):
        codes = [rng.randrange(ctx.order) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.25:
            codes[-1] = codes[0]
        n, elems = len(codes), [ctx.element(c) for c in codes]
        tall = [[ctx.pow(c, ctx.q ** i) for c in codes] for i in range(n + 1)]
        assert moore_det(elems).code == leibniz_det(ctx, tall[:n])
        for j in range(n + 1):
            expect = leibniz_det(ctx, tall[:j] + tall[j + 1:])
            assert moore_det(elems, deleted_row=j).code == expect


def test_moore_matrix_validation(gf16, gf8):
    e = [gf16.element(1), gf16.element(2)]
    with pytest.raises(ValueError, match="at least one column"):
        moore_det([])
    for j in (-1, 3):
        with pytest.raises(ValueError, match="in 0..2"):
            moore_det(e, deleted_row=j)
    with pytest.raises(ValueError, match="must be field elements"):
        moore_det([1, 2])  # plain codes carry no field context
    with pytest.raises(ValueError, match="mixed field contexts"):
        moore_det([gf16.element(1), gf8.element(2)])


def test_matrix_rank_of_field_elements(gf16):
    e = gf16.element
    assert matrix_rank([]) == 0
    assert matrix_rank([[e(1), e(2)], [e(2), e(4)]]) == 1  # row 2 = 2 * row 1
    assert matrix_rank([[e(1), e(0)], [e(0), e(3)]]) == 2


@pytest.mark.parametrize("rows,match", [
    ([[1, 2], [3, 4]], "must be field elements"),  # plain codes carry no context
    ([[]], "must not be empty"),
    ([[1], []], "must not be empty"),
])
def test_matrix_rank_rejects_malformed_input(rows, match):
    with pytest.raises(ValueError, match=match):
        matrix_rank(rows)


def test_matrix_rank_rejects_ragged_and_mixed_rows(gf16, gf8):
    with pytest.raises(ValueError, match="equal lengths"):
        matrix_rank([[gf16.element(1), gf16.element(2)], [gf16.element(3)]])
    with pytest.raises(ValueError, match="mixed field contexts"):
        matrix_rank([[gf16.element(1)], [gf8.element(1)]])


def test_moore_matrix_rejects_non_integer_row_exponents(gf16):
    # Each of these would read as row 1.
    e = [gf16.element(1), gf16.element(2)]
    for j in (1.9, 1.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            moore_det(e, deleted_row=j)


def test_minor_coeff_signs_in_odd_characteristic(gf27):
    # Annihilator coefficients alternate: coeff(t-i) = (-1)^i h_i.  Char 3
    # makes sign slips visible, unlike the binary fields.
    ambient = SubspaceBasis(gf27, [gf27.element(c) for c in (1, 3, 9)])
    for t in (2, 3):
        for sub in subspace_bases(ambient, t, 10**5):
            a = annihilator(sub)
            for i in range(1, t + 1):
                h = minor_coeff(sub, i)
                expect = h if i % 2 == 0 else -h
                assert a.coeff(t - i) == expect
    one = SubspaceBasis(gf27, (gf27.element(1),))
    for i in (2, True, 1.0):  # True and 1.0 would read as index 1
        with pytest.raises(ValueError):
            minor_coeff(one, i)


def test_hyperplane_annihilator_matches_trace_kernel(gf27, trace):
    # The 2-dim subspace killing x -> Tr(bx) has annihilator
    # sum_i b^(q^i - q^2) x^(q^i); checks the normalization end to end.
    for b in range(1, 27):
        kernel = [c for c in range(27) if trace(gf27, gf27.mul(b, c)) == 0]
        gens = gf27._greedy_codes(kernel)
        assert len(gens) == 2
        sub = SubspaceBasis(gf27, gens)
        a = annihilator(sub)
        lead = gf27.pow(b, gf27.q**2)
        expect = [gf27.div(gf27.pow(b, gf27.q**i), lead) for i in range(3)]
        assert [c.code for c in a.coeffs] == expect


# -- subspace basis behavior --------------------------------------------------------


def test_subspace_basis_membership_and_span_comparison(gf16):
    sb = SubspaceBasis(gf16, [gf16.element(c) for c in (1, 2)])
    assert sb.dim == 2
    other = SubspaceBasis(gf16, [gf16.element(c) for c in (3, 2)])  # 3 = 1 + 2
    assert sb.same_span(other)
    assert not sb.same_span(SubspaceBasis(gf16, (gf16.element(8),)))
    assert sb.element_codes() == frozenset({0, 1, 2, 3})
    assert sb.contains(gf16.element(3))
    assert sb.contains(0)
    assert not sb.contains(gf16.element(8))
    empty = SubspaceBasis(gf16, ())
    assert empty.dim == 0
    assert empty.element_codes() == frozenset({0})
    assert empty.contains(gf16.element(0))


def test_subspace_basis_rejects_dependent_generators(gf16, tower16):
    with pytest.raises(ValueError):
        SubspaceBasis(gf16, [gf16.element(c) for c in (1, 2, 3)])
    with pytest.raises(ValueError):
        SubspaceBasis(gf16, (gf16.element(0),))
    # q = 4 dependence: 6 is a middle-field multiple of 1.
    with pytest.raises(ValueError):
        SubspaceBasis(tower16, (tower16.element(1), tower16.element(6)))
