"""Subspace enumeration: counts, uniqueness, order stability, cap handling."""

import pytest

from gablab import SubspaceBasis, gaussian_binomial, subspace_bases


def test_gaussian_binomial_frozen_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 3, 2) == 15
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(2, 1, 4) == 5
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(4, 4, 2) == 1
    assert gaussian_binomial(4, 5, 2) == 0
    assert gaussian_binomial(4, -1, 2) == 0


def test_gaussian_binomial_symmetry_and_pascal():
    for n in range(1, 6):
        for t in range(n + 1):
            for q in (2, 3, 4):
                assert gaussian_binomial(n, t, q) == gaussian_binomial(n, n - t, q)
                if t >= 1:
                    # q-Pascal: [n t] = q^t [n-1 t] + [n-1 t-1]
                    assert gaussian_binomial(n, t, q) == (
                        q**t * gaussian_binomial(n - 1, t, q)
                        + gaussian_binomial(n - 1, t - 1, q))


def _full_ambient(ctx) -> SubspaceBasis:
    return SubspaceBasis(ctx, ctx._greedy_codes([ctx.p**j for j in range(ctx.sm)]))


@pytest.mark.parametrize("field_fixture", ["gf8", "tower16"])
def test_every_enumerated_basis_passes_the_public_check(request, field_fixture):
    # The enumeration skips the independence check; the public one must agree.
    ctx = request.getfixturevalue(field_fixture)
    ambient = _full_ambient(ctx)
    for t in range(ambient.dim + 1):
        for sub in subspace_bases(ambient, t):
            assert ctx.span_dim(sub.gens) == t
            assert SubspaceBasis(ctx, sub.gens).gens == sub.gens


@pytest.mark.parametrize("field_fixture,dims", [
    ("gf16", (0, 1, 2, 3, 4)),
    ("gf27", (0, 1, 2, 3)),
    ("tower16", (0, 1, 2)),
])
def test_enumeration_count_and_distinctness(request, field_fixture, dims):
    ctx = request.getfixturevalue(field_fixture)
    ambient = _full_ambient(ctx)
    for t in dims:
        subs = list(subspace_bases(ambient, t, 10**6))
        assert len(subs) == gaussian_binomial(ambient.dim, t, ctx.q)
        seen = {frozenset(s.element_codes()) for s in subs}
        assert len(seen) == len(subs)  # pairwise distinct spans
        assert all(s.dim == t for s in subs)


def test_enumeration_respects_ambient_not_just_field(gf16):
    # A 3-dim ambient inside GF(16): counts follow the ambient dimension.
    ambient = SubspaceBasis(gf16, [gf16.element(c) for c in (1, 2, 4)])
    subs = list(subspace_bases(ambient, 2, 10**6))
    assert len(subs) == gaussian_binomial(3, 2, 2) == 7
    span = ambient.element_codes()
    for s in subs:
        assert s.element_codes() <= span


def test_enumeration_order_is_stable(gf16):
    ambient = _full_ambient(gf16)
    first = [tuple(g.code for g in s.gens) for s in subspace_bases(ambient, 2, None)]
    second = [tuple(g.code for g in s.gens) for s in subspace_bases(ambient, 2, None)]
    assert first == second
    assert len(first) == 35


def test_cap_enforcement(gf16):
    ambient = _full_ambient(gf16)
    with pytest.raises(ValueError):
        list(subspace_bases(ambient, 2, 34))
    assert len(list(subspace_bases(ambient, 2, 35))) == 35


@pytest.mark.parametrize("kwargs,match", [
    ({"t": True}, "subspace dimension"), ({"t": 1.0}, "subspace dimension"),
    ({"t": None}, "subspace dimension"), ({"t": 1, "cap": True}, "subspace cap"),
    ({"t": 1, "cap": 15.0}, "subspace cap"),
])
def test_rejects_non_integer_dimension_and_cap(gf16, kwargs, match):
    # A bool is an int, so t=True would list the 1-dimensional subspaces
    # and cap=True would read as 1; t=1.0 would escape as TypeError.
    with pytest.raises(ValueError, match=match):
        list(subspace_bases(_full_ambient(gf16), **kwargs))


def test_dimension_bounds_and_types(gf16):
    ambient = _full_ambient(gf16)
    with pytest.raises(ValueError):
        list(subspace_bases(ambient, 5, None))
    with pytest.raises(ValueError):
        list(subspace_bases(ambient, -1, None))
    with pytest.raises(TypeError):
        list(subspace_bases([gf16.element(1)], 1, None))
    zero = list(subspace_bases(ambient, 0, None))
    assert len(zero) == 1
    assert zero[0].dim == 0
