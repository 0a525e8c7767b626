"""Field-tower arithmetic: frozen constants, algebraic laws, tower structure.

The irreducibility oracle here is independent of the library's Rabin
check: plain trial division against every lower-degree monic polynomial,
with its own remainder on coefficient lists.
"""

import itertools
import math
import operator
import random
import sys
import threading
from functools import reduce

import pytest

from gablab import BasisSpec, FieldCtx, LinPoly, SubspaceBasis, Word, q_lagrange, quadric_v
from gablab.field import (_base_digits, _det, _eliminate, _from_base_digits, _nullspace,
                          _prime_field, _solve)


def _remainder(poly: list[int], monic: list[int], p: int) -> list[int]:
    """poly mod a monic divisor over F_p; coefficient lists, degree 0 first."""
    r = [c % p for c in poly]
    dv = len(monic) - 1
    for top in range(len(r) - 1, dv - 1, -1):
        f = r[top]
        if f:
            for i, c in enumerate(monic):
                r[top - dv + i] = (r[top - dv + i] - f * c) % p
    return r[:dv]


def _irreducible_by_trial_division(poly: list[int], p: int) -> bool:
    d = len(poly) - 1
    if d < 1:
        return False
    for ddeg in range(1, d // 2 + 1):
        for low in itertools.product(range(p), repeat=ddeg):
            if not any(_remainder(poly, list(low) + [1], p)):
                return False
    return True


def _accepted_as_modulus(poly: list[int], p: int) -> bool:
    """Whether FieldCtx(p, 1, deg) takes poly as its modulus."""
    try:
        FieldCtx(p, 1, len(poly) - 1, modulus=poly)
    except ValueError as exc:
        assert str(exc) == "modulus is reducible over the prime field"
        return False
    return True


def _primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % f for f in range(2, int(p ** 0.5) + 1))]


# -- frozen default moduli ----------------------------------------------------

FROZEN_MODULI = [
    (2, 1, 2, (1, 1, 1)),
    (2, 1, 3, (1, 1, 0, 1)),
    (2, 1, 4, (1, 1, 0, 0, 1)),
    (2, 1, 5, (1, 0, 1, 0, 0, 1)),
    (3, 1, 3, (1, 2, 0, 1)),
    (2, 2, 2, (1, 1, 0, 0, 1)),
]


@pytest.mark.parametrize("p,s,m,expected", FROZEN_MODULI)
def test_default_modulus_is_smallest_irreducible(p, s, m, expected):
    ctx = FieldCtx(p, s, m)
    assert ctx.modulus == expected
    assert _irreducible_by_trial_division(list(expected), p)
    # Nothing smaller in the degree-0-first lexicographic order works.
    d = s * m
    for code in range(sum(c * p**i for i, c in enumerate(expected[:-1]))):
        low, rem = [], code
        for _ in range(d):
            rem, dig = divmod(rem, p)
            low.append(dig)
        assert not _irreducible_by_trial_division(low + [1], p)


def test_modulus_accepted_iff_irreducible_by_trial_division():
    # Every monic polynomial of degree <= 6 over F_2, <= 4 over F_3 and
    # <= 3 over F_5: 401 in all.
    for p, top in ((2, 6), (3, 4), (5, 3)):
        for d in range(1, top + 1):
            for low in itertools.product(range(p), repeat=d):
                poly = list(low) + [1]
                assert _accepted_as_modulus(poly, p) == _irreducible_by_trial_division(poly, p)


def test_default_modulus_is_the_first_irreducible_by_trial_division():
    # Every (p, d) with p^d <= 2^12.  Element codes, and so every output,
    # depend on this choice.
    for p in _primes_upto(1 << 12):
        d = 1
        while p ** d <= 1 << 12:
            mod = FieldCtx(p, 1, d).modulus
            assert mod[-1] == 1 and len(mod) == d + 1
            assert _irreducible_by_trial_division(list(mod), p)
            for low in range(_from_base_digits(mod[:-1], p)):
                assert not _irreducible_by_trial_division(_base_digits(low, p, d) + [1], p)
            d += 1


# -- frozen hand values -------------------------------------------------------


def test_gf4_hand_values(gf4, trace):
    w = gf4.element(2)
    assert (w * w).code == 3
    assert (1 / w).code == 3
    assert gf4.frob(2) == 3
    assert trace(gf4, 2, to_prime=True) == 1


def test_gf27_hand_values(gf27):
    assert gf27.neg(5) == 7
    assert gf27.mul(3, 9) == 5


# -- arithmetic laws ----------------------------------------------------------


@pytest.mark.parametrize("params", [(2, 1, 4), (3, 1, 3), (2, 2, 2)])
def test_field_axioms_exhaustive_on_small_fields(params):
    ctx = FieldCtx(*params)
    codes = range(ctx.order)
    for a in codes:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (rng.randrange(ctx.order) for _ in range(3))
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_table_path_matches_direct_path(gf16, gf27):
    for ctx in (gf16, gf27):
        ctx.mul(1, 1)  # force table build
        for a in range(ctx.order):
            for b in range(ctx.order):
                assert ctx.mul(a, b) == ctx._mul_direct(a, b)


def test_pow_matches_repeated_multiplication(gf27):
    for a in range(1, gf27.order):
        acc = 1
        for e in range(1, 6):
            acc = gf27.mul(acc, a)
            assert gf27.pow(a, e) == acc
        assert gf27.pow(a, 0) == 1
        assert gf27.mul(gf27.pow(a, -1), a) == 1
    assert gf27.pow(0, 0) == 1
    assert gf27.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        gf27.pow(0, -1)
    with pytest.raises(ZeroDivisionError):
        gf27.inv(0)


# -- frobenius ----------------------------------------------------------------


def test_frobenius_is_qth_power_and_field_automorphism(gf16, gf27, tower16):
    for ctx in (gf16, gf27, tower16):
        rng = random.Random(11)
        for a in range(ctx.order):
            assert ctx.frob(a) == ctx.pow(a, ctx.q)
            assert ctx.frob(a, ctx.m) == a
        for _ in range(200):
            a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
            assert ctx.frob(ctx.add(a, b)) == ctx.add(ctx.frob(a), ctx.frob(b))
            assert ctx.frob(ctx.mul(a, b)) == ctx.mul(ctx.frob(a), ctx.frob(b))
        assert ctx.frob(1, 3) == ctx.frob(ctx.frob(ctx.frob(1)))


def test_frobenius_iterate_reduces_mod_m(gf16):
    for a in range(gf16.order):
        assert gf16.frob(a, 5) == gf16.frob(a, 1)
        assert gf16.frob(a, 4) == a
    with pytest.raises(ValueError):
        gf16.frob(3, -1)


@pytest.mark.parametrize("p,s,m", [(2, 1, 4), (2, 2, 3), (3, 1, 4), (5, 2, 2), (7, 1, 1),
                                   (2, 1, 17), (3, 1, 11), (3, 2, 6)])
def test_frobenius_root_inverts_the_q_power_map(p, s, m):
    # Table-route and direct-route fields, both characteristics: the i-th
    # root read from the half tables is the code whose i-fold q-power is
    # the argument, for every i up to m, and undoes frob(., i).
    ctx = FieldCtx(p, s, m)
    rng = random.Random(f"root/{p}/{s}/{m}")
    codes = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(30)]
    for i in range(m + 1):
        for a in codes:
            root = ctx._frob_root(a, i)
            assert ctx.frob(root, i) == a
            assert ctx._frob_root(ctx.frob(a, i), i) == a


def test_subfield_is_fixed_field_of_frobenius(gf16, tower16):
    # q = 2: two elements; q = 4 inside GF(16): four, closed under + and *.
    assert [e.code for e in gf16.subfield_elements()] == [0, 1]
    sub = tower16.subfield_elements()
    assert len(sub) == 4
    codes = {e.code for e in sub}
    for a in sub:
        assert a.frob() == a
        for b in sub:
            assert (a + b).code in codes
            assert (a * b).code in codes
    fixed = {c for c in range(tower16.order) if tower16.frob(c) == c}
    assert codes == fixed


# -- traces ---------------------------------------------------------------------
# Sums of conjugates: they land in the fixed fields and are additive only if
# the q- and p-power maps are additive automorphisms of the right orders.


def test_traces_are_additive_and_land_in_the_right_field(gf16, tower16, trace):
    for ctx in (gf16, tower16):
        rng = random.Random(3)
        for _ in range(100):
            a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
            ta, tb = trace(ctx, a), trace(ctx, b)
            assert ctx.frob(ta) == ta
            assert trace(ctx, ctx.add(a, b)) == ctx.add(ta, tb)
            tp = trace(ctx, a, to_prime=True)
            assert tp in range(ctx.p)  # prime subfield codes are 0..p-1
            assert trace(ctx, ctx.frob(a), to_prime=True) == tp


def test_trace_to_prime_composes_through_the_middle_field(tower16, trace):
    # Absolute trace = (trace to F_4) then (p-power trace of F_4 to F_2).
    for c in range(tower16.order):
        mid = trace(tower16, c)
        down = tower16.add(mid, tower16.pow(mid, tower16.p))
        assert down == trace(tower16, c, to_prime=True)


# -- linear structure -----------------------------------------------------------


def test_span_dim_and_greedy_independent(gf16, tower16):
    assert gf16.span_dim([1, 2, 4, 8]) == 4
    assert gf16.span_dim([1, 2, 3]) == 2  # 3 = 1 + 2
    assert gf16.span_dim([0]) == 0
    assert gf16._greedy_codes([1, 2, 3, 4, 0, 8]) == [1, 2, 4, 8]
    # q = 4: scalar multiples from the middle field collapse to one line.
    sub = [e.code for e in tower16.subfield_elements() if e.code]
    one_dim = [tower16.mul(c, 5) for c in sub]
    assert tower16.span_dim(one_dim) == 1
    assert tower16.span_dim(sub) == 1
    assert tower16.span_dim([1, 5]) == 2  # 5 is outside the middle field


@pytest.mark.parametrize("field", ["gf16", "gf27", "tower16", "gf3_4"])
def test_span_dim_is_log_q_of_the_span_size(request, field):
    # The incremental echelon and the span automaton against the span
    # built by closure over F_q.
    ctx = FieldCtx(3, 1, 4) if field == "gf3_4" else request.getfixturevalue(field)
    assert ctx._span_zero is not None
    scalars = [e.code for e in ctx.subfield_elements()]
    rng = random.Random(43)
    for _ in range(300):
        codes = [rng.randrange(ctx.order) for _ in range(rng.randrange(1, 5))]
        span = {0}
        for c in codes:
            span = {ctx.add(u, ctx.mul(a, c)) for u in span for a in scalars}
        kept = ctx._greedy_codes(codes)
        assert ctx.q ** ctx.span_dim(codes) == len(span)
        assert ctx.q ** ctx._least_rank([codes])[0] == len(span)
        assert ctx.q ** len(kept) == len(span)
        rest = iter(codes)
        assert all(c in rest for c in kept)  # a sublist, in input order


def test_span_automaton_shared_between_threads():
    # Threads fill one context's automaton at once.  Every transition must
    # lead to the one published state of its subspace, and every rank must
    # equal the echelon's.
    ctx = FieldCtx(3, 1, 4)
    rng = random.Random(47)
    lists = [[rng.randrange(ctx.order) for _ in range(rng.randrange(6))]
             for _ in range(300)]
    expect = [len(ctx._greedy_codes(c)) for c in lists]
    results = {}

    def work(t):
        results[t] = [ctx._least_rank([c])[0] for c in lists]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert all(results[t] == expect for t in range(4))
    published = {id(row) for row in ctx._span_rows.values()}
    for members, row in ctx._span_rows.items():
        assert len(members) == ctx.q ** row[ctx.order]
        assert all(nxt is None or id(nxt) in published for nxt in row[:ctx.order])


def test_coords_reconstruct_the_element(gf16, tower16):
    rng = random.Random(19)
    for ctx, basis_codes in ((gf16, (1, 2, 4, 8)), (gf16, (15, 7, 3, 1)),
                             (tower16, (1, 4)), (tower16, (7, 9))):
        basis = BasisSpec([ctx.element(c) for c in basis_codes])
        for _ in range(50):
            u = ctx.element(rng.randrange(ctx.order))
            cs = ctx.coords(u, basis)
            acc = ctx.element(0)
            for coef, beta in zip(cs, basis):
                assert coef.frob() == coef
                acc = acc + coef * beta
            assert acc == u


# -- construction and validation -------------------------------------------------


def test_ctx_validation_errors():
    with pytest.raises(ValueError):
        FieldCtx(4, 1, 2)  # p not prime
    with pytest.raises(ValueError):
        FieldCtx(2, 0, 3)
    with pytest.raises(ValueError):
        FieldCtx(2, 1, 30)  # over the default cap
    with pytest.raises(ValueError):
        FieldCtx(2, 1, 2, modulus=(1, 1))  # wrong degree
    with pytest.raises(ValueError):
        FieldCtx(2, 1, 2, modulus=(1, 1, 2))  # coefficient out of range / not monic
    with pytest.raises(ValueError):
        FieldCtx(2, 1, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)
    alt = FieldCtx(2, 1, 3, modulus=(1, 0, 1, 1))
    assert alt.modulus == (1, 0, 1, 1)
    assert alt.mul(2, 2) == 4  # x * x = x^2, still below the modulus


@pytest.mark.parametrize("args", [(2, True, 3), (2, 1, 3.0), (2.0, 1, 3), (True, 1, 1),
                                  (2, 1, "3")])
def test_ctx_rejects_non_integer_parameters(args):
    # A bool is an int: FieldCtx(2, True, 3) would build GF(2^3).
    with pytest.raises(ValueError, match="p, s and m must be integers"):
        FieldCtx(*args)


def test_modulus_rejects_non_integer_coefficients():
    # int() would truncate this to the irreducible (1, 1, 0, 1).
    with pytest.raises(ValueError, match="modulus coefficients must be integers"):
        FieldCtx(2, 1, 3, modulus=[1.7, 1, 0, 1.2])


@pytest.mark.parametrize("call", [
    lambda e: e.frob(True), lambda e: e.frob(1.0), lambda e: e.frob(None),
    lambda e: e ** True, lambda e: e ** 2.0, lambda e: e ** "2",
], ids=["frob-True", "frob-1.0", "frob-None", "pow-True", "pow-2.0", "pow-str"])
def test_element_frob_and_pow_reject_non_integer_exponents(gf8, call):
    # A bool is an int, so True would read as 1; a float would escape as
    # TypeError ("list indices must be integers") on the table route.
    with pytest.raises(ValueError, match="must be an integer"):
        call(gf8.element(3))


@pytest.mark.parametrize("value", [True, False])
def test_element_rejects_bools(gf8, value):
    with pytest.raises(ValueError, match="is not a code"):
        gf8.element(value)


@pytest.mark.parametrize("coeffs", [(1.0, 1), (1.5,), (True, 0)])
def test_element_rejects_non_integer_coefficients(gf8, coeffs):
    # These were stored as the float codes 3.0 and 1.5 and the bool True.
    with pytest.raises(ValueError, match="coefficients must be integers"):
        gf8.element(coeffs)


@pytest.mark.parametrize("value", [2.0, None])
def test_element_rejects_values_that_are_neither_codes_nor_sequences(gf8, value):
    # These used to escape as TypeError ("'float' object is not iterable"),
    # which the CLI's exit-1 handler does not catch.
    with pytest.raises(ValueError, match=f"{value!r} is not a code"):
        gf8.element(value)


def test_element_wrapping_and_context_separation(gf4, gf8):
    with pytest.raises(ValueError):
        gf4.element(4)
    with pytest.raises(ValueError):
        gf4.element(gf8.element(1))
    with pytest.raises(ValueError):
        gf4.element(1) + gf8.element(1)  # arithmetic across contexts
    a = gf4.element((1, 1))
    assert a.code == 3
    assert a.coeffs == (1, 1)
    assert a == 3  # int comparison means code equality
    assert gf4.element(1) + 0 == 1
    with pytest.raises(ValueError, match="too many coefficients"):
        gf4.element((1, 1, 1))
    with pytest.raises(ValueError, match="coefficients must be integers"):
        gf4.element((2, 0))


# One field per arithmetic route: char-2 table, odd table, direct p = 2
# and direct odd p (above the table limit), and a tower with s = 2.
ROUTES = {"char2-table": (2, 1, 4), "odd-table": (3, 1, 3), "direct-p2": (2, 1, 17),
          "direct-odd": (3, 1, 11), "tower-s2": (2, 2, 2)}

BINARY_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("route", ROUTES)
def test_element_operators_match_the_code_ops(route):
    # Each FieldElement operator, both operand orders, against the code op;
    # then the LinPoly and Word wrappers, and the rejection of mixed
    # contexts, out-of-range codes, bools and non-field operands.
    ctx, other = FieldCtx(*ROUTES[route]), FieldCtx(*ROUTES[route])
    assert (ctx._exp is None) == route.startswith("direct")
    rng = random.Random(71)
    for _ in range(40):
        a, b = rng.randrange(ctx.order), rng.randrange(1, ctx.order)
        x, y = ctx.element(a), ctx.element(b)
        for op, code_op in zip(BINARY_OPS, (ctx.add, ctx.sub, ctx.mul, ctx.div)):
            assert op(x, y).code == op(x, b).code == op(a, y).code == code_op(a, b)
        assert (-x).code == ctx.neg(a)
        assert (x ** 3).code == ctx.pow(a, 3)
        for i in range(ctx.m + 1):
            assert x.frob(i).code == ctx.frob(a, i) == ctx._pow_direct(a, ctx.q ** i)
        assert x.is_zero() == (not x) == (a == 0)
        assert int(x) == a and str(x) == str(a)
        assert x == ctx.element(a) and hash(x) == hash(ctx.element(a))
        assert x != other.element(a)
        f = LinPoly(ctx, [x, y, 0])
        assert f.codes == (a, b)
        assert (-f).codes == (ctx.neg(a), ctx.neg(b))
        assert (f + -f).is_zero()
        w = Word(ctx, [x, b])
        assert list(w) == [x, y]
        assert hash(w) == hash(Word(ctx, [a, y])) and len({w, Word(ctx, [a, b])}) == 1
    x = ctx.element(1)
    with pytest.raises(ZeroDivisionError):
        x / 0
    for op in BINARY_OPS:
        with pytest.raises(ValueError, match="mixed field contexts"):
            op(x, other.element(1))
        for bad in (ctx.order, -1):
            with pytest.raises(ValueError, match=f"code {bad} out of range"):
                op(x, bad)
            with pytest.raises(ValueError, match=f"code {bad} out of range"):
                op(bad, x)
        for bad in (True, False):  # ints to Python, but not codes
            with pytest.raises(ValueError, match=f"{bad!r} is not a code"):
                op(x, bad)
            with pytest.raises(ValueError, match=f"{bad!r} is not a code"):
                op(bad, x)
        with pytest.raises(TypeError):
            op(x, 1.0)
        with pytest.raises(TypeError):
            op(1.0, x)
    with pytest.raises(ValueError, match="mixed field contexts"):
        LinPoly(ctx, [x, other.element(1)])
    with pytest.raises(ValueError, match=f"code {ctx.order} out of range"):
        LinPoly(ctx, [x, ctx.order])


# The operand battery: in-range codes, an element, bools, out-of-range
# ints, a float, an element of another context with equal parameters and
# a coefficient sequence.
OPERANDS = ("1", "order-1", "element", "True", "False", "-1", "order", "1.0",
            "other-context", "(1, 1)")


def _operand(ctx, other, name):
    return {"1": 1, "order-1": ctx.order - 1, "element": ctx.element(ctx.order - 1),
            "True": True, "False": False, "-1": -1, "order": ctx.order, "1.0": 1.0,
            "other-context": other.element(1), "(1, 1)": (1, 1)}[name]


@pytest.mark.parametrize("name", OPERANDS)
@pytest.mark.parametrize("route", ROUTES)
def test_element_readers_accept_and_refuse_the_same_operands(route, name):
    # Every reader of an element operand reads it alike: the same code (a
    # reader that returns no code gives what that code gives), or a
    # ValueError with one text.  A float or a sequence escapes the
    # operators as TypeError, and ctx.element, the one reader of a
    # coefficient sequence, gives a non-integer a text of its own.
    ctx, other = FieldCtx(*ROUTES[route]), FieldCtx(*ROUTES[route])
    value, y = _operand(ctx, other, name), ctx.element(2)
    full = ctx._greedy_codes([ctx.p ** j for j in range(ctx.sm)])  # a basis over F_q
    basis = BasisSpec([ctx.element(c) for c in full])

    def from_coords(v):
        return reduce(ctx.add, map(ctx.mul, map(int, ctx.coords(v, basis)), full))

    readers = {
        "element": lambda v: ctx.element(v).code,
        "LinPoly": lambda v: LinPoly(ctx, [v]).codes[0],
        "Word": lambda v: Word(ctx, [v]).codes[0],
        "SubspaceBasis": lambda v: SubspaceBasis(ctx, [v]).codes[0],
        "LinPoly.__call__": lambda v: LinPoly.x(ctx)(v).code,
        "LinPoly.__mul__": lambda v: (LinPoly.x(ctx) * v).codes[0],
        "contains": lambda v: SubspaceBasis(ctx, full).contains(v),
        "q_lagrange": lambda v: q_lagrange(SubspaceBasis(ctx, [1]), [v]).codes[0],
        "span_dim": lambda v: ctx.span_dim([v]),
        "coords": from_coords,
        "quadric_v": lambda v: quadric_v(ctx, v),
    }
    for op in BINARY_OPS:
        readers[f"y {op.__name__} v"] = lambda v, op=op: op(y, v).code
        readers[f"v {op.__name__} y"] = lambda v, op=op: op(v, y).code
    got = {}
    for label, read in readers.items():
        try:
            got[label] = read(value)
        except (ValueError, TypeError) as exc:
            got[label] = (type(exc), str(exc))
    if name in ("1", "order-1", "element"):
        c = int(value)
        want = dict.fromkeys(["element", "LinPoly", "Word", "SubspaceBasis",
                              "LinPoly.__call__", "LinPoly.__mul__", "q_lagrange", "coords"], c)
        want.update({"contains": True, "span_dim": 1, "quadric_v": -1})
        for op, code_op in zip(BINARY_OPS, (ctx.add, ctx.sub, ctx.mul, ctx.div)):
            want[f"y {op.__name__} v"] = code_op(2, c)
            want[f"v {op.__name__} y"] = code_op(c, 2)
        assert got == want
    elif name == "1.0":
        assert {label: kind for label, (kind, _) in got.items()} == {
            label: TypeError if " " in label else ValueError for label in readers}
    elif name == "(1, 1)":
        assert got.pop("element") == 1 + ctx.p
        for label, (kind, text) in got.items():
            if " " in label:
                assert kind is TypeError, label
            else:
                assert (kind, text) == (ValueError, f"(1, 1) is not a code of {ctx!r}"), label
    else:
        refusals = set(got.values())
        assert len(refusals) == 1
        kind, text = refusals.pop()
        assert kind is ValueError
        assert text == ("mixed field contexts" if name == "other-context"
                        else f"code {value} out of range for {ctx!r}" if name in ("-1", "order")
                        else f"{value!r} is not a code of {ctx!r}")


@pytest.mark.parametrize("route", ROUTES)
def test_an_element_equals_no_bool(route):
    # A bool is not a code: it is refused as an operand, and it equals no
    # element, in either order.  The int codes 0 and 1 still compare equal.
    ctx = FieldCtx(*ROUTES[route])
    one, zero = ctx.element(1), ctx.element(0)
    assert one == 1 and zero == 0 and 1 == one
    assert not one == True and not True == one  # noqa: E712
    assert not zero == False and not False == zero  # noqa: E712
    assert one != True and zero != False  # noqa: E712


@pytest.mark.parametrize("route", ROUTES)
def test_inverse_refuses_exactly_the_operands_that_code_refuses(route):
    # inv keeps its own inline check on the hot path; over ints, bools and
    # floats it refuses what FieldCtx._code refuses (and 0 by division).
    ctx = FieldCtx(*ROUTES[route])
    for value in (-1, 0, 1, 2, ctx.order - 1, ctx.order, ctx.order + 5, True, False,
                  1.0, 2.0, 2.5):
        try:
            ctx._code(value)
            code_refuses = False
        except ValueError:
            code_refuses = True
        try:
            ctx.inv(value)
            inv_refuses = False
        except ValueError:
            inv_refuses = True
        except ZeroDivisionError:
            assert value == 0
            inv_refuses = False
        assert inv_refuses == code_refuses, value


def test_basis_spec_validation(gf16, gf4):
    with pytest.raises(ValueError):
        BasisSpec([])
    with pytest.raises(ValueError):
        BasisSpec([gf16.element(1), gf16.element(2)])  # too short
    with pytest.raises(ValueError):
        BasisSpec([gf16.element(c) for c in (1, 2, 3, 4)])  # dependent
    with pytest.raises(ValueError):
        BasisSpec([gf16.element(1), gf16.element(2), gf16.element(4), gf4.element(1)])
    with pytest.raises(ValueError):
        BasisSpec([1, 2, 4, 8])  # raw ints are not elements
    b = BasisSpec([gf16.element(c) for c in (15, 7, 3, 1)])
    assert len(b) == 4
    assert b[0].code == 15


def test_gen_is_the_residue_of_x(gf8):
    # Code p is the residue of x: x^3 = x + 1 under the frozen modulus.
    g = gf8.element(2)
    assert g.coeffs == (0, 1, 0)
    assert (g**3).code == 3


# -- the shared elimination against independent references ----------------------


def _mat_vec(ctx, rows, x) -> list[int]:
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, x):
            acc = ctx.add(acc, ctx.mul(a, b))
        out.append(acc)
    return out


def _assert_reduced(ctx, rows, ncols) -> int:
    """Check that _eliminate reduces fully, each pivot column the unit
    vector of its pivot row, and return the rank."""
    red, pivots, _, _ = _eliminate(ctx, rows, ncols)
    for i, c in enumerate(pivots):
        assert [row[c] for row in red] == [int(j == i) for j in range(len(red))]
    return len(pivots)


def _reference_eliminate(ctx, rows, ncols: int):
    """The elimination before its loop was trimmed, kept as the reference
    for the trimmed one: a generator per pivot search, an inversion and a
    scaling for every pivot (a pivot of 1 included), every column visited."""
    rows = [list(r) for r in rows]
    mul, sub = ctx.mul, ctx.sub
    pivots, leads, swaps = [], [], 0
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        top = rows[r]
        leads.append(top[c])
        inv = ctx.inv(top[c])
        top[c:] = [1] + [mul(inv, x) for x in top[c + 1:]]
        for row in rows:
            f = row[c]
            if f and row is not top:
                row[c:] = [0] + [sub(a, mul(f, b)) for a, b in zip(row[c + 1:], top[c + 1:])]
        pivots.append(c)
    return rows, pivots, leads, swaps


def _reference_readers(ctx, rows, rhs):
    """(solve, null space, det) read off ``_reference_eliminate`` as the
    readers first read them: the solution through a dict, free columns by
    list membership, the determinant as a running product from 1."""
    n = len(rows[0])
    red, pivots, _, _ = _reference_eliminate(ctx, [list(r) + [b] for r, b in zip(rows, rhs)], n)
    sol = None
    if not any(row[n] for row in red[len(pivots):]):
        by_col = {c: row[n] for row, c in zip(red, pivots)}
        sol = [by_col.get(j, 0) for j in range(n)]
    red, pivots, leads, swaps = _reference_eliminate(ctx, rows, n)
    null = []
    for f in range(n):
        if f not in pivots:
            x = [int(j == f) for j in range(n)]
            for row, c in zip(red, pivots):
                x[c] = ctx.neg(row[f])
            null.append(x)
    det = None
    if len(rows) == n:
        det = 1
        for v in leads:
            det = ctx.mul(det, v)
        det = 0 if len(pivots) < n else ctx.neg(det) if swaps % 2 else det
    return sol, null, det


# Direct routes (GF(2^17), GF(3^11), the tower GF(4^9)) beside the table
# fields, by name: "F3" is the prime field GF(3).
ELIMINATION_FIELDS = {"F2_17": (2, 1, 17), "F3_11": (3, 1, 11), "F4_9": (2, 2, 9)}


def _elimination_field(request, field):
    if field == "F3":
        return _prime_field(3)
    if field in ELIMINATION_FIELDS:
        return FieldCtx(*ELIMINATION_FIELDS[field])
    return request.getfixturevalue(field)


@pytest.mark.parametrize("field", ["gf16", "gf27", "tower16", "F3", *ELIMINATION_FIELDS])
def test_elimination_against_independent_references(request, field, leibniz_det):
    ctx = _elimination_field(request, field)
    rng = random.Random(41)
    rand = lambda r, c: [[rng.randrange(ctx.order) for _ in range(c)] for _ in range(r)]
    for n in (3, 4):
        for trial in range(40):
            rows = rand(n, n)
            if trial % 4 == 1:
                rows[-1] = list(rows[0])          # singular
            elif trial % 4 == 2:
                for row in rows:
                    row[0] = 0                    # zero column
            elif trial % 4 == 3:
                rows[0][0] = 0                    # forces a row swap
            assert _det(ctx, rows) == leibniz_det(ctx, rows)
            _assert_reduced(ctx, rows, n)
    for nr, nc in ((3, 3), (4, 4), (2, 4), (4, 2), (3, 5)):
        for _ in range(15):
            rows = rand(nr, nc)
            rows[rng.randrange(nr)] = [0] * nc
            b = _mat_vec(ctx, rows, [rng.randrange(ctx.order) for _ in range(nc)])
            x = _solve(ctx, rows, b)
            assert x is not None and _mat_vec(ctx, rows, x) == b
            zero_row = next(i for i, r in enumerate(rows) if not any(r))
            b[zero_row] = ctx.add(b[zero_row], 1)
            assert _solve(ctx, rows, b) is None   # 0 = nonzero is inconsistent
            null = _nullspace(ctx, rows)
            rank = _assert_reduced(ctx, rows, nc)
            assert len(null) == nc - rank
            for v in null:
                assert any(v) and not any(_mat_vec(ctx, rows, v))


def _elimination_inputs(ctx, rng):
    """(rows, rhs) pairs: square, wide and tall random matrices, each
    also made rank-deficient, swap-forcing (a zero at the top of a
    column below a nonzero) and with planted pivots of 1; and augmented
    t x (k+1) Moore-shaped systems (row j: u_j^(q^i) for i < k, right
    side f(u_j)) whose first point is 1 or not, with a consistent and a
    random right side."""
    rand = lambda: rng.randrange(ctx.order)
    nonzero = lambda: rng.randrange(1, ctx.order)
    for nr, nc in ((1, 1), (2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (3, 5), (5, 3)):
        for trial in range(6):
            rows = [[rand() for _ in range(nc)] for _ in range(nr)]
            if trial == 1 and nr > 1:
                rows[-1] = list(rows[0])                    # rank-deficient
            elif trial == 2 and nr > 1:
                rows[0][0], rows[1][0] = 0, nonzero()       # swap at column 0
                rows[-1] = [0] * nc
            elif trial == 3:
                for row in rows:
                    row[0] = 0                              # zero column
            elif trial == 4:
                rows[0][0] = 1                              # pivots of 1
                if nr > 1 and nc > 1:
                    rows[1][1] = ctx.add(ctx.mul(rows[1][0], rows[0][1]), 1)
            yield rows, [rand() for _ in range(nr)]
    for k in (1, 2, 3):
        for t in range(1, 5):
            for first in (1, nonzero()):
                points = [first] + [nonzero() for _ in range(t - 1)]
                moore = [[ctx.frob(u, i) for i in range(k)] for u in points]
                v = [rand() for _ in range(k)]
                yield moore, _mat_vec(ctx, moore, v)
                yield moore, [rand() for _ in range(t)]


@pytest.mark.parametrize("field", ["gf16", "gf27", "tower16", "F3", *ELIMINATION_FIELDS])
def test_trimmed_elimination_equals_the_reference_loop(request, field):
    # The same rows, pivots, leads and swap count as the elimination first
    # written, and the same solves, null spaces and determinants read off
    # them, on every input; augmented systems pivot only their left part.
    ctx = _elimination_field(request, field)
    rng = random.Random(43)
    seen_lead_one = seen_swap = 0
    for rows, rhs in _elimination_inputs(ctx, rng):
        n, before = len(rows[0]), [list(r) for r in rows]
        aug = [r + [b] for r, b in zip(rows, rhs)]
        for matrix, ncols in ((rows, n), (aug, n), (aug, n + 1)):
            got = _eliminate(ctx, matrix, ncols)
            assert got == _reference_eliminate(ctx, matrix, ncols)
            seen_lead_one += 1 in got[2]
            seen_swap += got[3] > 0
        sol, null, det = _reference_readers(ctx, rows, rhs)
        assert _solve(ctx, rows, rhs) == sol
        assert _nullspace(ctx, rows) == null
        if det is not None:
            assert _det(ctx, rows) == det
        assert rows == before
    assert seen_lead_one and seen_swap


@pytest.mark.parametrize("p,s,m", [(3, 1, 4), (5, 1, 3), (3, 2, 2), (3, 1, 10)])
def test_addition_rows_are_built_digit_wise(monkeypatch, p, s, m):
    # GF(3^4), GF(5^3), GF(9^2) and GF(3^10), just under the table limit:
    # every row x -> x + c that _translation builds equals add(x, c) for
    # each code x.  With the memo limit at 0 each row is built afresh.
    monkeypatch.setattr("gablab.field._ADD_ROW_MEMO_LIMIT", 0)
    ctx = FieldCtx(p, s, m)
    order = ctx.order
    addends = [0, 1, ctx.p - 1, order - 1] + random.Random(order).sample(range(order), 3)
    op, rows = ctx._translation(addends, order)
    assert op is list.__getitem__ and not ctx._add_rows
    for c, row in zip(addends, rows):
        assert row == [ctx.add(x, c) for x in range(order)]


def _digitwise(ctx, op, a: int, b: int) -> int:
    """op(a_i, b_i) mod p on each pair of base-p digits: the reference for
    add (operator.add), sub and neg (operator.sub, with a = 0 for neg)."""
    pairs = zip(_base_digits(a, ctx.p, ctx.sm), _base_digits(b, ctx.p, ctx.sm))
    return _from_base_digits([op(x, y) % ctx.p for x, y in pairs], ctx.p)


@pytest.mark.parametrize("p,s,m", [(3, 1, 2), (5, 1, 2), (3, 1, 3), (3, 1, 4), (3, 2, 2)])
def test_zech_route_matches_the_digit_route(p, s, m):
    # GF(9), GF(25), GF(27), GF(81) and GF(9^2): every pair, table route
    # against digit lists.
    ctx = FieldCtx(p, s, m)
    for a in range(ctx.order):
        assert ctx.neg(a) == _digitwise(ctx, operator.sub, 0, a)
        for b in range(ctx.order):
            assert ctx.add(a, b) == _digitwise(ctx, operator.add, a, b)
            assert ctx.sub(a, b) == _digitwise(ctx, operator.sub, a, b)
    assert ctx._zech is not None


@pytest.mark.parametrize("p,s,m", [(2, 1, 8), (2, 2, 4), (3, 1, 7), (3, 2, 3), (5, 1, 4),
                                   (7, 1, 3), (31, 1, 2), (4093, 1, 1)])
def test_tables_match_the_digit_route(p, s, m):
    # exp is the walk of g = exp[1] by _mul_direct, g is the first code from
    # 2 up whose log is prime to order - 1 (a generator), log inverts exp,
    # and zech[i] is the log of 1 + g^i added digit by digit (-1 at 0).
    ctx = FieldCtx(p, s, m)
    exp, log, n1 = ctx._exp, ctx._log, ctx.order - 1
    g = exp[1]
    assert sorted(exp) == list(range(1, ctx.order))
    assert all(log[e] == i for i, e in enumerate(exp))
    assert all(exp[(i + 1) % n1] == ctx._mul_direct(e, g) for i, e in enumerate(exp))
    assert g == next(c for c in range(2, ctx.order) if math.gcd(log[c], n1) == 1)
    if p == 2:
        assert ctx._zech is None
    else:
        sums = (_digitwise(ctx, operator.add, 1, e) for e in exp)
        assert ctx._zech == [log[t] if t else -1 for t in sums]


@pytest.mark.parametrize("p,s,m", [(3, 1, 11), (5, 1, 7), (3, 2, 6)])
def test_direct_route_add_sub_neg_match_the_digit_lists(p, s, m):
    # Above the table limit all three run the one digit kernel a - r*b.
    ctx = FieldCtx(p, s, m)
    assert ctx._exp is None
    rng = random.Random(67)
    top = ctx.order - 1
    pairs = [(0, 0), (0, top), (top, 0), (top, top), (1, top)]
    pairs += [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(300)]
    for a, b in pairs:
        assert ctx.add(a, b) == _digitwise(ctx, operator.add, a, b)
        assert ctx.sub(a, b) == _digitwise(ctx, operator.sub, a, b)
        assert ctx.neg(b) == _digitwise(ctx, operator.sub, 0, b)


@pytest.mark.parametrize("p,m", [(2, 17), (3, 11)])
def test_direct_route_above_the_table_limit(p, m):
    ctx = FieldCtx(p, 1, m)
    rng = random.Random(59)
    for _ in range(30):
        a, b, c = (rng.randrange(1, ctx.order) for _ in range(3))
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.pow(a, ctx.order - 1) == 1
        u = a
        for _ in range(m):
            u = ctx.frob(u)
        assert u == a
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx._exp is None  # no table was ever built


@pytest.mark.parametrize("p,s,m", [(2, 1, 17), (2, 2, 9), (2, 3, 6), (3, 1, 11)])
def test_direct_route_kernels_against_their_definitions(p, s, m):
    # Above the table limit: inv against Fermat, frob against i-fold q-th
    # powers and _pow_direct against repeated multiplication.
    ctx = FieldCtx(p, s, m)
    rng = random.Random(61)
    for _ in range(12):
        a = rng.randrange(1, ctx.order)
        assert ctx.inv(a) == ctx._pow_direct(a, ctx.order - 2)
        u = a
        for i in range(m + 1):
            assert ctx.frob(a, i) == u
            u = ctx._pow_direct(u, ctx.q)
        acc = 1
        for e in range(41):
            assert ctx._pow_direct(a, e) == acc
            acc = ctx._mul_direct(acc, a)
    assert ctx._pow_direct(0, 0) == 1 and ctx._pow_direct(0, 5) == 0
    assert ctx._exp is None  # no table was ever built


DIRECT_ROUTES = [(2, 1, 17), (2, 2, 9), (2, 3, 6), (3, 1, 11)]


def _check_inverse(ctx, a, r):
    # Fermat's a**(order - 2) computed past the memo, and the product.
    assert r == ctx._pow_direct(a, ctx.order - 2)
    assert ctx.mul(a, r) == 1


@pytest.mark.parametrize("p,s,m", DIRECT_ROUTES)
def test_direct_route_inverse_memo_fills_and_hits(p, s, m):
    ctx = FieldCtx(p, s, m)
    codes = random.Random(67).sample(range(1, ctx.order), 20)
    for a in codes:
        r = ctx.inv(a)  # the filling call
        _check_inverse(ctx, a, r)
        assert ctx._inv_memo[a] == r
        _check_inverse(ctx, a, ctx.inv(a))  # the hit
        assert ctx.div(1, a) == r
    assert sorted(ctx._inv_memo) == sorted(codes)


@pytest.mark.parametrize("p,s,m", DIRECT_ROUTES)
def test_direct_route_inverse_memo_past_its_bound(monkeypatch, p, s, m):
    # With room for one entry, the first inverse is kept and every later
    # one is computed afresh on each call.
    monkeypatch.setattr("gablab.field._INV_MEMO_LIMIT", 1)
    ctx = FieldCtx(p, s, m)
    codes = random.Random(71).sample(range(1, ctx.order), 12)
    for _ in range(2):
        for a in codes:
            _check_inverse(ctx, a, ctx.inv(a))
    assert list(ctx._inv_memo) == codes[:1]


@pytest.mark.parametrize("p,s,m", DIRECT_ROUTES + [(2, 1, 4), (3, 1, 3), (2, 2, 2)])
def test_inverse_of_zero_raises_and_stores_nothing(p, s, m):
    ctx = FieldCtx(p, s, m)
    for call in (lambda: ctx.inv(0), lambda: ctx.div(1, 0), lambda: ctx.pow(0, -1)):
        with pytest.raises(ZeroDivisionError):
            call()
    assert ctx._inv_memo == {}


@pytest.mark.parametrize("p,s,m", DIRECT_ROUTES)
def test_direct_route_inverse_refuses_non_codes(p, s, m):
    # inv(-1) on GF(2^17) used to loop forever in the extended Euclid.
    ctx = FieldCtx(p, s, m)
    for bad in (-1, -ctx.order, ctx.order, ctx.order + 5, 2.5):
        with pytest.raises(ValueError, match="not a nonzero element code"):
            ctx.inv(bad)
    assert ctx._inv_memo == {}


@pytest.mark.parametrize("p,s,m", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (3, 1, 4)])
def test_table_route_inverse_refuses_non_codes(p, s, m):
    # The one lookup used to read log[-1] (FieldCtx(2, 1, 4).inv(-1) was
    # 8, the inverse of 15), raise IndexError at the order, and answer a
    # float or a bool equal to a code.
    ctx = FieldCtx(p, s, m)
    for bad in (-1, -ctx.order, ctx.order, ctx.order + 5, 1.0, 2.0, 2.5, True):
        with pytest.raises(ValueError, match="not a nonzero element code"):
            ctx.inv(bad)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@pytest.mark.parametrize("p,s,m", DIRECT_ROUTES)
def test_direct_route_inverse_memo_hit_refuses_a_float_or_bool(p, s, m):
    # 5.0 and True hash like the kept codes 5 and 1, so a memo read
    # before the check answered them.
    ctx = FieldCtx(p, s, m)
    kept = {a: ctx.inv(a) for a in (5, 1)}
    for bad in (5.0, 1.0, True):
        with pytest.raises(ValueError, match="not a nonzero element code"):
            ctx.inv(bad)
    assert ctx._inv_memo == kept
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


@pytest.mark.parametrize("p,s,m", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (3, 1, 4), (2, 1, 16)])
def test_table_route_leaves_the_inverse_memo_empty(p, s, m):
    ctx = FieldCtx(p, s, m)
    assert ctx._exp is not None
    for a in range(1, min(ctx.order, 2000)):
        assert ctx.mul(a, ctx.inv(a)) == 1
        assert ctx.pow(a, -2) == ctx.mul(ctx.inv(a), ctx.inv(a))
    assert ctx._inv_memo == {}


@pytest.mark.parametrize("p,s,m", [(2, 1, 17), (3, 1, 11)])
def test_inverse_memo_shared_between_threads(p, s, m):
    # Threads fill one context's memo at once, each walking the same codes
    # in its own order.  Every answer must be Fermat's, and so must every
    # kept entry.
    ctx = FieldCtx(p, s, m)
    rng = random.Random(73)
    codes = rng.sample(range(1, ctx.order), 60)
    expect = {a: ctx._pow_direct(a, ctx.order - 2) for a in codes}
    orders = [rng.sample(codes, len(codes)) * 3 for _ in range(4)]
    results = {}

    def work(t):
        results[t] = [(a, ctx.inv(a)) for a in orders[t]]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert all(r == expect[a] for t in range(4) for a, r in results[t])
    assert ctx._inv_memo == expect


def _clmul_mod(a: int, b: int, modulus: int) -> int:
    """a * b in F_2[x] modulo ``modulus``, all as packed ints: a shifted
    copy of a per set bit of b, then the top bit cleared one at a time."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a, b = a << 1, b >> 1
    deg = modulus.bit_length() - 1
    while r.bit_length() > deg:
        r ^= modulus << (r.bit_length() - 1 - deg)
    return r


BENCH_MODULUS = (1, 0, 0, 1) + (0,) * 13 + (1,)  # 1 + x^3 + x^17


@pytest.mark.parametrize("sm,modulus", [(sm, None) for sm in range(2, 25)]
                         + [(17, BENCH_MODULUS)],
                         ids=lambda v: "bench" if isinstance(v, tuple) else None)
def test_table_reduction_matches_carry_less_remainder(sm, modulus):
    # _mul_direct reduces a p = 2 product by two table reads; here the
    # product and its remainder are taken bit by bit.
    ctx = FieldCtx(2, 1, sm, modulus)
    mod = _from_base_digits(ctx.modulus, 2)
    rng = random.Random(sm)
    edges = (0, 1, ctx.order - 1)
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(200)]
    pairs += [(ctx.order - 1, rng.randrange(ctx.order)) for _ in range(20)]
    for a, b in pairs:
        assert ctx._mul_direct(a, b) == _clmul_mod(a, b, mod)
