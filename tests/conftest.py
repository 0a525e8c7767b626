"""Shared fixtures: small field contexts and codes reused across the suite,
and references that share no code with what they check: an F_q-rank
reference independent of the rank echelon, a Leibniz-formula determinant
and traces as sums of conjugates.

Everything here is deterministic and cheap to build; session scope just
avoids rebuilding the same field tables in every test module.
"""

import itertools

import pytest

from gablab import FieldCtx, GabidulinCode
from gablab.field import _eliminate, _prime_field


def _greedy_reference(ctx: FieldCtx, codes) -> list[int]:
    """The first maximal F_q-independent sublist of codes, by a route
    independent of ``FieldCtx._greedy_codes``: a code is kept when the F_p
    digit matrix of the lifts (by ``_subfield_pbasis()``) of the kept codes
    and it has full rank under ``_eliminate`` over the prime field."""
    fp, lifts = _prime_field(ctx.p), ctx._subfield_pbasis()
    kept = []
    for c in codes:
        rows = [ctx._digits(ctx.mul(e, x)) for x in kept + [c] for e in lifts]
        if len(_eliminate(fp, rows, ctx.sm)[1]) == ctx.s * (len(kept) + 1):
            kept.append(c)
    return kept


def _leibniz_det(ctx: FieldCtx, rows) -> int:
    """Sum over permutations of sign * product of entries; no elimination."""
    n, det = len(rows), 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = ctx.mul(term, rows[i][j])
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        det = ctx.sub(det, term) if inversions % 2 else ctx.add(det, term)
    return det


def _trace(ctx: FieldCtx, c: int, to_prime: bool = False) -> int:
    """Trace of the code c to F_q, the sum of c^(q^i) for i < m, or with
    to_prime to F_p, the sum of c^(p^i) for i < s*m; powers by ``pow``."""
    e, terms = (ctx.p, ctx.sm) if to_prime else (ctx.q, ctx.m)
    acc = 0
    for _ in range(terms):
        acc = ctx.add(acc, c)
        c = ctx.pow(c, e)
    return acc


@pytest.fixture(scope="session")
def greedy_reference():
    return _greedy_reference


@pytest.fixture(scope="session")
def leibniz_det():
    return _leibniz_det


@pytest.fixture(scope="session")
def trace():
    return _trace


@pytest.fixture(scope="session")
def gf4() -> FieldCtx:
    return FieldCtx(2, 1, 2)


@pytest.fixture(scope="session")
def gf8() -> FieldCtx:
    return FieldCtx(2, 1, 3)


@pytest.fixture(scope="session")
def gf16() -> FieldCtx:
    return FieldCtx(2, 1, 4)


@pytest.fixture(scope="session")
def gf27() -> FieldCtx:
    return FieldCtx(3, 1, 3)


@pytest.fixture(scope="session")
def tower16() -> FieldCtx:
    # GF(4^2): the q = 4 case exercises every s > 1 code path.
    return FieldCtx(2, 2, 2)


@pytest.fixture(scope="session")
def gf8_code(gf8) -> GabidulinCode:
    return GabidulinCode(gf8, (1, 2, 4), 1)


@pytest.fixture(scope="session")
def code24(gf16) -> GabidulinCode:
    return GabidulinCode(gf16, (1, 2, 4, 8), 2)
