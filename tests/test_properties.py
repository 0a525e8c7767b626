"""Property tests over random small towers, codes and message bounds.

The raw word scan (coset walk over all order**n words) and the class scan
(witness descent over one monic class per scalar orbit) share no code
beyond field arithmetic, so agreement on random codes checks both.
"""

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from gablab import (FieldCtx, GabidulinCode, covering_radius_raw,  # noqa: E402
                    covering_radius_scan)

WORD_LIMIT = 4096


# (p, s, m, n) with order**n <= WORD_LIMIT.  One word length n = 1 per
# (p, s) keeps q = 9, where no n = 2 fits.
SHAPES = [(p, s, m, n) for p in (2, 3) for s in (1, 2) for m in range(1, 7)
          for n in range(1, m + 1)
          if (p ** (s * m)) ** n <= WORD_LIMIT and (n > 1 or m == 1)]


@lru_cache(maxsize=None)
def _ctx(p: int, s: int, m: int) -> FieldCtx:
    return FieldCtx(p, s, m)


@st.composite
def small_codes(draw):
    """A tower with p in {2, 3}, s in {1, 2} and its default modulus,
    n random independent points and a random k in 1..n."""
    p, s, m, n = draw(st.sampled_from(SHAPES))
    ctx = _ctx(p, s, m)
    points = draw(st.lists(st.integers(1, ctx.order - 1), min_size=n, max_size=n))
    assume(ctx.span_dim(points) == n)
    k = draw(st.integers(1, n))
    return GabidulinCode(ctx, points, k)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(code=small_codes())
def test_raw_histogram_is_class_histogram_times_class_size(code):
    per_class = code.ctx.order ** code.k
    for metric in ("rank", "hamming"):
        radius, hist = covering_radius_raw(code, metric)
        scan = covering_radius_scan(code, metric)
        assert radius == scan.radius
        assert hist == {d: c * per_class for d, c in scan.histogram.items()}
