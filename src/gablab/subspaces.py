"""Canonical enumeration of F_q-subspaces of a spanned ambient space.

Every t-dimensional subspace of an n-dimensional F_q-space has exactly one
reduced-row-echelon coefficient matrix, so enumerating those matrices
yields each subspace once, in a reproducible order: pivot-column tuples
ascend lexicographically, and for a fixed pivot tuple the free entries run
through F_q (ascending element code) as an odometer whose last listed cell
varies fastest.  Free cells are listed row-major.  Each yielded basis
holds its generators as integer codes (no FieldElement is built) and
carries its coefficient rows, so a caller can form the same
F_q-combinations of any other values attached to the ambient generators.
"""

from __future__ import annotations

import itertools

from .field import _check_cap, _combine_rows, gaussian_binomial
from .linpoly import SubspaceBasis


def subspace_bases(ambient: SubspaceBasis, t: int, cap: int | None = None):
    """Yield each t-dim subspace of span(ambient) once, canonical order.
    More than ``cap`` of them (None: no cap) are refused before the first."""
    if not isinstance(ambient, SubspaceBasis):
        raise TypeError("ambient space must be a SubspaceBasis")
    ctx = ambient.ctx
    n = ambient.dim
    if type(t) is not int or not 0 <= t <= n:
        raise ValueError(f"subspace dimension must be an integer in 0..{n}, got {t!r}")
    if cap is not None:
        _check_cap(cap, "subspace", gaussian_binomial(n, t, ctx.q), "candidate subspaces")
    scalars = ctx._subfield_codes()
    for pivots in itertools.combinations(range(n), t):
        pivot_set = set(pivots)
        free_cells = [(i, j)
                      for i in range(t)
                      for j in range(pivots[i] + 1, n)
                      if j not in pivot_set]
        for assign in itertools.product(scalars, repeat=len(free_cells)):
            rows = [[0] * n for _ in range(t)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), c in zip(free_cells, assign):
                rows[i][j] = c
            yield SubspaceBasis._unchecked(ctx, _combine_rows(ctx, rows, ambient.codes), rows)

