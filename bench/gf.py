"""Finite-field arithmetic of the benchmark's own, independent of gablab.

It is used to draw inputs (independent evaluation points, planted words)
and to check answers, so a defect in gablab's arithmetic cannot hide
itself in the checks.  Elements are the same integer codes gablab uses:
sum(digit_i * p^i) over the coefficients of the residue polynomial.
"""

from __future__ import annotations


class GF2m:
    """GF(2^m) with an explicit modulus, codes as bit masks (q = 2)."""

    def __init__(self, modulus: tuple[int, ...]):
        self.modulus = tuple(modulus)
        self.m = len(modulus) - 1
        self.order = 1 << self.m
        self._mod = sum(c << i for i, c in enumerate(modulus))

    def mul(self, a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            a <<= 1
            if a >> self.m:
                a ^= self._mod
            b >>= 1
        return r

    def pow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)

    def eval_linearized(self, coeffs, x: int) -> int:
        """sum_i coeffs[i] * x^(2^i)."""
        acc = 0
        for c in coeffs:
            if c:
                acc ^= self.mul(c, x)
            x = self.mul(x, x)
        return acc


def f2_rank(codes) -> int:
    """Dimension over F_2 of the span of bit-mask codes (the rank weight
    over F_q for q = 2)."""
    basis: dict[int, int] = {}
    for v in codes:
        while v:
            h = v.bit_length() - 1
            if h not in basis:
                basis[h] = v
                break
            v ^= basis[h]
    return len(basis)


def f2_coords(u: int, gens) -> list[int] | None:
    """Bits c with u = XOR of c_i * gens[i], or None when u is outside the
    span.  gens must be F_2-independent."""
    basis: dict[int, tuple[int, int]] = {}  # lead bit -> (vector, combination)
    for i, g in enumerate(gens):
        v, combo = g, 1 << i
        while v:
            h = v.bit_length() - 1
            if h not in basis:
                basis[h] = (v, combo)
                break
            bv, bc = basis[h]
            v, combo = v ^ bv, combo ^ bc
    combo = 0
    while u:
        h = u.bit_length() - 1
        if h not in basis:
            return None
        bv, bc = basis[h]
        u, combo = u ^ bv, combo ^ bc
    return [(combo >> i) & 1 for i in range(len(gens))]


def fp_rank(codes, p: int, digits: int) -> int:
    """Dimension over F_p of the span of codes read as base-p digit vectors."""
    rows = []
    for c in codes:
        v = []
        for _ in range(digits):
            c, d = divmod(c, p)
            v.append(d)
        rows.append(v)
    rank = 0
    for col in range(digits):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def random_independent(rng, order: int, n: int, rank) -> list[int]:
    """n random nonzero codes, independent under the given rank function."""
    pts: list[int] = []
    while len(pts) < n:
        c = rng.randrange(1, order)
        if rank(pts + [c]) == len(pts) + 1:
            pts.append(c)
    return pts
