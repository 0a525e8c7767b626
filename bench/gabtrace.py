"""Spans and counts around gablab's layers, installed from outside the package.

``install()`` replaces functions at the places gablab looks them up: the
``from ... import`` names in ``gablab.deephole``, ``gablab.code`` and
``gablab.cli`` as well as the defining modules, and methods on their
classes.  ``uninstall()`` puts the originals back.

A span is entered and left around one call.  On leaving, its duration is
added to its parent's child time, so self time (duration minus the time
child spans cover) is exact without keeping every span.  Coarse spans (one
or a few per operation, listed in RECORDED) are kept whole: id, parent,
name, start, end and the id of the operation they serve.  Fine spans
(polynomial evaluation, basis construction, interpolation, subspace steps)
run hundreds of times per class, so they are folded into per-name totals
to keep memory bounded.  Field operations are counted, not timed.
Everything stays in memory until the caller writes ``dump()`` out.  The
hooks see one process only: a parallel scan's pool workers are not traced.
"""

from __future__ import annotations

import collections
import itertools
import time

import gablab.cli
import gablab.code
import gablab.deephole
import gablab.field
import gablab.linpoly
import gablab.subspaces

RECORDED = frozenset({"op", "cli.main", "deephole.scan", "deephole.classify",
                      "code.oracle", "code.sigma_inverse"})
FIELD_OPS = ("mul", "add", "frob", "pow", "inv", "element")
_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.counts = collections.Counter()
        self.calls = collections.Counter()
        self.total_ns = collections.Counter()
        self.self_ns = collections.Counter()
        self.records = []
        self.stack = []
        self.op = None
        # Census classes identify themselves; word loops set ``op`` instead.
        self.class_ops = False
        self._ids = itertools.count(1)

    def enter(self, name: str) -> list:
        frame = [name, next(self._ids), _now(), 0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = _now()
        stack = self.stack
        stack.pop()
        dur = end - frame[2]
        parent = 0
        if stack:
            stack[-1][3] += dur
            parent = stack[-1][1]
        name = frame[0]
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - frame[3]
        if name in RECORDED:
            self.records.append((frame[1], parent, name, frame[2], end, self.op))

    def dump(self) -> dict:
        return {"counts": dict(self.counts), "calls": dict(self.calls),
                "total_ns": dict(self.total_ns), "self_ns": dict(self.self_ns),
                "records": self.records}


_T = Tracer()
_ORIG: dict[tuple, object] = {}


def tracer() -> Tracer:
    return _T


def reset(class_ops: bool = False) -> Tracer:
    global _T
    _T = Tracer()
    _T.class_ops = class_ops
    return _T


def _spanned(name, fn):
    def wrapper(*args, **kwargs):
        t = _T
        frame = t.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            t.exit(frame)
    return wrapper


def _counted(name, fn):
    def wrapper(*args, **kwargs):
        _T.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _traced_subspace_bases(*args, **kwargs):
    # Each step of the generator is one "subspaces" span; the SubspaceBasis
    # it builds is a child span, so self time excludes the constructor.
    it = _ORIG[(gablab.subspaces, "subspace_bases")](*args, **kwargs)
    while True:
        t = _T
        frame = t.enter("subspaces")
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            t.exit(frame)
        t.counts["subspaces.yielded"] += 1
        yield item


def _traced_iter_codewords(self, *args, **kwargs):
    for pair in _ORIG[(gablab.code.GabidulinCode, "iter_codewords")](self, *args, **kwargs):
        _T.counts["code.codewords"] += 1
        yield pair


def _traced_classify_poly(code, f, *args, **kwargs):
    t = _T
    if t.class_ops:
        idx = 0
        for c in reversed(f.codes[code.k:]):
            idx = idx * code.ctx.order + c
        t.op = idx
    frame = t.enter("deephole.classify")
    try:
        res = _ORIG[(gablab.deephole, "classify_poly")](code, f, *args, **kwargs)
    finally:
        t.exit(frame)
    if res.witness is not None:
        t.counts["deephole.accepted"] += 1
        # Levels tried: t runs from deg_q f down to the accepting n - distance.
        t.counts["deephole.levels"] += f.deg_q - (code.n - res.distance) + 1
    return res


def _patches():
    """(owner, attribute, replacement factory) for every traced lookup site."""
    dh, code, cli, lp = gablab.deephole, gablab.code, gablab.cli, gablab.linpoly
    out = [(gablab.field.FieldCtx, op, lambda fn, op=op: _counted("field." + op, fn))
           for op in FIELD_OPS]
    out += [
        (lp.LinPoly, "__call__", lambda fn: _spanned("linpoly.eval", fn)),
        (lp.SubspaceBasis, "__init__", lambda fn: _spanned("linpoly.basis", fn)),
        (code.GabidulinCode, "sigma_inverse", lambda fn: _spanned("code.sigma_inverse", fn)),
        (code.GabidulinCode, "iter_codewords", lambda fn: _traced_iter_codewords),
        (gablab.subspaces, "subspace_bases", lambda fn: _traced_subspace_bases),
        (dh, "subspace_bases", lambda fn: _traced_subspace_bases),
        (dh, "classify_poly", lambda fn: _traced_classify_poly),
        (cli, "main", lambda fn: _spanned("cli.main", fn)),
    ]
    for mod in (lp, dh, code):
        out.append((mod, "q_lagrange", lambda fn: _spanned("linpoly.q_lagrange", fn)))
    for mod in (dh, cli):
        out.append((mod, "covering_radius_scan", lambda fn: _spanned("deephole.scan", fn)))
    for mod in (code, cli):
        out.append((mod, "dist_to_code_exhaustive", lambda fn: _spanned("code.oracle", fn)))
    return out


def install() -> None:
    for owner, attr, make in _patches():
        fn = owner.__dict__[attr]
        _ORIG[(owner, attr)] = fn
        setattr(owner, attr, make(fn))


def uninstall() -> None:
    for (owner, attr), fn in _ORIG.items():
        setattr(owner, attr, fn)
    _ORIG.clear()

