"""The benchmark tracer's contract with the package.

``bench/gabtrace.py`` replaces gablab names where the package looks them
up, among them ``gablab.deephole.q_lagrange``, which that module imports
only for the tracer.  ``install()`` raises ``KeyError`` on a missing name,
so removing one breaks every traced benchmark run; this test shows it at
once.  The tracer file is imported as it is, from its own path.
"""

import importlib.util
import pathlib

from gablab import FieldCtx, GabidulinCode, distance_by_search

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "gabtrace.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_gabtrace_under_test", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_restores_every_patched_name():
    gabtrace = _load_tracer()
    sites = [(owner, attr) for owner, attr, _ in gabtrace._patches()]
    before = {site: site[0].__dict__[site[1]] for site in sites}
    ctx = FieldCtx(2, 1, 4)
    code = GabidulinCode(ctx, (1, 2, 4, 8), 1)
    try:
        gabtrace.install()
        tr = gabtrace.reset()
        assert all(owner.__dict__[attr] is not before[(owner, attr)]
                   for owner, attr in sites)
        assert distance_by_search(code, code.word((1, 3, 5, 7)), "rank").distance == 2
        # The first word fills the code's plan through the traced subspace
        # enumeration; a second word on the same code interpolates nothing.
        assert tr.counts["subspaces.yielded"] > 0
        before_second = (tr.calls["linpoly.q_lagrange"], tr.calls["code.sigma_inverse"])
        assert distance_by_search(code, code.word((1, 2, 4, 9)), "rank").distance == 1
        assert (tr.calls["linpoly.q_lagrange"],
                tr.calls["code.sigma_inverse"]) == before_second
    finally:
        gabtrace.uninstall()
    assert all(owner.__dict__[attr] is before[(owner, attr)] for owner, attr in sites)
