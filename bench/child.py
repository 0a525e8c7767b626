"""One fresh process running one workload against gablab.

    python3 child.py MODE WORKDIR WORKLOAD T0_NS [SECONDS]

MODE is ``setup`` (stop at the first timed operation), ``run`` (one census
command, or a closed loop of whole word passes until SECONDS have gone)
or ``trace`` (one untraced pass, then the same pass traced).  A ``run``
keeps a calib.Ticker going; each operation's time excludes its chunks.
T0_NS is the CLOCK_MONOTONIC reading taken before the process was
started, so ``setup_s`` runs from a fresh interpreter to the first timed
operation.  The inputs are
WORKDIR/spec.txt and WORKDIR/inputs.json; results go to WORKDIR/result.json
and, when traced, WORKDIR/trace.json.  The program under test is reached
only through ``gablab.cli.main``, ``covering_radius_scan`` (inside the
census command), ``distance_by_search`` and ``dist_to_code_exhaustive``,
each looked up when called so that the trace hooks see it.
"""

import json
import os
import random
import resource
import statistics
import sys
import time
from collections import deque
from itertools import starmap

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calib  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Field micro-batches: operand pairs per batch and batches per operation.
MICRO_PAIRS = 4096
MICRO_BATCHES = 5


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Census:
    """One ``gab census`` command per pass."""

    def __init__(self, w, workdir, inputs):
        import gablab.cli
        self.cli = gablab.cli
        self.w, self.workdir = w, workdir
        self.spec = os.path.join(workdir, "spec.txt")

    def one_pass(self, tag: str, ticker: calib.Ticker | None = None) -> dict:
        out = os.path.join(self.workdir, f"census-{tag}-{os.getpid()}.csv")
        argv = ["census", "--spec", self.spec, "--metric", self.w.metric,
                "--jobs", "1", "--out", out]
        ref = ticker.ns if ticker else 0
        t = time.perf_counter_ns()
        rc = self.cli.main(argv)
        wall = time.perf_counter_ns() - t - ((ticker.ns - ref) if ticker else 0)
        return {"wall_ns": [wall], "ops": self.w.classes, "rc": rc, "outputs": [out]}


class WordLoop:
    """A closed loop: one client sends the next word when the last returns."""

    def __init__(self, w, workdir, inputs):
        import gablab.code
        import gablab.deephole
        self.code_mod, self.deephole = gablab.code, gablab.deephole
        self.w = w
        self.code = gablab.code.load_code_spec(os.path.join(workdir, "spec.txt"))
        self.words = [self.code.word(ws) for ws in inputs["words"]]
        self.cache_fill_s = 0.0
        if w.kind == "oracle":
            t = time.perf_counter_ns()
            gablab.code.dist_to_code_exhaustive(self.code, self.code.word(inputs["warm"]),
                                                w.metric)
            self.cache_fill_s = (time.perf_counter_ns() - t) / 1e9

    def call(self, word):
        if self.w.kind == "search":
            res = self.deephole.distance_by_search(self.code, word, self.w.metric)
            wit = None if res.witness is None else [g.code for g in res.witness.gens]
            return res.distance, wit
        d, msg = self.code_mod.dist_to_code_exhaustive(self.code, word, self.w.metric)
        return d, list(msg.codes)

    def one_pass(self, tag: str, ticker: calib.Ticker | None = None,
                 deadline_ns: int = 0) -> dict:
        """Every word once, then more whole passes while the deadline
        allows, so every run has the same mix of words."""
        import gabtrace
        t = gabtrace.tracer()
        wall, answers = [], []
        i = 0
        while i % len(self.words) or i == 0 or time.perf_counter_ns() < deadline_ns:
            idx = i % len(self.words)
            t.op = idx
            frame = t.enter("op")
            ref = ticker.ns if ticker else 0
            t0 = time.perf_counter_ns()
            try:
                d, wit = self.call(self.words[idx])
                answers.append([idx, d, wit, None])
            except (ValueError, ArithmeticError, AssertionError) as exc:
                answers.append([idx, None, None, repr(exc)])
            wall.append(time.perf_counter_ns() - t0 - ((ticker.ns - ref) if ticker else 0))
            t.exit(frame)
            i += 1
        return {"wall_ns": wall, "ops": len(wall), "answers": answers}


def _micro(w, spec, seed) -> dict:
    """ns per call of the field operations on the workload's own route."""
    import gablab.code
    ctx = gablab.code.load_code_spec(spec).ctx
    rng = random.Random(f"{w.name}/{seed}/micro")
    pairs = [(rng.randrange(1, ctx.order), rng.randrange(1, ctx.order))
             for _ in range(MICRO_PAIRS)]
    ctx.mul(1, 1)  # build the tables on routes that have them
    xs = [a for a, _ in pairs]
    out = {}
    for name, batch in (("mul", lambda: deque(starmap(ctx.mul, pairs), maxlen=0)),
                        ("add", lambda: deque(starmap(ctx.add, pairs), maxlen=0)),
                        ("frob", lambda: deque(map(ctx.frob, xs), maxlen=0))):
        times = []
        for _ in range(MICRO_BATCHES):
            t = time.perf_counter_ns()
            batch()
            times.append((time.perf_counter_ns() - t) / len(pairs))
        out[name] = statistics.median(times)
    return out


def main(argv) -> int:
    mode, workdir, name, t0_ns = argv[1], argv[2], argv[3], int(argv[4])
    w = WORKLOADS[name]
    with open(os.path.join(workdir, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)
    runner = (Census if w.kind == "census" else WordLoop)(w, workdir, inputs)
    setup_s = (time.monotonic_ns() - t0_ns) / 1e9
    import gabtrace  # the span hooks, inert until installed
    result = {"setup_s": setup_s, "cache_fill_s": getattr(runner, "cache_fill_s", 0.0)}
    if mode == "run":
        ticker = calib.Ticker()
        ticker.start()
        try:
            if w.kind == "census":
                result["passes"] = [runner.one_pass("run", ticker)]
            else:
                deadline = time.perf_counter_ns() + int(float(argv[5]) * 1e9)
                result["passes"] = [runner.one_pass("run", ticker, deadline)]
        finally:
            ticker.stop()
        result["ref_ns"], result["ref_chunks"] = ticker.ns, ticker.chunks
    elif mode == "trace":
        result["untraced"] = runner.one_pass("plain")
        gabtrace.install()
        tr = gabtrace.reset(class_ops=(w.kind == "census"))
        try:
            result["traced"] = runner.one_pass("traced")
        finally:
            gabtrace.uninstall()
        with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump(tr.dump(), fh)
        result["micro_ns"] = _micro(w, os.path.join(workdir, "spec.txt"), inputs["seed"])
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
