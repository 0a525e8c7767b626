"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Run from the root of a checkout; it takes a few minutes.  It checks that

1. model.json maps exactly the per-layer metrics of BENCHMARK.json onto
   its end-to-end metrics and workloads;
2. on every workload a real run passes the gate, and the gate fails when
   one reported distance moves by +1 or -1, or when the oracle disagrees;
3. two traced runs of one seed give identical counts; for the census it
   also runs a second seed, requires the same class count and prints every
   count that differs between the seeds.

The exit status is 0 when every check holds.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import random
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS, check_census

COUNT_SUFFIXES = ("_per_op", "accept_ratio", "out_bytes")
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def check_model() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(run.HERE, "model.json"), encoding="utf-8") as fh:
        model = json.load(fh)
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    expect(workloads == set(WORKLOADS), "BENCHMARK.json lists the workloads of workloads.py")
    expect(set(model["end_to_end"]) == e2e, "model.json describes every end-to-end metric")
    expect(list(model["per_layer"]) == [m["name"] for m in bench["per_layer"]],
           "model.json maps every per-layer metric of BENCHMARK.json, in order")
    expect(set(model["operation"]) == workloads, "model.json names each workload's operation")
    refs_ok = all(mv["metric"] in e2e and set(mv["workloads"]) <= workloads
                  and set(e["flat_on"]) <= workloads
                  for e in model["per_layer"].values() for mv in e["moves"])
    expect(refs_ok, "model.json refers only to declared metrics and workloads")


def _corrupt(w, passes, workdir, delta, rng) -> list[dict]:
    """The passes with one reported distance moved by delta."""
    bad = copy.deepcopy(passes)
    if w.kind != "census":
        j = rng.randrange(len(bad[0]["answers"]))
        bad[0]["answers"][j][1] += delta
        return bad
    idx = rng.randrange(1, w.classes)
    with open(bad[0]["outputs"][0], encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    row = next(csv.reader([lines[idx + 1]]))
    row[3] = str(int(row[3]) + delta)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(row)
    lines[idx + 1] = buf.getvalue()
    path = os.path.join(workdir, f"corrupt{delta:+d}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))
    bad[0]["outputs"] = [path]
    return bad


def check_gate(w, seed: int) -> None:
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        out = run.measure(w, seed, 0.1, False, workdir)
        inputs, passes = out["inputs"], out["result"]["passes"]
        expect(out["failed"] == 0,
               f"{w.name}: a real run passes the gate ({out['attempted']} operations)")
        rng = random.Random(seed)
        for delta in (1, -1):
            _, failed = run._check(w, inputs, workdir, _corrupt(w, passes, workdir, delta, rng))
            expect(failed > 0, f"{w.name}: one distance moved by {delta:+d} fails the gate")
        if w.kind == "census":
            texts = []
            for p in passes:
                with open(p["outputs"][0], encoding="utf-8") as fh:
                    texts.append(fh.read())
            real, calls = _oracle(w, workdir), []

            def wrong_once(word):
                calls.append(word)
                return real(word) + (len(calls) == 1)

            _, failed = check_census(w, inputs, texts, wrong_once)
            expect(failed > 0, f"{w.name}: one oracle disagreement alone fails the gate")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _oracle(w, workdir):
    code_mod, _ = run._program()
    code = code_mod.load_code_spec(os.path.join(workdir, "spec.txt"))
    return lambda word: code_mod.dist_to_code_exhaustive(code, code.word(word), w.metric)[0]


def _traced(w, seed: int) -> dict:
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        out = run.measure(w, seed, 1, True, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    expect(out["failed"] == 0, f"{w.name}: traced run of seed {seed} passes the gate")
    return {k: v for k, v in out["metrics"].items() if k.endswith(COUNT_SUFFIXES)} | {
        "attempted": out["attempted"]}


def check_trace(w, seed: int, other_seed: int) -> None:
    a, b = _traced(w, seed), _traced(w, seed)
    differ = sorted(k for k in a if a[k] != b[k])
    expect(not differ, f"{w.name}: two traced runs of seed {seed} give identical counts"
                       + (f" (differ: {differ})" if differ else ""))
    if w.kind != "census":
        return
    c = _traced(w, other_seed)
    expect(a["attempted"] == c["attempted"],
           f"{w.name}: seeds {seed} and {other_seed} scan the same number of classes")
    for k in sorted(a):
        if a[k] != c[k]:
            print(f"      {k}: seed {seed} {a[k]:.6g}, seed {other_seed} {c[k]:.6g}")


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    check_model()
    for w in WORKLOADS.values():
        check_gate(w, seed=7)
    for w in WORKLOADS.values():
        check_trace(w, seed=3, other_seed=4)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
