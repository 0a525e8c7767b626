"""The gablab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the inputs (evaluation
points and words); fresh processes (child.py) run them against the
program in src/, and this process checks every answer afterwards, untimed.

With --trace 0 the end-to-end metrics of BENCHMARK.json are measured:
several set-up-only processes, then for S seconds either one process per
census command (at least two, so their CSV bytes can be compared) or one
process running a closed word loop.  The times are scaled to the
reference host's speed, measured by calib.py in and around the measuring
processes; the raw figures and the speed are printed as report lines.
With --trace 1 one process runs a fixed pass untraced, then the same pass
traced, and the per-layer metrics come from the trace; a fixed pass makes
every count repeat exactly for one seed.
The spans are kept in bench/.work/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit status is 0 only when every
answer passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calib
from workloads import WORKLOADS, check_census, check_oracle, check_search, make_inputs, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")

SETUP_SAMPLES = 12     # set-up-only processes
SETUP_CALIB_CHUNKS = 60  # reference chunks before and after each of them
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _child(mode: str, workdir: str, name: str, seconds: float | None = None) -> dict:
    argv = [sys.executable, CHILD, mode, workdir, name]
    tail = [] if seconds is None else [str(seconds)]
    proc = subprocess.Popen(argv + [str(time.monotonic_ns())] + tail,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        err = f"timed out after {CHILD_TIMEOUT_S} s"
    finally:
        # The child leads its own session; this also ends anything it left
        # behind, then reaps the child.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    path = os.path.join(workdir, "result.json")
    if proc.returncode != 0 or not os.path.exists(path):
        raise BenchError(f"{mode} process failed: {err.strip()[-2000:]}")
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(path)
    return result


def _program():
    """gablab's exhaustive oracle and witness search, for the checks."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gablab.code
    import gablab.deephole
    return gablab.code, gablab.deephole


def _check(w, inputs: dict, workdir: str, passes: list[dict]) -> tuple[int, int]:
    code_mod, deephole = _program()
    code = code_mod.load_code_spec(os.path.join(workdir, "spec.txt"))
    if w.kind == "census":
        texts = []
        for p in passes:
            if p["rc"] != 0:
                texts.append("")  # no rows: every class of the command fails
                continue
            with open(p["outputs"][0], encoding="utf-8") as fh:
                texts.append(fh.read())
        oracle = lambda word: code_mod.dist_to_code_exhaustive(code, code.word(word), w.metric)[0]
        return check_census(w, inputs, texts, oracle)
    answers = [a for p in passes for a in p["answers"]]
    if w.kind == "search":
        return check_search(w, inputs, answers)
    search = lambda word: deephole.distance_by_search(code, code.word(word), w.metric).distance
    return check_oracle(w, inputs, answers, search)


def end_to_end(w, setups: list[tuple[float, float]], runs: list[dict]) -> tuple[dict, dict]:
    """The gated metrics, and for the report the workload's own figures
    and the raw ones.  The median latency and, where ten samples lie beyond
    it, the 90th percentile are not gated: a median snaps to whichever speed
    most of a run saw, so they move more with the host than the throughput.

    setups holds (raw set-up seconds, host speed around that process);
    each run is one measuring process with its own chunk totals, whose
    speed scales that process's operation times."""
    raw_ms, scaled_ms = [], []
    for r in runs:
        speed = calib.speed(r["ref_ns"], r["ref_chunks"])
        for q in r["passes"]:
            raw_ms += [ns / 1e6 for ns in q["wall_ns"]]
            scaled_ms += [ns / 1e6 * speed for ns in q["wall_ns"]]
    ops = sum(q["ops"] for r in runs for q in r["passes"])
    # Operations (classes, or words of the closed loop) over the time spent
    # on them; a census command's time includes writing its CSV.
    ops_per_s = ops / (sum(scaled_ms) / 1e3)
    raw_ops_per_s = ops / (sum(raw_ms) / 1e3)
    kind, op = ("classes", "command") if w.kind == "census" else ("words", "word")
    named = {f"{kind}_per_s": ops_per_s, f"{op}_p50_ms": statistics.median(scaled_ms)}
    if len(scaled_ms) >= 100:
        named[f"{op}_p90_ms"] = statistics.quantiles(scaled_ms, n=10, method="inclusive")[8]
    named |= {"samples": len(scaled_ms),
              f"raw_{kind}_per_s": raw_ops_per_s,
              "run_host_speed": raw_ops_per_s / ops_per_s,
              "raw_setup_s": statistics.median(s for s, _ in setups),
              "setup_host_speed": statistics.median(v for _, v in setups)}
    return ({"setup_s": statistics.median(s * v for s, v in setups),
             "ops_per_s": ops_per_s,
             "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}, named)


def _setup_sample(workdir: str, name: str) -> tuple[float, float]:
    """One set-up-only process: its set-up time and the host's speed, timed
    by reference chunks in this process just before and just after it."""
    before = calib.time_chunks(SETUP_CALIB_CHUNKS)
    setup_s = _child("setup", workdir, name)["setup_s"]
    after = calib.time_chunks(SETUP_CALIB_CHUNKS)
    return setup_s, calib.speed(before + after, 2 * SETUP_CALIB_CHUNKS)


def per_layer(result: dict, tr: dict) -> dict:
    traced = result["traced"]
    ops = traced["ops"]
    counts, calls = tr["counts"], tr["calls"]
    self_ns, total_ns = tr["self_ns"], tr["total_ns"]
    m = {}
    for op in ("mul", "add", "frob", "pow", "inv", "element"):
        m[f"field.{op}.calls_per_op"] = counts.get(f"field.{op}", 0) / ops
    for op in ("mul", "add", "frob"):
        m[f"field.{op}_ns"] = result["micro_ns"][op]
    for key in ("q_lagrange", "eval", "basis"):
        m[f"linpoly.{key}.calls_per_op"] = calls.get(f"linpoly.{key}", 0) / ops
        m[f"linpoly.{key}.self_us"] = self_ns.get(f"linpoly.{key}", 0) / ops / 1e3
    yielded = counts.get("subspaces.yielded", 0)
    m["subspaces.yielded_per_op"] = yielded / ops
    m["subspaces.self_us"] = self_ns.get("subspaces", 0) / yielded / 1e3 if yielded else 0.0
    m["deephole.classify.self_us"] = self_ns.get("deephole.classify", 0) / ops / 1e3
    m["deephole.levels_per_op"] = counts.get("deephole.levels", 0) / ops
    # The witness candidates are the enumerated subspaces.
    m["deephole.candidates_per_op"] = yielded / ops
    m["deephole.accept_ratio"] = counts.get("deephole.accepted", 0) / yielded if yielded else 0.0
    m["code.oracle.self_ms"] = self_ns.get("code.oracle", 0) / ops / 1e6
    m["code.codewords_per_op"] = counts.get("code.codewords", 0) / ops
    m["code.cache_fill_s"] = result["cache_fill_s"]
    m["code.sigma_inverse.self_us"] = self_ns.get("code.sigma_inverse", 0) / ops / 1e3
    commands = calls.get("cli.main", 0)
    if commands:
        m["cli.render_s"] = (total_ns["cli.main"] - total_ns.get("deephole.scan", 0)) / 1e9 / commands
        m["cli.out_bytes"] = sum(os.path.getsize(o) for o in traced["outputs"]) / commands
    else:
        m["cli.render_s"] = m["cli.out_bytes"] = 0.0
    m["trace.overhead_frac"] = sum(traced["wall_ns"]) / sum(result["untraced"]["wall_ns"]) - 1
    return m


def _meta(seed: int) -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(os.path.join(SRC, "gablab"))):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            with open(os.path.join(dirpath, f), "rb") as fh:
                digest.update(f.encode() + b"\0" + fh.read())
    return {"seed": seed, "git_rev": rev, "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def measure(w, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Make the inputs, run the workload and check it; returns the raw
    results too, so the self-test can corrupt them."""
    inputs = make_inputs(w, seed)
    write_inputs(w, inputs, workdir)
    if trace:
        result = _child("trace", workdir, w.name)
        path = os.path.join(workdir, "trace.json")
        with open(path, encoding="utf-8") as fh:
            tr = json.load(fh)
        shutil.copy(path, os.path.join(WORK, f"trace-{w.name}-{seed}.json"))
        attempted, failed = _check(w, inputs, workdir, [result["untraced"], result["traced"]])
        metrics, named = per_layer(result, tr), {}
    else:
        setups = [_setup_sample(workdir, w.name) for _ in range(SETUP_SAMPLES)]
        runs, start = [], time.monotonic()
        while True:
            t = time.monotonic()
            runs.append(_child("run", workdir, w.name, seconds))
            if w.kind != "census":
                break
            # Start another command only if it should end by the deadline.
            now = time.monotonic()
            if len(runs) >= 2 and now + (now - t) - start > seconds:
                break
        result = {"passes": [p for r in runs for p in r["passes"]]}
        attempted, failed = _check(w, inputs, workdir, result["passes"])
        metrics, named = end_to_end(w, setups, runs)
    return {"inputs": inputs, "result": result, "attempted": attempted,
            "failed": failed, "metrics": metrics, "named": named}


def _declared(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "gablab", "__init__.py")):
        print(f"error: the program is missing; expected src/gablab under {ROOT}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    declared = _declared(bool(args.trace))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=WORK)
    try:
        out = measure(w, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = out["metrics"]
    print(f"# gablab benchmark: workload {w.name}, seed {args.seed}, trace {args.trace}")
    print("meta " + json.dumps(_meta(args.seed)))
    report = {}
    for d in declared:
        report[d["name"]] = {"value": metrics[d["name"]], "unit": d["unit"]}
        print(f"{d['name']} = {metrics[d['name']]:.6g} {d['unit']}")
    for name, value in out["named"].items():
        print(f"  {name} = {value:.6g}")
    print(f"fail_frac = {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']} of {out['attempted']} operations)")
    correct = out["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
