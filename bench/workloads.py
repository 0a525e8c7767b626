"""The benchmark's workloads: seeded inputs and the checks on every answer.

Each workload is one process with one client.  Its seed picks the
evaluation points and the words; the program under test receives only the
spec file and the words written here.  Why each workload exists is in
BENCHMARK.json and, layer by layer, in model.json.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass

from gf import GF2m, f2_coords, f2_rank, fp_rank, random_independent


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "census", "search" or "oracle"
    p: int
    modulus: tuple[int, ...]  # degree-0 coefficient first; s = 1 throughout
    n: int
    k: int
    metric: str
    words: int = 0            # words in one pass of a closed loop
    planted: int = 0          # of those, words with a known distance

    @property
    def m(self) -> int:
        return len(self.modulus) - 1

    @property
    def order(self) -> int:
        return self.p ** self.m

    @property
    def classes(self) -> int:
        return self.order ** (self.n - self.k)


WORKLOADS = {w.name: w for w in (
    # GF(2^4), n = m = 4, k = 1: all 4096 classes, rank metric, one process.
    Workload("census-rank", "census", 2, (1, 1, 0, 0, 1), 4, 1, "rank"),
    # GF(2^17) is above gablab's table limit, so arithmetic takes the direct route.
    Workload("search-bigfield", "search", 2, (1, 0, 0, 1) + (0,) * 13 + (1,), 5, 1,
             "rank", words=100, planted=20),
    # GF(3^4), n = m = 4, k = 2: 6561 codewords per oracle call.
    Workload("oracle-odd", "oracle", 3, (2, 1, 0, 0, 1), 4, 2, "rank", words=20),
)}

def spec_text(w: Workload, points) -> str:
    return "\n".join([
        f"# benchmark workload {w.name}",
        f"p={w.p}", "s=1", f"m={w.m}",
        "modulus=" + ",".join(map(str, w.modulus)),
        f"n={w.n}", f"k={w.k}",
        "g=" + ",".join(map(str, points)),
    ]) + "\n"


def make_inputs(w: Workload, seed: int) -> dict:
    """Points and words for one seed; the same seed gives the same inputs."""
    rng = random.Random(f"{w.name}/{seed}")
    if w.p == 2:
        rank = f2_rank
    else:
        rank = lambda codes: fp_rank(codes, w.p, w.m)
    points = random_independent(rng, w.order, w.n, rank)
    inputs = {"workload": w.name, "seed": seed, "points": points,
              "words": [], "planted": {}}
    if w.kind == "search":
        gf = GF2m(w.modulus)
        planted_at = set(rng.sample(range(w.words), w.planted))
        for i in range(w.words):
            if i not in planted_at:
                inputs["words"].append([rng.randrange(w.order) for _ in range(w.n)])
                continue
            # A codeword plus an error of rank r < d_min / 2, so the
            # distance is exactly r.  Ranks 1 and 2 alternate, so every
            # seed has the same mix of distances.
            a = rng.randrange(w.order)
            r = 1 + len(inputs["planted"]) % 2
            betas = random_independent(rng, w.order, r, f2_rank)
            while True:
                err = []
                for _ in range(w.n):
                    e = 0
                    for b in betas:
                        if rng.getrandbits(1):
                            e ^= b
                    err.append(e)
                if f2_rank(err) == r:
                    break
            inputs["words"].append([gf.mul(a, g) ^ e for g, e in zip(points, err)])
            inputs["planted"][str(i)] = r
    elif w.kind == "oracle":
        for _ in range(w.words + 1):
            inputs["words"].append([rng.randrange(w.order) for _ in range(w.n)])
        # The extra word fills the codeword cache during set-up.
        inputs["warm"] = inputs["words"].pop()
    return inputs


def write_inputs(w: Workload, inputs: dict, workdir: str) -> None:
    with open(os.path.join(workdir, "spec.txt"), "w", encoding="utf-8") as fh:
        fh.write(spec_text(w, inputs["points"]))
    with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh)


# ---------------------------------------------------------------------------
# Checks.  Each returns (attempted, failed) over operations: classes times
# census commands, or answered words.  The oracle and search callbacks run
# gablab's exhaustive routes; the rest uses this benchmark's own arithmetic.


def class_coeffs(w: Workload, idx: int) -> list[int]:
    coeffs = [0] * w.k
    for _ in range(w.n - w.k):
        idx, c = divmod(idx, w.order)
        coeffs.append(c)
    return coeffs


def _census_row_ok(w: Workload, points, idx: int, row) -> bool:
    """Every check on one CSV row that needs no oracle."""
    n, k = w.n, w.k
    coeffs = class_coeffs(w, idx)
    try:
        cid, cf, metric, dist, deep, wit = row
        d = int(dist)
        wit = [int(x) for x in wit.split(",")] if wit else []
    except ValueError:
        return False
    if (cid != str(idx) or cf != ",".join(map(str, coeffs)) or metric != w.metric
            or deep != ("true" if d == n - k else "false")):
        return False
    if idx == 0:
        return d == 0 and not wit
    deg = max(i for i, c in enumerate(coeffs) if c)
    if not (max(1, n - deg) <= d <= n - k and len(wit) == n - d):
        return False
    # The witness spans a t-dimensional subspace of the point span.
    return (f2_rank(wit) == len(wit)
            and all(f2_coords(u, points) is not None for u in wit))


def _csv_rows(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    header = ["class_id", "coeffs", "metric", "distance", "is_deep_hole", "witness"]
    if not rows or rows[0] != header:
        return []
    return rows[1:]


def check_census(w: Workload, inputs: dict, texts: list[str], oracle) -> tuple[int, int]:
    """texts are the CSV outputs of the census commands of one run, all from
    the same inputs; oracle(word) gives the exhaustive distance, which every
    class is checked against."""
    assert w.p == 2 and w.metric == "rank", "the checks below are for q = 2, rank metric"
    gf = GF2m(w.modulus)
    points = inputs["points"]
    total = w.classes
    rows0 = _csv_rows(texts[0])
    bad0 = {i for i in range(total)
            if i >= len(rows0) or not _census_row_ok(w, points, i, rows0[i])}
    for i in range(total):
        if i in bad0:
            continue
        word = [gf.eval_linearized(class_coeffs(w, i), g) for g in points]
        if oracle(word) != int(rows0[i][3]):
            bad0.add(i)
    failed0 = len(bad0) + (total if len(rows0) > total else 0)
    failed = min(failed0, total)
    for text in texts[1:]:
        if text == texts[0]:
            failed += min(failed0, total)
            continue
        rows = _csv_rows(text)
        failed += min(total, sum(1 for i in range(total)
                                 if i in bad0 or i >= len(rows) or rows[i] != rows0[i])
                      + (total if len(rows) > total else 0))
    return total * len(texts), failed


def check_search(w: Workload, inputs: dict, answers) -> tuple[int, int]:
    """answers: (word index, distance, witness generator codes or None, error).

    The codeword rebuilt from the witness must sit at exactly the reported
    rank distance, and planted words must report their planted rank."""
    assert w.p == 2 and w.k == 1, "the rebuild below is for q = 2, k = 1"
    gf = GF2m(w.modulus)
    points, n = inputs["points"], w.n
    failed = 0
    for idx, d, wit, err in answers:
        word = inputs["words"][idx]
        planted = inputs["planted"].get(str(idx))
        if err is not None or (planted is not None and d != planted):
            failed += 1
            continue
        if wit is None:
            # Distance 0: the word itself must be a codeword a * g.
            if d != 0:
                failed += 1
                continue
            u, fu = points[0], word[0]
        else:
            if (len(wit) != n - d or not wit or f2_rank(wit) != len(wit)
                    or any(f2_coords(u, points) is None for u in wit)):
                failed += 1
                continue
            # The word's interpolant f is F_2-linear on the point span, so
            # f(u) is the XOR of the word entries u's coordinates select.
            u, fu = wit[0], 0
            for bit, entry in zip(f2_coords(u, points), word):
                if bit:
                    fu ^= entry
        a = gf.mul(fu, gf.inv(u))
        if f2_rank([x ^ gf.mul(a, g) for x, g in zip(word, points)]) != d:
            failed += 1
    return len(answers), failed


def check_oracle(w: Workload, inputs: dict, answers, search) -> tuple[int, int]:
    """answers: (word index, distance, witness message codes, error);
    search(word) gives the witness-search distance."""
    expected: dict[int, int] = {}
    failed = 0
    for idx, d, _msg, err in answers:
        if idx not in expected:
            expected[idx] = search(inputs["words"][idx])
        if err is not None or d != expected[idx]:
            failed += 1
    return len(answers), failed
