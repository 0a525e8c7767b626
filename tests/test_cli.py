"""Command-line behavior: output formats, determinism, exit codes."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gablab
from gablab.code import DEFAULT_ORACLE_CAP
from gablab.cli import main
from gablab.deephole import DEFAULT_CLASS_SCAN_CAP, DEFAULT_SUBSPACE_CAP

CODE24 = "p=2\ns=1\nm=4\nn=4\nk=2\ng=1,2,4,8\n"
CODE23 = "p=2\ns=1\nm=3\nn=3\nk=1\ng=1,2,4\n"
CODE4 = "p=2\ns=1\nm=2\nn=2\nk=1\ng=1,2\n"
CODE53 = "p=2\ns=1\nm=5\nn=5\nk=3\ng=1,2,4,8,16\n"


@pytest.fixture
def spec24(tmp_path):
    path = tmp_path / "code24.txt"
    path.write_text(CODE24)
    return str(path)


@pytest.fixture
def spec23(tmp_path):
    path = tmp_path / "code23.txt"
    path.write_text(CODE23)
    return str(path)


@pytest.fixture
def spec4(tmp_path):
    path = tmp_path / "code4.txt"
    path.write_text(CODE4)
    return str(path)


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


# -- documented example outputs ----------------------------------------------------


def test_mindist_prints_bare_value(capsys, spec24):
    status, out, _ = run(capsys, "mindist", "--spec", spec24, "--metric", "rank")
    assert status == 0
    assert out == "3\n"


def test_radius_prints_bare_value(capsys, spec24):
    status, out, _ = run(capsys, "radius", "--spec", spec24, "--metric", "rank")
    assert status == 0
    assert out == "2\n"


def test_classify_zero_word(capsys, spec24):
    status, out, _ = run(capsys, "classify", "--spec", spec24,
                         "--word", "0,0,0,0", "--metric", "rank")
    assert status == 0
    assert out == "distance=0 deep_hole=false\n"


def test_field_reports_parameters(capsys, spec24):
    status, out, _ = run(capsys, "field", "--spec", spec24)
    assert status == 0
    lines = out.splitlines()
    assert "p=2" in lines
    assert "q=2" in lines
    assert "order=16" in lines
    assert "modulus=1,1,0,0,1" in lines
    assert "g=1,2,4,8" in lines


@pytest.mark.parametrize("p,m", [(2305843009213693951, 1), (2, 100000)],
                         ids=["p=2^61-1", "m=100000"])
def test_oversized_tower_fails_fast(tmp_path, p, m):
    # The cap is checked on p and s*m before any primality test or power.
    # Trial division of 2^61 - 1 ran past 10 s, and a message with the
    # 30,103-digit order 2^100000 hit the int-to-str digit limit.  The
    # command runs in a child process, so a hang ends at the timeout.
    spec = tmp_path / "big.txt"
    spec.write_text(f"p={p}\ns=1\nm={m}\nn=1\nk=1\ng=1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gablab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "gablab.cli", "field", "--spec", str(spec)],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: field order {p}^{m} exceeds the cap 16777216\n"


def test_encode_frozen_gf4(capsys, spec4):
    status, out, _ = run(capsys, "encode", "--spec", spec4, "--poly", "2")
    assert status == 0
    assert out == "2,3\n"


def test_dist_frozen_gf4(capsys, spec4):
    status, out, _ = run(capsys, "dist", "--spec", spec4, "--word", "1,1",
                         "--metric", "hamming")
    assert status == 0
    assert out == "distance=1 witness=1\n"
    status, out, _ = run(capsys, "dist", "--spec", spec4, "--word", "1,1",
                         "--metric", "rank")
    assert out == "distance=1 witness=0\n"  # zero message, padded to k


def test_search_reports_bound_and_witness(capsys, spec23):
    # 1,4,6 is the value word of x^q: a degree-k class, hence a deep hole.
    status, out, _ = run(capsys, "search", "--spec", spec23, "--word", "1,4,6",
                         "--metric", "rank")
    assert status == 0
    fields = dict(tok.split("=") for tok in out.split())
    assert fields["distance"] == "2"
    assert fields["deep_hole"] == "true"
    assert fields["bound"] == "2"


@pytest.mark.parametrize("metric,word,cap,expected", [
    # Level 4 has [5,4]_2 = 31 subspaces; level 3's 155 are not walked.
    ("rank", "7,7,1,2,30", "100", "distance=2 bound=1 deep_hole=true witness=1,2,4\n"),
    # Level 4 has C(5,4) = 5 subsets; level 3's 10 are not walked.
    ("hamming", "1,3,5,7,11", "5", "distance=2 bound=1 deep_hole=true witness=0,1,2\n"),
], ids=["rank", "hamming"])
def test_search_cap_skips_the_level_k_witness(capsys, tmp_path, metric, word, cap, expected):
    spec = tmp_path / "code53.txt"
    spec.write_text(CODE53)
    for extra in ((), ("--cap", cap)):
        status, out, err = run(capsys, "search", "--spec", str(spec), "--metric", metric,
                               "--word", word, *extra)
        assert (status, out, err) == (0, expected, "")


@pytest.mark.parametrize("cap,expected", [
    # Level 3 (k + 1) holds [8,3]_2 = 97,155 subspaces and accepts; the
    # decoding rung then settles the word, so level 4's 200,787 are never
    # walked and never held to the cap.
    ("100000", (0, "distance=1 bound=1 deep_hole=false witness=33,2,36,8,16,64,128\n", "")),
    ("97154", (1, "", "error: 97155 candidate subspaces exceed the subspace cap 97154;"
                      " raise the cap to proceed\n")),
], ids=["above-level-3", "below-level-3"])
def test_search_cap_holds_only_the_levels_walked(capsys, tmp_path, cap, expected):
    # GF(2^17), n = 8, k = 2: a codeword plus an error of rank 1.
    spec = tmp_path / "code17n8.txt"
    spec.write_text("p=2\ns=1\nm=17\nn=8\nk=2\ng=1,2,4,8,16,32,64,128\n")
    assert run(capsys, "search", "--spec", str(spec), "--metric", "rank", "--word",
               "1004,1996,4051,7808,14720,24835,35328,13312", "--cap", cap) == expected


def test_search_and_dist_agree(capsys, spec24):
    for word in ("1,2,3,4", "9,0,0,1", "15,15,15,15"):
        _, out_d, _ = run(capsys, "dist", "--spec", spec24, "--word", word)
        _, out_s, _ = run(capsys, "search", "--spec", spec24, "--word", word)
        d_oracle = out_d.split()[0]
        d_search = out_s.split()[0]
        assert d_oracle == d_search


# -- census ---------------------------------------------------------------------------


def test_census_header_and_shape(capsys, spec23):
    status, out, _ = run(capsys, "census", "--spec", spec23, "--metric", "rank")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "class_id,coeffs,metric,distance,is_deep_hole,witness"
    assert len(lines) == 65  # header + 64 classes
    assert lines[1].startswith('0,"0,0,0",rank,0,false')
    deep = [ln for ln in lines[1:] if ",true," in ln]
    assert len(deep) == 14


def test_census_byte_identical_across_jobs(capsys, spec23):
    _, one, _ = run(capsys, "census", "--spec", spec23, "--jobs", "1")
    _, two, _ = run(capsys, "census", "--spec", spec23, "--jobs", "2")
    assert one == two


def test_census_out_file(capsys, tmp_path, spec23):
    target = tmp_path / "census.csv"
    status, out, _ = run(capsys, "census", "--spec", spec23, "--out", str(target))
    assert status == 0
    assert out == ""
    _, stdout_version, _ = run(capsys, "census", "--spec", spec23)
    assert target.read_text() == stdout_version


# Leading 16 hex digits of the sha256 of ``gab census`` stdout, pinned so
# that every column (the witness included) stays byte-identical.
GOLDEN_CENSUS = {
    "gf8": ("p=2\ns=1\nm=3\nn=3\nk=1\ng=1,2,4\n",
            {"rank": "49b15e44153b54f2", "hamming": "1fb0e2a0ca68fbc1"}),
    "gf16": ("p=2\ns=1\nm=4\nn=4\nk=2\ng=1,2,4,8\n",
             {"rank": "944ab89f66dd129b", "hamming": "b45b8845ddd7b806"}),
    "gf27": ("p=3\ns=1\nm=3\nn=3\nk=1\ng=1,3,9\n",
             {"rank": "a02c7aeb442b7006", "hamming": "42eb4d56da425b24"}),
    "tower16": ("p=2\ns=2\nm=2\nn=2\nk=1\ng=1,4\n",
                {"rank": "2249b8471979dc81", "hamming": "5a7b3bbeecf1a37b"}),
    # k >= 2 outside GF(16): the descent's acceptance at levels t > k.
    "gf32k3": ("p=2\ns=1\nm=5\nn=5\nk=3\ng=1,2,4,8,16\n",
               {"rank": "febca9cb0492f7c2", "hamming": "56b8ff906b4d3b52"}),
    "gf81k2": ("p=3\ns=1\nm=4\nn=4\nk=2\ng=1,3,9,27\n",
               {"rank": "43d757f07e919952", "hamming": "aabe49b351f7eaca"}),
    "tower64k2": ("p=2\ns=2\nm=3\nn=3\nk=2\ng=1,4,16\n",
                  {"rank": "2eb4adddc674cf39", "hamming": "eb73f8c81f684e7b"}),
    # Three class digits (n - k = 3), with n = m and with n < m.
    "gf16k1": ("p=2\ns=1\nm=4\nn=4\nk=1\ng=1,2,4,8\n",
               {"rank": "622004fc7dcb3f41", "hamming": "1c2143094688a642"}),
    "gf32n4k1": ("p=2\ns=1\nm=5\nn=4\nk=1\ng=1,2,4,8\n",
                 {"rank": "4fd1f6445e8387b2", "hamming": "c1b52f9c0a64e2a4"}),
}


@pytest.mark.parametrize("metric", ["rank", "hamming"])
@pytest.mark.parametrize("name", sorted(GOLDEN_CENSUS))
def test_census_matches_golden_digest(capsys, tmp_path, name, metric):
    text, digests = GOLDEN_CENSUS[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    status, out, _ = run(capsys, "census", "--spec", str(path), "--metric", metric)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digests[metric]


def test_census_out_keeps_no_whole_output(tmp_path):
    # 32,768 classes from 1,057 units: rows go to the file as they are
    # expanded from the sieve's blocks, so the peak must not grow with the
    # class count (a list of the rows alone would exceed the bound).
    path = tmp_path / "gf32n4k1.txt"
    path.write_text(GOLDEN_CENSUS["gf32n4k1"][0])
    target = tmp_path / "census.csv"
    tracemalloc.start()
    try:
        status = main(["census", "--spec", str(path), "--out", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert target.read_text().count("\n") == 1 + 32 ** 3
    assert peak < 2 << 20


# -- family / quadric -------------------------------------------------------------------


def test_family_csv_line(capsys, spec24):
    status, out, _ = run(capsys, "family", "--spec", spec24, "frobenius_shift",
                         "--low", "3,7")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "family,params,predicted,observed,agree"
    assert lines[1] == 'frobenius_shift,"low=3,7",deep_hole,deep_hole,true'


def test_family_hypothesis_violation_exits_1(capsys, spec23):
    status, _, err = run(capsys, "family", "--spec", spec23, "k_eq_n_minus_2")
    assert status == 1
    assert "error:" in err


@pytest.mark.parametrize("kind,extra,named", [
    ("k1_odd_m", ("--low", "3", "--a", "5", "--b", "7"), "a, b, low"),
    ("frobenius_shift", ("--a", "5", "--b", "3", "--c", "2"), "a, b, c"),
], ids=["k1_odd_m", "frobenius_shift"])
def test_family_rejects_parameters_its_kind_does_not_take(capsys, spec23, kind, extra, named):
    status, out, err = run(capsys, "family", "--spec", spec23, kind, *extra)
    assert (status, out) == (1, "")
    assert err == f"error: {kind} family does not take {named}\n"


def test_quadric_count_and_solutions(capsys, spec23):
    status, out, _ = run(capsys, "quadric", "--spec", spec23, "--b", "5")
    assert status == 0
    assert out == "7\n"
    status, out, _ = run(capsys, "quadric", "--spec", spec23, "--b", "5",
                         "--solutions")
    lines = out.splitlines()
    assert lines[0] == "7"
    assert len(lines) == 7  # count line + 6 distinct-coordinate pairs
    for ln in lines[1:]:
        c1, c2 = ln.split(",")
        assert c1 != c2


REACH = "p=2\ns=1\nm=5\nn=5\nk=1\ng=1,2,4,8,16\nmodulus=1,0,1,0,0,1\n"


@pytest.mark.parametrize("argv", [
    ("family", "k1_odd_m", "--c", "32"),
    ("family", "binary_quartic", "--b", "32"),
    ("quadric", "--b", "32"),
], ids=["k1_odd_m-c", "binary_quartic-b", "quadric-b"])
def test_out_of_range_parameter_code_exits_1(capsys, tmp_path, argv):
    spec = tmp_path / "reach.txt"
    spec.write_text(REACH)
    status, out, err = run(capsys, *argv, "--spec", str(spec))
    assert (status, out) == (1, "")
    assert err == "error: code 32 out of range for FieldCtx(p=2, s=1, m=5)\n"


# -- selftest ------------------------------------------------------------------------------


def test_selftest_subset_passes(capsys):
    status, out, _ = run(capsys, "selftest", "9")
    assert status == 0
    assert out.startswith("criterion 9: PASS")


# sha256 of the whole ``gab selftest`` stdout, pinned so that every
# criterion line stays identical.  The lines report counts, not the seeded
# draws, so both seeds print the same text.
SELFTEST_DIGEST = "541da218f3d282748b9873a8a063e0391cbbf9fa061587956803dff67ad04162"


@pytest.mark.parametrize("extra", [[], ["--seed", "1"]], ids=["seed0", "seed1"])
def test_selftest_output_matches_pinned_digest(capsys, extra):
    status, out, _ = run(capsys, "selftest", *extra)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_DIGEST


def test_only_selftest_imports_the_acceptance_suite():
    # A fresh interpreter: other tests have imported gablab.acceptance here.
    src = str(Path(gablab.__file__).resolve().parents[1])
    probe = ("import sys, gablab.cli; "
             "print('gablab.acceptance' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "False\n"


def test_selftest_unknown_number(capsys):
    status, out, err = run(capsys, "selftest", "99")
    assert status == 1
    assert "no matching criteria" in err


def test_selftest_rejects_an_unknown_number_among_known_ones(capsys):
    status, out, err = run(capsys, "selftest", "9", "99", "0")
    assert (status, out) == (1, "")
    assert err == "error: no matching criteria: 0, 99\n"


# -- exit codes ------------------------------------------------------------------------------


def test_usage_errors_exit_2(capsys, spec24):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "mindist")[0] == 2  # --spec required
    assert run(capsys, "mindist", "--spec", spec24, "--metric", "taxicab")[0] == 2
    assert run(capsys, "family", "--spec", spec24, "unknown_kind")[0] == 2


def test_domain_errors_exit_1(capsys, tmp_path, spec24):
    status, _, err = run(capsys, "mindist", "--spec", str(tmp_path / "missing.txt"))
    assert status == 1
    assert "error:" in err
    status, _, err = run(capsys, "classify", "--spec", spec24, "--word", "1,2")
    assert status == 1
    assert "expected 4 entries" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("p=2\ns=1\nm=3\nn=3\nk=1\ng=1,2,3\n")  # dependent points
    status, _, err = run(capsys, "mindist", "--spec", str(bad))
    assert status == 1
    status, _, err = run(capsys, "encode", "--spec", spec24, "--poly", "1,2,3")
    assert status == 1  # degree >= k
    status, _, err = run(capsys, "classify", "--spec", spec24, "--word", "1,2,x,4")
    assert status == 1
    assert "malformed code list" in err


def test_cap_override_flows_through(capsys, spec24):
    status, _, err = run(capsys, "radius", "--spec", spec24, "--cap", "10")
    assert status == 1
    assert "exceed the scan cap" in err
    status, out, _ = run(capsys, "radius", "--spec", spec24, "--cap", "256")
    assert status == 0
    assert out == "2\n"


# Every subcommand, with the default of its --cap (None: it has no --cap).
CAP_DEFAULTS = {
    "field": None, "encode": None,
    "dist": DEFAULT_ORACLE_CAP, "search": DEFAULT_SUBSPACE_CAP,
    "classify": DEFAULT_SUBSPACE_CAP, "mindist": DEFAULT_ORACLE_CAP,
    "radius": DEFAULT_CLASS_SCAN_CAP, "census": DEFAULT_CLASS_SCAN_CAP,
    "family": DEFAULT_SUBSPACE_CAP, "quadric": DEFAULT_CLASS_SCAN_CAP, "selftest": None,
}


def test_help_lists_every_subcommand(capsys):
    status, out, _ = run(capsys, "--help")
    assert status == 0
    assert "{" + ",".join(CAP_DEFAULTS) + "}" in out


@pytest.mark.parametrize("command", list(CAP_DEFAULTS))
def test_help_shows_the_cap_default(capsys, command):
    status, out, _ = run(capsys, command, "--help")
    assert status == 0
    text = " ".join(out.split())
    cap = CAP_DEFAULTS[command]
    if cap is None:
        assert "--cap" not in text
    else:
        assert f"--cap CAP enumeration cap (default: {cap})" in text


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command,extra", [
    ("census", ()),
    ("dist", ("--word", "1,2,3,4")),
])
def test_cap_below_one_is_a_usage_error(capsys, spec24, command, extra, cap):
    status, out, err = run(capsys, command, "--spec", spec24, *extra, "--cap", cap)
    assert status == 2
    assert out == ""
    assert "--cap" in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", ["radius", "census"])
def test_jobs_below_one_is_a_usage_error(capsys, spec24, command, jobs):
    status, out, err = run(capsys, command, "--spec", spec24, "--jobs", jobs)
    assert status == 2
    assert out == ""
    assert "--jobs" in err


def test_internal_error_exits_3(capsys, monkeypatch, spec23):
    def broken(*args, **kwargs):
        raise AssertionError("no multiplicative generator found")

    monkeypatch.setattr("gablab.cli.distance_by_search", broken)
    status, out, err = run(capsys, "search", "--spec", spec23, "--word", "1,2,3")
    assert status == 3
    assert out == ""
    assert err == "internal error: no multiplicative generator found\n"
    assert "Traceback" not in err


def test_spec_key_typo_exits_1(capsys, tmp_path):
    bad = tmp_path / "typo.txt"
    bad.write_text(CODE24 + "modulos=1,1,0,0,1\n")
    status, out, err = run(capsys, "field", "--spec", str(bad))
    assert status == 1
    assert out == ""
    assert "unknown key 'modulos'" in err
