"""Acceptance gate: one test per shipped criterion, pass/fail line each.

Each test calls the criterion function directly (same seed the CLI
selftest uses), so a failure surfaces the criterion's own assertion
message in the traceback.  The printed PASS lines give the one-line
ledger when run with ``pytest -s`` or ``-v``.
"""

import pytest

from gablab import acceptance


def _run(number: int) -> None:
    title, fn = next((t, f) for n, t, f in acceptance.CRITERIA if n == number)
    detail = fn(acceptance.rng_for(0, number))
    print(f"acceptance criterion {number}: PASS - {title}: {detail}")


def test_criterion_01_minimum_distance_singleton_bounds():
    _run(1)


def test_criterion_02_covering_radius_scan_vs_raw():
    _run(2)


def test_criterion_03_degree_bound_and_equality_witnesses():
    _run(3)


def test_criterion_04_degree_k_classes_all_deep_and_counted():
    _run(4)


def test_criterion_05_frobenius_shift_family():
    _run(5)


def test_criterion_06_k_eq_n_minus_2_excluded_set():
    _run(6)


def test_criterion_07_k1_odd_m_family():
    _run(7)


def test_criterion_08_binary_quartic_iff_b_zero():
    _run(8)


def test_criterion_09_quadric_census_closed_forms():
    _run(9)


def test_criterion_10_algebra_suite():
    _run(10)


def test_criterion_11_rank_weight_basis_invariance():
    _run(11)


@pytest.mark.parametrize("numbers", [[True], [1.0], [1, True], [2, 1.0]])
def test_run_all_refuses_a_number_that_is_not_an_int(numbers):
    # True == 1.0 == 1, so a set lookup alone would run criterion 1.
    with pytest.raises(ValueError, match="no matching criteria"):
        acceptance.run_all(numbers)


def test_run_all_aggregates_everything():
    results = acceptance.run_all()
    assert [r.number for r in results] == list(range(1, 12))
    assert all(r.passed for r in results), [
        f"criterion {r.number}: {r.detail}" for r in results if not r.passed]
