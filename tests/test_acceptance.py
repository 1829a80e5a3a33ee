"""Acceptance suite: one test per exit criterion.

Each criterion runs its ``verify-all`` checks at the criterion's own sizes
and prints a single PASS/FAIL line: the checks' details and the runtime
against the stated budget.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they complete.
"""

import itertools
import time

from depthsep import harness


def finish(name: str, t0: float, budget_s: float, ok: bool, detail: str) -> None:
    elapsed = time.time() - t0
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"{status}  {name}  [{elapsed:.1f}s / budget {budget_s:.0f}s]  {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget_s, f"{name}: runtime {elapsed:.1f}s over budget {budget_s}s"


def criterion(name: str, budget_s: float, *checks: tuple) -> None:
    """Run each (check name, seed, sizes) of ``checks`` and print one line."""
    t0 = time.time()
    try:
        ok, detail = True, "; ".join(harness._CHECKS[check](seed, **sizes)["detail"] for check, seed, sizes in checks)
    except AssertionError as exc:  # a check's failure; any other error propagates with its traceback
        ok, detail = False, str(exc)
    finish(name, t0, budget_s, ok, detail)


def test_criterion_01_exact_depth3_network():
    criterion("criterion 1: exact depth-3 network (d=1..4)", 60,
              ("exact-net", 1000, {"ds": (1, 2, 3, 4), "n_samples": 100_000}))


def test_criterion_02_generic_depth3_builder():
    criterion("criterion 2: generic depth-3 builder (relu approximator)", 300,
              ("generic-net", 2000, {"ds": (1, 2, 3), "eps_grid": (0.5, 0.1, 0.05), "n_samples": 100_000}))


def test_criterion_03_scalar_threshold_compiler():
    criterion("criterion 3: scalar threshold compiler (relu, delta=0.01)", 60,
              ("compiler-scalar", 3, {}))


def test_criterion_04_network_threshold_compiler():
    criterion("criterion 4: network threshold compiler (20 nets, delta=0.05)", 120,
              ("compiler-network", 37, {"n_nets": 20}))


def test_criterion_05_ip_preservation():
    criterion("criterion 5: parity preservation of the randomization", 60,
              ("ip-preservation", 5, {"per_d": 166_667}))


def test_criterion_06_l2_norm_oracle():
    criterion("criterion 6: exact L2-norm oracle vs 64 * 4^-(4d+D)", 600,
              ("l2", 6, {}))


def test_criterion_07_multinomial_ratio_bound():
    criterion("criterion 7: multinomial square-ratio bound, all splits", 300,
              ("a1", 7, {"sizes": tuple(itertools.product((4, 8), (4, 8, 12, 16)))}))


def test_criterion_08_mgf_bound():
    criterion("criterion 8: mask-signature MGF bound (every input by type class, d=1..8)", 120,
              ("a2", 8, {}))


def test_criterion_09_trivial_baseline():
    criterion("criterion 9: constant-1/2 baseline loss", 60,
              ("baseline", 900, {"n_seeds": 20, "n_samples": 2000}))


def test_criterion_10_structural_equivalences_and_gradient():
    criterion("criterion 10: structural equivalences and gradient check", 120,
              ("equivalences", 10, {"n_points": 10_000}),
              ("gradient", 10, {"n_in": 6, "width": 5, "n_rows": 32}))


def test_criterion_11_packing_invariants():
    criterion("criterion 11: packing invariants and determinism (d<=5)", 120,
              ("packing", 1100, {"ds": (1, 2, 3, 4, 5)}))
