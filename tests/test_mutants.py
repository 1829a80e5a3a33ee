"""The mutant table: in-process mutants of the package, each with the
``verify-all`` checks that must kill it.

A mutant is a list of (module, attribute, replacement) patches applied with
``unittest.mock.patch.object``.  Its test runs only the checks listed for
it, and every one of them must fail.  Every check kills at least one
mutant, and every listed check passes unpatched.
"""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest

from depthsep import depth3, instance, networks, reduction, threshold, training
from depthsep.harness import CHECK_NAMES, verify_all

_eval_f, _odd_rows, _l2, _exp, _a1 = (instance.eval_f_batch, reduction._odd_rows, reduction._l2_closed_form,
                                      reduction._exp_bounds, reduction._a1_lhs)
_grads, _constant, _substitute = training.loss_and_gradients, training.constant_network, networks._substitute
_plan_to_network, _absorb, _segment = threshold._plan_to_network, networks.absorb_input_map, threshold._segment_lipschitz
_cube_error, _plan, _reached = threshold.boolean_cube_max_error, threshold.SegmentPlan, threshold._reached
_min_pairwise = instance._min_pairwise


def _scaled_grads(*args):
    loss, g = _grads(*args)
    return loss, training.Depth2Params(*(a * 1.01 for a in g.arrays))


def _substitute_without_out_b(layers, out_w, out_b, hs):
    return _substitute(layers, out_w, out_b, [dataclasses.replace(h, out_b=0.0) for h in hs])


def _plan_with_moved_level(sigma, breakpoints, levels, tolerance, domain):
    moved = levels.copy()
    moved[len(moved) // 2] += 2 * tolerance
    return _plan(sigma, breakpoints, moved, tolerance, domain)


def _exp_scaled(lo_num, hi_num):
    return lambda p, q: (lambda lo, hi, k: (lo * lo_num // 100, hi * hi_num // 100, k))(*_exp(p, q))


MUTANTS = {
    "flipped target": (
        [(instance, "eval_f_batch", lambda d, pts: 1 - _eval_f(d, pts))], ("centers", "exact-net", "generic-net")),
    "both sides in x's block order": (
        [(reduction, "_BLOCK_ORDER", ((True, False, True, False),) * 2)], ("ip-preservation", "ip-certificate")),
    "odd pads kept, even pads redrawn": (
        [(reduction, "_odd_rows", lambda xp, yp: np.setdiff1d(np.arange(len(xp)), _odd_rows(xp, yp)))],
        ("ip-preservation", "ip-certificate", "equivalences")),
    "gradients x 1.01": ([(training, "loss_and_gradients", _scaled_grads)], ("gradient",)),
    "substitution drops h.out_b": (
        [(depth3, "_substitute", _substitute_without_out_b), (threshold, "_substitute", _substitute_without_out_b)],
        ("generic-net",)),
    "halved L2 closed form": (
        [(reduction, "_l2_closed_form", lambda types, D: (lambda v, n: (v / 2, n))(*_l2(types, D)))], ("l2",)),
    "A2 upper exp bounds x 0.3": ([(reduction, "_exp_bounds", _exp_scaled(100, 30))], ("a2",)),
    "constant-half net off by 1e-6": (
        [(training, "constant_network", lambda n, value: _constant(n, value + 1e-6))], ("baseline",)),
    "packing separation 0.3": (
        [(instance, "MIN_PAIRWISE_DISTANCE", 0.3), (instance, "_CLOSE", 0.09 - 1e-9), (instance, "_BAND", 0.09 + 1e-9)],
        ("packing",)),
    "packing separation 0.3, its distance reported x 1.5": (
        [(instance, "MIN_PAIRWISE_DISTANCE", 0.3), (instance, "_CLOSE", 0.09 - 1e-9), (instance, "_BAND", 0.09 + 1e-9),
         (instance, "_min_pairwise", lambda points, block=512: 1.5 * _min_pairwise(points, block))],
        ("packing",)),
    "staircase net bias + 0.02": (
        [(threshold, "_plan_to_network", lambda plan: (lambda net: dataclasses.replace(net, out_b=net.out_b + 0.02))(
            _plan_to_network(plan)))],
        ("compiler-scalar", "compiler-network")),
    "staircase accuracy delta' x 4": (
        [(threshold, "_segment_lipschitz", lambda sigma, domain, delta: _segment(sigma, domain, 4 * delta))],
        ("compiler-network",)),
    "boolean_cube_max_error / 4": (
        [(threshold, "boolean_cube_max_error", lambda net_a, net_b: _cube_error(net_a, net_b) / 4)],
        ("compiler-network",)),
    "largest reached pre-activation dropped": (
        [(threshold, "_reached", lambda W, b: _reached(W, b)[:-1])], ("compiler-network",)),
    "one staircase level moved by 2 delta'": (
        [(threshold, "SegmentPlan", _plan_with_moved_level)], ("compiler-scalar", "compiler-network")),
    "A1 left side x 1.02": ([(reduction, "_a1_lhs", lambda split, D: _a1(split, D) * 102 // 100)], ("a1",)),
    "A1 lower exp bounds x 0.98": ([(reduction, "_exp_bounds", _exp_scaled(98, 100))], ("a1",)),
    "input-map offset dropped": (
        [(networks, "absorb_input_map", lambda net, P, b: _absorb(net, P, np.zeros_like(b)))], ("equivalences",)),
}


def _run(patches, checks):
    with contextlib.ExitStack() as stack:
        for target, name, new in patches:
            stack.enter_context(mock.patch.object(target, name, new))
        return verify_all(seed=0, only=list(checks))


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_killed(name):
    summary = _run(*MUTANTS[name])
    assert [c["name"] for c in summary["checks"] if c["pass"]] == []


def test_every_check_kills_a_mutant():
    assert {check for _, checks in MUTANTS.values() for check in checks} == set(CHECK_NAMES)


def test_listed_checks_pass_unpatched():
    summary = verify_all(seed=0, only=sorted({check for _, checks in MUTANTS.values() for check in checks}))
    assert summary["pass"], [c["name"] for c in summary["checks"] if not c["pass"]]
