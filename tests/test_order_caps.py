"""Each closed-form criterion caps the order l it takes, and says so.

The Stirling table stops at L_MAX = 64.  M, integral and rtau read moments
up to order l + 1, so they take l <= 63; N reads l + 2 and takes l <= 62.
An order past the cap is an OrderTooLarge (a ParameterError: exit 2, sweep
status ``invalid_params``) whose message names the order the caller gave
and the cap, not the shifted order the closed form would have read.
"""

import math

import pytest

from touchardstar import (
    ClassParams,
    OrderTooLarge,
    RTauParams,
    TouchardParams,
    criterion_value,
    find_threshold,
    sweep,
    theorem_integral_operator,
    theorem_M_lhs,
    theorem_N_lhs,
    theorem_rtau_inclusion,
)
from touchardstar.cli import main
from touchardstar.criteria import CRITERIA

P = ClassParams(0.0, 1.2)
RTAU = RTauParams(1.0, 0.5, -0.5)
CAPS = {"M": 63, "N": 62, "integral": 63, "rtau": 63}
THEOREMS = {
    "M": lambda tp: theorem_M_lhs(tp, P),
    "N": lambda tp: theorem_N_lhs(tp, P),
    "integral": lambda tp: theorem_integral_operator(tp, P),
    "rtau": lambda tp: theorem_rtau_inclusion(tp, P, RTAU),
}


def message(l, cap):
    return rf"^order l={l} exceeds {cap}, the largest criterion "


def test_table_lists_the_caps():
    assert {w: c.max_l for w, c in CRITERIA.items()} == CAPS


@pytest.mark.parametrize("which, cap", CAPS.items())
def test_cap_is_accepted(which, cap):
    assert math.isfinite(criterion_value(which, cap, 0.5, P, RTAU).criterion_value)
    assert math.isfinite(THEOREMS[which](TouchardParams(cap, 0.5)).criterion_value)


@pytest.mark.parametrize("which, cap", CAPS.items())
@pytest.mark.parametrize("past", [1, 2, 30])
def test_past_the_cap(which, cap, past):
    l = cap + past
    with pytest.raises(OrderTooLarge, match=message(l, cap)):
        criterion_value(which, l, 0.5, P, RTAU)
    with pytest.raises(OrderTooLarge, match=message(l, cap)):
        criterion_value(which, float(l), 0.5, P, RTAU)
    with pytest.raises(OrderTooLarge, match=message(l, cap)):
        find_threshold(which, l, P, RTAU)
    with pytest.raises(OrderTooLarge, match=message(l, cap)):
        THEOREMS[which](TouchardParams(l, 0.5))


@pytest.mark.parametrize("which, cap", CAPS.items())
def test_sweep_rows_past_the_cap_are_invalid(which, cap):
    grid = {"l": [cap, cap + 1], "m": [0.5], "lambda": [0.0], "alpha": [1.2]}
    if which == "rtau":
        grid.update(tau=[1.0], A=[0.5], B=[-0.5])
    assert [row["status"] for row in sweep(which, grid).rows] == ["ok", "invalid_params"]


@pytest.mark.parametrize("argv, l, cap", [
    (["check-theorem", "--which", "N", "--l", "63", "--m", "1"], 63, 62),
    (["check-theorem", "--which", "M", "--l", "64", "--m", "1"], 64, 63),
    (["threshold", "--which", "M", "--l", "64"], 64, 63),
    (["threshold", "--which", "N", "--l", "63"], 63, 62),
])
def test_cli_names_the_given_order(capsys, argv, l, cap):
    code = main([*argv, "--lambda", "0", "--alpha", "1.2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: order l={l} exceeds {cap}, the largest criterion ")
    assert f"l={l + 1}" not in captured.err and f"l={l + 2}" not in captured.err
