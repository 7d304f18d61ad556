"""The shortcuts of a scalar criterion evaluation change nothing observable.

``moments._real`` returns a finite value of exactly type float at once, and
``moments._as_integer_order`` an int of exactly type int in 0..L_MAX; every
other value takes the full checks.  ``criteria._verdict`` fills a report's
``__dict__`` in one step instead of calling the frozen ``__init__``.  Each
argument below is accepted or rejected as it was before the shortcuts, with
the same exception type, and an accepted one gives the result of the plain
value it stands for, bit for bit.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from touchardstar import (
    ClassParams,
    MembershipReport,
    ParameterError,
    RTauParams,
    TouchardParams,
    TruncatedSeries,
    criterion_value,
    find_threshold,
    lemma_sum_M,
)
from touchardstar.moments import L_MAX, _as_integer_order, _real


class Sub(float):
    pass


P = ClassParams(0.25, 1.2)
RTAU = RTauParams(1.0, 0.5, -0.5)
WHICH = ("M", "N", "rtau", "integral")

# (argument, the plain value it stands for, or None where it is rejected)
ORDERS = [
    (np.float64(2.0), 2), (np.int64(2), 2), (Sub(2.0), 2), (True, None), (-0.0, 0),
    (10**400, None), (math.nan, None), (math.inf, None), (-math.inf, None), ("0.5", None),
]
POINTS = [
    (np.float64(2.0), 2.0), (np.int64(2), 2.0), (Sub(2.0), 2.0), (True, None), (-0.0, None),
    (10**400, None), (math.nan, None), (math.inf, None), (-math.inf, None), ("0.5", None),
]


def outcome(call, *args):
    """The result of ``call(*args)``, or the exact type of what it raised."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def ids(cases):
    return [repr(v) for v, _ in cases]


@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("l, plain", ORDERS, ids=ids(ORDERS))
def test_criterion_value_order(which, l, plain):
    got = outcome(criterion_value, which, l, 0.5, P, RTAU)
    assert got == (ParameterError if plain is None else criterion_value(which, plain, 0.5, P, RTAU))


@pytest.mark.parametrize("which", WHICH)
@pytest.mark.parametrize("m, plain", POINTS, ids=ids(POINTS))
def test_criterion_value_point(which, m, plain):
    got = outcome(criterion_value, which, 2, m, P, RTAU)
    assert got == (ParameterError if plain is None else criterion_value(which, 2, plain, P, RTAU))


@pytest.mark.parametrize("l, plain", ORDERS, ids=ids(ORDERS))
def test_find_threshold_order(l, plain):
    # find_threshold takes no m; its bracket supplies it
    got = outcome(find_threshold, "M", l, P)
    assert got == (ParameterError if plain is None else find_threshold("M", plain, P))


@pytest.mark.parametrize("l, plain", ORDERS, ids=ids(ORDERS))
def test_touchard_params_order(l, plain):
    got = outcome(TouchardParams, l, 0.5)
    if plain is None:
        assert got is ParameterError
    else:
        assert got.l is l and got.integer_order == plain and type(got.integer_order) is int


@pytest.mark.parametrize("m, plain", POINTS, ids=ids(POINTS))
def test_touchard_params_point(m, plain):
    got = outcome(TouchardParams, 2, m)
    if plain is None:
        assert got is ParameterError
    else:
        assert type(got.m) is float and got.m == plain


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_real_fast_path_matches_full_checks(x):
    # a float subclass takes the full checks
    assert repr(_real(x)) == repr(_real(Sub(x)))
    assert type(_real(x)) is float


@given(st.integers(-5, L_MAX + 5))
def test_integer_order_fast_path_matches_full_checks(n):
    # a numpy integer or a float takes the full checks
    for slow in (np.int64(n), float(n)):
        got, want = outcome(_as_integer_order, n), outcome(_as_integer_order, slow)
        assert got == want and type(got) is type(want)


def test_bool_orders_take_the_full_checks():
    assert outcome(_as_integer_order, True) is ParameterError
    assert outcome(_as_integer_order, False) is ParameterError


class TestReport:
    """A report built by one ``__dict__`` fill behaves as one built by ``__init__``."""

    @pytest.fixture(params=["closed_form", "coefficient_sum"])
    def pair(self, request):
        if request.param == "closed_form":
            fast = criterion_value("N", 3, 0.7, P)
        else:
            fast = lemma_sum_M(TruncatedSeries([1.0, 0.1, 0.05]), P)
        return fast, MembershipReport(fast.criterion_value, fast.bound, fast.member,
                                      fast.method, fast.detail)

    def test_equal_and_hash(self, pair):
        fast, ref = pair
        assert fast == ref and hash(fast) == hash(ref) and repr(fast) == repr(ref)
        assert type(fast.member) is bool and type(fast.criterion_value) is float

    def test_dict_and_key_order(self, pair):
        fast, ref = pair
        assert list(fast.to_dict().items()) == list(ref.to_dict().items())
        assert list(vars(fast).items()) == list(vars(ref).items())
        assert dataclasses.asdict(fast) == dataclasses.asdict(ref)

    def test_frozen(self, pair):
        fast, _ = pair
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.member = not fast.member
        with pytest.raises(dataclasses.FrozenInstanceError):
            del fast.bound

    def test_replace_and_pickle(self, pair):
        fast, ref = pair
        assert dataclasses.replace(fast, detail="x") == dataclasses.replace(ref, detail="x")
        assert pickle.loads(pickle.dumps(fast)) == ref
