"""Property test: a range column keeps the least and greatest finite values it was fed, in any chunking."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import example, given, settings  # noqa: E402

from puremeasure.quadrature import MAGNITUDE_CAP, _add_values, _Extremes, _range_result  # noqa: E402

# finite values within and beyond the cap, signed zeros, the cap itself, NaN and infinities
special = st.sampled_from([0.0, -0.0, MAGNITUDE_CAP, -MAGNITUDE_CAP, math.nan, math.inf, -math.inf])
values = st.lists(st.one_of(st.floats(-1e6, 1e6, allow_nan=False), special), min_size=1, max_size=400)


@settings(max_examples=300, deadline=None)
@given(values, st.integers(1, 64))
@example([math.nan], 1)  # no finite value: both ends infinite
@example([0.0, -0.0], 1)  # a tie of signed zeros keeps the first
@example([-0.0, 5.0, 0.0], 1)
@example([2000.0, 3.0], 2)  # a value beyond the cap flags its end, which still keeps the extremes
def test_extremes_are_the_finite_min_and_max(vals, chunk):
    arr = np.array(vals)
    ext = _Extremes()
    for start in range(0, arr.size, chunk):
        _add_values(ext, arr[start:start + chunk])
    finite = arr[np.isfinite(arr)]
    nan = bool(np.isnan(arr).any())
    assert ext.below == (nan or bool(np.any(arr < -MAGNITUDE_CAP)))
    assert ext.above == (nan or bool(np.any(arr > MAGNITUDE_CAP)))
    lo, hi = (np.min(finite), np.max(finite)) if finite.size else (-math.inf, math.inf)
    if finite.size:
        assert ext.lo == lo and ext.hi == hi
        if chunk == 1:  # fed one at a time, a tie keeps the first value
            assert repr(ext.lo) == repr(float(finite[finite == lo][0]))
            assert repr(ext.hi) == repr(float(finite[finite == hi][0]))
    result = _range_result(ext, 3)
    assert result.lo == (-math.inf if ext.below else lo) and result.hi == (math.inf if ext.above else hi)
