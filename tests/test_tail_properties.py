"""Property tests: a range column's kept tails give np.quantile of every value it was fed."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import example, given, settings  # noqa: E402

from puremeasure.quadrature import _add_values, _tail_quantiles, _Tails  # noqa: E402

# x + 0.0 turns -0.0 into 0.0: which of two tied signed zeros np.quantile
# returns depends on its partition, not on the values
finite = st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: x + 0.0)
tied = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])
values = st.lists(st.one_of(finite, tied), min_size=1, max_size=400)


@settings(max_examples=300, deadline=None)
@given(values, st.floats(1e-4, 0.4999), st.integers(1, 64), st.integers(0, 400))
@example([2.5], 0.001, 1, 0)  # n = 1
@example([-0.0], 0.3, 1, 0)  # n = 1 keeps numpy's sign of zero
@example([1.0] * 50 + [3.0] * 50, 0.01, 7, 0)  # ties across the kept rank
@example([float(i % 5) for i in range(300)], 0.2, 1, 0)  # k = 123 < n, fed one value at a time
def test_tails_give_the_numpy_quantiles(vals, q, chunk, spare_pairs):
    arr = np.array(vals)
    pairs = (arr.size + 1) // 2 + spare_pairs  # spare pairs raise k, down to n <= k
    tail = _Tails(q, pairs)
    for start in range(0, arr.size, chunk):
        _add_values(tail, arr[start:start + chunk])
    assert tail.count == arr.size
    assert tail.low.size <= tail.k and tail.high.size <= tail.k
    assert repr(_tail_quantiles(tail, q).tolist()) == repr(np.quantile(arr, [q, 1.0 - q]).tolist())
