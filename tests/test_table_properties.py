"""Property tests of the bit-sliced subset table against the per-mask DP."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from oracles import small_graphs  # noqa: E402
from test_cycles import assert_table_matches_path_dp  # noqa: E402


@settings(max_examples=150, deadline=None)
@given(small_graphs(10))
def test_table_matches_path_dp(g):
    assert_table_matches_path_dp(g)
