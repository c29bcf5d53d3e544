"""Property tests of the twin-quotient table against the per-mask DP, cell by cell."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from oracles import small_graphs, twin_blowups  # noqa: E402
from test_cycles import assert_table_matches_path_dp  # noqa: E402


@settings(max_examples=150, deadline=None)
@given(small_graphs(10))
def test_table_matches_path_dp(g):
    assert_table_matches_path_dp(g)


@settings(max_examples=100, deadline=None)
@given(twin_blowups(5))
def test_table_matches_path_dp_on_twin_blowups(g):
    assert_table_matches_path_dp(g)
