"""The verdict that ``tools/ab_pairs.py`` prints per end-to-end metric."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from ab_pairs import verdict  # noqa: E402

#: a parent with median 10 and interquartile range 1
PARENT = (9.5, 10.0, 10.5)


@pytest.mark.parametrize(
    "c_median, change_wins, sign, expected",
    [
        # lower is better: 9 of 10 wins and a median 1.5 below, beyond the IQR
        (8.5, 9, 1.0, "gain"),
        # 8 of 10 wins is too few, however far the median moved
        (8.5, 8, 1.0, "unresolved"),
        # a median inside the IQR is no gain, even winning every pair
        (9.2, 10, 1.0, "unresolved"),
        # the bound 0.25 is relative: 12.5 is worse by exactly 25 %
        (12.5, 0, 1.0, "unresolved"),
        (12.6, 0, 1.0, "worse"),
        # higher is better
        (11.5, 10, -1.0, "gain"),
        (7.4, 0, -1.0, "worse"),
    ],
)
def test_verdict(c_median, change_wins, sign, expected):
    assert verdict(PARENT, c_median, change_wins, 10, sign, 0.25) == expected
