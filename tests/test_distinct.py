"""``hetgraph.distinct`` against ``np.unique``, and a guard that keeps the slow
generic routines out of the package."""

import re
from pathlib import Path

import numpy as np
import pytest

from rptdetect.hetgraph import distinct

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

INT64 = np.iinfo(np.int64)
EXTREMES = [int(INT64.min), int(INT64.min) + 1, -1, 0, 1, int(INT64.max) - 1, int(INT64.max)]


@given(st.one_of(
    st.just([]),
    st.lists(st.integers(int(INT64.min), int(INT64.max)), min_size=1, max_size=1),
    st.lists(st.integers(-3, 3), max_size=200),  # duplicate-heavy
    st.lists(st.one_of(st.sampled_from(EXTREMES), st.integers(int(INT64.min), int(INT64.max))),
             max_size=60)))
def test_distinct_is_np_unique(values):
    a = np.array(values, dtype=np.int64)
    got, want = distinct(a), np.unique(a)
    assert got.dtype == want.dtype and np.array_equal(got, want)


SRC = Path(__file__).resolve().parent.parent / "src" / "rptdetect"
# numpy 2.4's np.unique (and np.union1d, built on it) takes a hash path 20-40x
# slower than a sort on int64 keys, and a multi-key np.lexsort is a merge sort
# per key; the graph chain uses hetgraph.distinct and packed single-key sorts
# instead, and only matcher._keep_first_multisets may sort on several keys
SLOW = re.compile(r"np\.unique\(|np\.union1d\(|np\.lexsort\((?!\(\w+,\)\)|\[\w+\]\))")


def test_no_slow_generic_routines_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        function = None
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.match(r"(def|class) \w+", line):
                function = line.split()[1].split("(")[0]
            if SLOW.search(line) and (path.name, function) != ("matcher.py",
                                                               "_keep_first_multisets"):
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert not found, "\n".join(found)
