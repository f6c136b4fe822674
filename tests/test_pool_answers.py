"""Every query of every benchmark pool answers as its reference says.

The pools in ``perfbench/data`` hold each query with its reference answer
and tolerance.  This runs each query once, chained follow-ups included, and
grades it with the benchmark's own check, so a wrong answer fails here and
not only in the benchmark's count of incorrect outputs.  The pools' listed
known failures are not run.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import harness  # noqa: E402

import canosc.cli  # noqa: E402  (harness reaches the CLI as canosc.cli)


@pytest.mark.parametrize("workload", list(harness.PREPARE))
def test_every_pool_query_grades_correct(workload, tmp_path):
    queries = harness.PREPARE[workload](harness.load_pool(workload), canosc, str(tmp_path))
    records = [r for qs in queries.values() for q in qs for r in harness.execute(q)]
    assert records and harness.grade(records) == []
