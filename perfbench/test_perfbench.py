"""Self-tests for the benchmark's own logic (not for orbcalc).

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_same_inputs():
    assert workloads.enumerate_order(7, 3) == workloads.enumerate_order(7, 3)
    assert workloads.dedekind_round(7, 2) == workloads.dedekind_round(7, 2)
    assert workloads.cli_trace_items(7) == workloads.cli_trace_items(7)


def test_different_seeds_give_different_inputs():
    assert workloads.enumerate_order(1, 0) != workloads.enumerate_order(2, 0)
    assert workloads.dedekind_round(1, 0) != workloads.dedekind_round(2, 0)
    assert workloads.cli_trace_items(1) != workloads.cli_trace_items(2)


def test_dedekind_round_properties():
    queries = workloads.dedekind_round(5, 0)
    orders = [r for r, _, _ in queries]
    assert len(queries) == workloads.ROUND_QUERIES
    assert sorted(set(orders)) == list(workloads.ORDERS)
    assert all(orders.count(r) == 2 for r in workloads.ORDERS)  # half the queries reuse an order
    for r, weights, index in queries:
        assert 1 <= len(weights) <= 3 and all(1 <= b < r for b in weights)
        assert -2 * r <= index <= 2 * r


def test_cli_head_runs_heavy_and_out_items_once():
    head = [argv for _, argv, _ in workloads.cli_trace_items(3)[: workloads.HEAD_ITEMS]]
    for _, argv in workloads.HEAVY_ITEMS:
        assert head.count(argv) == 1
    assert head.count(workloads.OUT_ERROR_ITEM) == 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, n = run.tail([float(x) for x in range(100, 0, -1)])
    assert (value, percentile, n) == (90.0, 90.0, 100)
    value, percentile, n = run.tail([float(x) for x in range(1, 12)])
    assert (value, n) == (1.0, 11) and abs(percentile - 100 / 11) < 1e-12
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_error_path_classification():
    traceback = (
        "Traceback (most recent call last):\n"
        '  File "cli.py", line 50, in _emit\n'
        "FileNotFoundError: [Errno 2] No such file or directory: 'x/out.txt'\n"
    )
    assert not run.error_path_ok(1, traceback)
    assert run.error_path_ok(1, "orbcalc: anticanonical correction term not tabulated for E6\n")
    assert run.error_path_ok(2, "orbcalc: cannot parse singularity 'B3' at byte offset 0\n")
    assert not run.error_path_ok(3, "orbcalc: odd exit\n")
    assert not run.error_path_ok(2, "usage: orbcalc ...\norbcalc: error: bad flag\n")


def test_success_item_must_match_golden():
    argv = ["mu", "--sing", "A1"]
    golden = {json.dumps(argv): {"exit": 0, "stdout_sha256": "abc"}}
    assert run.cli_item_ok(argv, False, 0, "abc", "", golden)
    assert not run.cli_item_ok(argv, False, 0, "abd", "", golden)
    assert not run.cli_item_ok(["mu", "--sing", "A2"], False, 0, "abc", "", golden)


def test_self_time_subtracts_direct_children():
    spans = [("outer", 0.0, 10.0, -1), ("inner", 1.0, 4.0, 0), ("leaf", 2.0, 3.0, 1)]
    summary = tracing.SpanSummary(spans)
    assert summary.self_s["outer"] == 7.0
    assert summary.self_s["inner"] == 2.0
    assert summary.self_s["leaf"] == 1.0
    assert summary.children_named("inner", "leaf") == 1


def test_trace_wrappers_are_removed_after_the_traced_section():
    originals = {
        (owner, attr): tracing._owner(owner).__dict__[attr] for owner, attr, _ in tracing.TRACE_POINTS
    }
    import orbcalc.catalog
    import orbcalc.dedekind

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert orbcalc.catalog.sigma is not originals[("orbcalc.catalog", "sigma")]
        assert orbcalc.dedekind.sigma(4, (1, 1), 2) == Fraction(1, 16)
    assert tracer.summary().calls["dedekind.sigma"] == 1
    for (owner, attr), original in originals.items():
        assert tracing._owner(owner).__dict__[attr] is original


def test_known_defect_is_counted_apart_from_new_failures():
    assert run.cli_outcome(workloads.OUT_ERROR_ITEM, False) == "defect"
    assert run.cli_outcome(workloads.OUT_ERROR_ITEM, True) == "ok"
    assert run.cli_outcome(["mu", "--sing", "B3"], False) == "failed"
    assert run.cli_outcome(["mu", "--sing", "A1"], False) == "failed"
