"""Self-test of the benchmark's own arithmetic and tracer.

Run from the checkout root: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import child  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def test_tail_picks_highest_percentile_with_ten_beyond():
    assert tr.tail([float(x) for x in range(1, 101)]) == (90.0, pytest.approx(90.1), 100)
    assert tr.tail([float(x) for x in range(1, 21)]) == (50.0, 10.5, 20)


def test_tail_counts_only_samples_strictly_beyond():
    values = [1.0] * 50 + [2.0] * 10
    assert tr.tail(values) == (75.0, 1.0, 60)


def test_tail_is_undefined_below_twenty_samples():
    assert tr.tail([float(x) for x in range(19)]) is None
    assert tr.tail([]) is None
    assert tr.tail([float(x) for x in range(20)]) == (50.0, 9.5, 20)


def test_percentile_matches_linear_interpolation():
    assert tr.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    assert tr.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 75) == 4.0


def test_self_time_subtracts_nested_children():
    spans = [
        ["a.outer", 0.0, 10.0, None, None],
        ["b.mid", 2.0, 8.0, 0, None],
        ["c.inner", 3.0, 5.0, 1, None],
    ]
    assert tr.self_times(spans) == [4.0, 4.0, 2.0]


def test_self_time_merges_overlap_and_clips_to_parent():
    spans = [
        ["a.outer", 0.0, 10.0, None, None],
        ["b.x", 1.0, 4.0, 0, None],
        ["b.y", 3.0, 6.0, 0, None],
        ["b.z", 9.0, 12.0, 0, None],
    ]
    assert tr.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_root_self_time_counts_uncovered_wall_time():
    spans = [
        ["a.x", 1.0, 2.0, None, None],
        ["a.y", 5.0, 7.0, None, None],
        ["b.z", 5.5, 6.0, 1, None],
    ]
    assert tr.root_self_time(spans, 0.0, 10.0) == 7.0


def test_tracer_records_parent_and_count():
    mod = types.ModuleType("fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))
    t.patch(mod, "outer", "a.outer")
    t.patch(mod, "inner", "b.inner", on_result=lambda r: r)
    assert mod.outer(1) == 4
    assert [s[0] for s in t.spans] == ["a.outer", "b.inner"]
    assert t.spans[0][3] is None and t.spans[1][3] == 0
    assert t.spans[1][4] == 2
    assert t.spans[0][1] < t.spans[1][1] < t.spans[1][2] < t.spans[0][2]


def test_tracer_refuses_double_wrap_and_skips_missing():
    mod = types.ModuleType("fake")
    mod.f = lambda: None
    t = tr.Tracer()
    assert t.patch(mod, "f", "a.f")
    with pytest.raises(RuntimeError):
        t.patch(mod, "f", "a.f")
    assert not t.patch(mod, "absent", "a.absent")
    t.restore()


def test_tracer_restores_every_wrapped_name():
    originals = {
        (m, a): getattr(importlib.import_module(m), a) for m, a, _ in child.PATCHES
    }
    t = tr.Tracer()
    assert child.install(t) == []
    for (m, a), original in originals.items():
        wrapped = getattr(importlib.import_module(m), a)
        assert wrapped is not original and hasattr(wrapped, "_perfbench_span")
    t.restore()
    for (m, a), original in originals.items():
        assert getattr(importlib.import_module(m), a) is original


def test_random_digraph_is_seeded_simple_and_fixed_size():
    text = wl.random_digraph_text(7)
    assert text == wl.random_digraph_text(7)
    assert text != wl.random_digraph_text(8)
    n, edges = wl.parse_graph(text)
    assert n == wl.DENSE_N and len(edges) == wl.DENSE_EDGES
    assert all(a != b for a, b in edges)


def test_google_matrix_columns_sum_to_one():
    g = wl.google_matrix(3, {(0, 1), (0, 2), (1, 2)})
    for j in range(3):
        assert sum(g[i][j] for i in range(3)) == pytest.approx(1.0, abs=1e-15)
    assert g[1][0] == pytest.approx(0.05 + 0.425)  # 0 -> 1 at half of 0.85
    assert g[0][2] == pytest.approx(0.05 + 0.85 / 3)  # node 2 dangles


def test_benchmark_json_lists_what_run_reports():
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_checks_flag_bad_rows():
    import math

    head = "s,theta,alpha_1,alpha_norm_1,delta_1,delta_global,error\n"
    good = f"0.5,{math.expm1(-0.5)!r},{math.exp(-0.5)!r},1,1,1,\n"
    bad = f"1,{math.expm1(-1.0) + 1e-6!r},{math.exp(-1.0)!r},1,1,1,\n"
    failed = "1.5,,,,,,DegeneracyError\n"
    out = wl.check_scan(head + good + bad + failed, 1, [0.5, 1.0, 1.5])
    assert [ok for ok, _, _ in out] == [True, False, False]
    assert wl.check_scan(head + good, 1, [0.5, 1.0]) == wl.failed_rows(2, "scan: 1 rows, expected 2")

    head = "node,mean_rate,std_error,var_rate,dispersion_hat,dispersion_se,activity0,z_activity,dispersion0,z_dispersion\n"
    rows = "0,1,1,1,1,1,1,2.9,1,-4.9\n1,1,1,1,1,1,1,-3.1,1,0\n"
    assert wl.check_simulate(head + rows, 2) == [
        (True, True, ""),
        (False, True, "simulate row 1: z_activity -3.10, z_dispersion 0.00"),
    ]


def test_peak_check_needs_an_interior_peak_line():
    grid = wl.scan_grid(wl.WORKLOADS["six-node"])
    interior = "delta_global peaks at s=-0.2 (value 0.123456, interior maximum)\n"
    boundary = "delta_global is extremal at the boundary s=-3 (value 0.2; no interior maximum)\n"
    too_few = "delta_global: too few defined points for a peak report\n"
    assert wl.check_peak(interior, grid) == [(True, False, "")]
    for stderr in (boundary, too_few, "", interior.replace("s=-0.2", "s=-3")):
        assert [ok for ok, _, _ in wl.check_peak(stderr, grid)] == [False]


def test_exact_counts_must_repeat_across_runs(tmp_path):
    import run

    store = tmp_path / "exact-counts.json"
    counts = {"linalg.eig_calls": 793, "io.bytes": 5000}
    assert run.check_exact_counts(store, "six-node/seed1/abc", counts) == []
    assert run.check_exact_counts(store, "six-node/seed1/abc", counts) == []
    assert run.check_exact_counts(store, "six-node/seed2/abc", {"linalg.eig_calls": 1}) == []
    changed = dict(counts, **{"io.bytes": 5001})
    assert run.check_exact_counts(store, "six-node/seed1/abc", changed) == [
        "io.bytes = 5001 differs from 5000 of an earlier run"
    ]
