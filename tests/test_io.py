"""CSV formatting and round-trip fidelity."""

import csv
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qswalk as q
from qswalk.io import (
    fmt,
    scan_header,
    write_ensemble_csv,
    write_events_csv,
    write_pagerank_csv,
    write_ranks_csv,
    write_scan_csv,
)


def test_fmt_cells():
    assert fmt(None) == ""
    assert fmt(0.5) == "0.5"
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    x = np.random.default_rng(3).standard_normal(50)
    assert [float(fmt(v)) for v in x] == list(x)  # %.17g is exact for doubles


def test_pagerank_csv():
    buf = io.StringIO()
    write_pagerank_csv(buf, np.array([0.25, 0.75]))
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["node", "score"]
    assert rows[1] == ["0", "0.25"]
    assert rows[2] == ["1", "0.75"]


def test_ranks_csv():
    buf = io.StringIO()
    write_ranks_csv(
        buf, np.array([0.25, 0.75]), np.array([0.375, 0.625]), np.array([0.5, 0.5])
    )
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["node", "pagerank", "activity0", "population"]
    assert rows[1] == ["0", "0.25", "0.375", "0.5"]


def test_scan_header_layout():
    assert scan_header(2) == [
        "s",
        "theta",
        "alpha_1",
        "alpha_2",
        "alpha_norm_1",
        "alpha_norm_2",
        "delta_1",
        "delta_2",
        "delta_global",
        "error",
    ]


def test_scan_csv_rows(two_node_model):
    points = q.scan(two_node_model, [q.uniform_tilt(two_node_model, 0.5)])
    points += q.scan(two_node_model, [np.array([0.25, -0.5])])
    points.append(q.ThermoPoint(s=np.zeros(2), error="boom"))
    buf = io.StringIO()
    write_scan_csv(buf, points, 2)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == scan_header(2)
    # uniform tilt collapses to a single s cell; non-uniform joins entries
    assert rows[1][0] == "0.5"
    assert rows[2][0] == "0.25;-0.5"
    assert float(rows[1][1]) == pytest.approx(np.expm1(-0.5), abs=1e-10)
    # failed point: s and error survive, observables empty
    assert rows[3][0] == "0"
    assert rows[3][1] == ""
    assert rows[3][-1] == "boom"
    assert len(rows[1]) == len(scan_header(2))


def test_scan_csv_none_dispersion_cells(two_node_model):
    points = q.scan(two_node_model, [np.array([30.0, 0.0])])
    buf = io.StringIO()
    write_scan_csv(buf, points, 2)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    head = scan_header(2)
    row = dict(zip(head, rows[1]))
    assert row["delta_1"] == ""  # suppressed node: undefined dispersion
    assert row["delta_2"] != ""
    assert row["delta_global"] == ""
    assert row["error"] == ""


def test_ensemble_csv_with_references():
    buf = io.StringIO()
    write_ensemble_csv(
        buf,
        mean_rate=np.array([0.5, 1.5]),
        standard_errors=np.array([0.1, 0.0]),
        var_rate=np.array([0.01, 0.02]),
        dispersion_hat=np.array([1.1, 0.9]),
        dispersion_se=np.array([0.2, 0.3]),
        activity0=np.array([0.4, 1.4]),
        dispersion0=[1.0, None],
        activity_t=np.array([0.3, 1.4]),
    )
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    head = rows[0]
    assert head[:3] == ["node", "mean_rate", "std_error"]
    assert head[-1] == "activity_t"  # appended: earlier columns keep their index
    r0 = dict(zip(head, rows[1]))
    r1 = dict(zip(head, rows[2]))
    assert r0["activity0"] == "0.40000000000000002"
    assert r0["activity_t"] == "0.29999999999999999"
    assert float(r0["z_activity"]) == pytest.approx(2.0)  # (0.5-0.3)/0.1, against activity_t
    assert float(r0["z_dispersion"]) == pytest.approx(0.5)  # (1.1-1.0)/0.2
    assert r1["z_activity"] == ""  # zero standard error: no z-score
    assert r1["z_dispersion"] == ""  # no reference dispersion


def test_ensemble_csv_single_trajectory_columns():
    buf = io.StringIO()
    write_ensemble_csv(
        buf,
        mean_rate=np.array([0.5]),
        standard_errors=None,
        var_rate=None,
        dispersion_hat=None,
        dispersion_se=None,
        activity0=np.array([0.4]),
        dispersion0=[1.0],
        activity_t=np.array([0.45]),
    )
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    row = dict(zip(rows[0], rows[1]))
    assert row["mean_rate"] == "0.5"
    assert row["activity0"] == "0.40000000000000002"
    for col in ("std_error", "var_rate", "dispersion_hat", "z_activity", "z_dispersion"):
        assert row[col] == ""


def test_events_csv(two_node_model):
    rec = q.simulate(two_node_model, t_max=5.0, dt=0.05, seed=1)
    buf = io.StringIO()
    write_events_csv(buf, rec)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["time", "dst", "src"]
    assert len(rows) == 1 + len(rec.jump_events)
    t0, dst0, src0 = rec.jump_events[0]
    assert float(rows[1][0]) == t0
    assert rows[1][1:] == [str(dst0), str(src0)]
