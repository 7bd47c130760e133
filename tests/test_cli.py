"""End-to-end command-line behavior: output schemas and exit codes."""

import csv
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qswalk as q
from qswalk import trajectory
from qswalk.cli import main
from oracles import richardson_activity_dispersion


@pytest.fixture
def two_node_file(tmp_path):
    p = tmp_path / "two.edges"
    p.write_text("n 2\n0 1\n")
    return str(p)


def _rows(text):
    return list(csv.reader(text.strip().splitlines()))


# -- pagerank ----------------------------------------------------------------


def test_pagerank_stdout(two_node_file, capsys):
    assert main(["pagerank", "--input", two_node_file]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["node", "score"]
    scores = [float(r[1]) for r in rows[1:]]
    assert_allclose(scores, [20.0 / 57.0, 37.0 / 57.0], atol=1e-9)


def test_pagerank_file_output_matches_stdout(two_node_file, tmp_path, capsys):
    out = tmp_path / "scores.csv"
    assert main(["pagerank", "--input", two_node_file, "--output", str(out)]) == 0
    assert main(["pagerank", "--input", two_node_file]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_pagerank_damping_flag(two_node_file, capsys):
    assert main(["pagerank", "--input", two_node_file, "--damping", "0.5"]) == 0
    rows = _rows(capsys.readouterr().out)
    g = q.parse_edge_list("n 2\n0 1\n")
    expected = q.pagerank(q.google_matrix(g, damping=0.5))
    assert_allclose([float(r[1]) for r in rows[1:]], expected, atol=1e-10)


# -- ranks --------------------------------------------------------------------


def test_ranks_columns(two_node_file, capsys):
    assert main(["ranks", "--input", two_node_file]) == 0
    rows = _rows(capsys.readouterr().out)
    assert rows[0] == ["node", "pagerank", "activity0", "population"]
    table = np.array([[float(c) for c in r] for r in rows[1:]])
    assert_allclose(table[:, 1], [20.0 / 57.0, 37.0 / 57.0], atol=1e-9)
    assert_allclose(table[:, 2], [66.0 / 217.0, 151.0 / 217.0], atol=1e-7)
    assert_allclose(table[:, 3], [100.0 / 217.0, 117.0 / 217.0], atol=1e-9)


def test_ranks_classical_weight_collapses_columns(two_node_file, capsys):
    # zero coherent weight: activity, population, and pagerank coincide
    assert main(
        ["ranks", "--input", two_node_file, "--coherent-weight", "0.0"]
    ) == 0
    rows = _rows(capsys.readouterr().out)
    table = np.array([[float(c) for c in r] for r in rows[1:]])
    assert_allclose(table[:, 2], table[:, 1], atol=1e-6)
    assert_allclose(table[:, 3], table[:, 1], atol=1e-9)


def _ranks_table(text):
    return np.array([[float(c) for c in r] for r in _rows(text)[1:]])


def test_ranks_activity_matches_finite_differences(tmp_path, capsys):
    # activity0 is the stationary jump rate G @ population; the FD slope
    # of theta at s = 0 is the independent route to the same vector
    rng = np.random.default_rng(16)
    edges = {(k, (k + 1) % 16) for k in range(16)}
    while len(edges) < 48:
        edges.add((int(rng.integers(16)), int(rng.integers(16))))
    random16 = tmp_path / "random16.edges"
    random16.write_text("".join(f"{u} {v}\n" for u, v in sorted(edges)))
    data = Path(q.__file__).parent / "data"
    for path in (data / "two_node.edges", data / "six_node.edges", random16):
        assert main(["ranks", "--input", str(path)]) == 0
        table = _ranks_table(capsys.readouterr().out)
        model = q.build_qsw(q.parse_edge_list(path.read_text()))
        assert_allclose(table[:, 2], q.activity(model, np.zeros(model.n)), rtol=0, atol=1e-8)
        assert_allclose(table[:, 3].sum(), 1.0, atol=1e-12)


def test_ranks_takes_no_fd_step(two_node_file):
    # ranks takes no derivative, so argparse refuses the option
    with pytest.raises(SystemExit) as exc:
        main(["ranks", "--input", two_node_file, "--fd-step", "1e-3"])
    assert exc.value.code == 2


def test_simulate_takes_no_fd_step(two_node_file):
    # the reference columns are exact, so no finite difference is left
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--input", two_node_file, "--fd-step", "1e-3"])
    assert exc.value.code == 2


def test_ranks_runs_past_the_dense_limit(tmp_path, capsys):
    # the 200-node model the dense generator refuses (about 24 GiB)
    big = tmp_path / "big.edges"
    big.write_text("n 200\n0 1\n1 2\n")
    tracemalloc.start()
    try:
        assert main(["ranks", "--input", str(big)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = _ranks_table(capsys.readouterr().out)
    assert table.shape == (200, 4)
    assert_allclose(table[:, 3].sum(), 1.0, atol=1e-12)
    assert peak < 100 << 20


# -- scan ---------------------------------------------------------------------


def test_scan_grid_schema_and_values(two_node_file, capsys):
    assert main(
        [
            "scan",
            "--input",
            two_node_file,
            "--s-min",
            "-1",
            "--s-max",
            "1",
            "--s-steps",
            "5",
        ]
    ) == 0
    captured = capsys.readouterr()
    rows = _rows(captured.out)
    from qswalk.io import scan_header

    assert rows[0] == scan_header(2)
    assert len(rows) == 1 + 5
    sigmas = np.linspace(-1, 1, 5)
    for row, sigma in zip(rows[1:], sigmas):
        assert float(row[0]) == pytest.approx(sigma)
        assert float(row[1]) == pytest.approx(np.expm1(-sigma), abs=1e-9)
        assert row[-1] == ""  # no errors
    # companion summary goes to stderr, keeping stdout valid CSV
    assert "delta_global" in captured.err


def test_scan_limit_modes(two_node_file, capsys):
    assert main(["scan", "--input", two_node_file, "--limit-mode", "inactive"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""  # no peak report for a single limit point
    rows = _rows(captured.out)
    assert len(rows) == 2
    assert float(rows[1][0]) == np.inf
    assert float(rows[1][1]) == -1.0

    assert main(["scan", "--input", two_node_file, "--limit-mode", "active"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = _rows(captured.out)
    assert float(rows[1][0]) == -np.inf
    assert float(rows[1][1]) == 1.0
    head = rows[0]
    row = dict(zip(head, rows[1]))
    # extreme-activity ranking equals pagerank
    assert float(row["alpha_norm_1"]) == pytest.approx(20.0 / 57.0, abs=1e-9)
    assert float(row["alpha_norm_2"]) == pytest.approx(37.0 / 57.0, abs=1e-9)


def test_scan_worker_env_matches_serial(two_node_file, tmp_path, monkeypatch):
    args = [
        "scan", "--input", two_node_file, "--s-min", "-0.5", "--s-max", "0.5",
        "--s-steps", "4",
    ]
    serial_out = tmp_path / "serial.csv"
    assert main(args + ["--output", str(serial_out)]) == 0
    monkeypatch.setenv("QSWALK_WORKERS", "2")
    pool_out = tmp_path / "pool.csv"
    assert main(args + ["--output", str(pool_out)]) == 0
    assert serial_out.read_text() == pool_out.read_text()


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked
    for and maps in this process, so no worker is ever started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


def test_worker_pool_is_no_larger_than_the_work(two_node_file, monkeypatch, capsys):
    # QSWALK_WORKERS is an upper bound: a scan gets one worker per point,
    # an ensemble one per _POOL_WORK of (n_traj x t_max - 2n) x n^2
    monkeypatch.setattr(trajectory, "_POOL_WORK", 100)
    scan_args = ["scan", "--input", two_node_file, "--s-min", "-0.5", "--s-max", "0.5", "--s-steps", "4"]
    sim_args = ["simulate", "--input", two_node_file, "--t-max", "5", "--n-traj", "2"]
    big = "108"  # (108 x 0.5 - 2 x 2) x 2^2 = 200: two workers' worth of two-node work
    big_args = ["simulate", "--input", two_node_file, "--t-max", "0.5", "--n-traj", big]
    runs = (scan_args, sim_args, big_args)
    assert all(main(args) == 0 for args in runs)
    serial = capsys.readouterr().out
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setenv("QSWALK_WORKERS", "500")
    assert all(main(args) == 0 for args in runs)
    assert capsys.readouterr().out == serial
    assert _InProcessPool.sizes == [4, 2]  # the 2-trajectory ensemble forks nothing


def test_non_integer_worker_count_exits_2(two_node_file, monkeypatch, capsys):
    monkeypatch.setenv("QSWALK_WORKERS", "two")
    assert main(["pagerank", "--input", two_node_file]) == 2
    assert capsys.readouterr().err == "qswalk: QSWALK_WORKERS must be an integer, got 'two'\n"


# -- simulate -----------------------------------------------------------------


def test_simulate_ensemble_output(two_node_file, capsys):
    assert main(
        [
            "simulate", "--input", two_node_file, "--t-max", "10", "--dt", "0.05",
            "--n-traj", "6", "--seed", "9",
        ]
    ) == 0
    rows = _rows(capsys.readouterr().out)
    head = rows[0]
    assert head == [
        "node", "mean_rate", "std_error", "var_rate", "dispersion_hat",
        "dispersion_se", "activity0", "z_activity", "dispersion0", "z_dispersion",
        "activity_t",
    ]
    stats = q.ensemble_stats(
        q.build_qsw(q.parse_edge_list("n 2\n0 1\n")),
        t_max=10.0, dt=0.05, n_traj=6, seed0=9,
    )
    for i, row in enumerate(rows[1:]):
        cells = dict(zip(head, row))
        assert float(cells["mean_rate"]) == stats.mean_rate[i]
        assert float(cells["var_rate"]) == stats.var_rate[i]
        assert cells["z_activity"] != ""
        assert cells["z_dispersion"] != ""


def _random_edge_files(tmp_path, count, n=8):
    rng = np.random.default_rng(8)
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    paths = []
    for k in range(count):
        chosen = rng.choice(len(pairs), size=3 * n, replace=False)
        path = tmp_path / f"random{k}.edges"
        path.write_text(f"n {n}\n" + "".join("%d %d\n" % pairs[c] for c in chosen))
        paths.append(path)
    return paths


def test_simulate_reference_columns_equal_activity_and_dispersion(tmp_path, capsys):
    # activity0 is the stationary jump rate G @ population, as in ranks;
    # dispersion0 is the exact n x n form, judged against a Richardson FD
    # of the dense free energy (the CLI's old FD step carried ~1e-5 error)
    data = Path(q.__file__).parent / "data"
    cases = [
        (data / f"{name}.edges", weight)
        for name in ("two_node", "six_node")
        for weight in ("0", "1", "2.5")
    ] + [(path, "1") for path in _random_edge_files(tmp_path, 3)]
    for path, weight in cases:
        args = ["simulate", "--input", str(path), "--t-max", "2", "--n-traj", "2"]
        assert main(args + ["--coherent-weight", weight]) == 0
        rows = _rows(capsys.readouterr().out)
        cells = [dict(zip(rows[0], row)) for row in rows[1:]]
        act0 = np.array([float(c["activity0"]) for c in cells])
        disp0 = np.array([float(c["dispersion0"]) for c in cells])
        model = q.build_qsw(q.parse_edge_list(path.read_text()), coherent_weight=float(weight))
        assert np.array_equal(act0, model.rates @ np.real(np.diag(q.steady_state(model))))
        assert_allclose(act0, q.activity(model, np.zeros(model.n)), rtol=0, atol=1e-8)
        _, delta = richardson_activity_dispersion(model)
        assert_allclose(disp0, delta, rtol=1e-6, atol=0)
        # activity_t is the mean rate over t = 2 from the uniform start state
        act_t = np.array([float(c["activity_t"]) for c in cells])
        assert np.array_equal(act_t, act0 + q.stationary_references(model, act0)[1] / 2.0)


def test_simulate_diagonalizes_h_once_and_builds_m1_once(monkeypatch, capsys):
    # the steady state, the exact dispersion and the jump engine share the
    # model's cached eigenbasis; M(1) is built once for the renewal chain,
    # and M'(1) once for the dispersion
    calls = {"eigh": 0, "kernel": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.delenv("QSWALK_WORKERS", raising=False)
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    kernel = counting("kernel", q.lindblad._spreading_kernel)
    monkeypatch.setattr("qswalk.lindblad._spreading_kernel", kernel)
    monkeypatch.setattr("qswalk.tilt._spreading_kernel", kernel)
    six = Path(q.__file__).parent / "data" / "six_node.edges"
    assert main(["simulate", "--input", str(six), "--t-max", "2", "--n-traj", "2"]) == 0
    assert len(_rows(capsys.readouterr().out)) == 7
    assert calls == {"eigh": 1, "kernel": 2}


def test_simulate_leaves_numpy_random_unimported(two_node_file, tmp_path):
    # the jump engine computes its Philox streams itself; numpy.random
    # costs tens of ms and several MB at first import
    pkg_root = str(Path(q.__file__).resolve().parents[1])
    code = (
        "import sys, qswalk.cli\n"
        "argv = ['simulate', '--input', sys.argv[1], '--t-max', '5', '--n-traj', sys.argv[2],\n"
        "        '--output', sys.argv[3]]\n"
        "assert qswalk.cli.main(argv) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=pkg_root)
    for n_traj in ("1", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", code, two_node_file, n_traj, str(tmp_path / "out.csv")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


def test_simulate_is_reproducible(two_node_file, tmp_path):
    args = [
        "simulate", "--input", two_node_file, "--t-max", "5", "--dt", "0.05",
        "--n-traj", "4", "--seed", "3",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_simulate_dt_is_checked_but_not_used(two_node_file, tmp_path):
    # the sampler takes no time step: --dt must be positive and is ignored,
    # down to the event times of a single trajectory
    args = ["simulate", "--input", two_node_file, "--t-max", "5", "--n-traj", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--dt", "0.05", "--output", str(a)]) == 0
    assert main(args + ["--dt", "0.7", "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert (tmp_path / "a.csv.events.csv").read_text() == (tmp_path / "b.csv.events.csv").read_text()
    assert main(args + ["--dt", "0"]) == 2


def test_simulate_single_trajectory(two_node_file, tmp_path):
    out = tmp_path / "single.csv"
    assert main(
        [
            "simulate", "--input", two_node_file, "--t-max", "10", "--dt", "0.05",
            "--n-traj", "1", "--output", str(out),
        ]
    ) == 0
    rows = _rows(out.read_text())
    cells = dict(zip(rows[0], rows[1]))
    assert cells["mean_rate"] != ""
    for col in ("std_error", "var_rate", "dispersion_hat", "z_activity"):
        assert cells[col] == ""  # no variance from one trajectory
    events = (tmp_path / "single.csv.events.csv").read_text()
    erows = _rows(events)
    assert erows[0] == ["time", "dst", "src"]
    assert len(erows) > 1


# -- failure modes ------------------------------------------------------------


def test_missing_input_exits_2(capsys):
    assert main(["pagerank", "--input", "/no/such/file.edges"]) == 2
    assert "qswalk:" in capsys.readouterr().err


def test_malformed_edge_list_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 zebra\n")
    assert main(["pagerank", "--input", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ["--damping", "0"],
        ["--damping", "-0.1"],
    ],
)
def test_bad_parameters_exit_2(two_node_file, extra, capsys):
    assert main(["pagerank", "--input", two_node_file] + extra) == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("pagerank", "--damping", "nan"),
        ("ranks", "--coherent-weight", "nan"),
        ("ranks", "--coherent-weight", "inf"),
        ("scan", "--s-min", "nan"),
        ("scan", "--s-max", "inf"),
        ("scan", "--fd-step", "nan"),
        ("scan", "--fd-step", "inf"),
        ("simulate", "--t-max", "inf"),
        ("simulate", "--t-max", "nan"),
        ("simulate", "--dt", "nan"),
    ],
)
def test_non_finite_flags_exit_2(two_node_file, command, flag, value, capsys):
    assert main([command, "--input", two_node_file, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qswalk: {flag} must be finite\n"


def test_bad_scan_grid_exits_2(two_node_file):
    assert main(
        ["scan", "--input", two_node_file, "--s-min", "1", "--s-max", "-1"]
    ) == 2
    assert main(["scan", "--input", two_node_file, "--s-steps", "0"]) == 2


def test_model_over_dense_budget_exits_3(tmp_path, capsys):
    # 200 nodes would need a 40000 x 40000 complex generator (about 24 GiB)
    big = tmp_path / "big.edges"
    big.write_text("n 200\n0 1\n1 2\n")
    tracemalloc.start()
    try:
        assert main(["scan", "--input", str(big), "--s-steps", "3"]) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "qswalk: model too large: a 200-node model" in captured.err
    assert "limited to 64 nodes" in captured.err
    assert peak < 100 << 20  # no allocation anywhere near the generator's size


def test_simulate_runs_past_the_dense_limit(tmp_path, capsys):
    # simulate builds no dense generator, and its jump engine has no size
    # limit: a jump's choice costs O(n) per lane and its state step O(n^2)
    big = tmp_path / "big.edges"
    big.write_text("n 100\n0 1\n1 2\n")
    assert main(["simulate", "--input", str(big), "--n-traj", "2", "--t-max", "1"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 101
    assert all(row[6] != "" and row[8] != "" for row in rows[1:])


def test_bad_n_traj_exits_2(two_node_file):
    assert main(
        ["simulate", "--input", two_node_file, "--n-traj", "0"]
    ) == 2


def test_seed_range_past_64_bits_exits_2(two_node_file, monkeypatch, capsys):
    args = [
        "simulate", "--input", two_node_file, "--t-max", "1", "--dt", "0.05",
        "--n-traj", "2", "--seed", str((1 << 64) - 1),
    ]
    assert main(args) == 2
    assert "unsigned 64-bit" in capsys.readouterr().err
    monkeypatch.setenv("QSWALK_WORKERS", "2")
    assert main(args) == 2
    assert "unsigned 64-bit" in capsys.readouterr().err


def test_degenerate_model_exits_3(tmp_path, capsys):
    # two disconnected cycles with no teleportation: the stationary
    # state is not unique and the solver must report a numerical failure
    disc = tmp_path / "disconnected.edges"
    disc.write_text("0 1\n1 0\n2 3\n3 2\n")
    code = main(["ranks", "--input", str(disc), "--damping", "1.0"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "kernel dimension 2" in err


def test_active_limit_needs_a_single_closed_class(tmp_path, capsys):
    # every mixture of the two cycles' Perron vectors is a leading
    # vector of G, so no jump profile may be printed
    disc = tmp_path / "disconnected.edges"
    disc.write_text("0 1\n1 0\n2 3\n3 2\n")
    args = ["scan", "--input", str(disc), "--damping", "1.0", "--limit-mode", "active"]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kernel dimension 2" in captured.err
    # one closed class that is periodic still has a unique profile
    star = tmp_path / "star.edges"
    star.write_text("0 1\n0 2\n1 0\n2 0\n")
    args = ["scan", "--input", str(star), "--damping", "1.0", "--limit-mode", "active"]
    assert main(args) == 0
    row = dict(zip(*_rows(capsys.readouterr().out)))
    alpha_norm = [float(row[f"alpha_norm_{k}"]) for k in (1, 2, 3)]
    assert_allclose(alpha_norm, [0.5, 0.25, 0.25], rtol=0, atol=1e-15)


def test_fd_scan_of_several_closed_classes_prints_error_cells(tmp_path, capsys):
    # two closed classes make the leading eigenvalue of W_s 2-fold, so
    # theta has a kink that finite differences would read as curvature
    disc = tmp_path / "disconnected.edges"
    disc.write_text("n 4\n0 1\n1 0\n2 3\n3 2\n")
    args = [
        "scan", "--input", str(disc), "--damping", "1", "--coherent-weight", "0",
        "--s-steps", "3",
    ]
    assert main(args) == 0
    captured = capsys.readouterr()
    rows = _rows(captured.out)
    assert len(rows) == 4
    for row in rows[1:]:
        assert all(cell == "" for cell in row[1:-1])  # no numbers at all
        assert "2-fold" in row[-1]
    assert "too few defined points" in captured.err
    model = q.build_qsw(q.parse_edge_list(disc.read_text()), damping=1.0, coherent_weight=0.0)
    with pytest.raises(q.DegeneracyError, match="2-fold"):
        q.free_energy(model, np.zeros(4))


def test_classical_scan_reports_no_crossover(capsys):
    # at coherent weight 0, T = G for every tilt and delta is constant:
    # the grid's largest delta_global is finite-difference noise
    six = str(Path(q.__file__).parent / "data" / "six_node.edges")
    assert main(["scan", "--input", six, "--coherent-weight", "0"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("delta_global is flat to 0.001 over the scan (max 5.08")
    assert err.endswith("; no interior maximum)\n")


@pytest.mark.parametrize("weight, s_peak", [("0.25", "1.2"), ("1", "-0.2"), ("4", "-1.6")])
def test_quantum_scan_reports_its_crossover(weight, s_peak, capsys):
    # delta(gamma, s) = delta(1, s + ln gamma): the peak moves by ln 4 per step
    six = str(Path(q.__file__).parent / "data" / "six_node.edges")
    assert main(["scan", "--input", six, "--coherent-weight", weight]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"delta_global peaks at s={s_peak} (value 6.50")
    assert err.endswith(", interior maximum)\n")


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--input", "x"])
    assert exc.value.code == 2


def test_missing_required_input_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["pagerank"])
    assert exc.value.code == 2


def _assert_pagerank_csv(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("node,score")


def test_console_script_installed(two_node_file, tmp_path):
    # Run the launcher that installers write for the `qswalk` entry point
    # declared in pyproject.toml, in a fresh process, whether or not the
    # package is installed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["qswalk"]
    module, attr = target.split(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    # the directory holding the imported package, absolute so that the
    # child does not depend on its working directory
    pkg_root = str(Path(q.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "pagerank", "--input", two_node_file],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=env,
    )
    _assert_pagerank_csv(proc)


@pytest.mark.skipif(
    shutil.which("qswalk") is None, reason="qswalk console script not installed"
)
def test_console_script_on_path(two_node_file):
    proc = subprocess.run(
        [shutil.which("qswalk"), "pagerank", "--input", two_node_file],
        capture_output=True,
        text=True,
        timeout=120,
    )
    _assert_pagerank_csv(proc)
