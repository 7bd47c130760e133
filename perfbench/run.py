"""Outside-in benchmark of the qswalk command line.

Run from the root of a qswalk checkout:

    python3 perfbench/run.py --workload six-node --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  The benchmark is a closed
loop with one client: it starts one fresh ``child.py`` interpreter at a time,
waits for it, checks its CSV outputs, and starts the next until ``--seconds``
have passed (at least two children per run).  Every child runs with one BLAS
thread; only ``mc-six-pool`` uses more than one process.

``--trace 0`` reports the end-to-end metrics: the median over the run's
samples, printed with quartiles and the sample count.  ``ranks_s`` and, on
the pooled workload, ``peak_rss_workers_mb`` (the largest pool worker's peak
RSS; ``peak_rss_mb`` covers the child's own process only) are printed too.

``--trace 1`` alternates untraced and traced children.  Traced children wrap
qswalk's layer entry points (see ``child.PATCHES``) and report per-layer
metrics; the wall-time difference between the two kinds is the tracing
overhead.  Traced children also check ``tilt.eig_per_point == 2n+1`` and
that the exact counts (``EXACT_COUNTS``) repeat, between the children of a
run and against earlier runs of the same workload, seed and qswalk source
(kept in ``.bench_build/perfbench/exact-counts.json``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts
checked output rows, ``failed`` the rows that carry an error cell, miss their
check, or belong to a command that exited nonzero.  ``correct`` is false when
a deterministic check fails; a Monte Carlo z-score bound missed by chance
counts as a failed row only.  Detailed samples, graph digests and the run
environment go to ``.bench_build/perfbench/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
HANG_MARGIN_S = 120.0  # a child still running this long after the run's deadline is killed
MIN_CHILDREN = 2

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("linalg.eig_calls", "count"),
    ("linalg.eig_ms_p50", "ms"),
    ("linalg.eig_share", "frac"),
    ("linalg.null_vector_ms", "ms"),
    ("lindblad.liouvillian_calls", "count"),
    ("lindblad.liouvillian_ms_p50", "ms"),
    ("lindblad.steady_state_ms", "ms"),
    ("lindblad.build_qsw_ms", "ms"),
    ("tilt.free_energy_calls", "count"),
    ("tilt.tilted_superoperator_ms_p50", "ms"),
    ("tilt.point_ms_p50", "ms"),
    ("tilt.point_ms_tail", "ms"),
    ("tilt.eig_per_point", "count"),
    ("tilt.activity_ms", "ms"),
    ("tilt.self_s", "s"),
    ("trajectory.us_per_jump", "us"),
    ("trajectory.jumps", "count"),
    ("trajectory.traj_ms_p50", "ms"),
    ("trajectory.traj_ms_tail", "ms"),
    ("trajectory.fanout_speedup", "x"),
    ("graph.parse_ms", "ms"),
    ("graph.google_matrix_ms", "ms"),
    ("graph.pagerank_ms", "ms"),
    ("io.write_ms", "ms"),
    ("io.bytes", "B"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)

EXACT_COUNTS = (
    "linalg.eig_calls", "lindblad.liouvillian_calls", "tilt.free_energy_calls",
    "trajectory.jumps", "io.bytes",
)
TAILS = {"tilt.point_ms_tail": "tilt.point", "trajectory.traj_ms_tail": "trajectory.simulate"}


class Run:
    """One benchmark run of one workload: children, checks, samples."""

    def __init__(self, root: Path, workload: wl.Workload, seed: int, workdir: Path, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.edges = wl.graph_file(workload, seed, root, workdir)
        text = self.edges.read_text(encoding="utf-8")
        self.graph_digest = wl.digest(text)
        self.n, edges = wl.parse_graph(text)
        self.g = wl.google_matrix(self.n, edges)
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(root / "src"),
            OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        )
        self.env.pop("QSWALK_WORKERS", None)
        if workload.workers:
            self.env["QSWALK_WORKERS"] = str(workload.workers)
        self.start_clock(seconds)
        self.attempted = 0
        self.failed = 0
        self.fatal: list[str] = []
        self.stat_misses: list[str] = []
        self.timed_out = False

    def start_clock(self, seconds: float) -> None:
        """Measure for ``seconds`` from now; kill a child that hangs past that."""
        self.deadline = time.monotonic() + seconds
        self.kill_at = self.deadline + HANG_MARGIN_S

    def outputs(self):
        return [self.workdir / f"{cmd}.csv" for cmd in self.workload.commands]

    def spawn(self, trace: bool = False, setup_only: bool = False):
        """Run one child to completion; returns its result dict or None."""
        result_path = self.workdir / "child-result.json"
        for p in [result_path, *self.outputs()]:
            p.unlink(missing_ok=True)
        commands = [
            [cmd, "--input", str(self.edges), "--output", str(out),
             *wl.command_args(self.workload, cmd, self.seed)]
            for cmd, out in zip(self.workload.commands, self.outputs())
        ]
        split = None
        if trace and self.workload.workers:
            split = {
                "t_max": wl.MC_T_MAX, "dt": wl.MC_DT,
                "n_traj": wl.MC_TRAJ, "seed0": self.seed * wl.MC_SEED_STRIDE,
            }
        job = {
            "edges": str(self.edges), "damping": wl.DAMPING,
            "coherent_weight": wl.COHERENT_WEIGHT, "commands": commands,
            "trace": trace, "setup_only": setup_only, "split_check": split,
            "result": str(result_path),
        }
        job["t_spawn"] = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            env=self.env, cwd=self.root, stdout=sys.stderr.fileno(),
        )
        try:
            rc = proc.wait(timeout=max(self.kill_at - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            self.timed_out = True
            self.fatal.append(f"child still running {HANG_MARGIN_S:g} s after the run's deadline")
            rc = None
        if rc == 0 and result_path.is_file():
            return json.loads(result_path.read_text(encoding="utf-8"))
        if rc is not None:
            self.fatal.append(f"child exited with code {rc}")
        return None

    def check(self, child) -> None:
        """Check one workload child's outputs and tally its rows."""
        outcomes = []
        commands = child["commands"] if child else [None] * len(self.workload.commands)
        for name, cmd, out in zip(self.workload.commands, commands, self.outputs()):
            expected = len(wl.scan_grid(self.workload)) if name == "scan" else self.n
            if cmd is None or cmd["rc"] != 0 or not out.is_file():
                rc = None if cmd is None else cmd["rc"]
                outcomes += wl.failed_rows(expected, f"{name}: exit code {rc}")
                if cmd is not None and cmd["stderr"]:
                    print(cmd["stderr"].rstrip(), file=sys.stderr)
                if name == "scan" and self.workload.interior_peak:
                    outcomes += wl.failed_rows(1, "scan: no peak report")
                continue
            text = out.read_text(encoding="utf-8")
            try:
                if name == "ranks":
                    outcomes += wl.check_ranks(text, self.g, self.n)
                elif name == "scan":
                    outcomes += wl.check_scan(text, self.n, wl.scan_grid(self.workload))
                else:
                    outcomes += wl.check_simulate(text, self.n)
            except (ValueError, IndexError, KeyError) as exc:
                outcomes += wl.failed_rows(expected, f"{name}: unreadable output ({exc})")
            if name == "scan" and self.workload.interior_peak:
                outcomes += wl.check_peak(cmd["stderr"], wl.scan_grid(self.workload))
        if child and "split" in child:
            equal = child["split"]["equal"]
            outcomes.append((equal, False, "" if equal else "pooled EnsembleStats differ from serial"))
        self.attempted += len(outcomes)
        for passed, statistical, message in outcomes:
            if passed:
                continue
            self.failed += 1
            (self.stat_misses if statistical else self.fatal).append(message)

    def sample(self, child) -> dict:
        """End-to-end values of one workload child."""
        secs = {cmd["argv"][0]: cmd["seconds"] for cmd in child["commands"]}
        main = "simulate" if "simulate" in secs else "scan"
        items = wl.MC_TRAJ if main == "simulate" else len(wl.scan_grid(self.workload))
        out = {
            "setup_s": child["setup_s"],
            "wall_s": child["wall_s"],
            "work_per_s": items / secs[main],
            "peak_rss_mb": child["peak_rss_mb"],
        }
        if "ranks" in secs:
            out["ranks_s"] = secs["ranks"]
        if self.workload.workers:
            out["peak_rss_workers_mb"] = child["peak_rss_workers_mb"]
        out["io_bytes"] = sum(p.stat().st_size for p in self.outputs() if p.is_file())
        return out

    def time_left(self, durations: list[float]) -> bool:
        """Whether another child, as long as the median so far, fits the run."""
        estimate = statistics.median(durations) if durations else 0.0
        return time.monotonic() + estimate <= self.deadline


def layer_metrics(child: dict, io_bytes: int) -> tuple[dict, dict]:
    """Per-layer values of one traced child (see PER_LAYER), and for each
    tail metric its percentile and sample count."""
    spans = child["spans"]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

    def median_ms(name):
        d = durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    def tail_ms(name):
        t = tr.tail(durations(name))
        return (1e3 * t[1], t[0], t[2]) if t else (0.0, None, len(durations(name)))

    selfs = tr.self_times(spans)
    eig = by_name.get("linalg.eig_general", [])
    points = by_name.get("tilt.point", [])
    in_point = sum(
        1 for i in eig if any(spans[a][0] == "tilt.point" for a in tr.ancestors(spans, i))
    )
    traj = durations("trajectory.simulate")
    jumps = sum(spans[i][4] for i in by_name.get("trajectory.simulate", ()))
    out = {
        "linalg.eig_calls": len(eig),
        "linalg.eig_ms_p50": median_ms("linalg.eig_general"),
        "linalg.eig_share": sum(durations("linalg.eig_general")) / child["wall_s"],
        "linalg.null_vector_ms": median_ms("linalg.null_vector"),
        "lindblad.liouvillian_calls": len(by_name.get("lindblad.liouvillian", ())),
        "lindblad.liouvillian_ms_p50": median_ms("lindblad.liouvillian"),
        "lindblad.steady_state_ms": median_ms("lindblad.steady_state"),
        "lindblad.build_qsw_ms": median_ms("lindblad.build_qsw"),
        "tilt.free_energy_calls": len(by_name.get("tilt.free_energy", ())),
        "tilt.tilted_superoperator_ms_p50": median_ms("tilt.tilted_superoperator"),
        "tilt.point_ms_p50": median_ms("tilt.point"),
        "tilt.eig_per_point": in_point / len(points) if points else 0.0,
        "tilt.activity_ms": median_ms("tilt.activity"),
        "tilt.self_s": sum(selfs[i] for i, s in enumerate(spans) if tr.layer(s[0]) == "tilt"),
        "trajectory.us_per_jump": 1e6 * sum(traj) / jumps if jumps else 0.0,
        "trajectory.jumps": jumps,
        "trajectory.traj_ms_p50": median_ms("trajectory.simulate"),
        "trajectory.fanout_speedup": child.get("split", {}).get("fanout_speedup", 0.0),
        "graph.parse_ms": median_ms("graph.parse_edge_list"),
        "graph.google_matrix_ms": median_ms("graph.google_matrix"),
        "graph.pagerank_ms": median_ms("graph.pagerank"),
        "io.write_ms": 1e3 * sum(durations("io.write")),
        "io.bytes": io_bytes,
        "cli.self_s": tr.root_self_time(spans, *child["root"]),
    }
    tails = {}
    for metric, span in TAILS.items():
        out[metric], pct, n = tail_ms(span)
        tails[metric] = (pct, n)
    return out, tails


def check_exact_counts(store: Path, key: str, counts: dict) -> list[str]:
    """Compare ``counts`` with those an earlier run stored under ``key``;
    store them if no run has.  Returns one message per count that differs."""
    known = json.loads(store.read_text(encoding="utf-8")) if store.is_file() else {}
    prior = known.get(key)
    if prior is None:
        known[key] = counts
        store.write_text(json.dumps(known, indent=1), encoding="utf-8")
        return []
    return [
        f"{name} = {counts[name]} differs from {prior[name]} of an earlier run"
        for name in counts
        if name in prior and prior[name] != counts[name]
    ]


def summarize(values: list[float]) -> tuple[float, float, float, int]:
    """Median, first and third quartile, sample count."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "qswalk").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".edges"):
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit(root: Path) -> str:
    if not (root / ".git").exists() or shutil.which("git") is None:
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(root: Path, workload: wl.Workload, seed: int, seconds: float, trace: bool) -> dict:
    workdir = root / ".bench_build" / "perfbench" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(root, workload, seed, workdir, seconds)

    run.spawn(setup_only=True)  # warm-up: byte-compiles qswalk, fills the page cache
    run.start_clock(seconds)

    samples = {False: [], True: []}  # traced? -> [(end-to-end sample, child)]
    durations = []
    env = None
    k = 0
    while not run.timed_out and (k < MIN_CHILDREN or run.time_left(durations)):
        traced = trace and k % 2 == 1
        t0 = time.monotonic()
        child = run.spawn(trace=traced)
        durations.append(time.monotonic() - t0)
        run.check(child)
        k += 1
        if child is None:
            continue
        env = child["env"]
        if child.get("missing"):
            print(f"perfbench: not traced (absent): {', '.join(child['missing'])}", file=sys.stderr)
        samples[traced].append((run.sample(child), child))

    untraced = [s for s, _ in samples[False]]
    source = source_digest(root)
    report = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "graph_digest": run.graph_digest, "source_digest": source,
        "commit": commit(root), "env": env, "children": len(durations),
        "attempted": run.attempted, "failed": run.failed,
        "fatal": run.fatal, "statistical_misses": run.stat_misses,
        "samples": untraced,
    }
    metrics = {}
    if not trace:
        units = dict(END_TO_END, ranks_s="s", peak_rss_workers_mb="MB")
        columns = {name: [s[name] for s in untraced] for name, _unit in END_TO_END}
        if "ranks" in workload.commands:
            columns["ranks_s"] = [s["ranks_s"] for s in untraced]
        if workload.workers:
            columns["peak_rss_workers_mb"] = [s["peak_rss_workers_mb"] for s in untraced]
        for name, values in columns.items():
            metrics[name] = (units[name], *summarize(values)) if values else None
    else:
        per_child = [layer_metrics(c, s["io_bytes"]) for s, c in samples[True]]
        tails = per_child[0][1] if per_child else {}
        wall_u = [s["wall_s"] for s in untraced]
        wall_t = [s["wall_s"] for s, _ in samples[True]]
        for name, unit in PER_LAYER:
            if name == "trace.overhead_frac":
                values = (
                    [statistics.median(wall_t) / statistics.median(wall_u) - 1.0]
                    if wall_u and wall_t else []
                )
            else:
                values = [m[name] for m, _ in per_child]
            metrics[name] = (unit, *summarize(values)) if values else None
            if name in EXACT_COUNTS and len(set(values)) > 1:
                run.fatal.append(f"{name} differs between children: {sorted(set(values))}")
        if "scan" in workload.commands:
            for m, _ in per_child:
                if m["tilt.eig_per_point"] != 2 * run.n + 1:
                    run.fatal.append(f"tilt.eig_per_point = {m['tilt.eig_per_point']:g}, not 2n+1 = {2 * run.n + 1}")
        if per_child:
            run.fatal += check_exact_counts(
                workdir.parent / "exact-counts.json", f"{workload.name}/seed{seed}/{source}",
                {name: per_child[0][0][name] for name in EXACT_COUNTS},
            )
        report["tails"] = tails
    report["metrics"] = metrics
    (workdir / "result.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print_report(report, metrics, workload)
    return report


def print_report(report: dict, metrics: dict, workload: wl.Workload) -> None:
    env = report["env"] or {}
    frac = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(
        f"== {workload.name} seed={report['seed']} trace={report['trace']} "
        f"children={report['children']} graph={report['graph_digest']} "
        f"source={report['source_digest']} commit={report['commit']}"
    )
    print(
        f"   nproc={env.get('nproc')} python={env.get('python')} numpy={env.get('numpy')} "
        f"blas={env.get('blas')} blas_threads={env.get('blas_threads')}"
    )
    print(f"   {'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s}")
    for name, row in metrics.items():
        if row is None:
            print(f"   {name:34s} no samples")
            continue
        unit, med, q1, q3, n = row
        note = ""
        if name in report.get("tails", {}):
            pct, count = report["tails"][name]
            note = f"  p{pct:g} of {count}" if pct else f"  no percentile has 10 of {count} beyond"
        print(f"   {name:34s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {n:4d}{note}")
    label = "work_per_s = " + ("trajectories/s of simulate" if "simulate" in workload.commands else "scan points/s of scan")
    print(f"   {label}; failed_frac = {frac:.4g} ({report['failed']}/{report['attempted']} rows)")
    for msg in sorted(set(report["fatal"] + report["statistical_misses"])):
        print(f"   FAILED: {msg}")


def json_line(reports: list[dict], trace: bool, prefix: bool) -> dict:
    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    for rep in reports:
        for name, unit in names:
            row = rep["metrics"].get(name)
            key = f"{rep['workload']}/{name}" if prefix else name
            metrics[key] = {"value": row[1] if row else 0.0, "unit": unit}
    return {
        "correct": all(not r["fatal"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "qswalk" / "cli.py").is_file():
        print(f"perfbench: no qswalk source at {root / 'src' / 'qswalk'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    reports = [
        run_workload(root, wl.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        for name in names
    ]
    if any(r["attempted"] == 0 for r in reports):
        print("perfbench: a workload produced no checked output", file=sys.stderr)
        return 3
    print(json.dumps(json_line(reports, bool(args.trace), prefix=len(reports) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
