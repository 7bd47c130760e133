"""Workloads, their seeded inputs, and the checks on qswalk's outputs.

Each workload is a short list of ``qswalk`` commands on one graph.  The
workloads are chosen so that different layers dominate:

* ``six-node``: ``ranks`` then the default 61-point ``scan`` on the bundled
  six-node graph.  The superoperator is 36x36, so per-call overhead
  (generator assembly, eigensolver wrapper checks) is a large share.
* ``dense-n16``: ``ranks`` then a scan at s = -2 and 2 on a seeded random
  16-node digraph.  Dense 256x256 eigensolves dominate.
* ``mc-two-node``: ``simulate`` on the bundled two-node graph, serially.
  The jump engine dominates; the eigensolver is nearly idle.
* ``mc-six-pool``: the same ``simulate`` on the six-node graph through the
  two-process ``QSWALK_WORKERS`` fan-out, the only pooled path measured.

The checker functions return one outcome per checked output row.  An
outcome is ``(passed, statistical, message)``; statistical outcomes are the
Monte Carlo z-score bounds, which a correct program misses by chance at a
small rate, so they count as failed rows without marking the run incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

DAMPING = 0.85
COHERENT_WEIGHT = 1.0

DENSE_N = 16
DENSE_EDGES = 48
DENSE_GRID = (-2.0, 2.0, 2)  # s_min, s_max, s_steps of the dense scan
SIX_NODE_GRID = (-3.0, 3.0, 61)  # qswalk scan defaults

MC_T_MAX = 200.0
MC_DT = 0.05
MC_TRAJ = 200
MC_SEED_STRIDE = 1000  # benchmark seed k uses trajectory seeds k*1000 ...

# Tolerances of the acceptance suite and unit tests (tests/).
THETA_TOL = 1e-8
ALPHA_SUM_TOL = 1e-7
TRIPLE_PATH_TOL = 5e-6
POPULATION_SUM_TOL = 1e-9
PAGERANK_TOL = 1e-9
Z_ACTIVITY_MAX = 3.0
Z_DISPERSION_MAX = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: str  # bundled graph name, or "random" for the seeded digraph
    commands: tuple  # subcommand names, run in order
    workers: Optional[int] = None  # QSWALK_WORKERS, None = serial
    interior_peak: bool = False  # scan must report an interior dispersion peak


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "six-node",
            "36x36 superoperator: per-call overhead of generator assembly and eigensolver checks dominates",
            "six_node",
            ("ranks", "scan"),
            interior_peak=True,
        ),
        Workload(
            "dense-n16",
            "seeded 16-node digraph: dense 256x256 eigensolves dominate ranks and scan",
            "random",
            ("ranks", "scan"),
        ),
        Workload(
            "mc-two-node",
            "serial jump Monte Carlo on two nodes: the jump engine dominates, the eigensolver is idle",
            "two_node",
            ("simulate",),
        ),
        Workload(
            "mc-six-pool",
            "jump Monte Carlo on six nodes through the two-process QSWALK_WORKERS fan-out",
            "six_node",
            ("simulate",),
            workers=2,
        ),
    )
}


def random_digraph_text(seed: int) -> str:
    """Edge list of a 16-node digraph with 48 distinct edges and no self-loops."""
    pairs = [(i, j) for i in range(DENSE_N) for j in range(DENSE_N) if i != j]
    edges = sorted(random.Random(seed).sample(pairs, DENSE_EDGES))
    return f"n {DENSE_N}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def graph_file(workload: Workload, seed: int, root: Path, workdir: Path) -> Path:
    """Path of the workload's edge list, writing the seeded one if needed."""
    if workload.graph != "random":
        return root / "src" / "qswalk" / "data" / f"{workload.graph}.edges"
    path = workdir / f"{workload.name}-seed{seed}.edges"
    path.write_text(random_digraph_text(seed), encoding="utf-8")
    return path


def command_args(workload: Workload, command: str, seed: int) -> list[str]:
    """Arguments after ``--input``/``--output`` for one command."""
    if command == "scan" and workload.graph == "random":
        lo, hi, steps = DENSE_GRID
        return ["--s-min", repr(lo), "--s-max", repr(hi), "--s-steps", str(steps)]
    if command == "simulate":
        return [
            "--t-max", repr(MC_T_MAX), "--dt", repr(MC_DT),
            "--n-traj", str(MC_TRAJ), "--seed", str(seed * MC_SEED_STRIDE),
        ]
    return []


def scan_grid(workload: Workload) -> list[float]:
    lo, hi, steps = DENSE_GRID if workload.graph == "random" else SIX_NODE_GRID
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def parse_graph(text: str):
    """(n, edges) from edge-list text; an independent reader for the checks."""
    declared = None
    edges = set()
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "n":
            declared = int(parts[1])
        else:
            edges.add((int(parts[0]), int(parts[1])))
    n = declared if declared is not None else 1 + max(max(e) for e in edges)
    return n, edges


def google_matrix(n: int, edges, damping: float = DAMPING) -> list[list[float]]:
    """G[i][j]: rate j -> i; uniform columns for dangling nodes."""
    out_deg = [0] * n
    for src, _dst in edges:
        out_deg[src] += 1
    g = [[(1.0 - damping) / n] * n for _ in range(n)]
    for j in range(n):
        if out_deg[j] == 0:
            for i in range(n):
                g[i][j] += damping / n
    for src, dst in edges:
        g[dst][src] += damping / out_deg[src]
    return g


def _rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


def _matvec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def failed_rows(expected: int, why: str):
    return [(False, False, why)] * expected


def check_ranks(text: str, g, n: int):
    """activity0 = G @ population and G @ pagerank = pagerank, row by row."""
    rows = _rows(text)
    if not rows or rows[0] != ["node", "pagerank", "activity0", "population"]:
        return failed_rows(n, "ranks: bad header")
    body = rows[1:]
    if len(body) != n:
        return failed_rows(n, f"ranks: {len(body)} rows, expected {n}")
    pi = [float(r[1]) for r in body]
    act = [float(r[2]) for r in body]
    pop = [float(r[3]) for r in body]
    pop_ok = abs(sum(pop) - 1.0) <= POPULATION_SUM_TOL
    g_pop = _matvec(g, pop)
    g_pi = _matvec(g, pi)
    out = []
    for i in range(n):
        ok = (
            pop_ok
            and abs(act[i] - g_pop[i]) <= TRIPLE_PATH_TOL
            and abs(g_pi[i] - pi[i]) <= PAGERANK_TOL
        )
        out.append((ok, False, "" if ok else f"ranks row {i}: identity violated"))
    return out


def check_scan(text: str, n: int, grid: list[float]):
    """No error cell, theta = exp(-s) - 1 and sum(alpha) = exp(-s) per row."""
    rows = _rows(text)
    expected = len(grid)
    if not rows or len(rows[0]) != 3 * n + 4 or rows[0][:2] != ["s", "theta"]:
        return failed_rows(expected, "scan: bad header")
    body = rows[1:]
    if len(body) != expected:
        return failed_rows(expected, f"scan: {len(body)} rows, expected {expected}")
    out = []
    for k, (row, s) in enumerate(zip(body, grid)):
        s_cell = float(row[0])
        ok = row[-1] == "" and abs(s_cell - s) <= 1e-12
        if ok:
            theta = float(row[1])
            alpha_sum = math.fsum(float(x) for x in row[2 : 2 + n])
            ok = (
                abs(theta - math.expm1(-s_cell)) <= THETA_TOL
                and abs(alpha_sum - math.exp(-s_cell)) <= ALPHA_SUM_TOL
            )
        why = row[-1] or "theta or sum(alpha) identity violated"
        out.append((ok, False, "" if ok else f"scan row {k} (s={s:g}): {why}"))
    return out


PEAK_LINE = re.compile(r"^delta_global peaks at s=(\S+) \(value \S+, interior maximum\)$", re.M)


def check_peak(stderr: str, grid: list[float]):
    """The scan's stderr summary reports an interior delta_global peak.

    The boundary case ("... no interior maximum") and the too-few-points
    case both fail, as does a reported s outside the open scan interval.
    """
    m = PEAK_LINE.search(stderr)
    ok = m is not None and grid[0] < float(m.group(1)) < grid[-1]
    return [(ok, False, "" if ok else "scan: no interior dispersion peak reported")]


def check_simulate(text: str, n: int):
    """|z_activity| <= 3 and |z_dispersion| <= 5 per node (statistical)."""
    rows = _rows(text)
    if not rows or rows[0][:2] != ["node", "mean_rate"]:
        return failed_rows(n, "simulate: bad header")
    head = rows[0]
    body = [dict(zip(head, r)) for r in rows[1:]]
    if len(body) != n:
        return failed_rows(n, f"simulate: {len(body)} rows, expected {n}")
    out = []
    for i, cells in enumerate(body):
        if cells["z_activity"] == "" or cells["z_dispersion"] == "":
            out.append((False, False, f"simulate row {i}: empty z-score"))
            continue
        z_act = float(cells["z_activity"])
        z_disp = float(cells["z_dispersion"])
        ok = abs(z_act) <= Z_ACTIVITY_MAX and abs(z_disp) <= Z_DISPERSION_MAX
        out.append(
            (ok, True, "" if ok else f"simulate row {i}: z_activity {z_act:.2f}, z_dispersion {z_disp:.2f}")
        )
    return out
