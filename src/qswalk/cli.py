"""Command-line front end.

Subcommands: ``pagerank`` (classical scores), ``ranks`` (pagerank vs.
dynamical activity vs. steady-state populations), ``scan`` (uniform-tilt
thermodynamic scan), ``simulate`` (jump Monte Carlo ensemble).  All
outputs are CSV with a header row; ``--output -`` (the default) writes
to stdout.  Exit codes: 0 success, 2 usage/input error, 3 numerical
failure or a model too large for the dense generator (only ``scan``
grids build it).  The reference columns of ``simulate`` are exact n x n
values (:func:`~qswalk.tilt.stationary_references`).  The
environment variable ``QSWALK_WORKERS`` bounds the process count of
scans and ensembles (default: serial): a scan uses at most one process
per point, an ensemble at most one per trajectory and per
``trajectory._POOL_WORK`` of (n_traj x t_max - 2n) x n^2.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import io as qio
from .errors import EdgeListError, QswError, SizeBudgetError
from .graph import DEFAULT_DAMPING, google_matrix, pagerank, parse_edge_list
from .lindblad import DEFAULT_COHERENT_WEIGHT, build_qsw, steady_state
from .tilt import (
    DEFAULT_FD_STEP,
    activity,  # unused here; perfbench still patches qswalk.cli.activity
    active_limit_normalized_activity,
    dispersion,  # unused here; perfbench still patches qswalk.cli.dispersion
    scan,
    stationary_references,
    ThermoPoint,
    uniform_tilt,
)
from .linalg import eig_general  # unused here; perfbench still patches qswalk.cli.eig_general
from .trajectory import (
    DEFAULT_DT,
    DEFAULT_N_TRAJ,
    DEFAULT_SEED,
    DEFAULT_T_MAX,
    ensemble_stats,
    simulate,
)

WORKERS_ENV = "QSWALK_WORKERS"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
_PEAK_TOL = 1e-3  # relative margin by which an interior delta_global peak clears both ends


@dataclass
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    command: str
    input: str
    output: str = "-"
    damping: float = DEFAULT_DAMPING
    coherent_weight: float = DEFAULT_COHERENT_WEIGHT
    s_min: float = -3.0
    s_max: float = 3.0
    s_steps: int = 61
    fd_step: float = DEFAULT_FD_STEP
    t_max: float = DEFAULT_T_MAX
    dt: float = DEFAULT_DT
    n_traj: int = DEFAULT_N_TRAJ
    seed: int = DEFAULT_SEED
    limit_mode: str = "none"
    n_workers: Optional[int] = None

    def validate(self) -> None:
        for name in ("damping", "coherent_weight", "s_min", "s_max", "fd_step", "t_max", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"--{name.replace('_', '-')} must be finite")
        if self.s_steps < 1:
            raise ValueError("--s-steps must be >= 1")
        if self.s_max < self.s_min:
            raise ValueError("--s-max must be >= --s-min")
        for name in ("damping", "fd_step", "t_max", "dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"--{name.replace('_', '-')} must be positive")
        if self.coherent_weight < 0:
            raise ValueError("--coherent-weight must be >= 0")
        if self.n_traj < 1:
            raise ValueError("--n-traj must be >= 1")
        if self.seed < 0:
            raise ValueError("--seed must be >= 0")


def _build_parser() -> argparse.ArgumentParser:
    # defaults live in RunConfig; an option left out stays off the namespace
    parser = argparse.ArgumentParser(
        prog="qswalk",
        description="Dissipative quantum walks on directed graphs: "
        "pagerank, tilted-Liouvillian thermodynamics, jump Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--input", required=True, help="edge-list file")
        p.add_argument("--output", help="output CSV path ('-' = stdout)")
        p.add_argument("--damping", type=float)
        return p

    command("pagerank", "classical pagerank scores")

    p_ranks = command("ranks", "pagerank vs. activity at s=0 vs. steady-state populations")
    p_ranks.add_argument("--coherent-weight", type=float)

    p_scan = command("scan", "thermodynamic scan over uniform tilts")
    p_scan.add_argument("--coherent-weight", type=float)
    p_scan.add_argument("--s-min", type=float)
    p_scan.add_argument("--s-max", type=float)
    p_scan.add_argument("--s-steps", type=int)
    p_scan.add_argument("--fd-step", type=float)
    p_scan.add_argument(
        "--limit-mode",
        choices=["none", "inactive", "active"],
        help="emit the extreme-tilt limit point instead of a grid",
    )

    p_sim = command("simulate", "quantum-jump Monte Carlo ensemble")
    p_sim.add_argument("--coherent-weight", type=float)
    p_sim.add_argument("--t-max", type=float)
    p_sim.add_argument("--dt", type=float, help="accepted and checked; the sampler takes no step")
    p_sim.add_argument("--n-traj", type=int)
    p_sim.add_argument("--seed", type=int)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**vars(args))
    workers = os.environ.get(WORKERS_ENV)
    if workers:
        try:
            cfg.n_workers = max(1, int(workers))
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {workers!r}") from None
    cfg.validate()
    return cfg


def _load_graph(cfg: RunConfig):
    with open(cfg.input, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


@contextlib.contextmanager
def _open_output(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def cmd_pagerank(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    pi = pagerank(google_matrix(g, cfg.damping))
    with _open_output(cfg.output) as fp:
        qio.write_pagerank_csv(fp, pi)
    return EXIT_OK


def cmd_ranks(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    model = build_qsw(g, cfg.damping, cfg.coherent_weight)
    pi = pagerank(google_matrix(g, cfg.damping))
    pop = np.real(np.diag(steady_state(model)))
    act = model.rates @ pop  # stationary jump rates
    with _open_output(cfg.output) as fp:
        qio.write_ranks_csv(fp, pi, act, pop)
    return EXIT_OK


def _limit_point(model, mode: str) -> ThermoPoint:
    if mode == "active":  # theta = 1: jumps follow the Perron vector of the rates
        alpha_norm = active_limit_normalized_activity(model)
        return ThermoPoint(s=np.full(model.n, -math.inf), theta=1.0, alpha_norm=alpha_norm)
    return ThermoPoint(s=np.full(model.n, math.inf), theta=-1.0)  # no jumps: norm decay


def cmd_scan(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    model = build_qsw(g, cfg.damping, cfg.coherent_weight)
    if cfg.limit_mode != "none":
        points = [_limit_point(model, cfg.limit_mode)]
    else:
        grid = [
            uniform_tilt(model, sigma)
            for sigma in np.linspace(cfg.s_min, cfg.s_max, cfg.s_steps)
        ]
        points = scan(model, grid, h=cfg.fd_step, n_workers=cfg.n_workers)
    with _open_output(cfg.output) as fp:
        qio.write_scan_csv(fp, points, model.n)
    if cfg.limit_mode == "none":  # a limit point is no grid to find a peak on
        _report_crossover(points)
    return EXIT_OK


def _report_crossover(points) -> None:
    """Companion summary: where the global dispersion peaks, if anywhere."""
    valid = [
        (k, pt) for k, pt in enumerate(points) if pt.delta_global is not None
    ]
    if len(valid) < 3:
        print("delta_global: too few defined points for a peak report", file=sys.stderr)
        return
    k_best, best = max(valid, key=lambda kv: kv[1].delta_global)
    peak = best.delta_global
    ends = max(valid[0][1].delta_global, valid[-1][1].delta_global)
    at = f"s={float(np.atleast_1d(best.s)[0]):.6g}"
    if not valid[0][0] < k_best < valid[-1][0]:
        report = f"is extremal at the boundary {at} (value {peak:.6g}; no interior maximum)"
    elif peak - ends > _PEAK_TOL * abs(peak):  # well above the FD error of the rows
        report = f"peaks at {at} (value {peak:.6g}, interior maximum)"
    else:
        report = (f"is flat to {_PEAK_TOL:g} over the scan "
                  f"(max {peak:.6g} at {at}; no interior maximum)")
    print(f"delta_global {report}", file=sys.stderr)


def cmd_simulate(cfg: RunConfig) -> int:
    g = _load_graph(cfg)
    model = build_qsw(g, cfg.damping, cfg.coherent_weight)
    act0 = model.rates @ np.real(np.diag(steady_state(model)))  # as in ranks
    disp0, offset = stationary_references(model, act0)  # from the uniform start state
    if cfg.n_traj == 1:  # no variance columns
        rec = simulate(model, None, cfg.t_max, cfg.dt, cfg.seed)
        columns = (rec.counts / cfg.t_max, None, None, None, None)
    else:
        stats = ensemble_stats(
            model,
            None,
            cfg.t_max,
            cfg.dt,
            n_traj=cfg.n_traj,
            seed0=cfg.seed,
            n_workers=cfg.n_workers,
        )
        columns = (
            stats.mean_rate,
            stats.standard_errors,
            stats.var_rate,
            stats.dispersion_hat,
            stats.dispersion_se,
        )
    with _open_output(cfg.output) as fp:
        qio.write_ensemble_csv(fp, *columns, activity0=act0, dispersion0=disp0,
                               activity_t=act0 + offset / cfg.t_max)
    if cfg.n_traj == 1 and cfg.output != "-":
        with open(cfg.output + ".events.csv", "w", encoding="utf-8", newline="") as fp:
            qio.write_events_csv(fp, rec)
    return EXIT_OK


_COMMANDS = {
    "pagerank": cmd_pagerank,
    "ranks": cmd_ranks,
    "scan": cmd_scan,
    "simulate": cmd_simulate,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"qswalk: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[cfg.command](cfg)
    except (OSError, EdgeListError) as exc:
        print(f"qswalk: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeBudgetError as exc:
        print(f"qswalk: model too large: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QswError as exc:
        print(f"qswalk: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"qswalk: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
