"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage: ``python3 child.py '<job json>'``.  The job names the edge list, the
``qswalk`` command lines, whether to trace, and the file to write the result
to.  The child

1. imports ``qswalk``, parses the edge list and builds the model with
   ``build_qsw`` (set-up, timed from the moment the parent spawned it);
2. runs each command through ``qswalk.cli.main(argv)``, capturing stderr;
3. writes timings, exit codes, peak RSS (its own and its largest pool
   worker's), the run environment and, when
   traced, every span to the result file.

All times are ``time.monotonic()``, which on Linux is CLOCK_MONOTONIC and
so comparable with the parent's spawn timestamp.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

# (module, attribute, span name): every place a layer entry point is bound.
# qswalk binds with ``from .x import y``, so each user module is patched.
PATCHES = (
    ("qswalk.graph", "parse_edge_list", "graph.parse_edge_list"),
    ("qswalk.cli", "parse_edge_list", "graph.parse_edge_list"),
    ("qswalk.lindblad", "google_matrix", "graph.google_matrix"),
    ("qswalk.cli", "google_matrix", "graph.google_matrix"),
    ("qswalk.cli", "pagerank", "graph.pagerank"),
    ("qswalk.lindblad", "build_qsw", "lindblad.build_qsw"),
    ("qswalk.cli", "build_qsw", "lindblad.build_qsw"),
    ("qswalk.tilt", "liouvillian", "lindblad.liouvillian"),
    ("qswalk.lindblad", "liouvillian", "lindblad.liouvillian"),
    ("qswalk.cli", "steady_state", "lindblad.steady_state"),
    ("qswalk.tilt", "eig_general", "linalg.eig_general"),
    ("qswalk.trajectory", "eig_general", "linalg.eig_general"),
    ("qswalk.cli", "eig_general", "linalg.eig_general"),
    ("qswalk.lindblad", "null_vector", "linalg.null_vector"),
    ("qswalk.tilt", "free_energy", "tilt.free_energy"),
    ("qswalk.tilt", "tilted_superoperator", "tilt.tilted_superoperator"),
    ("qswalk.tilt", "_scan_worker", "tilt.point"),
    ("qswalk.cli", "activity", "tilt.activity"),
    ("qswalk.cli", "dispersion", "tilt.dispersion"),
    ("qswalk.cli", "scan", "tilt.scan"),
    ("qswalk.trajectory", "simulate", "trajectory.simulate"),
    ("qswalk.cli", "simulate", "trajectory.simulate"),
    ("qswalk.cli", "ensemble_stats", "trajectory.ensemble_stats"),
    ("qswalk.io", "write_pagerank_csv", "io.write"),
    ("qswalk.io", "write_ranks_csv", "io.write"),
    ("qswalk.io", "write_scan_csv", "io.write"),
    ("qswalk.io", "write_ensemble_csv", "io.write"),
    ("qswalk.io", "write_events_csv", "io.write"),
)


def _jump_count(record) -> int:
    return len(record.jump_events)


def install(tracer, on_ensemble=None) -> list[str]:
    """Patch every entry of PATCHES; returns the names that do not exist."""
    missing = []
    for module_name, attr, span in PATCHES:
        on_result = None
        if span == "trajectory.simulate":
            on_result = _jump_count
        elif span == "trajectory.ensemble_stats":
            on_result = on_ensemble
        if not tracer.patch(importlib.import_module(module_name), attr, span, on_result):
            missing.append(f"{module_name}.{attr}")
    return missing


def _environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _same_stats(a, b) -> bool:
    """Bitwise equality of two EnsembleStats."""
    if a.n_traj != b.n_traj:
        return False
    fields = ("mean_rate", "var_rate", "dispersion_hat", "standard_errors", "dispersion_se")
    return all(
        getattr(a, f).dtype == getattr(b, f).dtype
        and getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in fields
    )


def run(job: dict) -> dict:
    t_spawn = job["t_spawn"]
    import qswalk.cli
    import qswalk.graph
    import qswalk.lindblad

    tracer = None
    pooled = []
    result: dict = {}
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        result["missing"] = install(tracer, on_ensemble=pooled.append)

    with open(job["edges"], encoding="utf-8") as fh:
        graph = qswalk.graph.parse_edge_list(fh.read())
    model = qswalk.lindblad.build_qsw(graph, job["damping"], job["coherent_weight"])
    result["setup_s"] = time.monotonic() - t_spawn
    if job.get("setup_only"):
        return result

    commands = []
    t0 = time.monotonic()
    for argv in job["commands"]:
        err = io.StringIO()
        c0 = time.monotonic()
        with contextlib.redirect_stderr(err):
            try:
                rc = qswalk.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                rc = exc.code
            except Exception:  # a defect in the program: report, keep going
                traceback.print_exc()
                rc = -1
        c1 = time.monotonic()
        commands.append({"argv": argv, "rc": rc, "seconds": c1 - c0, "stderr": err.getvalue()})
    t_end = time.monotonic()
    result.update(commands=commands, wall_s=t_end - t0)

    if tracer is not None:
        tracer.restore()
        result.update(spans=tracer.spans, root=[t_spawn, t_end])
        split = job.get("split_check")
        if split and pooled:
            pooled_s = next(
                s[2] - s[1] for s in tracer.spans if s[0] == "trajectory.ensemble_stats"
            )
            c0 = time.monotonic()
            serial = qswalk.trajectory.ensemble_stats(model, None, n_workers=None, **split)
            serial_s = time.monotonic() - c0
            result["split"] = {
                "equal": _same_stats(pooled[0], serial),
                "fanout_speedup": serial_s / pooled_s,
            }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The largest peak among ended child processes: the QSWALK_WORKERS pool.
    result["peak_rss_workers_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result["env"] = _environment()
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    result = run(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
