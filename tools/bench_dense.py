"""Time and memory of the dense generator path: the cached real generator
``QswModel.hermitian_generator`` and one ``free_energy`` call.

Run from the root of a qswalk checkout:

    python3 tools/bench_dense.py --label <label> [--n 16 32] [--repeat 3]

Each n runs ``--repeat`` times, each time in a fresh interpreter, on a
seeded random digraph with 3n distinct edges (fewer when n(n-1) is
smaller), built as perfbench builds its dense-n16 graph
(``random.Random(1).sample`` of the ordered node pairs), with damping
0.85 and coherent weight 1.  After ``build_qsw`` the child measures two
stages in turn:

* ``build``: the first read of ``model.hermitian_generator``, which
  assembles the complex Liouvillian and converts it to the real
  Hermitian basis;
* ``free_energy``: one ``free_energy`` call at the uniform tilt s = 0.5,
  which copies and tilts the cached generator, takes its spectrum and
  its leading eigenvector.

For each stage it records the seconds, the peak of ``tracemalloc``
(allocations made during the stage; tracing is on while it is timed) and
the process's peak RSS (``ru_maxrss``) at the end of the stage, so the
``free_energy`` RSS is the peak through the build and the call.
``import_rss_mb`` is the peak RSS before the build.  The result goes to
``BENCH_dense_<label>.json`` in ``--out`` (default: the checkout root)
with every run, the per-n medians, the core count and the BLAS thread
count.  One 64-node ``free_energy`` takes 25-32 s and about 0.45 GB
(2 cores, one BLAS thread), so ``--n 64`` is for local runs.  It uses numpy and the standard library
only, and imports qswalk from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads BLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
GRAPH_SEED = 1
TILT = 0.5
MB = 2.0 ** 20


def graph_text(n: int, seed: int = GRAPH_SEED) -> str:
    """Edge list of an n-node digraph with min(3n, n(n-1)) distinct edges."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = sorted(random.Random(seed).sample(pairs, min(3 * n, len(pairs))))
    return f"n {n}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stage(fn) -> tuple:
    """(value, seconds, traced peak in MB, peak RSS in MB) of ``fn()``."""
    tracemalloc.start()
    t0 = time.perf_counter()
    value = fn()
    seconds = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return value, seconds, peak / MB, peak_rss_mb()


def measure(n: int) -> dict:
    """One run at n nodes, in this interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    import qswalk as q

    model = q.build_qsw(q.parse_edge_list(graph_text(n)), 0.85, 1.0)
    import_rss = peak_rss_mb()
    w, build_s, build_peak, build_rss = stage(lambda: model.hermitian_generator)
    theta, fe_s, fe_peak, fe_rss = stage(lambda: q.free_energy(model, q.uniform_tilt(model, TILT)))
    return {
        "n": n,
        "edges": min(3 * n, n * (n - 1)),
        "generator_mb": w.nbytes / MB,
        "import_rss_mb": import_rss,
        "build_s": build_s,
        "build_traced_peak_mb": build_peak,
        "build_rss_mb": build_rss,
        "free_energy_s": fe_s,
        "free_energy_traced_peak_mb": fe_peak,
        "free_energy_rss_mb": fe_rss,
        "theta": theta,
    }


def run_child(n: int) -> dict:
    """:func:`measure` at n nodes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(n)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="names the output file")
    parser.add_argument("--n", type=int, nargs="+", default=[16, 32], help="node counts")
    parser.add_argument("--repeat", type=int, default=3, help="fresh interpreters per n")
    parser.add_argument("--out", type=Path, default=ROOT, help="output directory")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child)))
        return 0
    if args.label is None:
        parser.error("--label is required")
    cases = []
    for n in args.n:
        runs = [run_child(n) for _ in range(args.repeat)]
        if len({r["theta"] for r in runs}) != 1:
            raise RuntimeError(f"n={n}: free_energy changed between runs")
        medians = {k: statistics.median(r[k] for r in runs) for k in runs[0] if k != "n"}
        cases.append({"n": n, **medians, "runs": runs})
        print(f"n={n:3d}: build {medians['build_s']:.3f} s, traced "
              f"{medians['build_traced_peak_mb']:.1f} MB, RSS {medians['build_rss_mb']:.1f} MB; "
              f"free_energy {medians['free_energy_s']:.3f} s, traced "
              f"{medians['free_energy_traced_peak_mb']:.1f} MB, RSS "
              f"{medians['free_energy_rss_mb']:.1f} MB", file=sys.stderr)
    result = {
        "label": args.label,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tilt": TILT,
        "cases": cases,
    }
    path = args.out / f"BENCH_dense_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
