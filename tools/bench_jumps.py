"""Microseconds per jump of the batched jump engine, ``qswalk.jumps.run_lanes``.

Run from the root of a qswalk checkout:

    python3 tools/bench_jumps.py --label <label>

It times ``run_lanes`` from the uniform superposition on seeded random
digraphs with 3n distinct edges (fewer when n(n-1) is smaller), built as
perfbench builds its dense-n16 graph (``random.Random(seed).sample`` of
the ordered node pairs), with damping 0.85 and coherent weight 1:

* n = 2 and n = 6: 200 lanes at t = 200 (the Monte Carlo workloads' size);
* n = 64: 1024 lanes at t = 20;
* n = 256: 64 lanes at t = 20, and 1024 lanes at t = 5 as one block;
* n = 6: 8192 lanes at t = 50, in the blocks of ``trajectory._BLOCK``
  (1024) lanes that an ensemble runs, and as one block;
* n = 1024: 16 lanes at t = 2.

Lane k runs seed 1000 + k.  Each case runs once untimed (the model's
eigenbasis and numpy's first calls), then ``--repeat`` timed runs; the
jump count is the same in every run.  The result goes to
``BENCH_jumps_<label>.json`` in ``--out`` (default: the checkout root),
with the core count and the BLAS thread count.  It uses numpy and the
standard library only, and imports qswalk from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads BLAS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qswalk as q  # noqa: E402
from qswalk.jumps import run_lanes  # noqa: E402

CASES = (  # (n, lanes, t_max, lanes per run_lanes call)
    (2, 200, 200.0, 200), (6, 200, 200.0, 200), (64, 1024, 20.0, 1024), (256, 64, 20.0, 64),
    (256, 1024, 5.0, 1024), (6, 8192, 50.0, 1024), (6, 8192, 50.0, 8192), (1024, 16, 2.0, 16),
)
GRAPH_SEED = 1
FIRST_SEED = 1000


def graph_text(n: int, seed: int = GRAPH_SEED) -> str:
    """Edge list of an n-node digraph with min(3n, n(n-1)) distinct edges."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = sorted(random.Random(seed).sample(pairs, min(3 * n, len(pairs))))
    return f"n {n}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def time_case(n: int, lanes: int, t_max: float, block: int, repeat: int) -> dict:
    model = q.build_qsw(q.parse_edge_list(graph_text(n)), 0.85, 1.0)
    psi0 = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    seeds = range(FIRST_SEED, FIRST_SEED + lanes)

    def run() -> int:
        return sum(int(run_lanes(model, psi0, t_max, seeds[k:k + block])[0].sum())
                   for k in range(0, lanes, block))

    jumps = run()
    runs = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        count = run()
        runs.append((time.perf_counter() - t0) * 1e6 / jumps)
        if count != jumps:
            raise RuntimeError(f"n={n}: the jump count changed between runs")
    return {
        "n": n,
        "edges": min(3 * n, n * (n - 1)),
        "lanes": lanes,
        "block": block,
        "t_max": t_max,
        "jumps": jumps,
        "us_per_jump_median": statistics.median(runs),
        "us_per_jump_min": min(runs),
        "us_per_jump_runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output file")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per case")
    parser.add_argument("--out", type=Path, default=ROOT, help="output directory")
    args = parser.parse_args(argv)
    cases = []
    for n, lanes, t_max, block in CASES:
        cases.append(time_case(n, lanes, t_max, block, args.repeat))
        print(f"n={n:4d} lanes={lanes:5d} block={block:5d} t={t_max:g}: "
              f"{cases[-1]['us_per_jump_median']:.2f} us per jump", file=sys.stderr)
    result = {
        "label": args.label,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cases": cases,
    }
    path = args.out / f"BENCH_jumps_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
