"""Byte-for-byte comparison of the CLI's outputs between two qswalk checkouts.

Run from anywhere:

    python3 tools/compare_outputs.py --base <checkout> --head <checkout>

Each case runs the ``qswalk`` command line of each checkout in a fresh
interpreter, with ``PYTHONPATH=<checkout>/src``, ``OPENBLAS_NUM_THREADS=1``
and ``QSWALK_WORKERS`` unset unless the case sets it, in a temporary
directory of its own.  The graphs are the bundled ``two_node`` and
``six_node`` (each from its own checkout) and the seeded 16-node,
48-edge digraph of perfbench's dense-n16 workload at seed 1.  Per graph
the cases are ``pagerank``; ``ranks``; ``scan`` (the default grid on the
bundled graphs, ``--s-min -2 --s-max 2 --s-steps 3`` on the 16-node one);
``scan --limit-mode`` inactive and active; ``simulate --n-traj 200
--t-max 200 --seed 1000``, serially and with ``QSWALK_WORKERS=2``; and
``simulate --n-traj 1 --t-max 50 --seed 7 --output f.csv`` with its
``f.csv.events.csv``.

Exit codes, stdout, stderr and the files a case writes are compared
byte by byte.  Each difference prints one line; the exit status is 1
if there is any, else 0.  Passing one checkout as both sides checks
that two runs of one tree give the same bytes.  Standard library only;
qswalk itself is imported only by the child processes.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

_MAIN = "import sys; from qswalk.cli import main; sys.exit(main())"


def dense16_text() -> str:
    """perfbench's dense-n16 graph at seed 1: 48 distinct edges of 16 nodes."""
    pairs = [(i, j) for i in range(16) for j in range(16) if i != j]
    edges = sorted(random.Random(1).sample(pairs, 48))
    return "n 16\n" + "".join(f"{a} {b}\n" for a, b in edges)


def cases():
    """(name, graph, arguments, extra environment, files written)."""
    for graph in ("two_node", "six_node", "dense16"):
        grid = ["--s-min", "-2", "--s-max", "2", "--s-steps", "3"] if graph == "dense16" else []
        mc = ["simulate", "--n-traj", "200", "--t-max", "200", "--seed", "1000"]
        yield f"{graph} pagerank", graph, ["pagerank"], {}, ()
        yield f"{graph} ranks", graph, ["ranks"], {}, ()
        yield f"{graph} scan", graph, ["scan", *grid], {}, ()
        for mode in ("inactive", "active"):
            yield f"{graph} scan --limit-mode {mode}", graph, ["scan", "--limit-mode", mode], {}, ()
        yield f"{graph} simulate", graph, mc, {}, ()
        yield f"{graph} simulate QSWALK_WORKERS=2", graph, mc, {"QSWALK_WORKERS": "2"}, ()
        yield (
            f"{graph} simulate --n-traj 1", graph,
            ["simulate", "--n-traj", "1", "--t-max", "50", "--seed", "7", "--output", "f.csv"],
            {}, ("f.csv", "f.csv.events.csv"),
        )


def run(root: Path, graph: str, args: list, env_extra: dict, files, workdir: Path) -> dict:
    """Exit code, stdout, stderr and written files of one case in ``workdir``."""
    workdir.mkdir()
    edges = workdir / f"{graph}.edges"
    if graph == "dense16":
        edges.write_text(dense16_text(), encoding="utf-8")
    else:
        edges.write_bytes((root / "src" / "qswalk" / "data" / edges.name).read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "QSWALK_WORKERS"}
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", **env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN, args[0], "--input", edges.name, *args[1:]],
        cwd=workdir, env=env, capture_output=True,
    )
    out = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
           "stderr": proc.stderr}
    for name in files:
        path = workdir / name
        out[name] = path.read_bytes() if path.exists() else None
    return out


def first_difference(a, b) -> str:
    """The first line at which two outputs part (``None``: not written)."""
    if a is None or b is None:
        return f"missing in {'base' if a is None else 'head'}"
    la, lb = a.splitlines(keepends=True), b.splitlines(keepends=True)
    k = next((k for k, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    x, y = (lines[k] if k < len(lines) else b"" for lines in (la, lb))
    return f"line {k + 1}: base {x!r}, head {y!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout compared against")
    parser.add_argument("--head", required=True, type=Path, help="checkout under test")
    args = parser.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    differences = 0
    all_cases = list(cases())
    with tempfile.TemporaryDirectory(prefix="qswalk-compare-") as tmp:
        for k, (name, graph, cli_args, env_extra, files) in enumerate(all_cases):
            a = run(base, graph, cli_args, env_extra, files, Path(tmp) / f"base{k}")
            b = run(head, graph, cli_args, env_extra, files, Path(tmp) / f"head{k}")
            for what in a:
                if a[what] != b[what]:
                    differences += 1
                    print(f"{name}: {what} differs at {first_difference(a[what], b[what])}")
    print(f"{len(all_cases)} cases, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
