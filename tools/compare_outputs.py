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
byte by byte.

The ``library`` case runs one more child interpreter per checkout,
which prints the sha256 of each library route's output on the bundled
graphs, one line per route and graph: ``free_energy``, ``activity`` and
``dispersion`` at four tilts; ``steady_state``; ``stationary_references``;
``eig_general`` of the real Hermitian-basis generator and of the complex
tilted one; ``null_vector`` of the renewal chain less I and of the
Liouvillian; ``evolve`` and ``integrate_linear``; and
``free_energy_by_integration`` (with ``full_output``) at t_max/dt =
10/0.01, 10.05/0.01 and 5/0.5.  Arrays are hashed by their bytes and
floats by their shortest round-trip ``repr``, so equal digests mean
bitwise equal values.

Each difference prints one line; the exit status is 1 if there is any,
else 0.  Passing one checkout as both sides checks that two runs of one
tree give the same bytes.  Standard library only; qswalk itself is
imported only by the child processes.
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

_LIBRARY = """
import dataclasses
import hashlib

import numpy as np

import qswalk as q
from qswalk.data import BUNDLED, load_bundled


def feed(h, value):
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        h.update(b"[%d]" % len(value))
        for item in value:
            feed(h, item)
    elif isinstance(value, np.ndarray):
        h.update(repr((value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())


for graph in BUNDLED:
    model = q.build_qsw(load_bundled(graph))
    n = model.n
    tilts = [q.uniform_tilt(model, v) for v in (-1.0, 0.0, 0.5)] + [np.linspace(-0.5, 0.5, n)]
    w = q.tilted_superoperator(model, tilts[-1])
    rho0 = np.zeros((n, n))
    rho0[0, 0] = 1.0
    routes = [
        ("free_energy", [q.free_energy(model, s) for s in tilts]),
        ("activity", [q.activity(model, s) for s in tilts]),
        ("dispersion", [q.dispersion(model, s) for s in tilts]),
        ("steady_state", q.steady_state(model)),
        ("stationary_references",
         q.stationary_references(model, q.activity_from_steady_state(model))),
        ("eig_general", [q.eig_general(model.hermitian_generator), q.eig_general(w)]),
        ("null_vector",
         [q.null_vector(model.renewal - np.eye(n)), q.null_vector(q.liouvillian(model))]),
        ("evolve", [q.evolve(model, rho0, 2.0), q.evolve(model, rho0, 1.05, 0.1)]),
        ("integrate_linear", q.integrate_linear(w, q.vec(rho0), 0.55, 0.01)),
    ]
    for t_max, dt in ((10.0, 0.01), (10.05, 0.01), (5.0, 0.5)):
        routes.append((
            f"free_energy_by_integration t_max={t_max:g} dt={dt:g}",
            q.free_energy_by_integration(model, tilts[-1], t_max, dt, full_output=True),
        ))
    for name, value in routes:
        h = hashlib.sha256()
        feed(h, value)
        print(f"{graph} {name}: {h.hexdigest()}")
"""


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


def child(root: Path, argv: list, env_extra: dict, workdir: Path) -> subprocess.CompletedProcess:
    """``python -c *argv`` on the checkout ``root``'s sources, in ``workdir``."""
    env = {k: v for k, v in os.environ.items() if k != "QSWALK_WORKERS"}
    env.update(PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", **env_extra)
    return subprocess.run(
        [sys.executable, "-c", *argv], cwd=workdir, env=env, capture_output=True
    )


def run(root: Path, graph: str, args: list, env_extra: dict, files, workdir: Path) -> dict:
    """Exit code, stdout, stderr and written files of one case in ``workdir``."""
    workdir.mkdir()
    edges = workdir / f"{graph}.edges"
    if graph == "dense16":
        edges.write_text(dense16_text(), encoding="utf-8")
    else:
        edges.write_bytes((root / "src" / "qswalk" / "data" / edges.name).read_bytes())
    proc = child(root, [_MAIN, args[0], "--input", edges.name, *args[1:]], env_extra, workdir)
    out = {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
           "stderr": proc.stderr}
    for name in files:
        path = workdir / name
        out[name] = path.read_bytes() if path.exists() else None
    return out


def run_library(root: Path, workdir: Path) -> dict:
    """Exit code, stderr and each route's digest of the library case."""
    workdir.mkdir()
    proc = child(root, [_LIBRARY], {}, workdir)
    out = {"exit code": str(proc.returncode).encode(), "stderr": proc.stderr}
    for line in proc.stdout.splitlines():
        route, _, digest = line.rpartition(b": ")
        out[route.decode()] = digest
    return out


def compare(name: str, a: dict, b: dict) -> int:
    """Print one line per output that differs between two runs; return their number."""
    differing = [what for what in dict.fromkeys([*a, *b]) if a.get(what) != b.get(what)]
    for what in differing:
        print(f"{name}: {what} differs at {first_difference(a.get(what), b.get(what))}")
    return len(differing)


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
            differences += compare(name, a, b)
        a = run_library(base, Path(tmp) / "base-library")
        b = run_library(head, Path(tmp) / "head-library")
        library_differences = compare("library", a, b)
    print(f"{len(all_cases)} cases, {differences} differences")
    routes = len(dict.fromkeys([*a, *b])) - 2  # less the exit code and stderr
    print(f"library: {routes} routes, {library_differences} differences")
    return 1 if differences or library_differences else 0


if __name__ == "__main__":
    sys.exit(main())
