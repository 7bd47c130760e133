"""CSV serialization of results.

All numeric cells use the ``%.17g`` format, which round-trips IEEE
doubles exactly.  Every writer emits a header row.  Undefined values
(normalization or dispersion flagged as absent) become empty cells.
"""

from __future__ import annotations

import csv
from typing import IO, Optional, Sequence

import numpy as np


def fmt(x) -> str:
    """17-significant-digit cell for a real scalar, '' for None."""
    if x is None:
        return ""
    return f"{float(x):.17g}"


def write_pagerank_csv(fp: IO[str], scores: np.ndarray) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["node", "score"])
    for node, score in enumerate(scores):
        writer.writerow([node, fmt(score)])


def write_ranks_csv(
    fp: IO[str],
    pagerank: np.ndarray,
    activity0: np.ndarray,
    population: np.ndarray,
) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["node", "pagerank", "activity0", "population"])
    for node in range(len(pagerank)):
        writer.writerow(
            [node, fmt(pagerank[node]), fmt(activity0[node]), fmt(population[node])]
        )


def scan_header(n: int) -> list[str]:
    return (
        ["s", "theta"]
        + [f"alpha_{i + 1}" for i in range(n)]
        + [f"alpha_norm_{i + 1}" for i in range(n)]
        + [f"delta_{i + 1}" for i in range(n)]
        + ["delta_global", "error"]
    )


def _s_cell(s: np.ndarray) -> str:
    s = np.atleast_1d(s)
    if np.all(s == s[0]):
        return fmt(s[0])
    return ";".join(fmt(x) for x in s)  # non-uniform tilt: joined entries


def write_scan_csv(fp: IO[str], points: Sequence, n: int) -> None:
    """One row per ThermoPoint following the scan schema.

    Columns: s, theta, alpha_1..n, alpha_norm_1..n, delta_1..n,
    delta_global, error.  Failed points keep their s and error cells,
    everything else empty.
    """
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(scan_header(n))
    for pt in points:
        alpha = pt.alpha if pt.alpha is not None else [None] * n
        alpha_norm = pt.alpha_norm if pt.alpha_norm is not None else [None] * n
        delta = pt.delta if pt.delta is not None else [None] * n
        row = (
            [_s_cell(pt.s), fmt(pt.theta)]
            + [fmt(a) for a in alpha]
            + [fmt(a) for a in alpha_norm]
            + [fmt(d) for d in delta]
            + [fmt(pt.delta_global), pt.error or ""]
        )
        writer.writerow(row)


def write_ensemble_csv(
    fp: IO[str],
    mean_rate: np.ndarray,
    standard_errors: Optional[np.ndarray],
    var_rate: Optional[np.ndarray],
    dispersion_hat: Optional[np.ndarray],
    dispersion_se: Optional[np.ndarray],
    activity0: np.ndarray,
    dispersion0: Sequence,
    activity_t: np.ndarray,
) -> None:
    """Per-node ensemble statistics with oracle comparison columns.

    z_activity is taken against ``activity_t``, the last column.
    Variance-derived columns may be None (single-trajectory runs) and are
    left empty, as are z-scores without a reference or error bar.
    """
    n = len(mean_rate)
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(
        [
            "node",
            "mean_rate",
            "std_error",
            "var_rate",
            "dispersion_hat",
            "dispersion_se",
            "activity0",
            "z_activity",
            "dispersion0",
            "z_dispersion",
            "activity_t",
        ]
    )
    for i in range(n):
        se = standard_errors[i] if standard_errors is not None else None
        z_act = None
        if se is not None and se > 0:
            z_act = (mean_rate[i] - activity_t[i]) / se
        disp = dispersion_hat[i] if dispersion_hat is not None else None
        dse = dispersion_se[i] if dispersion_se is not None else None
        d0 = dispersion0[i]
        z_disp = None
        if disp is not None and dse is not None and d0 is not None and dse > 0:
            z_disp = (disp - d0) / dse
        writer.writerow(
            [
                i,
                fmt(mean_rate[i]),
                fmt(se),
                fmt(var_rate[i] if var_rate is not None else None),
                fmt(disp),
                fmt(dse),
                fmt(activity0[i]),
                fmt(z_act),
                fmt(d0),
                fmt(z_disp),
                fmt(activity_t[i]),
            ]
        )


def write_events_csv(fp: IO[str], record) -> None:
    """Per-trajectory event log: one row per jump."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["time", "dst", "src"])
    for (t, dst, src) in record.jump_events:
        writer.writerow([fmt(t), dst, src])
