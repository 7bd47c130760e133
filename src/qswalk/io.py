"""CSV serialization of results.

All numeric cells use the ``%.17g`` format, which round-trips IEEE
doubles exactly.  Every writer emits a header row.  Undefined values
(normalization or dispersion flagged as absent) become empty cells.
"""

from __future__ import annotations

import csv
from typing import IO, Iterable, Optional, Sequence

import numpy as np


def fmt(x) -> str:
    """17-significant-digit cell for a real scalar, '' for None."""
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _write(fp: IO[str], header: list[str], rows: Iterable) -> None:
    """Header row, then one line per row: str cells as they are, the rest through fmt."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([c if isinstance(c, str) else fmt(c) for c in row] for row in rows)


def _column(values, n: int):
    """``values``, or n empty cells for an absent column."""
    return [None] * n if values is None else values


def write_pagerank_csv(fp: IO[str], scores: np.ndarray) -> None:
    _write(fp, ["node", "score"], enumerate(scores))


def write_ranks_csv(
    fp: IO[str],
    pagerank: np.ndarray,
    activity0: np.ndarray,
    population: np.ndarray,
) -> None:
    header = ["node", "pagerank", "activity0", "population"]
    _write(fp, header, zip(range(len(pagerank)), pagerank, activity0, population))


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
    _write(fp, scan_header(n), (
        [_s_cell(pt.s), pt.theta, *_column(pt.alpha, n), *_column(pt.alpha_norm, n),
         *_column(pt.delta, n), pt.delta_global, pt.error or ""]
        for pt in points
    ))


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
    se, var, disp, dse = (
        _column(c, n) for c in (standard_errors, var_rate, dispersion_hat, dispersion_se)
    )
    z_act = [
        (rate - ref) / err if err is not None and err > 0 else None
        for rate, ref, err in zip(mean_rate, activity_t, se)
    ]
    z_disp = [
        (d - d0) / err if d is not None and err is not None and d0 is not None and err > 0 else None
        for d, err, d0 in zip(disp, dse, dispersion0)
    ]
    _write(
        fp,
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
        ],
        zip(range(n), mean_rate, se, var, disp, dse, activity0, z_act, dispersion0, z_disp,
            activity_t),
    )


def write_events_csv(fp: IO[str], record) -> None:
    """Per-trajectory event log: one row per jump."""
    _write(fp, ["time", "dst", "src"], record.jump_events)
