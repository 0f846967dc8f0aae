"""Aggregation of sweep records: box-plot summaries, significance
marking between groups and topographic channel tables. Everything is
emitted as plot-ready data, not images.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import CHANNELS_1020, MONTAGE_COORDS
from .selection import t_test


@dataclass
class GroupSummary:
    """Tukey box-plot statistics of one record group."""

    key: dict
    n: int
    q1: float
    median: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outliers: list
    max: float


def _accuracies_by(records, keys_of):
    """Each key's finite accuracies, for every key `keys_of(rec)` yields;
    records with a non-finite accuracy (failed rows) are ignored."""
    groups = {}
    for rec in records:
        acc = float(rec.accuracy)
        if np.isfinite(acc):
            for key in keys_of(rec):
                groups.setdefault(key, []).append(acc)
    return groups


def summarize(records, group_by):
    """One GroupSummary per distinct key of the group_by columns.

    Quantiles use linear interpolation (type 7); whiskers extend to the
    most extreme values within 1.5 IQR of the quartiles. Records with a
    non-finite accuracy (failed rows) are ignored.
    """
    group_by = list(group_by)
    groups = _accuracies_by(
        records, lambda rec: [tuple(getattr(rec, c) for c in group_by)])
    out = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        vals = np.array(groups[key])
        q1, med, q3 = np.quantile(vals, [0.25, 0.5, 0.75])
        iqr = q3 - q1
        lo_lim = q1 - 1.5 * iqr
        hi_lim = q3 + 1.5 * iqr
        inside = vals[(vals >= lo_lim) & (vals <= hi_lim)]
        outliers = sorted(float(v) for v in vals[(vals < lo_lim)
                                                 | (vals > hi_lim)])
        out.append(GroupSummary(
            key=dict(zip(group_by, key)), n=int(vals.size),
            q1=float(q1), median=float(med), q3=float(q3),
            whisker_lo=float(inside.min()), whisker_hi=float(inside.max()),
            outliers=outliers, max=float(vals.max())))
    return out


def mark_significance(records, factor, pairs):
    """Welch t-test between accuracy distributions of factor-level pairs,
    significant at p < 0.05.

    Returns one dict per pair: {pair, p, significant, note}. Pairs with a
    group of fewer than two records are reported as insufficient data.
    """
    levels = _accuracies_by(records, lambda rec: [getattr(rec, factor)])
    out = []
    for a, b in pairs:
        xa = levels.get(a, [])
        xb = levels.get(b, [])
        if len(xa) < 2 or len(xb) < 2:
            out.append({"pair": (a, b), "p": float("nan"),
                        "significant": False, "note": "insufficient data"})
            continue
        _, _, p = t_test(xa, xb, variant="Welch")
        out.append({"pair": (a, b), "p": p, "significant": p < 0.05,
                    "note": ""})
    return out


#: The reductions of a channel's accuracies that topomap_data takes.
REDUCTIONS = {"max": np.max, "median": np.median}


def topomap_data(records, reduce="max"):
    """Per-channel aggregated accuracy with head coordinates.

    A channel aggregates every record whose channel subset contains it.
    Returns rows (channel, x, y, value); channels with no records are
    omitted. reduce names one of REDUCTIONS.
    """
    if reduce not in REDUCTIONS:
        raise ValueError("reduce must be %s"
                         % " or ".join(map(repr, REDUCTIONS)))
    per_channel = _accuracies_by(records, lambda rec: rec.channels.split("-"))
    fn = REDUCTIONS[reduce]
    rows = []
    for ch in CHANNELS_1020:
        if ch not in per_channel:
            continue
        x, y = MONTAGE_COORDS[ch]
        rows.append((ch, x, y, float(fn(per_channel[ch]))))
    return rows


def topomap_to_csv(rows, path):
    with open(path, "w") as fh:
        fh.write("channel,x,y,value\n")
        for ch, x, y, v in rows:
            fh.write("%s,%.4f,%.4f,%.10g\n" % (ch, x, y, v))


def summaries_to_csv(summaries, path):
    cols = sorted({c for s in summaries for c in s.key})
    with open(path, "w") as fh:
        fh.write(",".join(cols) + ",n,q1,median,q3,whisker_lo,whisker_hi,"
                 "max,n_outliers\n")
        for s in summaries:
            fh.write(",".join(str(s.key.get(c, "")) for c in cols))
            fh.write(",%d,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,%d\n" % (
                s.n, s.q1, s.median, s.q3, s.whisker_lo, s.whisker_hi,
                s.max, len(s.outliers)))


def boxplot_svg(summaries, path):
    """Minimal SVG box plot of group summaries: plain rectangles and
    lines, no external renderer."""
    if not summaries:
        raise ValueError("nothing to plot")
    lo = min(min([s.whisker_lo] + s.outliers) for s in summaries)
    hi = max(max([s.whisker_hi] + s.outliers) for s in summaries)
    if hi <= lo:
        hi = lo + 1.0
    width, height, pad = 640, 360, 40
    plot_h = height - 2 * pad
    slot = (width - 2 * pad) / len(summaries)

    def y(v):
        return pad + plot_h * (1.0 - (v - lo) / (hi - lo))

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
             'height="%d">' % (width, height),
             '<rect width="100%" height="100%" fill="white"/>']
    for i, s in enumerate(summaries):
        cx = pad + slot * (i + 0.5)
        half = min(30.0, slot * 0.3)
        parts.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                     'stroke="black"/>' % (cx, y(s.whisker_lo), cx,
                                           y(s.whisker_hi)))
        parts.append('<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" '
                     'fill="lightsteelblue" stroke="black"/>'
                     % (cx - half, y(s.q3), 2 * half,
                        max(y(s.q1) - y(s.q3), 0.5)))
        parts.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" '
                     'stroke="black" stroke-width="2"/>'
                     % (cx - half, y(s.median), cx + half, y(s.median)))
        for v in s.outliers:
            parts.append('<circle cx="%.1f" cy="%.1f" r="2" fill="none" '
                         'stroke="black"/>' % (cx, y(v)))
        label = "/".join(str(v) for v in s.key.values())
        parts.append('<text x="%.1f" y="%d" font-size="11" '
                     'text-anchor="middle">%s</text>'
                     % (cx, height - pad + 16, label))
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        parts.append('<text x="%d" y="%.1f" font-size="10" '
                     'text-anchor="end">%.3f</text>' % (pad - 4, y(v) + 3, v))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
