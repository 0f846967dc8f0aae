import numpy as np
import pytest

from eegsweep.classify import GbtConfig, gbt_importance, gbt_train
from eegsweep.report import mark_significance, summarize, topomap_data
from eegsweep.sweep import ExperimentRecord


def rec(accuracy, cleaning="asr", chunk="1/1", channels="P3",
        classifier="gbt", selection=True):
    return ExperimentRecord(cleaning=cleaning, chunk=chunk, channels=channels,
                            classifier=classifier, feature_selection=selection,
                            accuracy=accuracy, spread=0.01)


def test_summarize_degenerate_group():
    records = [rec(0.5) for _ in range(10)]
    (s,) = summarize(records, ["cleaning"])
    assert s.q1 == s.median == s.q3 == 0.5
    assert s.outliers == []
    assert s.n == 10


def test_summarize_decile_quantiles():
    records = [rec(v) for v in np.arange(0.1, 1.01, 0.1)]
    (s,) = summarize(records, ["cleaning"])
    assert s.median == pytest.approx(0.55)
    assert s.q1 == pytest.approx(0.325)
    assert s.q3 == pytest.approx(0.775)
    assert s.max == pytest.approx(1.0)


def test_summarize_outliers_and_whiskers():
    vals = [0.5] * 20 + [0.9]
    records = [rec(v) for v in vals]
    (s,) = summarize(records, ["cleaning"])
    assert s.outliers == [0.9]
    assert s.whisker_hi == 0.5


def test_summarize_groups_and_skips_failed():
    records = [rec(0.6, cleaning="raw"), rec(0.7, cleaning="raw"),
               rec(0.5, cleaning="ica")]
    failed = ExperimentRecord(cleaning="raw", chunk="1/1", channels="P3",
                              classifier="gbt", feature_selection=True,
                              error="boom")
    out = summarize(records + [failed], ["cleaning"])
    keys = [s.key["cleaning"] for s in out]
    assert keys == ["ica", "raw"]
    assert out[1].n == 2


def test_summarize_filter_commutes():
    records = ([rec(v, cleaning="raw") for v in (0.5, 0.6, 0.7)]
               + [rec(v, cleaning="asr") for v in (0.4, 0.55)])
    all_summaries = summarize(records, ["cleaning"])
    raw_only = summarize([r for r in records if r.cleaning == "raw"],
                         ["cleaning"])
    raw_from_all = [s for s in all_summaries if s.key["cleaning"] == "raw"]
    assert raw_from_all[0] == raw_only[0]


def test_mark_significance_identical_groups():
    records = ([rec(0.5, cleaning="raw")] * 10
               + [rec(0.5, cleaning="asr")] * 10)
    (m,) = mark_significance(records, "cleaning", [("raw", "asr")])
    assert m["p"] == pytest.approx(1.0)
    assert not m["significant"]


def test_mark_significance_separated_groups():
    hits = 0
    for s in range(100):
        rng = np.random.default_rng(s)
        records = ([rec(v, cleaning="raw")
                    for v in rng.normal(0.8, 0.01, 30)]
                   + [rec(v, cleaning="asr")
                      for v in rng.normal(0.6, 0.01, 30)])
        (m,) = mark_significance(records, "cleaning", [("raw", "asr")])
        hits += m["significant"]
    assert hits == 100


def test_mark_significance_insufficient_data():
    records = [rec(0.5, cleaning="raw"), rec(0.6, cleaning="asr"),
               rec(0.7, cleaning="asr")]
    (m,) = mark_significance(records, "cleaning", [("raw", "asr")])
    assert m["note"] == "insufficient data"
    assert not m["significant"]


def test_topomap_single_channel_records():
    records = [rec(0.6, channels="P3"), rec(0.8, channels="P3"),
               rec(0.7, channels="Cz")]
    rows = topomap_data(records, reduce="max")
    values = {ch: v for ch, _, _, v in rows}
    assert values == {"Cz": 0.7, "P3": 0.8}
    rows_med = topomap_data(records, reduce="median")
    values_med = {ch: v for ch, _, _, v in rows_med}
    assert values_med["P3"] == pytest.approx(0.7)


def test_topomap_multi_channel_membership():
    records = [rec(0.9, channels="P3-P4"), rec(0.4, channels="Cz")]
    values = {ch: v for ch, _, _, v in topomap_data(records)}
    assert values["P3"] == 0.9 and values["P4"] == 0.9
    assert values["Cz"] == 0.4


def test_topomap_uniform():
    records = [rec(0.7, channels=ch) for ch in ("P3", "P4", "Cz", "O1")]
    rows = topomap_data(records)
    assert all(v == pytest.approx(0.7) for _, _, _, v in rows)


def test_topomap_coordinates_come_from_montage():
    rows = topomap_data([rec(0.5, channels="Cz")])
    ch, x, y, _ = rows[0]
    assert (x, y) == (0.0, 0.0)


def test_importance_report_rows_and_tie_order():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((150, 3))
    y = (x[:, 1] > 0).astype(int)
    model = gbt_train(x, y, GbtConfig(max_depth=2, eta=0.3, n_rounds=10),
                      feature_names=["b_feat", "a_feat", "c_feat"])
    rows = gbt_importance(model)[:15]
    assert len(rows) <= 3
    assert rows[0][0] == "a_feat"
    gains = [g for _, g in rows]
    assert gains == sorted(gains, reverse=True)


def test_boxplot_svg(tmp_path):
    import xml.etree.ElementTree as ET
    records = ([rec(v, cleaning="raw") for v in np.linspace(0.5, 0.9, 15)]
               + [rec(v, cleaning="asr") for v in np.linspace(0.4, 0.6, 15)]
               + [rec(0.99, cleaning="asr")])
    summaries = summarize(records, ["cleaning"])
    from eegsweep.report import boxplot_svg
    path = tmp_path / "box.svg"
    boxplot_svg(summaries, path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    kinds = [child.tag.split("}")[-1] for child in root]
    assert kinds.count("rect") >= 3  # background + one box per group
    assert "circle" in kinds  # the 0.99 outlier
