"""The config reader: what it refuses, what it accepts, and that every
valid config builds the same blocks, and so the same checkpoint stamp, as
the three converters it replaced."""

import hashlib
import json
from dataclasses import asdict, fields, is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegsweep import classify, cli, features, sweep
from eegsweep.cleaning import (PIPELINE_KINDS, AsrParams, CleaningPipeline,
                               FirParams, IcaParams, LabelerThresholds)
from eegsweep.cli import main
from eegsweep.data_model import CHANNELS_1020, load_cohort
from eegsweep.segmentation import DIVISORS

#: Sets every field of every block. The provenance hash below was
#: written by the command line as it was before the reader, with `sweep
#: --config` on this config and --seed 5. The two stamps are those of
#: the same run with the cohort's sha256 set to COHORT_SHA, recorded when
#: the stamp came to cover one cleaning config, without its kind, in
#: place of one pipeline per cleaning of the space.
EVERY = {
    "fir": {"low_hz": 1, "high_hz": 35, "transition_low_hz": 0.5,
            "transition_high_hz": 8.0},
    "asr": {"cutoff_k": 15, "calib_window_s": 1.0,
            "calib_bad_channel_fraction": 0.2, "calib_z_bounds": [-3, 5],
            "proc_window_s": 0.5, "proc_overlap": 0.25},
    "ica": {"max_iter": 300, "tol": 1e-05, "rng_seed": 7,
            "variance_coverage": 0.999,
            "labeler": {"ocular_low_hz": 3.5, "ocular_low_power": 0.55,
                        "line_hz": 60, "line_peak_ratio": 8,
                        "muscle_band": [18, 44], "muscle_power": 0.5,
                        "channel_dominance": 0.85}},
    "features": {"quantile": 0.8, "welch_nperseg": 128, "welch_overlap": 0.5,
                 "total_band": [0.5, 40], "psd_fit_range": [2, 30],
                 "sef_edge": 0.9, "app_entropy_m": 2, "app_entropy_r": 0.25,
                 "higuchi_kmax": 8, "hurst_min_window": 8,
                 "energy_transition_hz": 1.5},
    "space": {"cleanings": ["filtered"], "divisors": [2],
              "subset_sizes": [1], "channels": ["P3"],
              "classifiers": ["knn"], "selection_flags": [False]},
    "grids": {"gbt": [{"max_depth": 2, "eta": 0.3, "gamma": 0.0,
                       "n_rounds": 20}],
              "svm": [{"c": 1.0, "gamma_rbf": "scale"}],
              "knn": [{"k": 3}]},
}
EVERY_STAMP = (
    "496ed6a3839da60948768e699723d6e12ae5712fc59dd35b2d001c3e27513cb9")
EVERY_STAMP_FLAGS = (
    "222f7874fba5afe546188df8f3397e43783ca235947be434c4bc9cf18622a760")
EVERY_HASH = (
    "f774f21bc2c5abcb7c0262c6bb298c0513631655f0a7665eb331f5ccc73e8e6c")

COHORT_SHA = "0" * 64

SPACE = {"cleanings": ["raw"], "divisors": [1], "subset_sizes": [1],
         "channels": ["P3"], "classifiers": ["knn"],
         "selection_flags": [False]}


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--out", str(out), "--subjects", "6",
                 "--duration", "12", "--seed", "3"]) == 0
    return out


# ---------------------------------------------------------------------------
# refusals: each stops with exit 1 before the cohort loads

def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv, key", [
    (["clean", "--pipeline", "filtered", "--set", "fir.bogus=1"],
     "fir.bogus"),
    (["clean", "--pipeline", "filtered", "--set", "features.bogus=1"],
     "features.bogus"),
    (["clean", "--pipeline", "filtered", "--set", "fir=3"], "fir"),
    (["sweep", "--set", "space.divisors=4"], "space.divisors"),
    (["sweep", "--set", "space.channels=P3"], "space.channels"),
    (["sweep", "--set", 'grids.knn=[{"kk": 3}]'], "grids.knn[0]"),
    (["sweep", "--set", "foo"], "foo"),
    (["extract", "--channels", "P3,XX"], "--channels"),
    # six specs, two keys each computed several times; divisors are
    # checked before channels
    (["sweep", "--set", 'space.channels=["P3","P3"]',
      "--set", "space.subset_sizes=[1,2]", "--set", "space.divisors=[1,1]",
      "--set", 'space.cleanings=["raw"]', "--set", 'space.classifiers=["knn"]',
      "--set", "space.selection_flags=[false]"], "space.divisors"),
    (["sweep", "--set", 'space.channels=["P3","P3"]',
      "--set", "space.subset_sizes=[1,2]"], "space.channels"),
    (["extract", "--channels", ""], "--channels"),
    (["extract", "--channels", "P3,P3"], "--channels"),
], ids=["fir_unknown_key", "features_unknown_key", "fir_not_an_object",
        "divisors_not_a_list", "channels_not_a_list", "knn_point_keys",
        "set_without_value", "unknown_channel", "repeated_divisor_and_channel",
        "repeated_channel", "no_channel", "channel_given_twice"])
def test_bad_config_exits_1_before_the_cohort_loads(tmp_path, capsys, argv,
                                                    key):
    # the manifest does not exist: loading it would exit 2
    code = main(argv[:1] + ["--manifest", str(tmp_path / "missing.json"),
                            "--out", str(tmp_path / "out")] + argv[1:])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: config: %s: " % key)
    assert err.count("\n") == 1
    assert not list(tmp_path.rglob("results.csv"))
    assert not list(tmp_path.rglob("provenance.json"))


@pytest.mark.parametrize("setting, message", [
    ("features.app_entropy_m=0", "app_entropy_m must be an int >= 1"),
    ("features.app_entropy_r=-0.2", "app_entropy_r must be > 0"),
    ("features.hurst_min_window=1", "hurst_min_window must be >= 2"),
    ("features.energy_transition_hz=0", "energy_transition_hz must be > 0"),
    ("features.welch_nperseg=0", "welch_nperseg must be >= 1"),
    ("features.quantile=1.5", "quantile must be in [0, 1]"),
    # 0 and 1 gave every row a Higuchi dimension of 1.0, -1 error rows
    ("features.higuchi_kmax=1", "higuchi_kmax must be an int >= 2"),
    ("features.higuchi_kmax=0", "higuchi_kmax must be an int >= 2"),
    ("features.higuchi_kmax=-1", "higuchi_kmax must be an int >= 2"),
    # an IndexError traceback, or NaN in every psd_fit column
    ("features.total_band=[40]",
     "total_band must be two numbers, the first below the second"),
    ("features.total_band=[40, 0.5]",
     "total_band must be two numbers, the first below the second"),
    ('features.total_band=["0.5", 40]',
     "total_band must be two numbers, the first below the second"),
    ("features.psd_fit_range=[]", "psd_fit_range must be two numbers, "
     "the first above 0 and below the second"),
    ("features.psd_fit_range=[0, 40]", "psd_fit_range must be two numbers, "
     "the first above 0 and below the second"),
], ids=["app_entropy_m", "app_entropy_r", "hurst_min_window",
        "energy_transition_hz", "welch_nperseg", "quantile", "higuchi_kmax_1",
        "higuchi_kmax_0", "higuchi_kmax_negative", "total_band_one_number",
        "total_band_reversed", "total_band_string", "psd_fit_range_empty",
        "psd_fit_range_from_0"])
def test_feature_range_check_exits_2_before_the_cohort_loads(
        tmp_path, capsys, setting, message):
    # the manifest does not exist: loading it would print another error
    out = tmp_path / "out" / "feat.csv"
    code = main(["extract", "--manifest", str(tmp_path / "missing.json"),
                 "--channels", "P3", "--out", str(out), "--set", setting])
    assert code == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not (tmp_path / "out").exists()


def test_space_and_config_together_are_refused(tmp_path, capsys):
    space = _write(tmp_path, "s.json", {"space": SPACE})
    config = _write(tmp_path, "c.json", {"fir": {"high_hz": 30}})
    code = main(["sweep", "--manifest", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out"), "--space", space,
                 "--config", config])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config: --space: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, key", [
    ({"selection_in_fold": True}, "selection_in_fold"),
    ({"eval_on_test_fold": True}, "eval_on_test_fold"),
    ({"space": dict(SPACE, cleanings=["asr", "clean"])}, "space.cleanings"),
    ({"space": dict(SPACE, divisors=[7])}, "space.divisors"),
    ({"space": dict(SPACE, divisors=[2.0])}, "space.divisors"),
    ({"space": dict(SPACE, classifiers=["rf"])}, "space.classifiers"),
    ({"space": dict(SPACE, selection_flags=["yes"])},
     "space.selection_flags"),
    ({"space": dict(SPACE, chanels=["P3"])}, "space.chanels"),
    ({"grids": {"rf": [{"k": 3}]}}, "grids"),
    ({"grids": {"knn": []}}, "grids.knn"),
    ({"grids": {"knn": {"k": 3}}}, "grids.knn"),
    ({"grids": {"svm": [{"c": 1.0}]}}, "grids.svm[0]"),
    ({"grids": {"gbt": [{"depth": 2}]}}, "grids.gbt[0].depth"),
    ({"grids": {"gbt": [{"eta": "0.3"}]}}, "grids.gbt[0].eta"),
    ({"asr": {"calib_z_bounds": 3}}, "asr.calib_z_bounds"),
    ({"ica": {"labeler": []}}, "ica.labeler"),
    ({"ica": {"labeler": {"line_hz": "60"}}}, "ica.labeler.line_hz"),
    ({"features": {"quantile": True}}, "features.quantile"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_config_file_refusals(tmp_path, capsys, doc, key):
    config = _write(tmp_path, "c.json", doc)
    code = main(["sweep", "--manifest", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out"), "--config", config])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config: %s: " % key)


@pytest.mark.parametrize("entry, message", [
    ("asr.cutoff_k=0", "cutoff_k must be > 0"),
    ('grids.gbt=[{"eta": 0.3}, {"eta": 0}]', "eta must be in (0, 1]"),
    ("fir.transition_low_hz=0", "transition_low_hz must be > 0"),
    ("fir.transition_high_hz=0", "transition_high_hz must be > 0"),
    # each of these died or wrote wrong rows only once data had loaded
    ("asr.calib_window_s=0", "calib_window_s must be > 0"),
    ("asr.proc_window_s=0", "proc_window_s must be > 0"),
    ('fir={"low_hz": 30, "high_hz": 10}', "low_hz must be in (0, high_hz)"),
    ("fir.low_hz=0", "low_hz must be in (0, high_hz)"),
    ('grids.knn=[{"k": -1}]', "k must be an int >= 1"),
    ('grids.knn=[{"k": 0}]', "k must be an int >= 1"),
    ('grids.knn=[{"k": 2.5}]', "k must be an int >= 1"),
    ('grids.knn=[{"k": true}]', "k must be an int >= 1"),
    ('grids.svm=[{"c": -1.0, "gamma_rbf": "scale"}]', "c must be > 0"),
    ('grids.svm=[{"c": 1.0, "gamma_rbf": "auto"}]',
     'gamma_rbf must be "scale" or > 0'),
    ('grids.svm=[{"c": 1.0, "gamma_rbf": 0}]',
     'gamma_rbf must be "scale" or > 0'),
    # a TypeError traceback, or numpy's error, once the cohort was cleaned
    ("ica.rng_seed=2.5", "rng_seed must be an int >= 0"),
    ("ica.rng_seed=-1", "rng_seed must be an int >= 0"),
    ("ica.max_iter=2.5", "max_iter must be an int >= 1"),
    ("ica.max_iter=0", "max_iter must be an int >= 1"),
    ("asr.calib_z_bounds=[1]",
     "calib_z_bounds must be two numbers, the first below the second"),
    ("ica.labeler.muscle_band=[1]",
     "muscle_band must be two numbers, the first below the second"),
], ids=["asr", "gbt_point", "fir_transition_low", "fir_transition_high",
        "asr_calib_window", "asr_proc_window", "fir_band_reversed",
        "fir_low_zero", "knn_k_negative", "knn_k_zero", "knn_k_fraction",
        "knn_k_bool", "svm_c_negative", "svm_gamma_word", "svm_gamma_zero",
        "ica_seed_fraction", "ica_seed_negative", "ica_max_iter_fraction",
        "ica_max_iter_zero", "asr_z_bounds_one_number",
        "muscle_band_one_number"])
def test_range_checks_of_the_dataclasses_keep_exit_2(tmp_path, capsys,
                                                     entry, message):
    code = main(["sweep", "--manifest", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out"), "--set", entry])
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def _read(argv):
    return cli.load_config(cli.build_parser().parse_args(
        ["sweep", "--manifest", "m.json", "--out", "o"] + argv))


def test_retired_space_key_is_accepted_and_ignored(tmp_path):
    # the space files perfbench/run.py writes still carry it
    plain = _read(["--space", _write(tmp_path, "a.json", {"space": SPACE})])
    retired = _read(["--space", _write(tmp_path, "b.json", {
        "space": dict(SPACE, trios_gbt_selection_only=True),
        "grids": {"knn": [{"k": 3}]}})])
    assert retired["space"] == plain["space"]
    assert retired["space"].channels == ("P3",)


def test_set_keeps_ints_and_reads_lists_as_tuples():
    cfg = _read(["--set", "fir.high_hz=35",
                 "--set", "asr.calib_z_bounds=[-3, 5]",
                 "--set", "space.divisors=[1, 20]"])
    assert type(cfg["pipeline"].fir.high_hz) is int
    assert cfg["pipeline"].asr.calib_z_bounds == (-3, 5)
    assert cfg["space"].divisors == (1, 20)
    assert cfg["merged"]["fir"] == {"high_hz": 35}


# ---------------------------------------------------------------------------
# the stamp of a valid config is the reference formula's, and the reader
# builds what the converters built before it

@pytest.mark.parametrize("flags, stamp", [
    ((), EVERY_STAMP),
    (("--selection-in-fold", "--lax-early-stop", "--expand-grid"),
     EVERY_STAMP_FLAGS),
], ids=["plain", "flags"])
def test_stamp_of_a_config_that_sets_every_field(cohort_dir, tmp_path,
                                                 flags, stamp):
    out = tmp_path / "sweep"
    assert main(["sweep", "--manifest", str(cohort_dir / "manifest.json"),
                 "--config", _write(tmp_path, "every.json", EVERY),
                 "--out", str(out), "--seed", "5", "--resume",
                 *flags]) == 0
    options = _options(ref_grids(EVERY))
    if flags:
        options.update(selection_in_fold=True, eval_on_test_fold=True,
                       expand_grid=True)
    pipeline = ref_build_pipeline("filtered", EVERY)
    params = ref_feature_params(EVERY)
    # the recorded stamp pins the formula, in the library and here
    assert ref_config_stamp(5, pipeline, params, options, COHORT_SHA) \
        == sweep._config_stamp(5, pipeline, params, options, COHORT_SHA) \
        == stamp
    cohort_sha = sweep._cohort_sha256(load_cohort(cohort_dir
                                                  / "manifest.json"))
    assert (out / "checkpoint" / "config.sha256").read_text() \
        == ref_config_stamp(5, pipeline, params, options, cohort_sha) + "\n"
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["config_hash"] == EVERY_HASH


# The three converters and the grid comprehension the reader replaced,
# copied as they were, and the stamp written out on its own; they are the
# reference for the property below.

def ref_build_pipeline(kind, cfg):
    fir = FirParams(**cfg.get("fir", {}))
    asr = AsrParams(**{k: tuple(v) if isinstance(v, list) else v
                       for k, v in cfg.get("asr", {}).items()})
    ica_cfg = dict(cfg.get("ica", {}))
    labeler = LabelerThresholds(**{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in ica_cfg.pop("labeler", {}).items()})
    ica = IcaParams(labeler=labeler, **ica_cfg)
    return CleaningPipeline(kind=kind, fir=fir, asr=asr, ica=ica)


def ref_feature_params(cfg):
    block = {k: tuple(v) if isinstance(v, list) else v
             for k, v in cfg.get("features", {}).items()}
    return replace(features.DEFAULT_PARAMS, **block)


def ref_space_from_config(cfg):
    block = cfg.get("space", {})
    return sweep.SweepSpace(**{
        key: tuple(block[key]) for key in (
            "cleanings", "divisors", "subset_sizes", "channels",
            "classifiers", "selection_flags") if key in block})


def ref_grids(cfg):
    return {k: tuple(cfg["grids"][k]) for k in cfg.get("grids", {})}


def ref_config_stamp(seed, pipeline, params, options, cohort_sha):
    """sha256 of the options, seed, feature params, cohort and the one
    cleaning config, whose kind the sweep ignores."""
    cleaning = asdict(pipeline)
    del cleaning["kind"]
    doc = dict(options, seed=seed, params=asdict(params), pipeline=cleaning,
               cohort=cohort_sha)
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _options(grids):
    return {"grids": grids or None, "selection_in_fold": False,
            "eval_on_test_fold": False, "expand_grid": False}


def new_space_and_stamp(cfg):
    blocks = cli._read_config(cfg)
    return blocks["space"], sweep._config_stamp(
        0, blocks["pipeline"], blocks["features"], _options(blocks["grids"]),
        COHORT_SHA)


def old_space_and_stamp(cfg):
    # any kind: the stamp leaves it out
    return ref_space_from_config(cfg), ref_config_stamp(
        0, ref_build_pipeline("raw", cfg), ref_feature_params(cfg),
        _options(ref_grids(cfg)), COHORT_SHA)


def _outcome(build, cfg):
    """What a build gives: its result, or the range check it failed."""
    try:
        return build(cfg)
    except ValueError as exc:
        return str(exc)


# Any of these passes every range check but asr.proc_overlap's, which
# needs (0, 1), features.app_entropy_m's and higuchi_kmax's and ica's
# rng_seed and max_iter, which need an int, fir's low_hz < high_hz and
# the first number of each pair below the second; both readers must
# refuse the same draws.
NUMBER = st.integers(1, 50) | st.floats(0.01, 0.99)


def block_of(default):
    """A JSON object that sets some fields of the dataclass `default`."""
    values = {}
    for f in fields(default):
        old = getattr(default, f.name)
        if is_dataclass(old):
            values[f.name] = block_of(old)
        elif isinstance(old, tuple):
            values[f.name] = st.lists(NUMBER, min_size=2, max_size=2)
        else:
            values[f.name] = NUMBER
    return st.fixed_dictionaries({}, optional=values)


def _some(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=4)


POINTS = {
    "gbt": st.fixed_dictionaries({}, optional={
        f.name: st.integers(1, 50) if isinstance(f.default, int)
        else st.floats(0.01, 0.99) for f in fields(classify.GbtConfig)}),
    "svm": st.fixed_dictionaries({"c": NUMBER,
                                  "gamma_rbf": st.just("scale") | NUMBER}),
    "knn": st.fixed_dictionaries({"k": st.integers(1, 9)}),
}

CONFIGS = st.fixed_dictionaries({}, optional={
    "fir": block_of(FirParams()),
    "asr": block_of(AsrParams()),
    "ica": block_of(IcaParams()),
    "features": block_of(features.DEFAULT_PARAMS),
    "space": st.fixed_dictionaries({}, optional={
        "cleanings": _some(PIPELINE_KINDS),
        "divisors": _some(DIVISORS),
        "subset_sizes": _some((1, 2, 3)),
        "channels": _some(CHANNELS_1020),
        "classifiers": _some(tuple(classify.DEFAULT_GRIDS)),
        "selection_flags": _some((True, False)),
        "trios_gbt_selection_only": st.booleans()}),
    "grids": st.fixed_dictionaries({}, optional={
        name: st.lists(points, min_size=1, max_size=3)
        for name, points in POINTS.items()}),
})


@settings(max_examples=200, deadline=None)
@given(CONFIGS)
def test_reader_builds_what_the_old_converters_built(cfg):
    before = json.dumps(cfg, sort_keys=True)
    space = cfg.get("space", {})
    repeated = [f.name for f in fields(sweep.SweepSpace) if f.name in space
                and len(set(space[f.name])) < len(space[f.name])]
    if repeated:
        # the old converters took a repeated value; the reader refuses it
        with pytest.raises(cli.ConfigError, match="^space.%s: .* is given "
                           "twice$" % repeated[0]):
            cli._read_config(cfg)
    else:
        assert (_outcome(new_space_and_stamp, cfg)
                == _outcome(old_space_and_stamp, cfg))
    assert json.dumps(cfg, sort_keys=True) == before
