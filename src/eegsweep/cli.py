"""Command-line interface: one executable, one subcommand per stage.

Exit codes: 0 success, 1 usage error, 2 data error. Every run writes a
provenance JSON (config hash, seed, toolkit version) next to its outputs.
Defaults that fill gaps the underlying study left unspecified are marked
"study-unspecified" in --help.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, classify, features, report, selection, sweep
from .cleaning import (AsrParams, CleaningPipeline, FirParams, IcaParams,
                       LabelerThresholds, run_pipeline_with_info)
from .data_model import (CHANNELS_1020, CohortLoadError, load_cohort,
                         validate_recording, write_cohort)
from .segmentation import SegmentSpec, segment
from .synth import ArtifactSpec, ClassEffect, SynthSpec, generate_cohort

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(USAGE_ERROR)


def _set_option(cfg, dotted, value):
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    try:
        node[parts[-1]] = json.loads(value)
    except json.JSONDecodeError:
        node[parts[-1]] = value


def load_config(args):
    """Merge config file and --set overrides into one flat dict."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg.update(json.load(fh))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise SystemExit(USAGE_ERROR)
        key, value = item.split("=", 1)
        _set_option(cfg, key.strip(), value.strip())
    return cfg


def build_pipeline(kind, cfg):
    fir = FirParams(**cfg.get("fir", {}))
    asr = AsrParams(**{k: tuple(v) if isinstance(v, list) else v
                       for k, v in cfg.get("asr", {}).items()})
    ica_cfg = dict(cfg.get("ica", {}))
    labeler = LabelerThresholds(**{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in ica_cfg.pop("labeler", {}).items()})
    ica = IcaParams(labeler=labeler, **ica_cfg)
    return CleaningPipeline(kind=kind, fir=fir, asr=asr, ica=ica)


def feature_params(cfg):
    block = {k: tuple(v) if isinstance(v, list) else v
             for k, v in cfg.get("features", {}).items()}
    return replace(features.DEFAULT_PARAMS, **block)


def write_provenance(out_dir, args, cfg, seed):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    canon = json.dumps(cfg, sort_keys=True)
    doc = {
        "command": args.command,
        "config_hash": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": seed,
        "toolkit_version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(out_dir / "provenance.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_channels(text):
    channels = tuple(c.strip() for c in text.split(",") if c.strip())
    for ch in channels:
        if ch not in CHANNELS_1020:
            raise SystemExit(USAGE_ERROR)
    return channels


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args):
    cfg = load_config(args)
    artifacts = []
    for kind in (args.artifacts.split(",") if args.artifacts else []):
        kind = kind.strip()
        if kind:
            artifacts.append(ArtifactSpec(kind=kind))
    spec = SynthSpec(
        n_subjects_per_class=args.subjects,
        duration_s=args.duration,
        class_effect=ClassEffect(target_channel=args.effect_channel,
                                 feature_axis=args.effect_axis,
                                 effect_size=args.effect_size),
        artifacts=tuple(artifacts),
        rng_seed=args.seed)
    cohort, truth = generate_cohort(spec)
    out = Path(args.out)
    manifest = write_cohort(cohort, out)
    truth_doc = {
        "class_effect": asdict(spec.class_effect),
        "artifact_masks": {sid: np.nonzero(m)[0].tolist()
                           for sid, m in truth.artifact_mask.items()},
    }
    with open(out / "ground_truth.json", "w") as fh:
        json.dump(truth_doc, fh)
        fh.write("\n")
    write_provenance(out, args, cfg, args.seed)
    print("wrote %d subjects to %s (manifest %s)"
          % (len(cohort), out, manifest.name))
    return 0


def cmd_validate(args):
    try:
        cohort = load_cohort(args.manifest)
    except CohortLoadError as exc:
        for p in exc.problems:
            print("FAIL %s" % p, file=sys.stderr)
        return DATA_ERROR
    bad = 0
    for rec in cohort:
        violations = validate_recording(rec)
        for v in violations:
            print("FAIL %s: %s" % (rec.subject_id, v), file=sys.stderr)
        bad += bool(violations)
    if bad:
        return DATA_ERROR
    print("%d subjects OK" % len(cohort))
    return 0


def cmd_clean(args):
    cfg = load_config(args)
    cohort = load_cohort(args.manifest)
    pipeline = build_pipeline(args.pipeline, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sidecar = {"pipeline": args.pipeline,
               "params": {"fir": asdict(pipeline.fir),
                          "asr": asdict(pipeline.asr),
                          "ica": asdict(pipeline.ica)},
               "subjects": {}}
    cleaned = []
    for rec in cohort:
        result, info = run_pipeline_with_info(rec, pipeline)
        cleaned.append(result)
        sidecar["subjects"][rec.subject_id] = info
    write_cohort(cleaned, out)
    with open(out / "cleaning.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_provenance(out, args, cfg, args.seed)
    print("cleaned %d subjects with pipeline %s -> %s"
          % (len(cleaned), args.pipeline, out))
    return 0


def cmd_segment(args):
    cfg = load_config(args)
    cohort = load_cohort(args.manifest)
    spec = SegmentSpec.from_chunk_id(args.chunk)
    out = Path(args.out)
    segs = [segment(rec, spec) for rec in cohort]
    write_cohort(segs, out)
    write_provenance(out, args, cfg, args.seed)
    print("wrote chunk %s of %d subjects -> %s"
          % (spec.chunk_id, len(segs), out))
    return 0


def cmd_extract(args):
    cfg = load_config(args)
    cohort = load_cohort(args.manifest)
    channels = _parse_channels(args.channels)
    params = feature_params(cfg)
    cache = sweep.StageCache(
        pipelines={args.pipeline: build_pipeline(args.pipeline, cfg)},
        params=params)
    chunk = SegmentSpec.from_chunk_id(args.chunk)
    matrix = features.build_feature_matrix(
        cohort, channels, vector_fn=lambda rec, ch: cache.vector(
            rec, args.pipeline, chunk, ch))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    matrix.to_csv(out)
    meta = {"pipeline": args.pipeline, "chunk": chunk.chunk_id,
            "channels": list(channels),
            "feature_params": {k: list(v) if isinstance(v, tuple) else v
                               for k, v in asdict(params).items()}}
    with open(out.with_suffix(".meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_provenance(out.parent, args, cfg, args.seed)
    print("feature matrix %d x %d (+label) -> %s"
          % (matrix.n_subjects, matrix.n_columns, out))
    return 0


def cmd_select(args):
    cfg = load_config(args)
    matrix = features.FeatureMatrix.from_csv(args.features)
    sel_cfg = selection.SelectionConfig(alpha=args.alpha)
    kept, rep = selection.select_features(matrix, sel_cfg)
    kept.to_csv(args.out)
    if args.report:
        rep.to_csv(args.report)
    write_provenance(Path(args.out).parent, args, cfg, args.seed)
    print("kept %d of %d columns at alpha=%g -> %s"
          % (kept.n_columns, matrix.n_columns, args.alpha, args.out))
    return 0


def cmd_train(args):
    cfg = load_config(args)
    matrix = features.FeatureMatrix.from_csv(args.features)
    if args.selection == "yes":
        matrix, _ = selection.select_features(matrix)
    result = classify.cross_validate(
        matrix.values, matrix.labels, args.classifier, seed=args.seed)
    print("classifier=%s folds=%s" % (args.classifier, ",".join(
        "%.4f" % a for a in result.fold_accuracies)))
    print("mean accuracy %.4f +- %.4f, best config %s"
          % (result.mean_accuracy, result.spread,
             json.dumps(result.best_config, sort_keys=True)))
    if args.classifier == "gbt" and args.importance:
        model, holdout, imp = classify.train_final(
            matrix.values, matrix.labels, split_seed=args.seed,
            feature_names=matrix.column_names)
        print("holdout accuracy %.4f" % holdout)
        for name, gain in imp[:15]:
            print("  %-28s %.4f" % (name, gain))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "cv_result.json", "w") as fh:
            json.dump({"classifier": args.classifier,
                       "fold_accuracies": result.fold_accuracies,
                       "mean_accuracy": result.mean_accuracy,
                       "spread": result.spread,
                       "best_config": result.best_config},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        write_provenance(out, args, cfg, args.seed)
    return 0


def _space_from_config(cfg):
    """SweepSpace from the "space" block; other keys are ignored."""
    block = cfg.get("space", {})
    return sweep.SweepSpace(**{
        key: tuple(block[key]) for key in (
            "cleanings", "divisors", "subset_sizes", "channels",
            "classifiers", "selection_flags") if key in block})


def cmd_sweep(args):
    if getattr(args, "space", None):
        args.config = args.space
    cfg = load_config(args)
    cohort = load_cohort(args.manifest)
    space = _space_from_config(cfg)
    specs = sweep.enumerate_space(space)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pipelines = {kind: build_pipeline(kind, cfg)
                 for kind in space.cleanings}
    cache = sweep.StageCache(pipelines=pipelines, params=feature_params(cfg))
    grids = {k: tuple(cfg["grids"][k]) for k in cfg.get("grids", {})}
    records = sweep.run_sweep(
        cohort, specs, seed=args.seed, cache=cache,
        checkpoint_dir=out / "checkpoint" if args.resume else None,
        grids=grids or None, jobs=args.jobs,
        selection_in_fold=(args.selection_in_fold
                           or bool(cfg.get("selection_in_fold", False))),
        eval_on_test_fold=(args.lax_early_stop
                           or bool(cfg.get("eval_on_test_fold", False))),
        expand_grid=args.expand_grid)
    sweep.records_to_csv(records, out / "results.csv")
    write_provenance(out, args, cfg, args.seed)
    n_failed = sum(1 for r in records if not r.ok)
    print("ran %d specs (%d failed) -> %s"
          % (len(records), n_failed, out / "results.csv"))
    return 0


def cmd_report(args):
    cfg = load_config(args)
    records = sweep.records_from_csv(args.records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    group_by = [c.strip() for c in args.group_by.split(",") if c.strip()]
    summaries = report.summarize(records, group_by)
    report.summaries_to_csv(summaries, out / "summaries.csv")
    if args.svg and summaries:
        report.boxplot_svg(summaries, out / "boxplot.svg")
    rows = report.topomap_data(records, reduce=args.reduce)
    report.topomap_to_csv(rows, out / "topomap.csv")
    if args.significance_factor:
        levels = sorted({getattr(r, args.significance_factor)
                         for r in records})
        pairs = [(a, b) for i, a in enumerate(levels)
                 for b in levels[i + 1:]]
        marks = report.mark_significance(records, args.significance_factor,
                                         pairs)
        with open(out / "significance.csv", "w") as fh:
            fh.write("a,b,p,significant,note\n")
            for m in marks:
                fh.write("%s,%s,%.10g,%d,%s\n" % (
                    m["pair"][0], m["pair"][1], m["p"],
                    m["significant"], m["note"]))
    write_provenance(out, args, cfg, args.seed)
    print("wrote %d group summaries -> %s" % (len(summaries), out))
    return 0


# ---------------------------------------------------------------------------

UNSPECIFIED_DEFAULTS = """\
defaults filling gaps the source study left unspecified (all overridable
via --set / --config; marker: study-unspecified):
  features.quantile=0.75, features.sef_edge=0.95,
  features.welch_nperseg=256 (Hamming, 50%% overlap),
  band edges delta/theta/alpha/beta = 0.5/4/8/13/30 Hz,
  features.psd_fit_range=[1,40] Hz,
  asr.* window/z-bound/cutoff defaults from the reference tooling,
  classifier grids reconstructed around the reported optima.
"""


def build_parser():
    parser = _Parser(prog="eegsweep",
                     description="EEG cleaning / features / selection / "
                                 "classification sweep toolkit",
                     epilog=UNSPECIFIED_DEFAULTS,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config entry (dotted keys)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=10,
                   help="subjects per class")
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--effect-channel", default="P3")
    p.add_argument("--effect-axis", default="theta_power",
                   choices=("theta_power", "alpha_power", "kurtosis"))
    p.add_argument("--effect-size", type=float, default=2.0)
    p.add_argument("--artifacts", default="",
                   help="comma list: blink,muscle_burst,line_50hz,bad_channel")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("validate", help="check a cohort manifest")
    common(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("clean", help="apply a cleaning pipeline")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--pipeline", required=True,
                   choices=("raw", "filtered", "asr", "ica"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_clean)

    p = sub.add_parser("segment", help="cut one chunk out of every subject")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--chunk", required=True, help="e.g. 2/3")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_segment)

    p = sub.add_parser("extract", help="build a feature matrix CSV")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--pipeline", default="raw",
                   choices=("raw", "filtered", "asr", "ica"))
    p.add_argument("--chunk", default="1/1")
    p.add_argument("--channels", required=True, help="comma list, e.g. P3,P4")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("select", help="statistical feature selection "
                                      "(alpha default 0.05)")
    common(p)
    p.add_argument("--features", required=True, help="feature matrix CSV")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write the per-column route CSV here")
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("train", help="cross-validate one classifier")
    common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--classifier", default="gbt",
                   choices=("gbt", "svm", "knn"))
    p.add_argument("--selection", default="no", choices=("yes", "no"))
    p.add_argument("--importance", action="store_true",
                   help="also fit an 80/20 holdout model and print the "
                        "top-15 features")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sweep", help="run an experiment sweep")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--space", help="JSON sweep-space config (same format "
                                   "as --config)")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--resume", action="store_true",
                   help="use/continue a checkpoint under OUT/checkpoint")
    p.add_argument("--expand-grid", action="store_true",
                   help="one result row per (experiment, grid point) "
                        "instead of one best-config row")
    p.add_argument("--selection-in-fold", action="store_true",
                   help="recompute feature selection inside each training "
                        "fold (leakage-free variant)")
    p.add_argument("--lax-early-stop", action="store_true",
                   help="early-stop boosted trees on the CV test fold, "
                        "reproducing the laxer historical protocol")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="aggregate sweep results")
    common(p)
    p.add_argument("--records", required=True, help="results.csv from sweep")
    p.add_argument("--group-by", default="cleaning")
    p.add_argument("--reduce", default="max", choices=("max", "median"))
    p.add_argument("--significance-factor",
                   help="column for pairwise Welch tests, e.g. cleaning")
    p.add_argument("--svg", action="store_true",
                   help="also write a minimal box-plot SVG")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.fn(args)
    except CohortLoadError as exc:
        print(str(exc), file=sys.stderr)
        return DATA_ERROR
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
