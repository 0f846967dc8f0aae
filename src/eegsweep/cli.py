"""Command-line interface: one executable, one subcommand per stage.

Exit codes: 0 success, 1 usage error, 2 data error. Every run writes a
provenance JSON (config hash, seed, toolkit version) next to its outputs.
Defaults that fill gaps the underlying study left unspecified are marked
"study-unspecified" in --help.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, fields, is_dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np
import scipy

try:
    import resource
except ImportError:  # Windows
    resource = None

from . import (__version__, classify, cleaning, features, report, selection,
               sweep)
from .cleaning import PIPELINE_KINDS, CleaningPipeline, walk_pipeline
from .data_model import (CHANNELS_1020, CohortLoadError, load_cohort,
                         write_cohort)
from .segmentation import DIVISORS, SegmentSpec, segment
from .synth import (ARTIFACT_KINDS, EFFECT_AXES, ArtifactSpec, ClassEffect,
                    SynthSpec, generate_cohort)

USAGE_ERROR = 1
DATA_ERROR = 2

# glibc's mallopt parameters, and the values every command sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MALLOC_THRESHOLDS = {"mmap": 4 << 20, "trim": 32 << 20}
_MALLOC_ARENAS = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(USAGE_ERROR)


class ConfigError(Exception):
    """A config entry the reader refuses; the text starts with its key."""


def _fail(key, message, *values):
    raise ConfigError("%s: %s" % (key, message % values))


def _set_option(cfg, dotted, value):
    *parents, last = dotted.split(".")
    node = cfg
    for i, p in enumerate(parents):
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            _fail(".".join(parents[:i + 1]), "expected an object, got %s",
                  json.dumps(node))
    try:
        node[last] = json.loads(value)
    except json.JSONDecodeError:
        node[last] = value


def _check_members(key, values, allowed):
    """Refuse a value that is not in `allowed`, type included: 2.0 is no
    divisor and true no subset size; and refuse a value given twice."""
    values = list(values)
    for i, v in enumerate(values):
        if not any(v == a and type(v) is type(a) for a in allowed):
            _fail(key, "%s is not one of %s", json.dumps(v),
                  ", ".join(json.dumps(a) for a in allowed))
        if v in values[:i]:
            _fail(key, "%s is given twice", json.dumps(v))


def _read_block(default, block, key):
    """`default`, a dataclass instance, with the fields a JSON object sets.

    A key must name a field. A field whose default is a dataclass takes an
    object, read the same way; a tuple field takes a list, which becomes a
    tuple; a number field takes a number. Other values pass unchanged, so
    an int stays an int and the checkpoint stamp sees what the file says.
    """
    if not isinstance(block, dict):
        _fail(key, "expected an object, got %s", json.dumps(block))
    names = [f.name for f in fields(default)]
    changes = {}
    for name, value in block.items():
        where = "%s.%s" % (key, name) if key else name
        if where == "space.trios_gbt_selection_only":
            continue  # retired; older space files still write it
        if name not in names:
            _fail(where, "unknown key; %s has %s", type(default).__name__,
                  ", ".join(names))
        old = getattr(default, name)
        if is_dataclass(old):
            value = _read_block(old, value, where)
        elif isinstance(old, tuple):
            if not isinstance(value, list):
                _fail(where, "expected a list, got %s", json.dumps(value))
            value = tuple(value)
        elif isinstance(old, (int, float)) and type(value) not in (int, float):
            _fail(where, "expected a number, got %s", json.dumps(value))
        changes[name] = value
    return replace(default, **changes)


def _read_grids(block):
    """Grid points by classifier. A gbt point is read as a GbtConfig
    block, range checks included; an svm or knn point sets exactly the
    keys of its default grid's points, in classify.check_point's
    ranges."""
    if not isinstance(block, dict):
        _fail("grids", "expected an object, got %s", json.dumps(block))
    _check_members("grids", block, tuple(classify.DEFAULT_GRIDS))
    for name, points in block.items():
        if not (isinstance(points, list) and points
                and all(isinstance(p, dict) for p in points)):
            _fail("grids." + name, "expected a non-empty list of objects, "
                  "got %s", json.dumps(points))
        keys = list(classify.DEFAULT_GRIDS[name][0])
        for i, point in enumerate(points):
            where = "grids.%s[%d]" % (name, i)
            if name == "gbt":
                _read_block(classify.GbtConfig(), point, where)
            elif sorted(point) != sorted(keys):
                _fail(where, "has %s; a %s point sets exactly %s",
                      ", ".join(point) or "no key", name, ", ".join(keys))
            classify.check_point(name, point)
    return {name: tuple(points) for name, points in block.items()}


def _read_config(cfg):
    """Every block of a merged config dict, built and checked: "pipeline"
    (the one cleaning config), "features", "space" and "grids", plus
    "merged", the dict itself."""
    blocks = ("fir", "asr", "ica", "features", "space", "grids")
    for key in cfg:
        if key not in blocks:
            _fail(key, "unknown block; expected one of %s", ", ".join(blocks))
    space = _read_block(sweep.SweepSpace(), cfg.get("space", {}), "space")
    for axis, allowed in (
            ("cleanings", PIPELINE_KINDS), ("divisors", DIVISORS),
            ("subset_sizes", tuple(range(1, len(CHANNELS_1020) + 1))),
            ("channels", CHANNELS_1020),
            ("classifiers", tuple(classify.DEFAULT_GRIDS)),
            ("selection_flags", (True, False))):
        _check_members("space." + axis, getattr(space, axis), allowed)
    pipeline = {k: cfg[k] for k in blocks[:3] if k in cfg}  # in this order
    return {"merged": cfg, "space": space,
            "pipeline": _read_block(CleaningPipeline(), pipeline, ""),
            "features": _read_block(features.DEFAULT_PARAMS,
                                    cfg.get("features", {}), "features"),
            "grids": _read_grids(cfg.get("grids", {}))}


def _chunk_spec(text):
    """The --chunk flag as a SegmentSpec, refused unless INDEX/DIVISOR."""
    try:
        return SegmentSpec.from_chunk_id(text)
    except ValueError:
        _fail("--chunk", "expected INDEX/DIVISOR with DIVISOR one of %s and "
              "1 <= INDEX <= DIVISOR, got %s",
              ", ".join(map(str, DIVISORS)), json.dumps(text))


def load_config(args):
    """The config file (--config, or sweep's --space) with the --set
    overrides applied, read by _read_config."""
    space = getattr(args, "space", None)
    if space and args.config:
        _fail("--space", "give --space or --config, not both")
    path = space or args.config
    cfg = {}
    if path:
        with open(path) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                _fail(path, "not valid JSON: %s", exc)
        if not isinstance(cfg, dict):
            _fail(path, "expected a JSON object")
    for item in args.set or []:
        if "=" not in item:
            _fail(item, "--set takes KEY=VALUE")
        key, value = item.split("=", 1)
        _set_option(cfg, key.strip(), value.strip())
    return _read_config(cfg)


def _mallopt():
    """The C library's mallopt, or None where it has none (macOS, musl,
    Windows)."""
    if os.name == "nt":  # no handle to the process's own symbols
        return None
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
    return mallopt


@functools.cache
def _keep_freed_heap():
    """Fix glibc's mmap and trim thresholds and its arena count for the
    whole process, once; returns them, or None where the C library takes
    no mallopt.

    Under glibc's defaults, freed memory goes back to the OS after each
    level of the boosted-tree engine (a heap trim, and munmap of blocks
    over 128 KiB), so the next level's 0.1-2 MiB numpy temporaries are
    page-faulted in again. Blocks up to 4 MiB now come from the heap,
    which keeps up to 32 MiB of freed memory; setting either value also
    turns off glibc's dynamic thresholds. One arena serves every thread,
    numpy's and scipy's OpenBLAS server threads among them: without the
    cap, `paper-mix` spent 2-4% more CPU per spec in this process. glibc
    has no getter, so nothing is restored; fork processes inherit them.
    """
    mallopt = _mallopt()
    if mallopt is None:
        return None
    done = [mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLDS["mmap"]),
            mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLDS["trim"]),
            mallopt(_M_ARENA_MAX, _MALLOC_ARENAS)]
    return (dict(_MALLOC_THRESHOLDS, arena_max=_MALLOC_ARENAS)
            if done == [1, 1, 1] else None)


def _set_up_process():
    """The settings every command runs under, made for the whole process
    and never handed back: glibc's heap (`_keep_freed_heap`) and numpy's
    OpenBLAS on one thread (see `cleaning._one_blas_thread` for why one).

    The BLAS count is set only where it is not 1 already, so it is set
    once per process. A restore after each command would follow a sweep's
    fork, which tears down OpenBLAS's server threads; any set call then
    starts them again, and each busy-waits for about 0.12 CPU-s. Fork
    workers inherit the count of 1. The library's own pins
    (`sweep.feature_vectors`, `cleaning.ica_decompose`) find 1 and call
    nothing.
    """
    _keep_freed_heap()
    blas = cleaning._openblas()
    if blas is not None:
        cleaning._set_blas_threads(*blas, 1)


def _blas_threads():
    blas = cleaning._openblas()
    return None if blas is None else blas[0]()


def _blas_name():
    """Name and version of the BLAS numpy was built with; None on numpy
    1.24, whose show_config only prints."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return "%s %s" % (blas.get("name"), blas.get("version"))


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb(usage):
    """A getrusage peak in MB (ru_maxrss is KiB on Linux, bytes on
    macOS)."""
    return round(usage.ru_maxrss / (
        1024.0 ** 2 if sys.platform == "darwin" else 1024.0), 1)


def write_provenance(out_dir, args, cfg):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    canon = json.dumps(cfg["merged"], sort_keys=True)
    # null where the platform has no resource module
    usage = resource and resource.getrusage(resource.RUSAGE_SELF)
    children = resource and resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_at_start, workers_cpu_at_start = args.cpu_at_start or (None, None)
    doc = {
        "command": args.command,
        "config_hash": hashlib.sha256(canon.encode()).hexdigest(),
        "seed": args.seed,
        "toolkit_version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # the result bytes rest on numpy's summation and SIMD loops
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpus": sweep._usable_cpus(),
        "blas": _blas_name(),
        # null where numpy bundles no OpenBLAS to count
        "blas_threads": _blas_threads(),
        # the sweep's spec processes; null for the other commands
        "jobs": getattr(args, "jobs", None),
        # this process's peak, import included, up to this write; its
        # children are not counted
        "peak_rss_mb": usage and _peak_rss_mb(usage),
        # this process's CPU (user + system, all threads) from main's
        # start to this write
        "cpu_s": usage and round(_cpu_s(usage) - cpu_at_start, 3),
        # the largest peak of this process's waited-for children so far:
        # a sweep's feature table and spec processes, and the processes
        # that read and write cohorts (data_model)
        "workers_peak_rss_mb": children and _peak_rss_mb(children),
        # the CPU of the children waited for since main's start: this
        # command's feature table and spec processes, and those that read
        # and wrote its cohort
        "workers_cpu_s": children and round(
            _cpu_s(children) - workers_cpu_at_start, 3),
        # null where the C library takes no mallopt
        "malloc_thresholds": _keep_freed_heap(),
        "minor_faults": usage and usage.ru_minflt,
    }
    _write_json(out_dir / "provenance.json", doc)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args, cfg):
    artifacts = tuple(ArtifactSpec(kind=k.strip())
                      for k in args.artifacts.split(",") if k.strip())
    spec = SynthSpec(
        n_subjects_per_class=args.subjects,
        duration_s=args.duration,
        class_effect=ClassEffect(target_channel=args.effect_channel,
                                 feature_axis=args.effect_axis,
                                 effect_size=args.effect_size),
        artifacts=artifacts,
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
    write_provenance(out, args, cfg)
    print("wrote %d subjects to %s (manifest %s)"
          % (len(cohort), out, manifest.name))
    return 0


def cmd_validate(args, cfg):
    try:
        cohort = load_cohort(args.manifest)
    except CohortLoadError as exc:
        for p in exc.problems:
            print("FAIL %s" % p, file=sys.stderr)
        return DATA_ERROR
    print("%d subjects OK" % len(cohort))
    return 0


def cmd_clean(args, cfg):
    cohort = load_cohort(args.manifest)
    pipeline = replace(cfg["pipeline"], kind=args.pipeline)
    out = Path(args.out)
    params = {k: v for k, v in asdict(pipeline).items() if k != "kind"}
    sidecar = {"pipeline": args.pipeline, "params": params, "subjects": {}}
    cleaned = []
    for rec in cohort:
        *_, (_, result, info) = walk_pipeline(rec, pipeline)
        cleaned.append(result)
        sidecar["subjects"][rec.subject_id] = info
    write_cohort(cleaned, out)
    _write_json(out / "cleaning.json", sidecar)
    write_provenance(out, args, cfg)
    print("cleaned %d subjects with pipeline %s -> %s"
          % (len(cleaned), args.pipeline, out))
    return 0


def cmd_segment(args, cfg):
    spec = _chunk_spec(args.chunk)
    cohort = load_cohort(args.manifest)
    out = Path(args.out)
    segs = [segment(rec, spec) for rec in cohort]
    write_cohort(segs, out)
    write_provenance(out, args, cfg)
    print("wrote chunk %s of %d subjects -> %s"
          % (spec.chunk_id, len(segs), out))
    return 0


def cmd_extract(args, cfg):
    channels = tuple(c.strip() for c in args.channels.split(",") if c.strip())
    if not channels:
        _fail("--channels", "names no channel: %s", json.dumps(args.channels))
    _check_members("--channels", channels, CHANNELS_1020)
    chunk = _chunk_spec(args.chunk)
    cohort = load_cohort(args.manifest)
    table = sweep.feature_vectors(
        cohort, [(args.pipeline, chunk, ch) for ch in channels],
        cfg["pipeline"], cfg["features"])
    matrix = sweep.feature_matrix(table, args.pipeline, chunk, channels)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    matrix.to_csv(out)
    _write_json(out.with_suffix(".meta.json"), {
        "pipeline": args.pipeline, "chunk": chunk.chunk_id,
        "channels": channels, "features": asdict(cfg["features"])})
    write_provenance(out.parent, args, cfg)
    print("feature matrix %d x %d (+label) -> %s"
          % (matrix.n_subjects, matrix.n_columns, out))
    return 0


def cmd_select(args, cfg):
    matrix = features.FeatureMatrix.from_csv(args.features)
    sel_cfg = selection.SelectionConfig(alpha=args.alpha)
    kept, rep = selection.select_features(matrix, sel_cfg)
    for path in (args.out, args.report):
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    kept.to_csv(args.out)
    if args.report:
        rep.to_csv(args.report)
    write_provenance(Path(args.out).parent, args, cfg)
    print("kept %d of %d columns at alpha=%g -> %s"
          % (kept.n_columns, matrix.n_columns, args.alpha, args.out))
    return 0


def cmd_train(args, cfg):
    if args.importance and args.classifier != "gbt":
        _fail("--importance", "needs --classifier gbt, got %s",
              args.classifier)
    matrix = features.FeatureMatrix.from_csv(args.features)
    if args.selection == "yes":
        matrix, _ = selection.select_features(matrix)
    result = classify.cross_validate(
        matrix.values, matrix.labels, args.classifier,
        grid=cfg["grids"].get(args.classifier), seed=args.seed)
    print("classifier=%s folds=%s" % (args.classifier, ",".join(
        "%.4f" % a for a in result.fold_accuracies)))
    print("mean accuracy %.4f +- %.4f, best config %s"
          % (result.mean_accuracy, result.spread,
             json.dumps(result.best_config, sort_keys=True)))
    if args.importance:
        model, holdout, imp = classify.train_final(
            matrix.values, matrix.labels,
            classify.GbtConfig(**result.best_config), split_seed=args.seed,
            feature_names=matrix.column_names)
        print("holdout accuracy %.4f" % holdout)
        for name, gain in imp[:15]:
            print("  %-28s %.4f" % (name, gain))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "cv_result.json", {
            "classifier": args.classifier,
            "fold_accuracies": result.fold_accuracies,
            "mean_accuracy": result.mean_accuracy, "spread": result.spread,
            "best_config": result.best_config})
        write_provenance(out, args, cfg)
    return 0


def cmd_sweep(args, cfg):
    if args.jobs is None:  # the feature table's width
        args.jobs = sweep._usable_cpus()
    elif args.jobs < 1:
        _fail("--jobs", "expected at least 1, got %d", args.jobs)
    cohort = load_cohort(args.manifest)
    specs = sweep.enumerate_space(cfg["space"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = sweep.run_sweep(
        cohort, specs, seed=args.seed, pipeline=cfg["pipeline"],
        params=cfg["features"],
        checkpoint_dir=out / "checkpoint" if args.resume else None,
        grids=cfg["grids"] or None, jobs=args.jobs,
        selection_in_fold=args.selection_in_fold,
        eval_on_test_fold=args.lax_early_stop, expand_grid=args.expand_grid)
    sweep.records_to_csv(records, out / "results.csv")
    write_provenance(out, args, cfg)
    n_failed = sum(1 for r in records if not r.ok)
    print("wrote %d rows (%d failed) -> %s"
          % (len(records), n_failed, out / "results.csv"))
    return 0


def cmd_report(args, cfg):
    group_by = [c.strip() for c in args.group_by.split(",") if c.strip()]
    # best_params holds a dict, which cannot key a group
    columns = tuple(c for c in sweep.RESULT_COLUMNS if c != "best_params")
    _check_members("--group-by", group_by, columns)
    if args.significance_factor:
        _check_members("--significance-factor", [args.significance_factor],
                       columns)
    records = sweep.records_from_csv(args.records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summaries = report.summarize(records, group_by)
    report.summaries_to_csv(summaries, out / "summaries.csv")
    if args.svg and summaries:
        report.boxplot_svg(summaries, out / "boxplot.svg")
    rows = report.topomap_data(records, reduce=args.reduce)
    report.topomap_to_csv(rows, out / "topomap.csv")
    if args.significance_factor:
        levels = sorted({getattr(r, args.significance_factor)
                         for r in records})
        marks = report.mark_significance(records, args.significance_factor,
                                         list(combinations(levels, 2)))
        with open(out / "significance.csv", "w") as fh:
            fh.write("a,b,p,significant,note\n")
            for m in marks:
                fh.write("%s,%s,%.10g,%d,%s\n" % (
                    m["pair"][0], m["pair"][1], m["p"],
                    m["significant"], m["note"]))
    write_provenance(out, args, cfg)
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
                   choices=EFFECT_AXES)
    p.add_argument("--effect-size", type=float, default=2.0)
    p.add_argument("--artifacts", default="",
                   help="comma list of " + ",".join(ARTIFACT_KINDS))
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("validate", help="check a cohort manifest")
    common(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("clean", help="apply a cleaning pipeline")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--pipeline", required=True,
                   choices=PIPELINE_KINDS)
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
                   choices=PIPELINE_KINDS)
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
                   choices=tuple(classify.DEFAULT_GRIDS))
    p.add_argument("--selection", default="no", choices=("yes", "no"))
    p.add_argument("--importance", action="store_true",
                   help="also fit an 80/20 holdout model and print the "
                        "top-15 features (needs --classifier gbt)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("sweep", help="run an experiment sweep")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--space", help="JSON sweep-space config (same format "
                                   "as --config)")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int,
                   help="processes that cross-validate the specs "
                        "(default: the usable CPUs; 1 runs them here)")
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
    p.add_argument("--reduce", default="max", choices=tuple(report.REDUCTIONS))
    p.add_argument("--significance-factor",
                   help="column for pairwise Welch tests, e.g. cleaning")
    p.add_argument("--svg", action="store_true",
                   help="also write a minimal box-plot SVG")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    """Run one command; returns its exit code. The process set-up
    (`_set_up_process`) comes first and stays after the return: an
    in-process caller keeps glibc's heap settings and OpenBLAS on one
    thread, and `OPENBLAS_NUM_THREADS` is not restored."""
    # this process's CPU and its waited-for children's so far, so that
    # provenance.json counts this command's alone
    cpu_at_start = resource and (
        _cpu_s(resource.getrusage(resource.RUSAGE_SELF)),
        _cpu_s(resource.getrusage(resource.RUSAGE_CHILDREN)))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    args.cpu_at_start = cpu_at_start
    _set_up_process()
    try:
        return args.fn(args, load_config(args))
    except ConfigError as exc:
        print("error: config: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except CohortLoadError as exc:
        print(str(exc), file=sys.stderr)
        return DATA_ERROR
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
