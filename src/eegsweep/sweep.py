"""Experiment sweep: enumerate and run cleaning x chunk x channels x
classifier x selection combinations, with stage caching and resumable
checkpoints.

Cleaning runs once per (subject, pipeline) on the full recording (ASR is
calibrated on the whole recording and reused for every chunk); feature
vectors are computed once per (subject, cleaning, chunk, channel) and
shared across all specs that need them. Records are emitted in spec
order regardless of execution order, and per-spec failures become failed
rows instead of aborting the sweep.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from . import classify, features, selection
from .cleaning import CleaningPipeline
from .data_model import CHANNELS_1020
from .segmentation import DIVISORS, SegmentSpec, segment

CLEANINGS = ("raw", "filtered", "asr", "ica")
CLASSIFIERS = ("gbt", "svm", "knn")


@dataclass(frozen=True)
class ExperimentSpec:
    cleaning: str
    chunk: SegmentSpec
    channels: tuple
    classifier: str
    feature_selection: bool

    @property
    def key(self):
        return "|".join([self.cleaning, self.chunk.chunk_id,
                         "-".join(self.channels), self.classifier,
                         "sel" if self.feature_selection else "nosel"])


@dataclass
class ExperimentRecord:
    """One row of the results table."""

    cleaning: str
    chunk: str
    channels: str
    classifier: str
    feature_selection: bool
    accuracy: float = float("nan")
    spread: float = float("nan")
    best_params: dict = field(default_factory=dict)
    error: str = ""

    @property
    def ok(self):
        return not self.error

    def to_dict(self):
        return {"accuracy": self.accuracy, "spread": self.spread,
                "cleaning": self.cleaning, "chunk": self.chunk,
                "channels": self.channels, "classifier": self.classifier,
                "feature_selection": self.feature_selection,
                "best_params": dict(self.best_params), "error": self.error}

    @classmethod
    def from_dict(cls, d):
        return cls(cleaning=d["cleaning"], chunk=d["chunk"],
                   channels=d["channels"], classifier=d["classifier"],
                   feature_selection=bool(d["feature_selection"]),
                   accuracy=float(d["accuracy"]), spread=float(d["spread"]),
                   best_params=dict(d.get("best_params", {})),
                   error=d.get("error", ""))


@dataclass(frozen=True)
class SweepSpace:
    """Which axes of the full experiment space to enumerate."""

    cleanings: tuple = CLEANINGS
    divisors: tuple = DIVISORS
    subset_sizes: tuple = (1,)
    channels: tuple = CHANNELS_1020
    classifiers: tuple = CLASSIFIERS
    selection_flags: tuple = (True, False)
    trios_gbt_selection_only: bool = True


def enumerate_space(space=SweepSpace()):
    """Deterministic list of ExperimentSpec for a sweep space.

    With trios_gbt_selection_only, 3-channel subsets run only with the
    boosted-tree classifier and feature selection enabled.
    """
    specs = []
    chunks = [SegmentSpec(j, i) for j in space.divisors
              for i in range(1, j + 1)]
    for cleaning in space.cleanings:
        for chunk in chunks:
            for size in space.subset_sizes:
                for subset in combinations(space.channels, size):
                    if size == 3 and space.trios_gbt_selection_only:
                        pairs = [("gbt", True)]
                    else:
                        pairs = [(clf, sel) for clf in space.classifiers
                                 for sel in space.selection_flags]
                    for clf, sel in pairs:
                        specs.append(ExperimentSpec(
                            cleaning=cleaning, chunk=chunk, channels=subset,
                            classifier=clf, feature_selection=sel))
    return specs


def _spec_seed(global_seed, spec):
    digest = hashlib.sha256(
        ("%d|%s" % (global_seed, spec.key)).encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 31)


class StageCache:
    """In-memory content cache for cleaned recordings and feature vectors."""

    def __init__(self, pipelines=None, params=features.DEFAULT_PARAMS,
                 enabled=True):
        self.pipelines = pipelines or {
            kind: CleaningPipeline(kind=kind) for kind in CLEANINGS}
        self.params = params
        self.enabled = enabled
        self._cleaned = {}
        self._vectors = {}

    def cleaned(self, rec, cleaning):
        from .cleaning import run_pipeline
        key = (rec.subject_id, cleaning)
        if self.enabled and key in self._cleaned:
            return self._cleaned[key]
        out = run_pipeline(rec, self.pipelines[cleaning])
        if self.enabled:
            self._cleaned[key] = out
        return out

    def vector(self, rec, cleaning, chunk, channel):
        key = (rec.subject_id, cleaning, chunk.chunk_id, channel)
        if self.enabled and key in self._vectors:
            return self._vectors[key]
        cleaned = self.cleaned(rec, cleaning)
        seg = segment(cleaned, chunk)
        vec = features.extract_channel(seg.channel(channel),
                                       seg.sample_rate_hz, self.params)
        if self.enabled:
            self._vectors[key] = vec
        return vec


def _build_matrix(cohort, spec, cache):
    rows = []
    for rec in cohort:
        rows.append(np.concatenate([
            cache.vector(rec, spec.cleaning, spec.chunk, ch)
            for ch in spec.channels]))
    return features.FeatureMatrix(
        column_names=features.channel_feature_names(spec.channels),
        values=np.array(rows),
        labels=np.array([rec.label for rec in cohort], dtype=int),
        subject_ids=[rec.subject_id for rec in cohort])


def run_one(cohort, spec, seed, cache, grids=None, gbt_base=None,
            selection_cfg=None, selection_in_fold=False,
            eval_on_test_fold=False, expand_grid=False):
    """Execute a single experiment spec.

    Returns one ExperimentRecord (best grid point), or a list with one
    record per grid point when expand_grid is set.
    """
    def blank():
        return ExperimentRecord(
            cleaning=spec.cleaning, chunk=spec.chunk.chunk_id,
            channels="-".join(spec.channels), classifier=spec.classifier,
            feature_selection=spec.feature_selection)

    record = blank()
    try:
        matrix = _build_matrix(cohort, spec, cache)
        sel_cfg = selection_cfg or selection.SelectionConfig()
        selector = None
        if spec.feature_selection:
            if selection_in_fold:
                names = matrix.column_names

                def selector(tx, ty, _names=names, _cfg=sel_cfg):
                    return selection.select_indices(tx, ty, _names, _cfg)
            else:
                matrix, _ = selection.select_features(matrix, sel_cfg)
                if matrix.n_columns == 0:
                    raise ValueError("selection kept no columns")
        grid = (grids or {}).get(spec.classifier)
        result = classify.cross_validate(
            matrix.values, matrix.labels, spec.classifier, grid=grid,
            seed=_spec_seed(seed, spec), gbt_base=gbt_base,
            selector=selector, eval_on_test_fold=eval_on_test_fold,
            return_all=expand_grid)
        if expand_grid:
            records = []
            for res in result:
                rec = blank()
                rec.accuracy = res.mean_accuracy
                rec.spread = res.spread
                rec.best_params = res.best_config
                records.append(rec)
            return records
        record.accuracy = result.mean_accuracy
        record.spread = result.spread
        record.best_params = result.best_config
    except Exception as exc:  # per-spec failures never abort the sweep
        record.error = "%s: %s" % (type(exc).__name__, exc)
        if expand_grid:
            return [record]
    return record


_WORKER = {}


def _init_worker(cohort, seed, options):
    _WORKER["cohort"] = cohort
    _WORKER["seed"] = seed
    _WORKER["options"] = options
    _WORKER["cache"] = StageCache(pipelines=options.get("pipelines"),
                                  params=options.get("params",
                                                     features.DEFAULT_PARAMS))


def _worker_run(spec):
    opts = _WORKER["options"]
    return run_one(_WORKER["cohort"], spec, _WORKER["seed"],
                   _WORKER["cache"], grids=opts.get("grids"),
                   gbt_base=opts.get("gbt_base"),
                   selection_cfg=opts.get("selection_cfg"),
                   selection_in_fold=opts.get("selection_in_fold", False),
                   eval_on_test_fold=opts.get("eval_on_test_fold", False),
                   expand_grid=opts.get("expand_grid", False))


def _load_checkpoint(path):
    """Finished records by spec key, read from a records.jsonl checkpoint.

    A kill can cut the last line short. An unterminated or unparsable last
    line is dropped and the file is truncated back to the last complete
    record, so that spec is recomputed and the next append starts on a
    fresh line. A bad line before the last still raises.
    """
    data = path.read_bytes()
    lines = data.split(b"\n")
    keep = len(data) - len(lines.pop())  # drop an unterminated fragment
    docs = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            docs.append(json.loads(line))
        except ValueError:
            if i < len(lines) - 1 or keep < len(data):
                raise
            keep -= len(line) + 1
    if keep < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(keep)
    return {doc["key"]: [ExperimentRecord.from_dict(d)
                         for d in doc["records"]] for doc in docs}


def run_sweep(cohort, specs, seed=0, cache=None, checkpoint_dir=None,
              grids=None, gbt_base=None, selection_cfg=None,
              selection_in_fold=False, progress=None, jobs=1,
              eval_on_test_fold=False, expand_grid=False):
    """Run every spec; returns records in spec order.

    With checkpoint_dir, finished specs are appended to records.jsonl and
    skipped on resume, so a killed sweep continues without recomputation
    and yields the identical record list. jobs > 1 fans specs out to a
    worker pool; per-spec seeds are content-derived, so parallelism never
    changes results. With expand_grid, one record per (spec, grid point)
    is emitted instead of one best-config record per spec.
    """
    cache = cache or StageCache()
    done = {}
    ckpt_path = None
    if checkpoint_dir is not None:
        ckpt_dir = Path(checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = ckpt_dir / "records.jsonl"
        if ckpt_path.exists():
            done = _load_checkpoint(ckpt_path)

    pending = [(i, spec) for i, spec in enumerate(specs)
               if spec.key not in done]
    per_spec = [done.get(spec.key) for spec in specs]

    def finish(i, spec, result):
        result = result if isinstance(result, list) else [result]
        per_spec[i] = result
        if ckpt_path is not None:
            with open(ckpt_path, "a") as fh:
                fh.write(json.dumps(
                    {"key": spec.key,
                     "records": [r.to_dict() for r in result]},
                    sort_keys=True) + "\n")
        if progress is not None:
            progress(sum(r is not None for r in per_spec), len(specs),
                     result[-1])

    options = {"grids": grids, "gbt_base": gbt_base,
               "selection_cfg": selection_cfg,
               "selection_in_fold": selection_in_fold,
               "eval_on_test_fold": eval_on_test_fold,
               "expand_grid": expand_grid}
    if jobs > 1 and len(pending) > 1:
        import multiprocessing as mp
        pool_options = dict(options, pipelines=cache.pipelines,
                            params=cache.params)
        ctx = mp.get_context("fork")
        with ctx.Pool(jobs, initializer=_init_worker,
                      initargs=(cohort, seed, pool_options)) as pool:
            for (i, spec), result in zip(
                    pending, pool.imap(_worker_run,
                                       [s for _, s in pending])):
                finish(i, spec, result)
    else:
        for i, spec in pending:
            finish(i, spec, run_one(cohort, spec, seed, cache, **options))
    return [record for group in per_spec for record in group]


RESULT_COLUMNS = ("accuracy", "spread", "cleaning", "chunk", "channels",
                  "classifier", "feature_selection", "best_params", "error")


def records_to_csv(records, path):
    """Write the results table (Table-2 schema plus hyperparameters)."""
    with open(path, "w") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for r in records:
            fh.write("%.10g,%.10g,%s,%s,%s,%s,%s,%s,%s\n" % (
                r.accuracy, r.spread, r.cleaning, r.chunk, r.channels,
                r.classifier, "Yes" if r.feature_selection else "No",
                json.dumps(r.best_params, sort_keys=True).replace(",", ";"),
                r.error.replace(",", ";")))


def records_from_csv(path):
    records = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        assert header == list(RESULT_COLUMNS), "unexpected results header"
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            records.append(ExperimentRecord(
                accuracy=float(cells[0]), spread=float(cells[1]),
                cleaning=cells[2], chunk=cells[3], channels=cells[4],
                classifier=cells[5], feature_selection=cells[6] == "Yes",
                best_params=json.loads(cells[7].replace(";", ",")),
                error=cells[8].replace(";", ",")))
    return records
