"""Experiment sweep: enumerate and run cleaning x chunk x channels x
classifier x selection combinations, with resumable checkpoints.

A sweep call first builds one feature table (`feature_vectors`) for the
specs it still has to run: one float64 array `values[subject, cell, 53]`
over the distinct (cleaning, chunk, channel) cells of those specs. Each
subject is cleaned once along FIR -> ASR -> ICA (ASR calibrated on the
whole recording, for every chunk), and each of its cells is extracted
once, in this process, in one stack with other rows of its length and
sample rate, from this subject and the next ones, up to a budget of
samples; a cell that fails keeps the failure of its smallest subject.
Every feature matrix, a spec's or `eegsweep extract`'s, is a slice of
that array (`feature_matrix`). The specs then only select and
cross-validate, serially or in fork workers that inherit the table.
Records are emitted in spec order regardless of execution order, and
per-spec failures become failed rows instead of aborting the sweep.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import classify, cleaning, features, selection
from .cleaning import PIPELINE_KINDS, CleaningPipeline
from .data_model import CHANNELS_1020
from .segmentation import DIVISORS, SegmentSpec, segment


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


@dataclass(frozen=True)
class SweepSpace:
    """Which axes of the full experiment space to enumerate."""

    cleanings: tuple = PIPELINE_KINDS
    divisors: tuple = DIVISORS
    subset_sizes: tuple = (1,)
    channels: tuple = CHANNELS_1020
    classifiers: tuple = tuple(classify.DEFAULT_GRIDS)
    selection_flags: tuple = (True, False)


def enumerate_space(space=SweepSpace()):
    """Deterministic list of ExperimentSpec for a sweep space.

    3-channel subsets run only with the boosted-tree classifier and
    feature selection enabled.
    """
    specs = []
    chunks = [SegmentSpec(j, i) for j in space.divisors
              for i in range(1, j + 1)]
    for kind in space.cleanings:
        for chunk in chunks:
            for size in space.subset_sizes:
                for subset in combinations(space.channels, size):
                    if size == 3:
                        pairs = [("gbt", True)]
                    else:
                        pairs = [(clf, sel) for clf in space.classifiers
                                 for sel in space.selection_flags]
                    for clf, sel in pairs:
                        specs.append(ExperimentSpec(
                            cleaning=kind, chunk=chunk, channels=subset,
                            classifier=clf, feature_selection=sel))
    return specs


def _spec_seed(global_seed, spec):
    digest = hashlib.sha256(
        ("%d|%s" % (global_seed, spec.key)).encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 31)


@dataclass(frozen=True)
class FeatureTable:
    """`values[s, cells[cell]]` is the 53-vector of subject s and one
    (cleaning, chunk, channel) cell; `failures[cells[cell]]` is the cell's
    first failure, (subject index, exception), and its values from that
    subject on are undefined."""

    cells: dict
    values: np.ndarray
    failures: dict


#: Samples (rows x length) that one extract_channel stack holds at most,
#: unless one subject's rows of that length need more. It bounds a
#: stack's temporaries; one 60 s subject's rows of one length on the
#: benchmark's `clean-features` come close to it, so those stacks keep
#: the size they had when each subject was extracted on its own.
_STACK_SAMPLES = 1 << 16


def feature_vectors(cohort, cells, pipeline, params):
    """The feature table of a cohort: every vector the cells need, once.

    `cells` holds (cleaning, chunk, channel) triples, chunk a SegmentSpec,
    repeats allowed; `pipeline`'s kind is ignored. Walks each subject
    through the cleanings once, as deep as the cells need, keeping the
    channel rows they need. Rows of one length and sample rate wait in
    one stack across subjects; it goes to extract_channel when the next
    subject's rows would take it past _STACK_SAMPLES, and at the end. A
    subject's rows are never split between stacks. A stage or segment
    that fails fails every cell it and later stages would have produced,
    and is attempted once per subject. A cell keeps the failure of its
    smallest subject, though a stack's failures are known only once it
    is extracted.
    """
    index = {cell: pos for pos, cell in enumerate(dict.fromkeys(cells))}
    plan = {}
    for (kind, chunk, channel), pos in index.items():
        plan.setdefault(kind, {}).setdefault(chunk, {})[channel] = pos
    depth = max(map(PIPELINE_KINDS.index, plan), default=0)
    # written stack by stack; a failed entry is never read
    values = np.empty((len(cohort), len(index), features.N_FEATURES))
    failures = {}
    pending = {}    # (length, rate) -> [(subject, cell position, row)]

    def fail(pos, s, exc):
        if pos not in failures or s < failures[pos][0]:
            failures[pos] = (s, exc)

    def extract(key):
        subjects, positions, rows = zip(*pending.pop(key))
        for s, pos, vector in zip(subjects, positions,
                                  _extract_stack(rows, key[1], params)):
            if isinstance(vector, Exception):
                fail(pos, s, vector)
            else:
                values[s, pos] = vector

    for s, rec in enumerate(cohort):
        mine = {}   # (length, rate) -> this subject's rows
        stages = cleaning.walk_pipeline(
            rec, replace(pipeline, kind=PIPELINE_KINDS[depth]))
        cleaned = seg = None
        for kind in PIPELINE_KINDS[:depth + 1]:
            if not isinstance(cleaned, Exception):
                cleaned = _attempt(lambda: next(stages)[1])
            for chunk, channels in plan.get(kind, {}).items():
                seg = (cleaned if isinstance(cleaned, Exception)
                       else _attempt(lambda: segment(cleaned, chunk)))
                for ch, pos in channels.items():
                    if isinstance(seg, Exception):
                        fail(pos, s, seg)
                    else:
                        # a copy, so that each stage's recording is freed
                        # once the walk has moved past it
                        row = seg.channel(ch).copy()
                        mine.setdefault((row.size, rec.sample_rate_hz),
                                        []).append((s, pos, row))
        for key, rows in mine.items():
            if key in pending and (len(pending[key]) + len(rows)) * key[0] \
                    > _STACK_SAMPLES:
                extract(key)
            pending.setdefault(key, []).extend(rows)
    for key in list(pending):
        extract(key)
    return FeatureTable(cells=index, values=values, failures=failures)


def feature_matrix(cohort, table, cleaning_kind, chunk, channels):
    """The subjects x (channel, feature) matrix of one cleaning, chunk and
    channel subset, sliced from a `feature_vectors` table; columns are
    channel-major in the canonical 53-feature order. Where a channel
    failed, raises the failure of the smallest (subject, channel
    position): the first one a subject-by-subject assembly would meet.
    """
    if not channels:
        raise ValueError("channel subset must not be empty")
    positions = [table.cells[cleaning_kind, chunk, ch] for ch in channels]
    failed = [(table.failures[pos][0], i, table.failures[pos][1])
              for i, pos in enumerate(positions) if pos in table.failures]
    if failed:
        # a fresh traceback, not one grown by every spec that raised it
        raise min(failed, key=lambda f: f[:2])[2].with_traceback(None)
    return features.FeatureMatrix(
        column_names=features.channel_feature_names(channels),
        values=table.values[:, positions].reshape(len(cohort), -1),
        labels=np.array([rec.label for rec in cohort], dtype=int),
        subject_ids=[rec.subject_id for rec in cohort])


def _extract_stack(rows, fs, params):
    """One vector or exception per row, from one extract_channel call;
    when the stack fails, each row is extracted alone, so a failure (a
    non-finite row, say) stays in its row."""
    stack = _attempt(lambda: features.extract_channel(np.array(rows), fs,
                                                      params))
    if not isinstance(stack, Exception):
        return list(stack)
    return [_attempt(lambda: features.extract_channel(row, fs, params))
            for row in rows]


def _attempt(stage):
    try:
        return stage()
    except Exception as exc:  # stored; each spec that needs it fails with it
        # without its traceback, whose frames would keep the cleaned
        # recording alive as long as the table
        return exc.with_traceback(None)


def run_one(cohort, spec, seed, table, grids=None, gbt_base=None,
            selection_in_fold=False, eval_on_test_fold=False,
            expand_grid=False):
    """Execute a single experiment spec on a `feature_vectors` table.

    Returns a list of ExperimentRecord: the best grid point's, or one per
    grid point when expand_grid is set.
    """
    record = ExperimentRecord(
        cleaning=spec.cleaning, chunk=spec.chunk.chunk_id,
        channels="-".join(spec.channels), classifier=spec.classifier,
        feature_selection=spec.feature_selection)
    try:
        matrix = feature_matrix(cohort, table, spec.cleaning, spec.chunk,
                                spec.channels)
        selector = None
        if spec.feature_selection:
            if selection_in_fold:
                selector = selection.select_indices
            else:
                matrix, _ = selection.select_features(matrix)
                if matrix.n_columns == 0:
                    raise ValueError("selection kept no columns")
        grid = (grids or {}).get(spec.classifier)
        result = classify.cross_validate(
            matrix.values, matrix.labels, spec.classifier, grid=grid,
            seed=_spec_seed(seed, spec), gbt_base=gbt_base,
            selector=selector, eval_on_test_fold=eval_on_test_fold,
            return_all=expand_grid)
    except Exception as exc:  # per-spec failures never abort the sweep
        return [replace(record, error=_error_text(exc))]
    # a dropped grid point's record is an error row naming its config
    return [replace(record, accuracy=res.mean_accuracy, spread=res.spread,
                    best_params=res.best_config,
                    error="" if res.error is None else _error_text(res.error))
            for res in (result if expand_grid else [result])]


def _error_text(exc):
    return "%s: %s" % (type(exc).__name__, exc)


_WORKER = {}


def _init_worker(cohort, seed, table, options):
    _WORKER.update(cohort=cohort, seed=seed, table=table, options=options)


def _worker_run(spec):
    return run_one(_WORKER["cohort"], spec, _WORKER["seed"],
                   _WORKER["table"], **_WORKER["options"])


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
    return {doc["key"]: [ExperimentRecord(**d) for d in doc["records"]]
            for doc in docs}


def _cohort_sha256(cohort):
    """sha256 over each recording's id, label, rate, channel names and
    samples."""
    digest = hashlib.sha256()
    for rec in cohort:
        digest.update(json.dumps(
            [rec.subject_id, int(rec.label), float(rec.sample_rate_hz),
             rec.channel_names, rec.samples.shape]).encode())
        digest.update(rec.samples)
    return digest.hexdigest()


def _config_stamp(seed, pipeline, cleanings, params, options, cohort_sha):
    """sha256 of everything that decides a spec's records, the spec aside:
    the config, and the cohort by its `_cohort_sha256`."""
    doc = {key: asdict(value) if is_dataclass(value) else value
           for key, value in options.items()}
    doc.update(seed=seed, params=asdict(params),
               pipelines={kind: asdict(replace(pipeline, kind=kind))
                          for kind in cleanings}, cohort=cohort_sha)
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_sweep(cohort, specs, seed=0, pipeline=CleaningPipeline(),
              params=features.DEFAULT_PARAMS, checkpoint_dir=None,
              grids=None, gbt_base=None, selection_in_fold=False, jobs=1,
              eval_on_test_fold=False, expand_grid=False):
    """Run every spec; returns records in spec order.

    `pipeline` is the cleaning config (its kind is ignored) and `params`
    sets feature extraction. The feature table is built once, for the
    specs that are not yet in the checkpoint, so a finished resume cleans
    and extracts nothing. With checkpoint_dir, finished specs are appended
    to records.jsonl and skipped on resume, so a killed sweep continues
    without recomputation and yields the identical record list. A config
    stamp beside it binds the checkpoint to the seed, grids, flags,
    cleaning config, feature params and the cohort's bytes; resuming under
    a different config or cohort, but not with other cleanings, raises
    ValueError. jobs > 1 fans selection and CV out to a fork pool that
    inherits the table; per-spec seeds are content-derived, so
    parallelism never changes results. With
    expand_grid, one record per (spec, grid point) is emitted instead of
    one best-config record per spec.
    """
    options = {"grids": grids, "gbt_base": gbt_base,
               "selection_in_fold": selection_in_fold,
               "eval_on_test_fold": eval_on_test_fold,
               "expand_grid": expand_grid}
    done = {}
    ckpt_path = None
    if checkpoint_dir is not None:
        ckpt_dir = Path(checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = ckpt_dir / "records.jsonl"
        stamp_path = ckpt_dir / "config.sha256"
        cohort_sha = _cohort_sha256(cohort)
        stamp = _config_stamp(seed, pipeline,
                              {spec.cleaning for spec in specs}, params,
                              options, cohort_sha)
        if ckpt_path.exists() and ckpt_path.stat().st_size:
            found = (stamp_path.read_text().strip() if stamp_path.exists()
                     else "missing")
            # a resume may add or drop cleanings; the stamp names the old ones
            if found not in {
                    _config_stamp(seed, pipeline, kinds, params, options,
                                  cohort_sha)
                    for n in range(len(PIPELINE_KINDS) + 1)
                    for kinds in combinations(PIPELINE_KINDS, n)}:
                raise ValueError(
                    "checkpoint %s was written under another sweep config "
                    "or cohort (stamp %s, this run %s); resume with the same "
                    "config and cohort or use a new checkpoint directory"
                    % (ckpt_dir, found, stamp))
            done = _load_checkpoint(ckpt_path)
        else:
            stamp_path.write_text(stamp + "\n")

    pending = [(i, spec) for i, spec in enumerate(specs)
               if spec.key not in done]
    per_spec = [done.get(spec.key) for spec in specs]
    table = feature_vectors(
        cohort, [(spec.cleaning, spec.chunk, ch) for _, spec in pending
                 for ch in spec.channels], pipeline, params)

    def finish(i, spec, result):
        per_spec[i] = result
        if ckpt_path is not None:
            with open(ckpt_path, "a") as fh:
                fh.write(json.dumps(
                    {"key": spec.key,
                     "records": [asdict(r) for r in result]},
                    sort_keys=True) + "\n")

    if jobs > 1 and len(pending) > 1:
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        with ctx.Pool(jobs, initializer=_init_worker,
                      initargs=(cohort, seed, table, options)) as pool:
            results = pool.imap(_worker_run, [s for _, s in pending])
            for (i, spec), result in zip(pending, results):
                finish(i, spec, result)
    else:
        for i, spec in pending:
            finish(i, spec, run_one(cohort, spec, seed, table, **options))
    return [record for group in per_spec for record in group]


RESULT_COLUMNS = ("accuracy", "spread", "cleaning", "chunk", "channels",
                  "classifier", "feature_selection", "best_params", "error")


def records_to_csv(records, path):
    """Write the results table (Table-2 schema plus hyperparameters).

    Commas inside best_params and error are written as ";", so a row is
    nine plain cells. A row whose best_params or error holds a literal ";"
    is written instead as a quoted CSV row that keeps its commas; every
    other row starts with a number, never with a quote.
    """
    with open(path, "w") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        quoted = csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n")
        for r in records:
            cells = ["%.10g" % r.accuracy, "%.10g" % r.spread, r.cleaning,
                     r.chunk, r.channels, r.classifier,
                     "Yes" if r.feature_selection else "No",
                     json.dumps(r.best_params, sort_keys=True), r.error]
            if ";" in cells[7] + cells[8]:
                quoted.writerow(cells)
            else:
                fh.write(",".join(cells[:7] + [c.replace(",", ";")
                                               for c in cells[7:]]) + "\n")


def records_from_csv(path):
    records = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != list(RESULT_COLUMNS):
            raise ValueError("%s is not a results table: its header is not "
                             "%s" % (path, ",".join(RESULT_COLUMNS)))
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith('"'):
                cells = next(csv.reader([line]))
            else:
                cells = line.split(",")
                cells[7:] = [c.replace(";", ",") for c in cells[7:]]
            records.append(ExperimentRecord(
                accuracy=float(cells[0]), spread=float(cells[1]),
                cleaning=cells[2], chunk=cells[3], channels=cells[4],
                classifier=cells[5], feature_selection=cells[6] == "Yes",
                best_params=json.loads(cells[7]), error=cells[8]))
    return records
