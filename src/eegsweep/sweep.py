"""Experiment sweep: enumerate and run cleaning x chunk x channels x
classifier x selection combinations, with resumable checkpoints.

A sweep call first builds one feature table (`feature_vectors`) for the
specs it still has to run: one float64 array `values[subject, cell, 53]`
over the distinct (cleaning, chunk, channel) cells of those specs. Each
subject is cleaned once along FIR -> ASR -> ICA (ASR calibrated on the
whole recording, for every chunk), and each of its cells is extracted
once, in one stack with other rows of its length and sample rate, from
this subject and the next ones, up to a budget of samples; a vector
that fails leaves its exception at its own [subject, cell] of the
table's `errors`. Walks and stacks run on threads of this process, one
per usable CPU, and the table's bytes do not depend on how many. Every
feature matrix, a spec's or `eegsweep extract`'s, is a slice of that
table, its labels and ids included (`feature_matrix`), and whole-cohort
selection runs once per cell of it (`_kept_columns`). The specs then
cross-validate, in this process or in fork processes that inherit the
table (`parallel.fork_map`, the fork path that cohort I/O takes too).
Records are emitted in spec order regardless of execution order, and
per-spec failures become failed rows instead of aborting the sweep.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations, islice
from pathlib import Path

import numpy as np

from . import classify, cleaning, features, selection
from .cleaning import PIPELINE_KINDS, CleaningPipeline
from .data_model import CHANNELS_1020
from .parallel import _usable_cpus, fork_map
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
    """`values[s, cells[cell]]` is the 53-vector of subject s, of label
    `labels[s]` (read-only) and id `subject_ids[s]`, and one (cleaning,
    chunk, channel) cell. `errors` has the shape of `values[..., 0]`:
    None where the vector is present, else the exception that stage,
    segment or extraction raised for it. `kept` maps a cell position to
    its `_kept_columns`, or to the exception its selection raised."""

    cells: dict
    values: np.ndarray
    errors: np.ndarray
    labels: np.ndarray
    subject_ids: tuple
    kept: dict = field(default_factory=dict, compare=False)


#: Samples (rows x length) that one extract_channel stack holds at most,
#: unless one row is longer. It bounds a stack's temporaries; vectors do
#: not depend on how rows are grouped into stacks.
_STACK_SAMPLES = 1 << 16


def feature_vectors(cohort, cells, pipeline, params):
    """The feature table of a cohort: every vector the cells need, once.

    `cells` holds (cleaning, chunk, channel) triples, chunk a SegmentSpec,
    repeats allowed; `pipeline`'s kind is ignored. Walks each subject
    through the cleanings once, as deep as the cells need, keeping the
    channel rows they need. Rows of one length and sample rate wait in
    one stack across subjects, in subject order; it goes to
    extract_channel just before the next row would take it past
    _STACK_SAMPLES, and at the end. A stage or segment that fails fails
    every cell it and later stages would have produced, and is attempted
    once per subject. Each failure is kept at its own [subject, cell] of
    `errors`. The table keeps the cohort's labels and subject ids.

    Walks and stacks run on a pool of threads, one per usable CPU
    (`_usable_cpus`), with at most one walk and one stack per thread
    waiting to be read; FastICA, FIR and the feature kernels spend most
    of their time in numpy, out of the GIL. The table does not depend on
    the pool's width. The whole pool runs on one OpenBLAS thread, ASR and
    the feature kernels as well as the FastICA that pins itself.
    """
    index = {cell: pos for pos, cell in enumerate(dict.fromkeys(cells))}
    plan = {}
    for (kind, chunk, channel), pos in index.items():
        plan.setdefault(kind, {}).setdefault(chunk, {})[channel] = pos
    deepest = replace(pipeline, kind=PIPELINE_KINDS[
        max(map(PIPELINE_KINDS.index, plan), default=0)])
    # written stack by stack; a failed entry is never read
    values = np.empty((len(cohort), len(index), features.N_FEATURES))
    errors = np.full(values.shape[:2], None, dtype=object)
    pending = {}    # (length, rate) -> [(subject, cell position, row)]
    stacks = deque()    # (subjects, cell positions, future vectors)
    width = _usable_cpus()

    def store(keep):
        # read the oldest stacks' vectors until `keep` are left in flight
        while len(stacks) > keep:
            subjects, positions, vectors = stacks.popleft()
            for s, pos, vector in zip(subjects, positions, vectors.result()):
                if isinstance(vector, Exception):
                    errors[s, pos] = vector
                else:
                    values[s, pos] = vector

    def extract(key):
        store(width - 1)
        subjects, positions, rows = zip(*pending.pop(key))
        stacks.append((subjects, positions, pool.submit(
            _extract_stack, np.array(rows), key[1], params)))

    with cleaning._one_blas_thread(), ThreadPoolExecutor(width) as pool:
        ahead = (pool.submit(_walk_rows, rec, deepest, plan) for rec in cohort)
        walks = deque(islice(ahead, width))
        for s, rec in enumerate(cohort):
            for pos, row in walks.popleft().result():
                if isinstance(row, Exception):
                    errors[s, pos] = row
                    continue
                key = (row.size, rec.sample_rate_hz)
                if key in pending and (len(pending[key]) + 1) \
                        * row.size > _STACK_SAMPLES:
                    extract(key)
                pending.setdefault(key, []).append((s, pos, row))
            walks.extend(islice(ahead, 1))
        for key in list(pending):
            extract(key)
        store(0)
    labels = np.array([rec.label for rec in cohort], dtype=int)
    labels.flags.writeable = False
    return FeatureTable(index, values, errors, labels,
                        tuple(rec.subject_id for rec in cohort))


def _walk_rows(rec, pipeline, plan):
    """One subject's (cell position, row) pairs in `plan` order, walked
    through the cleanings up to `pipeline.kind`; the row is the exception
    where its stage or segment failed."""
    stages = cleaning.walk_pipeline(rec, pipeline)
    rows = []
    cleaned = None
    for kind in PIPELINE_KINDS[:PIPELINE_KINDS.index(pipeline.kind) + 1]:
        if not isinstance(cleaned, Exception):
            cleaned = _attempt(lambda: next(stages)[1])
        for chunk, channels in plan.get(kind, {}).items():
            seg = (cleaned if isinstance(cleaned, Exception)
                   else _attempt(lambda: segment(cleaned, chunk)))
            # a copy, so that each stage's recording is freed once the
            # walk has moved past it
            rows.extend((pos, seg if isinstance(seg, Exception)
                         else seg.channel(ch).copy())
                        for ch, pos in channels.items())
    return rows


def feature_matrix(table, cleaning_kind, chunk, channels):
    """The subjects x (channel, feature) matrix of one cleaning, chunk and
    channel subset, sliced from a `feature_vectors` table, with the
    table's labels and subject ids; columns are channel-major in the
    canonical 53-feature order. Where a vector failed, raises the first
    failure of `errors[:, positions]` in row-major order, subject then
    channel: the one a subject-by-subject assembly would meet first.
    """
    if not channels:
        raise ValueError("channel subset must not be empty")
    positions = [table.cells[cleaning_kind, chunk, ch] for ch in channels]
    for exc in table.errors[:, positions].flat:
        if exc is not None:
            # a fresh traceback, not one grown by every spec that raised it
            raise exc.with_traceback(None)
    return features.FeatureMatrix(
        column_names=features.channel_feature_names(channels),
        values=table.values[:, positions].reshape(len(table.labels), -1),
        labels=table.labels, subject_ids=list(table.subject_ids))


def _kept_columns(table, cleaning_kind, chunk, channel):
    """The columns (within its 53) that whole-cohort selection keeps on
    one cell, selected the first time the cell is asked for; raises the
    exception its selection raised."""
    pos = table.cells[cleaning_kind, chunk, channel]
    if pos not in table.kept:
        table.kept[pos] = _attempt(lambda: selection.select_features(
            feature_matrix(table, cleaning_kind, chunk, [channel]))[1].kept)
    kept = table.kept[pos]
    if isinstance(kept, Exception):
        raise kept.with_traceback(None)
    return kept


def _extract_stack(rows, fs, params):
    """One vector or exception per row of a 2-D stack. A failed stack is
    split in halves until each failure is down to a one-row stack, so a
    failure (a non-finite row, say) stays in its row."""
    stack = _attempt(lambda: features.extract_channel(rows, fs, params))
    if isinstance(stack, Exception) and len(rows) > 1:
        half = len(rows) // 2
        return (_extract_stack(rows[:half], fs, params)
                + _extract_stack(rows[half:], fs, params))
    return [stack] if isinstance(stack, Exception) else list(stack)


def _attempt(stage):
    try:
        return stage()
    except Exception as exc:  # stored; each spec that needs it fails with it
        # without its traceback, whose frames would keep the cleaned
        # recording alive as long as the table
        return exc.with_traceback(None)


def run_one(table, spec, seed, grids=None, selection_in_fold=False,
            eval_on_test_fold=False, expand_grid=False):
    """Execute a single experiment spec on a `feature_vectors` table.

    The cascade routes each column on its own, so whole-cohort selection
    keeps each channel's `_kept_columns`, offset by 53 per place; as in
    each fold of `classify.cross_validate`, keeping none keeps every
    column. Returns a list of ExperimentRecord: the best grid point's, or
    one per grid point when expand_grid is set.
    """
    record = ExperimentRecord(
        cleaning=spec.cleaning, chunk=spec.chunk.chunk_id,
        channels="-".join(spec.channels), classifier=spec.classifier,
        feature_selection=spec.feature_selection)
    try:
        matrix = feature_matrix(table, spec.cleaning, spec.chunk,
                                spec.channels)
        selector = None
        if spec.feature_selection:
            if selection_in_fold:
                selector = selection.select_indices
            else:
                kept = [features.N_FEATURES * place + j
                        for place, ch in enumerate(spec.channels)
                        for j in _kept_columns(table, spec.cleaning,
                                               spec.chunk, ch)]
                if kept:    # none kept keeps every column, as in each fold
                    matrix = matrix.select_columns(kept)
        grid = (grids or {}).get(spec.classifier)
        result = classify.cross_validate(
            matrix.values, matrix.labels, spec.classifier, grid=grid,
            seed=_spec_seed(seed, spec), selector=selector,
            eval_on_test_fold=eval_on_test_fold, return_all=expand_grid)
    except Exception as exc:  # per-spec failures never abort the sweep
        return [replace(record, error=_error_text(exc))]
    # a dropped grid point's record is an error row naming its config
    return [replace(record, accuracy=res.mean_accuracy, spread=res.spread,
                    best_params=res.best_config,
                    error="" if res.error is None else _error_text(res.error))
            for res in (result if expand_grid else [result])]


def _error_text(exc):
    return "%s: %s" % (type(exc).__name__, exc)


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


def _config_stamp(seed, pipeline, params, options, cohort_sha):
    """sha256 of everything that decides a spec's records, the spec aside:
    the options, seed, feature params, the cleaning config but its kind,
    which the sweep ignores, and the cohort by its `_cohort_sha256`."""
    doc = dict(options, seed=seed, params=asdict(params), cohort=cohort_sha,
               pipeline={k: v for k, v in asdict(pipeline).items()
                         if k != "kind"})
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_sweep(cohort, specs, seed=0, pipeline=CleaningPipeline(),
              params=features.DEFAULT_PARAMS, checkpoint_dir=None,
              grids=None, selection_in_fold=False, jobs=1,
              eval_on_test_fold=False, expand_grid=False):
    """Run every spec; returns records in spec order.

    `pipeline` is the cleaning config (its kind is ignored) and `params`
    sets feature extraction. The feature table is built once, for the
    specs that are not yet in the checkpoint, so a finished resume cleans
    and extracts nothing. With checkpoint_dir, finished specs are appended
    to records.jsonl and skipped on resume, so a killed sweep continues
    without recomputation and yields the identical record list. A config
    stamp beside it binds the checkpoint to the seed, grids, flags, the
    one cleaning config, feature params and the cohort's bytes; resuming
    under a different config or cohort raises ValueError, and a resume
    may add or drop cleanings. A GBT grid point is the one source of its
    booster's settings (classify.cross_validate). The table is built on
    threads, one per usable CPU, whatever `jobs` is. jobs > 1 fans the
    specs out to `fork_map` processes, at most one per pending spec,
    which read the table alone (not the cohort); each process selects
    a cell at most once, for the first spec that needs it. Per-spec
    seeds are content-derived, so parallelism never changes results.
    `jobs` defaults to 1, which runs every spec in this process, where
    an in-process caller's patches and counters see it; `eegsweep
    sweep` passes the usable-CPU count unless --jobs says otherwise.
    With expand_grid, one record per (spec, grid point) is emitted
    instead of one best-config record per spec.
    """
    options = {"grids": grids, "selection_in_fold": selection_in_fold,
               "eval_on_test_fold": eval_on_test_fold,
               "expand_grid": expand_grid}
    done = {}
    ckpt_path = None
    if checkpoint_dir is not None:
        ckpt_dir = Path(checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = ckpt_dir / "records.jsonl"
        stamp_path = ckpt_dir / "config.sha256"
        stamp = _config_stamp(seed, pipeline, params, options,
                              _cohort_sha256(cohort))
        if ckpt_path.exists() and ckpt_path.stat().st_size:
            found = (stamp_path.read_text().strip() if stamp_path.exists()
                     else "missing")
            if found != stamp:
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

    # the table's threads have exited, so a fork copies this one alone
    runs = fork_map(lambda spec: run_one(table, spec, seed, **options),
                    [spec for _, spec in pending], jobs)
    for (i, spec), result in zip(pending, runs):
        finish(i, spec, result)
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
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith('"'):
                cells = next(csv.reader([line]))
            else:
                cells = line.split(",")
                cells[7:] = [c.replace(";", ",") for c in cells[7:]]
            if len(cells) != len(RESULT_COLUMNS):
                raise ValueError("%s, line %d: %d cells, expected %d"
                                 % (path, line_no, len(cells),
                                    len(RESULT_COLUMNS)))
            records.append(ExperimentRecord(
                accuracy=float(cells[0]), spread=float(cells[1]),
                cleaning=cells[2], chunk=cells[3], channels=cells[4],
                classifier=cells[5], feature_selection=cells[6] == "Yes",
                best_params=json.loads(cells[7]), error=cells[8]))
    return records
