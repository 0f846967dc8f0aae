"""Core domain types, cohort ingestion, and validation for multichannel EEG.

A cohort is declared by a JSON manifest pointing at one headerless CSV per
subject (19 rows = channels, comma-separated decimals). Channel order is
canonicalized to the 10-20 montage below on load, so channel indices stay
stable across the whole pipeline. Subjects' CSVs are parsed and written
in fork processes, one per usable CPU (`parallel.fork_map`); neither the
recordings, nor the problems and their order, nor the bytes written
depend on how many.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .parallel import _usable_cpus, fork_map

#: Canonical order of the 19 channels of the 10-20 montage used here.
CHANNELS_1020 = (
    "Fp1", "Fp2", "F3", "F4", "F7", "F8", "Fz", "C3", "C4", "Cz",
    "T7", "T8", "P3", "P4", "P7", "P8", "Pz", "O1", "O2",
)

# 2D head positions: azimuthal-equidistant projection of the idealized
# 10-20 sphere positions onto the unit disc (vertex Cz at the origin,
# nose up). Computed once from the standard angular placements (ring
# electrodes at 72 deg inclination, inner row at 36 deg, F3/F4/P3/P4 as
# great-circle arc midpoints) and frozen here.
MONTAGE_COORDS = {
    "Fp1": (-0.2472, +0.7608),
    "Fp2": (+0.2472, +0.7608),
    "F3": (-0.3158, +0.4706),
    "F4": (+0.3158, +0.4706),
    "F7": (-0.6472, +0.4702),
    "F8": (+0.6472, +0.4702),
    "Fz": (+0.0000, +0.4000),
    "C3": (-0.4000, +0.0000),
    "C4": (+0.4000, +0.0000),
    "Cz": (+0.0000, +0.0000),
    "T7": (-0.8000, +0.0000),
    "T8": (+0.8000, +0.0000),
    "P3": (-0.3158, -0.4706),
    "P4": (+0.3158, -0.4706),
    "P7": (-0.6472, -0.4702),
    "P8": (+0.6472, -0.4702),
    "Pz": (+0.0000, -0.4000),
    "O1": (-0.2472, -0.7608),
    "O2": (+0.2472, -0.7608),
}

#: Minimum admissible recording duration in seconds.
MIN_DURATION_S = 2.0


class CohortLoadError(Exception):
    """Raised when a cohort cannot be loaded; collects per-subject problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__(
            "cohort load failed with %d problem(s):\n  %s"
            % (len(self.problems), "\n  ".join(self.problems))
        )


@dataclass
class Recording:
    """One subject's multichannel EEG matrix plus metadata.

    `samples` has shape (n_channels, n_samples) in the input unit
    (microvolts for the target dataset) and is made read-only after
    construction so recordings can be shared freely.
    """

    subject_id: str
    label: int
    sample_rate_hz: float
    channel_names: tuple
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("samples must be a 2D channels x time matrix")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def n_channels(self):
        return self.samples.shape[0]

    @property
    def n_samples(self):
        return self.samples.shape[1]

    @property
    def duration_s(self):
        return self.n_samples / self.sample_rate_hz

    def channel(self, name):
        """Return the sample row for a channel name."""
        return self.samples[self.channel_names.index(name)]

    def with_samples(self, samples):
        """Copy of this recording with new sample values (metadata kept)."""
        return Recording(
            subject_id=self.subject_id,
            label=self.label,
            sample_rate_hz=self.sample_rate_hz,
            channel_names=self.channel_names,
            samples=samples,
        )


def check_pair(name, pair, above=None):
    """Raise ValueError unless `pair` is two numbers (not bools), the first
    below the second and, where `above` is given, above it: the band and
    range fields of the config blocks."""
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2
            and all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                    for v in pair)
            and pair[0] < pair[1] and (above is None or pair[0] > above)):
        floor = "" if above is None else "above %g and " % above
        raise ValueError("%s must be two numbers, the first %sbelow the "
                         "second" % (name, floor))


def validate_recording(rec):
    """Check a recording's samples (load_cohort checks its rate and
    channel names); return a list of violation strings.

    An empty list means the recording is admissible to the pipeline.
    Violations are data, not failures, so nothing is raised here.
    """
    violations = []
    n_named = len(rec.channel_names)
    if rec.samples.shape[0] != n_named:
        violations.append("row count %d != channel count %d"
                          % (rec.samples.shape[0], n_named))
    bad = ~np.isfinite(rec.samples)
    if bad.any():
        ch_idx, t_idx = np.argwhere(bad)[0]
        name = (rec.channel_names[ch_idx] if ch_idx < n_named
                else "row %d" % ch_idx)
        violations.append(
            "non-finite value at channel %s, sample %d (%d total)"
            % (name, t_idx, int(bad.sum())))
    if rec.n_samples < MIN_DURATION_S * rec.sample_rate_hz:
        violations.append("duration below %g s (%.3f s at %g Hz)"
                          % (MIN_DURATION_S, rec.duration_s,
                             rec.sample_rate_hz))
    return violations


def read_csv_matrix(path, skiprows=0):
    """Read a comma-separated float matrix; blank lines are ignored.

    The first `skiprows` lines are skipped. A ragged row or a
    non-numeric cell raises a ValueError naming its 1-based line, and an
    input without data rows raises "empty file".
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy: no data
        try:
            mat = np.loadtxt(path, delimiter=",", ndmin=2, comments=None,
                             skiprows=skiprows)
        except ValueError as exc:
            raise ValueError(_first_bad_line(path, skiprows) or str(exc)) \
                from None
    if not mat.size:
        raise ValueError("empty file")
    return mat


def _first_bad_line(path, skiprows):
    """Describe the ragged row or non-numeric cell that numpy refused."""
    width = None
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no <= skiprows or not line.strip():
                continue
            cells = line.strip().split(",")
            width = width or len(cells)
            if len(cells) != width:
                return ("row %d has %d cells, expected %d"
                        % (line_no, len(cells), width))
            for cell in cells:
                try:
                    float(cell)
                except ValueError:
                    return "non-numeric cell %r on row %d" % (cell, line_no)
    return None


def read_manifest(manifest_path):
    """Parse the cohort manifest JSON; returns (sample_rate, channels, entries).

    Entries are (subject_id, label, resolved_path) tuples in manifest order.
    A subject id must be a plain file name: it names the subject's CSV.
    `sample_rate_hz` must be a positive finite number or numeric string,
    `subjects` a list of one subject or more, and a subject's `path` a
    string.
    """
    manifest_path = Path(manifest_path)
    with open(manifest_path, "r") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CohortLoadError(["manifest is not a JSON object"])
    for key in ("sample_rate_hz", "channels", "subjects"):
        if key not in doc:
            raise CohortLoadError(["manifest missing key %r" % key])
    rate, channels, subjects = (doc["sample_rate_hz"], doc["channels"],
                                doc["subjects"])
    try:
        fs = float(rate)
    except (TypeError, ValueError):
        fs = math.nan
    if isinstance(rate, bool) or not math.isfinite(fs):
        raise CohortLoadError(["manifest key 'sample_rate_hz' is not a "
                               "finite number: %s" % json.dumps(rate)])
    if fs <= 0.0:
        raise CohortLoadError(["manifest key 'sample_rate_hz' must be "
                               "positive, got %s" % json.dumps(rate)])
    if not (isinstance(channels, list)
            and all(isinstance(c, str) for c in channels)):
        raise CohortLoadError(["manifest key 'channels' is not a list of "
                               "names: %s" % json.dumps(channels)])
    if not (isinstance(subjects, list) and subjects):
        raise CohortLoadError(["manifest key 'subjects' is not a list of "
                               "one subject or more"])
    entries = []
    problems = []
    seen = set()
    for i, sub in enumerate(subjects):
        sid = isinstance(sub, dict) and sub.get("id", "<entry %d>" % i)
        if not isinstance(sid, str) or sid in ("", ".", "..") \
                or "/" in sid or "\\" in sid:
            problems.append("subject %d: %s is not an object whose id is a "
                            "plain file name (not empty, . or .., without "
                            "/ or \\)" % (i, json.dumps(sub)))
            continue
        if sid in seen:
            problems.append("duplicate subject_id %r" % sid)
        seen.add(sid)
        label = sub.get("label")
        if label not in (0, 1):
            problems.append("%s: label must be 0 or 1, got %r" % (sid, label))
        path = sub.get("path", "")
        if not isinstance(path, str):
            problems.append("%s: path must be a string, got %s"
                            % (sid, json.dumps(path)))
            continue
        entries.append((sid, label, manifest_path.parent / path))
    if problems:
        raise CohortLoadError(problems)
    return fs, tuple(channels), entries


def load_cohort(manifest_path):
    """Load every subject named by a manifest into Recording objects.

    Channel rows are reordered to the canonical montage order regardless of
    the manifest's channel order. Problems across subjects are aggregated
    into a single CohortLoadError naming each subject and location, in
    manifest order. Each subject is parsed, reordered and validated in a
    fork process, one per usable CPU (`fork_map`), and its samples are
    taken as they come, so the cohort is held once.
    """
    fs, channels, entries = read_manifest(manifest_path)
    if len(channels) != len(CHANNELS_1020):
        raise CohortLoadError(
            ["manifest declares %d channels, montage has %d"
             % (len(channels), len(CHANNELS_1020))])
    if set(channels) != set(CHANNELS_1020):
        raise CohortLoadError(
            ["manifest channels are not the expected montage labels"])
    reorder = [channels.index(name) for name in CHANNELS_1020]

    recordings = []
    problems = []
    loaded = fork_map(lambda entry: _read_subject(entry, fs, reorder),
                      entries, _usable_cpus())
    for (sid, label, _), (samples, found) in zip(entries, loaded):
        problems.extend(found)
        if not found:
            recordings.append(Recording(
                subject_id=sid, label=label, sample_rate_hz=fs,
                channel_names=CHANNELS_1020, samples=samples))
    if problems:
        raise CohortLoadError(problems)
    return recordings


def _read_subject(entry, fs, reorder):
    """One manifest entry's samples in montage order and no problem, or
    None and its problems."""
    sid, label, path = entry
    if not Path(path).is_file():
        return None, ["%s: missing file %s" % (sid, path)]
    try:
        mat = read_csv_matrix(path)
    except ValueError as exc:
        return None, ["%s: %s (%s)" % (sid, exc, path)]
    if mat.shape[0] != len(CHANNELS_1020):
        return None, ["%s: channel count %d != %d"
                      % (sid, mat.shape[0], len(CHANNELS_1020))]
    rec = Recording(subject_id=sid, label=label, sample_rate_hz=fs,
                    channel_names=CHANNELS_1020, samples=mat[reorder])
    bad = validate_recording(rec)
    return (None, ["%s: %s" % (sid, b) for b in bad]) if bad \
        else (rec.samples, [])


def write_recording_csv(rec, path):
    """Write a recording's sample matrix as the per-subject CSV format.

    Values are written with repr-level precision so a load round-trips
    bit-exactly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, rec.samples, fmt="%.17g", delimiter=",")


def write_cohort(recordings, out_dir):
    """Write recordings plus a manifest into a directory; returns manifest path.

    A cohort that is empty, of mixed sample rates or with a subject id
    twice is refused before any file is written. Each subject's CSV is
    formatted in a fork process, one per usable CPU (`fork_map`).
    """
    if not recordings:
        raise ValueError("cannot write an empty cohort")
    fs = recordings[0].sample_rate_hz
    if any(rec.sample_rate_hz != fs for rec in recordings):
        raise ValueError("mixed sample rates in cohort")
    ids = [rec.subject_id for rec in recordings]
    for i, sid in enumerate(ids):
        if sid in ids[:i]:
            raise ValueError("duplicate subject_id %r in cohort" % sid)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subjects = [{"id": rec.subject_id, "label": int(rec.label),
                 "path": "%s.csv" % rec.subject_id} for rec in recordings]
    for _ in fork_map(lambda rec: write_recording_csv(
            rec, out_dir / ("%s.csv" % rec.subject_id)),
            recordings, _usable_cpus()):
        pass
    manifest = {"sample_rate_hz": fs,
                "channels": list(recordings[0].channel_names),
                "subjects": subjects}
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path
