import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

import eegsweep
from eegsweep import classify, cleaning, cli, report, sweep
from eegsweep.cleaning import CleaningPipeline
from eegsweep.cli import main
from eegsweep.data_model import CHANNELS_1020, load_cohort, write_cohort
from eegsweep.features import DEFAULT_PARAMS, FeatureMatrix
from eegsweep.segmentation import SegmentSpec


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    code = main(["synth", "--out", str(out), "--subjects", "12",
                 "--duration", "12", "--seed", "3",
                 "--effect-channel", "P3", "--effect-axis", "theta_power",
                 "--effect-size", "2.0"])
    assert code == 0
    return out


def test_synth_writes_cohort_and_truth(synth_dir):
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert len(manifest["subjects"]) == 24
    assert (synth_dir / "ground_truth.json").exists()
    prov = json.loads((synth_dir / "provenance.json").read_text())
    assert prov["seed"] == 3
    assert "config_hash" in prov and "toolkit_version" in prov
    # the numeric stack that produced the bytes
    assert prov["numpy"] == np.__version__
    assert prov["scipy"] == scipy.__version__
    assert prov["python"] == platform.python_version()
    assert prov["cpus"] == (len(os.sched_getaffinity(0))
                            if hasattr(os, "sched_getaffinity")
                            else os.cpu_count()) >= 1
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert prov["blas"] == "%s %s" % (blas.get("name"), blas.get("version"))
    # the command ran on one BLAS thread, or found no OpenBLAS to pin
    assert prov["blas_threads"] == (
        None if cleaning._openblas() is None else 1)
    # this process's peak so far, which the write cannot exceed
    assert 0.0 < prov["peak_rss_mb"] <= round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    assert 0 < prov["minor_faults"] \
        <= resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    # the command's own CPU, which this process's so far cannot be below
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    assert 0.0 < prov["cpu_s"] \
        <= round(self_usage.ru_utime + self_usage.ru_stime, 3)
    # synth starts no spec processes, so none were waited for during the
    # command; the largest child's peak so far cannot exceed today's
    assert prov["jobs"] is None
    assert prov["workers_cpu_s"] == 0.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert 0.0 <= prov["workers_peak_rss_mb"] \
        <= round(children.ru_maxrss / 1024.0, 1)
    # glibc's thresholds and arena count, fixed for the process; null
    # without mallopt
    assert prov["malloc_thresholds"] == (
        None if cli._mallopt() is None
        else {"mmap": 4194304, "trim": 33554432, "arena_max": 1})


def test_provenance_peak_rss_without_resource_module(tmp_path, monkeypatch):
    # Windows has no resource module
    monkeypatch.setattr(cli, "resource", None)
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--subjects", "2",
                 "--duration", "2", "--seed", "3"]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["peak_rss_mb"] is None and prov["minor_faults"] is None
    assert prov["cpu_s"] is None
    assert prov["workers_peak_rss_mb"] is None
    assert prov["workers_cpu_s"] is None


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs every command about 34 MB and half a second, and
    # scipy.spatial about 12 MB with the scipy.sparse and scipy.linalg it
    # pulls in
    src = str(Path(eegsweep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, eegsweep.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in [['scipy', 'stats'], ['scipy', 'spatial'],"
            " ['scipy', 'sparse'], ['scipy', 'linalg']]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_provenance_cpus_without_affinity_call(tmp_path, monkeypatch):
    # platforms without os.sched_getaffinity (macOS) record os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--subjects", "2",
                 "--duration", "2", "--seed", "3"]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["cpus"] == os.cpu_count()


def test_provenance_blas_on_numpy_without_dict_config(tmp_path, monkeypatch):
    # numpy 1.24's show_config takes no mode and only prints
    monkeypatch.setattr(np, "show_config", lambda: None)
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--subjects", "2",
                 "--duration", "2", "--seed", "3"]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["blas"] is None


class _FakeBlas:
    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def get(self):
        return self.threads

    def put(self, n):
        self.calls.append(n)
        self.threads = n


def test_one_blas_thread_restores_the_count_it_found(monkeypatch):
    fake = _FakeBlas(6)
    monkeypatch.setattr(cleaning, "_openblas", lambda: (fake.get, fake.put))
    with cleaning._one_blas_thread():
        assert fake.threads == 1
    assert fake.threads == 6
    with pytest.raises(RuntimeError):
        with cleaning._one_blas_thread():
            assert fake.threads == 1
            raise RuntimeError("command failed")
    assert fake.threads == 6 and fake.calls == [1, 6, 1, 6]


def test_overlapping_blas_pins_restore_the_count_they_found(monkeypatch):
    # The first pin closes while the second is open: the second must stay
    # pinned, and the count the first found must come back at the end. A
    # pin that restores what it read on entry lifted the second pin to 6
    # and then left OpenBLAS at 1.
    fake = _FakeBlas(6)
    monkeypatch.setattr(cleaning, "_openblas", lambda: (fake.get, fake.put))
    barrier = threading.Barrier(2, timeout=30)
    seen = []

    def first():
        with cleaning._one_blas_thread():
            barrier.wait()  # pinned
            barrier.wait()  # the second is pinned too
        barrier.wait()  # closed

    def second():
        barrier.wait()
        with cleaning._one_blas_thread():
            barrier.wait()
            barrier.wait()
            seen.append(fake.threads)

    with ThreadPoolExecutor(2) as pool:
        for job in [pool.submit(first), pool.submit(second)]:
            job.result()
    assert seen == [1] and fake.threads == 6 and fake.calls == [1, 6]


def test_blas_pins_on_many_threads_hold_and_restore(monkeypatch):
    # more threads than cores, switching every microsecond: every read
    # inside a pin is 1, and the count found comes back at the end
    fake = _FakeBlas(6)
    monkeypatch.setattr(cleaning, "_openblas", lambda: (fake.get, fake.put))
    interval = sys.getswitchinterval()

    def pin_often():
        reads = set()
        for _ in range(300):
            with cleaning._one_blas_thread():
                reads.add(fake.threads)
                time.sleep(0)  # let another thread open or close a pin
                reads.add(fake.threads)
        return reads

    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            jobs = [pool.submit(pin_often) for _ in range(8)]
            reads = set().union(*(job.result(timeout=60) for job in jobs))
    finally:
        sys.setswitchinterval(interval)
    assert reads == {1} and fake.threads == 6


def test_one_blas_thread_on_numpys_openblas():
    blas = cleaning._openblas()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    get, put = blas
    before = get()
    for raised in (False, True):
        try:
            with cleaning._one_blas_thread():
                assert get() == 1 and cli._blas_threads() == 1
                if raised:
                    raise KeyError("x")
        except KeyError:
            pass
        assert get() == before


def test_main_runs_the_command_on_one_blas_thread(monkeypatch):
    fake = _FakeBlas(4)
    monkeypatch.setattr(cleaning, "_openblas", lambda: (fake.get, fake.put))
    seen = []

    def command(args, cfg):
        seen.append(fake.threads)
        if len(seen) == 2:
            raise ValueError("bad data")
        return 0

    # build_parser looks the command up when main calls it
    monkeypatch.setattr(cli, "cmd_validate", command)
    assert main(["validate", "--manifest", "m.json"]) == 0
    assert main(["validate", "--manifest", "m.json"]) == 2
    # the count is set once for the process and not handed back
    assert seen == [1, 1] and fake.threads == 1 and fake.calls == [1]


def test_a_pin_at_one_thread_calls_no_setter(monkeypatch):
    # after a fork, any set call restarts OpenBLAS's server threads
    fake = _FakeBlas(1)
    monkeypatch.setattr(cleaning, "_openblas", lambda: (fake.get, fake.put))
    with cleaning._one_blas_thread():
        with cleaning._one_blas_thread():
            assert fake.threads == 1
    assert fake.calls == []


def _knn_space(tmp_path):
    # two cheap specs, so --jobs 2 forks two spec processes
    space = tmp_path / "knn-space.json"
    space.write_text(json.dumps({
        "space": {"cleanings": ["raw"], "divisors": [1],
                  "subset_sizes": [1], "channels": ["P3", "Cz"],
                  "classifiers": ["knn"], "selection_flags": [False]},
        "grids": {"knn": [{"k": 3}]}}))
    return space


def test_forking_sweeps_set_the_blas_count_once(synth_dir, tmp_path,
                                                monkeypatch):
    # Neither the table's pin nor the end of a command sets the count
    # again, so no set call follows the spec processes' fork.
    fake = _FakeBlas(4)
    monkeypatch.setattr(cleaning, "_openblas", lambda: (fake.get, fake.put))
    for name in ("first", "second"):
        assert main(["sweep", "--manifest", str(synth_dir / "manifest.json"),
                     "--space", str(_knn_space(tmp_path)),
                     "--out", str(tmp_path / name), "--jobs", "2"]) == 0
    assert fake.calls == [1] and fake.threads == 1


# Runs a command through cli.main in a fresh interpreter, then prints the
# CPU that the process spends while its main thread sleeps.
_AFTER_COMMAND_PROBE = """
import sys, time
from eegsweep import cli
assert cli.main(sys.argv[1:]) == 0
start = time.process_time()
time.sleep(0.3)
print(time.process_time() - start)
"""


def test_a_forking_sweep_leaves_no_blas_thread_spinning(synth_dir, tmp_path):
    # A fresh interpreter, so that no earlier test's pin hides the fault.
    # A set call after the fork would restart an OpenBLAS server thread,
    # which busy-waits for about 0.12 CPU-s while the process sleeps.
    if (not sys.platform.startswith("linux") or cleaning._openblas() is None
            or sweep._usable_cpus() < 2):
        pytest.skip("needs numpy's bundled OpenBLAS on Linux and two "
                    "usable CPUs")
    src = str(Path(eegsweep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)  # OpenBLAS's own default
    out = subprocess.run(
        [sys.executable, "-c", _AFTER_COMMAND_PROBE, "sweep",
         "--manifest", str(synth_dir / "manifest.json"),
         "--space", str(_knn_space(tmp_path)), "--out", str(tmp_path / "out"),
         "--jobs", "2"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert float(out.splitlines()[-1]) < 0.03


def test_command_without_openblas_writes_the_same_results(
        synth_dir, tmp_path, monkeypatch):
    # No ica cleaning: unconverged FastICA turns a last-bit difference
    # between thread counts into other components on some recording
    # lengths, which is one reason commands pin the count.
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "space": {"cleanings": ["raw", "filtered"], "divisors": [1, 2],
                  "subset_sizes": [1], "channels": ["P3", "Cz"],
                  "classifiers": ["knn", "svm"],
                  "selection_flags": [False]},
        "grids": {"knn": [{"k": 3}]}}))
    runs = []
    for name in ("pinned", "unpinned"):
        if name == "unpinned":
            monkeypatch.setattr(cleaning, "_openblas", lambda: None)
        out = tmp_path / name
        assert main(["sweep", "--manifest", str(synth_dir / "manifest.json"),
                     "--space", str(space), "--out", str(out)]) == 0
        runs.append(out)
    assert (runs[0] / "results.csv").read_bytes() \
        == (runs[1] / "results.csv").read_bytes()
    prov = json.loads((runs[1] / "provenance.json").read_text())
    assert prov["blas_threads"] is None


def test_command_without_mallopt_writes_the_same_results(
        synth_dir, tmp_path, monkeypatch):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "space": {"cleanings": ["raw"], "divisors": [1, 2],
                  "subset_sizes": [1], "channels": ["P3", "Cz"],
                  "classifiers": ["gbt", "knn"], "selection_flags": [False]},
        "grids": {"gbt": [{"max_depth": 2, "eta": 0.3, "gamma": 0.0}],
                  "knn": [{"k": 3}]}}))
    kept = (None if cli._mallopt() is None
            else {"mmap": 4194304, "trim": 33554432, "arena_max": 1})
    runs = []
    try:
        for name in ("kept", "default"):
            if name == "default":  # a C library without mallopt
                monkeypatch.setattr(cli, "_mallopt", lambda: None)
                cli._keep_freed_heap.cache_clear()
            out = tmp_path / name
            assert main(["sweep", "--manifest",
                         str(synth_dir / "manifest.json"),
                         "--space", str(space), "--out", str(out)]) == 0
            runs.append(json.loads((out / "provenance.json").read_text()))
    finally:
        cli._keep_freed_heap.cache_clear()  # the next command sets them
    assert (tmp_path / "kept" / "results.csv").read_bytes() \
        == (tmp_path / "default" / "results.csv").read_bytes()
    assert runs[0]["malloc_thresholds"] == kept
    assert runs[1]["malloc_thresholds"] is None


# One default-grid GBT cross-validation on a drawn 41 x 106 matrix, the
# benchmark's cohort size: its minor page faults and its result as JSON.
_FAULT_PROBE = """
import json, resource, sys
from dataclasses import asdict
import numpy as np
from eegsweep import classify, cli
if sys.argv[1] == "kept":
    cli._keep_freed_heap()
rng = np.random.default_rng(16)
x = rng.standard_normal((41, 106))
y = np.array([1] * 21 + [0] * 20)
x[y == 1, :3] += 0.8
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
result = classify.cross_validate(x, y, "gbt", seed=0)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps([faults, asdict(result)], default=repr))
"""


def test_kept_heap_cuts_gbt_page_faults_and_keeps_the_result():
    if cli._mallopt() is None:
        pytest.skip("the C library takes no mallopt")
    # the engine's largest per-level array stays on the heap
    assert classify._WAVE_ELEMENTS * 8 < cli._MALLOC_THRESHOLDS["mmap"]
    src = str(Path(eegsweep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    (kept, kept_result), (default, default_result) = [
        json.loads(subprocess.run(
            [sys.executable, "-c", _FAULT_PROBE, mode], env=env, check=True,
            capture_output=True, text=True).stdout)
        for mode in ("kept", "default")]
    assert kept < default / 10
    assert kept_result == default_result


def test_validate_ok(synth_dir, capsys):
    code = main(["validate", "--manifest", str(synth_dir / "manifest.json")])
    assert code == 0
    assert "24 subjects OK" in capsys.readouterr().out


def test_validate_data_error(tmp_path):
    # malformed manifest: channel list wrong length
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sample_rate_hz": 128.0, "channels": ["A"],
                               "subjects": []}))
    assert main(["validate", "--manifest", str(bad)]) == 2


def _escaping_manifest(synth_dir, tmp_path):
    """synth_dir's manifest, its first subject's id made "../../escaped"
    and its files named by absolute paths."""
    doc = json.loads((synth_dir / "manifest.json").read_text())
    for sub in doc["subjects"]:
        sub["path"] = str(synth_dir / sub["path"])
    doc["subjects"][0]["id"] = "../../escaped"
    path = tmp_path / "in" / "manifest.json"
    path.parent.mkdir()
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", [
    ["validate"], ["clean", "--pipeline", "raw"],
    ["segment", "--chunk", "1/2"]], ids=lambda argv: argv[0])
def test_a_subject_id_that_leaves_the_out_directory_exits_2(
        synth_dir, tmp_path, capsys, command):
    # clean and segment wrote escaped.csv two levels above --out, and
    # validate called the cohort OK
    out = tmp_path / "a" / "b" / "out"
    argv = command[:1] + ["--manifest", _escaping_manifest(synth_dir,
                                                           tmp_path)]
    if command[0] != "validate":
        argv += command[1:] + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert 'subject 0: {"id": "../../escaped", ' in captured.err
    assert "is not an object whose id is a plain file name" in captured.err
    assert not captured.out
    assert not list(tmp_path.rglob("escaped*"))
    assert not out.exists()


@pytest.mark.parametrize("change, problem", [
    ({"subjects": {"s": {"label": 0}}},
     "manifest key 'subjects' is not a list"),
    ({"channels": list(CHANNELS_1020)},
     "manifest key 'subjects' is not a list of one subject or more"),
    ({"subjects": ["s"]}, 'subject 0: "s" is not an object whose id is a '
                          "plain file name"),
    ({"channels": 19}, "manifest key 'channels' is not a list of names: 19"),
    ({"sample_rate_hz": [128]},
     "manifest key 'sample_rate_hz' is not a finite number: [128]"),
    ({"sample_rate_hz": "fast"},
     "manifest key 'sample_rate_hz' is not a finite number: \"fast\""),
    ({"sample_rate_hz": "nan"},
     "manifest key 'sample_rate_hz' is not a finite number: \"nan\""),
    ({"sample_rate_hz": 0},
     "manifest key 'sample_rate_hz' must be positive, got 0"),
    ({"subjects": [{"id": "s", "label": 0, "path": 7}]},
     "s: path must be a string, got 7"),
], ids=["subjects_object", "subjects_empty", "subject_string",
        "channels_number", "rate_list", "rate_word", "rate_nan", "rate_zero",
        "path_number"])
def test_a_manifest_of_the_wrong_shape_exits_2(tmp_path, capsys, change,
                                               problem):
    # each died with an AttributeError or TypeError traceback, named no
    # key, or (a rate of nan, no subjects) loaded and failed later
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(dict(
        {"sample_rate_hz": 128.0, "channels": [], "subjects": []},
        **change)))
    out = tmp_path / "out"
    assert main(["clean", "--manifest", str(manifest), "--pipeline", "raw",
                 "--out", str(out)]) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


def test_usage_error_exit_code():
    assert main(["clean", "--manifest", "x.json"]) == 1  # missing args
    assert main(["definitely-not-a-command"]) == 1


def test_extract_matrix_shape(synth_dir, tmp_path, capsys):
    out = tmp_path / "feat.csv"
    code = main(["extract", "--manifest", str(synth_dir / "manifest.json"),
                 "--pipeline", "filtered", "--chunk", "1/1",
                 "--channels", "P3,P4", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    assert len(header) == 107  # 106 features + label
    assert "24 x 106" in capsys.readouterr().out


def test_select_and_train(synth_dir, tmp_path, capsys):
    feat = tmp_path / "feat.csv"
    assert main(["extract", "--manifest", str(synth_dir / "manifest.json"),
                 "--pipeline", "filtered", "--chunk", "1/1",
                 "--channels", "P3", "--out", str(feat)]) == 0
    # selection needs groups >= 20, this cohort has 12+12, so expect the
    # data-error path
    code = main(["select", "--features", str(feat),
                 "--out", str(tmp_path / "sel.csv")])
    assert code == 2


def test_train_prints_cv_result(synth_dir, tmp_path, capsys):
    feat = tmp_path / "feat.csv"
    main(["extract", "--manifest", str(synth_dir / "manifest.json"),
          "--pipeline", "filtered", "--chunk", "1/1", "--channels", "P3",
          "--out", str(feat)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({}))
    code = main(["train", "--features", str(feat), "--classifier", "knn",
                 "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean accuracy" in out and "best config" in out


def test_sweep_and_report_round_trip(synth_dir, tmp_path, capsys):
    out = tmp_path / "sweepout"
    cfg = tmp_path / "space.json"
    cfg.write_text(json.dumps({
        "space": {"cleanings": ["raw"], "divisors": [1],
                  "subset_sizes": [1], "channels": ["P3", "Cz"],
                  "classifiers": ["knn"], "selection_flags": [False]},
        "grids": {"knn": [{"k": 3}]},
    }))
    code = main(["sweep", "--manifest", str(synth_dir / "manifest.json"),
                 "--out", str(out), "--config", str(cfg), "--seed", "5"])
    assert code == 0
    results = out / "results.csv"
    assert results.exists()
    lines = results.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 records

    rep = tmp_path / "reportout"
    code = main(["report", "--records", str(results), "--out", str(rep),
                 "--group-by", "cleaning",
                 "--significance-factor", "channels"])
    assert code == 0
    assert (rep / "summaries.csv").exists()
    assert (rep / "topomap.csv").exists()
    assert (rep / "significance.csv").exists()
    topo = (rep / "topomap.csv").read_text().splitlines()
    assert topo[0] == "channel,x,y,value"
    assert len(topo) == 3


def test_sweep_prints_the_rows_it_wrote(synth_dir, tmp_path, capsys):
    # 2 specs x a 2-point grid give 4 rows; the resumed rerun computes
    # nothing and writes the same 4 rows
    out = tmp_path / "sweepout"
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "space": {"cleanings": ["raw"], "divisors": [1],
                  "subset_sizes": [1], "channels": ["P3", "Cz"],
                  "classifiers": ["knn"], "selection_flags": [False]},
        "grids": {"knn": [{"k": 3}, {"k": 5}]}}))
    argv = ["sweep", "--manifest", str(synth_dir / "manifest.json"),
            "--space", str(space), "--out", str(out), "--expand-grid",
            "--resume"]
    for _ in range(2):
        assert main(argv) == 0
        assert capsys.readouterr().out == "wrote 4 rows (0 failed) -> %s\n" \
            % (out / "results.csv")


def test_clean_writes_sidecar(synth_dir, tmp_path):
    out = tmp_path / "cleaned"
    code = main(["clean", "--manifest", str(synth_dir / "manifest.json"),
                 "--pipeline", "filtered", "--out", str(out)])
    assert code == 0
    sidecar = json.loads((out / "cleaning.json").read_text())
    assert sidecar["pipeline"] == "filtered"
    assert len(sidecar["subjects"]) == 24
    assert (out / "manifest.json").exists()


def test_segment_command(synth_dir, tmp_path):
    out = tmp_path / "segs"
    code = main(["segment", "--manifest", str(synth_dir / "manifest.json"),
                 "--chunk", "2/2", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["subjects"]) == 24


def test_set_overrides_config(synth_dir, tmp_path):
    out = tmp_path / "cleaned_custom"
    code = main(["clean", "--manifest", str(synth_dir / "manifest.json"),
                 "--pipeline", "filtered", "--out", str(out),
                 "--set", "fir.high_hz=35"])
    assert code == 0


def test_identical_runs_byte_identical_outputs(synth_dir, tmp_path):
    feats = []
    for name in ("a", "b"):
        out = tmp_path / ("feat_%s.csv" % name)
        main(["extract", "--manifest", str(synth_dir / "manifest.json"),
              "--pipeline", "filtered", "--chunk", "1/2",
              "--channels", "P3", "--out", str(out), "--seed", "9"])
        feats.append(out.read_bytes())
    assert feats[0] == feats[1]


def test_sweep_space_flag_and_svg_report(synth_dir, tmp_path):
    out = tmp_path / "s2"
    space = tmp_path / "space2.json"
    space.write_text(json.dumps({
        "space": {"cleanings": ["raw"], "divisors": [1],
                  "subset_sizes": [1], "channels": ["P3", "P4", "Cz"],
                  "classifiers": ["knn"], "selection_flags": [False]},
        "grids": {"knn": [{"k": 3}]}}))
    assert main(["sweep", "--manifest", str(synth_dir / "manifest.json"),
                 "--space", str(space), "--out", str(out)]) == 0
    rep = tmp_path / "r2"
    assert main(["report", "--records", str(out / "results.csv"),
                 "--out", str(rep), "--group-by", "channels",
                 "--svg"]) == 0
    assert (rep / "boxplot.svg").exists()


@pytest.fixture(scope="module")
def theta_dir(tmp_path_factory):
    """CLI-generated cohort large enough for the selection validity floor."""
    out = tmp_path_factory.mktemp("theta_cohort")
    assert main(["synth", "--out", str(out), "--subjects", "22",
                 "--duration", "12", "--seed", "6",
                 "--effect-channel", "P3", "--effect-size", "2.0"]) == 0
    return out


def test_train_gbt_with_selection_end_to_end(theta_dir, tmp_path, capsys):
    feat = tmp_path / "p3.csv"
    assert main(["extract", "--manifest", str(theta_dir / "manifest.json"),
                 "--pipeline", "filtered", "--chunk", "1/1",
                 "--channels", "P3", "--out", str(feat)]) == 0
    capsys.readouterr()
    assert main(["train", "--features", str(feat), "--classifier", "gbt",
                 "--selection", "yes", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    acc = float(out.split("mean accuracy ")[1].split(" ")[0])
    assert acc >= 0.85


def test_sweep_kill_and_resume_subprocess(theta_dir, tmp_path):
    import os
    import signal
    import subprocess
    import sys
    import time

    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "space": {"cleanings": ["raw", "filtered"], "divisors": [1, 2],
                  "subset_sizes": [1], "channels": ["P3", "Cz", "O1"],
                  "classifiers": ["knn"], "selection_flags": [False]},
        "grids": {"knn": [{"k": 3}, {"k": 5}]}}))
    manifest = str(theta_dir / "manifest.json")

    # the child imports the same eegsweep sources as this process
    src = str(Path(eegsweep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(out_dir, kill_after=None):
        cmd = [sys.executable, "-m", "eegsweep.cli", "sweep",
               "--manifest", manifest, "--space", str(space),
               "--out", str(out_dir), "--seed", "4", "--resume"]
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, env=env)
        if kill_after is None:
            return proc.wait()
        time.sleep(kill_after)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        return proc.wait()

    full_dir = tmp_path / "full"
    assert run(full_dir) == 0

    killed_dir = tmp_path / "killed"
    run(killed_dir, kill_after=4.0)
    # resume after the hard kill
    assert run(killed_dir) == 0
    assert ((killed_dir / "results.csv").read_bytes()
            == (full_dir / "results.csv").read_bytes())


def test_sweep_resume_after_cut_checkpoint_line(synth_dir, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "space": {"cleanings": ["raw"], "divisors": [1, 2],
                  "subset_sizes": [1], "channels": ["P3", "Cz"],
                  "classifiers": ["knn"], "selection_flags": [False]},
        "grids": {"knn": [{"k": 3}]}}))
    out = tmp_path / "sweep"
    argv = ["sweep", "--manifest", str(synth_dir / "manifest.json"),
            "--space", str(space), "--out", str(out), "--seed", "4",
            "--resume"]
    assert main(argv) == 0
    uninterrupted = (out / "results.csv").read_bytes()
    ckpt = out / "checkpoint" / "records.jsonl"
    lines = ckpt.read_bytes().splitlines(keepends=True)
    assert len(lines) == 6
    # a kill mid-append: the last record loses its final 5 bytes
    ckpt.write_bytes(b"".join(lines)[:-5])
    (out / "results.csv").unlink()

    assert main(argv) == 0
    assert (out / "results.csv").read_bytes() == uninterrupted
    assert ckpt.read_bytes() == b"".join(lines)


def test_sweep_resume_under_another_config_exits_2(synth_dir, tmp_path,
                                                   capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "space": {"cleanings": ["raw"], "divisors": [1], "subset_sizes": [1],
                  "channels": ["P3", "Cz"], "classifiers": ["knn"],
                  "selection_flags": [False]},
        "grids": {"knn": [{"k": 3}]}}))
    out = tmp_path / "sweep"

    def argv(*extra):
        return ["sweep", "--manifest", str(synth_dir / "manifest.json"),
                "--space", str(space), "--out", str(out), "--resume",
                *extra]

    assert main(argv("--seed", "4")) == 0
    first = (out / "results.csv").read_bytes()
    ckpt = (out / "checkpoint" / "records.jsonl").read_bytes()
    capsys.readouterr()
    for extra in (("--seed", "5"), ("--seed", "4", "--lax-early-stop"),
                  ("--seed", "4", "--set", 'grids.knn=[{"k": 5}]')):
        assert main(argv(*extra)) == 2
        assert "another sweep config" in capsys.readouterr().err
    assert (out / "checkpoint" / "records.jsonl").read_bytes() == ckpt
    assert main(argv("--seed", "4")) == 0
    assert (out / "results.csv").read_bytes() == first


def test_sweep_resume_on_another_cohort_exits_2(synth_dir, tmp_path,
                                               capsys):
    cohort = load_cohort(synth_dir / "manifest.json")
    samples = cohort[0].samples.copy()
    samples[0, 0] += 1.0
    other = tmp_path / "other"
    write_cohort([replace(cohort[0], samples=samples)] + cohort[1:], other)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "space": {"cleanings": ["raw"], "divisors": [1], "subset_sizes": [1],
                  "channels": ["P3"], "classifiers": ["knn"],
                  "selection_flags": [False]},
        "grids": {"knn": [{"k": 3}]}}))
    out = tmp_path / "sweep"

    def argv(cohort_dir):
        return ["sweep", "--manifest", str(cohort_dir / "manifest.json"),
                "--space", str(space), "--out", str(out), "--resume"]

    assert main(argv(synth_dir)) == 0
    ckpt = (out / "checkpoint" / "records.jsonl").read_bytes()
    capsys.readouterr()
    assert main(argv(other)) == 2
    assert "another sweep config or cohort" in capsys.readouterr().err
    assert (out / "checkpoint" / "records.jsonl").read_bytes() == ckpt


def test_report_on_a_csv_that_is_not_a_results_table_exits_2(tmp_path,
                                                              capsys):
    # the header check was an assert: AssertionError traceback, exit 1
    table = tmp_path / "feat.csv"
    table.write_text("P3:mean,label\n0.5,1\n")
    code = main(["report", "--records", str(table),
                 "--out", str(tmp_path / "rep")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: %s is not a results table" % table)
    assert not (tmp_path / "rep").exists()


def test_report_reduce_takes_the_reductions_report_declares(capsys):
    # the choices were written out twice, in the parser and in
    # report.topomap_data's check
    parser = cli.build_parser()
    for name in report.REDUCTIONS:
        assert parser.parse_args(["report", "--records", "r.csv", "--out",
                                  "o", "--reduce", name]).reduce == name
    with pytest.raises(SystemExit):
        parser.parse_args(["report", "--records", "r.csv", "--out", "o",
                           "--reduce", "mean"])
    assert "invalid choice: 'mean'" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "0.5,0,raw,1/1,P3",
    "0.5,0,raw,1/1,P3,knn,No,{},,0.9",
    '"0.5","0","raw","1/1","P3"',
    '"0.5","0","raw","1/1","P3","knn","No","{}","","0.9"',
], ids=["5_plain", "10_plain", "5_quoted", "10_quoted"])
def test_report_refuses_a_results_row_of_the_wrong_width(tmp_path, capsys,
                                                         row):
    # 5 cells died with an IndexError traceback; 10 cells lost the last
    # one and exited 0
    records = tmp_path / "short.csv"
    records.write_text(",".join(sweep.RESULT_COLUMNS) + "\n"
                       + '0.75,0.1,raw,1/1,P3,knn,No,{"k": 3},\n'
                       + row + "\n")
    code = main(["report", "--records", str(records),
                 "--out", str(tmp_path / "rep")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: %s, line 3: %d cells, expected 9"
        % (records, row.count(",") + 1)]
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("argv", [
    ["validate", "--manifest", "missing.json", "--config"],
    ["sweep", "--manifest", "missing.json", "--out", "out", "--space"],
], ids=["config", "space"])
def test_a_config_file_that_is_not_json_exits_1(tmp_path, capsys, argv):
    # it exited 2 with the decoder's message alone, naming no file
    bad = tmp_path / "bad.json"
    bad.write_text('{"features": {"quantile": 0.5,}}')
    assert main(argv + [str(bad)]) == 1
    assert capsys.readouterr().err == (
        "error: config: %s: not valid JSON: Expecting property name "
        "enclosed in double quotes: line 1 column 31 (char 30)\n" % bad)


@pytest.mark.parametrize("flag", ["--group-by", "--significance-factor"])
@pytest.mark.parametrize("name", ["foo", "best_params"])
def test_report_refuses_a_name_that_is_no_results_column(tmp_path, capsys,
                                                          flag, name):
    # both ended in tracebacks: AttributeError for a name that is not a
    # column, TypeError for the dicts of best_params
    missing = tmp_path / "missing.csv"  # loading it would exit 2
    code = main(["report", "--records", str(missing), flag, name,
                 "--out", str(tmp_path / "rep")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: %s: \"%s\" is not one of " % (
        flag, name))
    for column in ("accuracy", "cleaning", "chunk", "channels", "classifier",
                   "feature_selection", "error"):
        assert '"%s"' % column in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("width", [1, 2])
def test_sweep_jobs_default_to_the_usable_cpus(synth_dir, tmp_path,
                                               monkeypatch, width):
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: width)
    seen = []

    def spy(*args, jobs=1, **kwargs):
        seen.append(jobs)
        return []

    monkeypatch.setattr(sweep, "run_sweep", spy)
    out = tmp_path / "out"
    assert main(["sweep", "--manifest", str(synth_dir / "manifest.json"),
                 "--out", str(out)]) == 0
    assert main(["sweep", "--manifest", str(synth_dir / "manifest.json"),
                 "--out", str(out), "--jobs", "3"]) == 0
    assert seen == [width, 3]
    assert json.loads((out / "provenance.json").read_text())["jobs"] == 3


@pytest.mark.parametrize("width", [None, 2], ids=["usable", "two"])
def test_a_default_width_sweep_writes_the_serial_bytes(
        synth_dir, tmp_path, monkeypatch, width):
    # "usable" runs at this process's width: the serial path on one CPU,
    # the fork pool on more; "two" forks on any machine
    if width is not None:
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: width)
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "space": {"cleanings": ["raw"], "divisors": [1, 2],
                  "subset_sizes": [1, 2], "channels": ["P3", "Cz"],
                  "classifiers": ["gbt", "knn"], "selection_flags": [False]},
        "grids": {"gbt": [{"max_depth": 2, "eta": 0.3, "gamma": 0.0}],
                  "knn": [{"k": 3}]}}))

    def run(name, *extra):
        out = tmp_path / name
        assert main(["sweep", "--manifest", str(synth_dir / "manifest.json"),
                     "--space", str(space), "--out", str(out),
                     "--seed", "4", *extra]) == 0
        assert multiprocessing.active_children() == []
        return out

    default, serial = run("default"), run("serial", "--jobs", "1")
    assert (default / "results.csv").read_bytes() \
        == (serial / "results.csv").read_bytes()
    prov = json.loads((default / "provenance.json").read_text())
    assert prov["jobs"] == sweep._usable_cpus()
    if prov["jobs"] > 1:  # the spec processes were waited for
        assert prov["workers_cpu_s"] > 0.0
        assert prov["workers_peak_rss_mb"] > 0.0
    serial_prov = json.loads((serial / "provenance.json").read_text())
    assert serial_prov["jobs"] == 1 and serial_prov["workers_cpu_s"] == 0.0
    assert prov["config_hash"] == serial_prov["config_hash"]


def test_workers_cpu_s_counts_this_commands_spec_processes(synth_dir,
                                                          tmp_path):
    # Two forking sweeps in one process: the second's workers_cpu_s must
    # not count the first's spec processes, nor any child waited for
    # before either.
    def children_cpu_s():
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    before = children_cpu_s()
    provs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["sweep", "--manifest", str(synth_dir / "manifest.json"),
                     "--space", str(_knn_space(tmp_path)), "--out", str(out),
                     "--jobs", "2"]) == 0
        provs.append(json.loads((out / "provenance.json").read_text()))
    spent = children_cpu_s() - before
    assert all(p["workers_cpu_s"] > 0.0 for p in provs)
    # each figure is rounded to the millisecond
    assert sum(p["workers_cpu_s"] for p in provs) <= spent + 0.002
    assert all(p["cpu_s"] > 0.0 for p in provs)


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_refuses_jobs_below_one(tmp_path, capsys, jobs):
    # --jobs -3 used to run serially and exit 0
    code = main(["sweep", "--manifest", str(tmp_path / "missing.json"),
                 "--jobs", jobs, "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: config: --jobs: expected at least 1, got %s" % jobs)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_select_creates_the_parents_of_its_outputs(tmp_path, capsys, flag):
    # an --out or --report in a directory that did not exist exited 2
    # with "No such file or directory", after sel.csv for --report
    rng = np.random.default_rng(0)
    labels = np.repeat([1, 0], 20)
    FeatureMatrix(column_names=["P3:a", "P3:b"],
                  values=np.column_stack([labels + rng.normal(0, 0.3, 40),
                                          rng.normal(0, 1, 40)]),
                  labels=labels,
                  subject_ids=[]).to_csv(tmp_path / "feat.csv")
    paths = {"--out": tmp_path / "sel.csv", "--report": tmp_path / "rt.csv"}
    paths[flag] = tmp_path / "new" / "deeper" / paths[flag].name
    code = main(["select", "--features", str(tmp_path / "feat.csv"),
                 "--out", str(paths["--out"]),
                 "--report", str(paths["--report"])])
    assert code == 0, capsys.readouterr().err
    assert paths["--out"].read_text().startswith("P3:a")
    assert paths["--report"].read_text().startswith("column,")


def test_select_reports_a_column_of_tiny_values(tmp_path, capsys):
    # the D'Agostino and Welch forms squared 1e-180 to 0.0 and the command
    # ended in a ZeroDivisionError traceback
    rng = np.random.default_rng(0)
    labels = np.repeat([1, 0], 21)
    FeatureMatrix(column_names=["P3:tiny", "P3:unit"],
                  values=np.column_stack([rng.normal(0, 1e-90, 42),
                                          rng.normal(0, 1, 42)]),
                  labels=labels,
                  subject_ids=[]).to_csv(tmp_path / "feat.csv")
    code = main(["select", "--features", str(tmp_path / "feat.csv"),
                 "--out", str(tmp_path / "sel.csv"),
                 "--report", str(tmp_path / "rt.csv")])
    assert code == 0, capsys.readouterr().err
    rows = (tmp_path / "rt.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["P3:tiny", "P3:unit"]


def test_train_refuses_importance_without_gbt(tmp_path, capsys):
    # --importance was ignored without a word for knn and svm
    code = main(["train", "--features", str(tmp_path / "missing.csv"),
                 "--classifier", "knn", "--importance"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: config: --importance: needs --classifier gbt, got knn\n")


@pytest.mark.parametrize("command", ["segment", "extract"])
@pytest.mark.parametrize("chunk", ["2-4", "3/7", "5/4", "a/b"])
def test_malformed_chunk_exits_1_before_loading(tmp_path, capsys, command,
                                                chunk):
    # "2-4" was an unpacking ValueError and "3/7" a divisor ValueError,
    # both exit 2 after the cohort loaded
    argv = [command, "--manifest", str(tmp_path / "missing.json"),
            "--chunk", chunk, "--out", str(tmp_path / "out")]
    if command == "extract":
        argv += ["--channels", "P3"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        "error: config: --chunk: expected INDEX/DIVISOR with DIVISOR one of "
        "1, 2, 3, 4, 5, 20")
    assert err[0].endswith("got \"%s\"" % chunk)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("classifier", ["gbt", "svm", "knn"])
def test_train_on_a_selection_that_keeps_no_column_exits_2(
        tmp_path, capsys, classifier):
    # selection keeps neither null column; gbt ended in a ZeroDivisionError
    # traceback, svm and knn exited 0 with five 0.5000 folds fit on zero
    # columns
    rng = np.random.default_rng(0)
    FeatureMatrix(column_names=["P3:a", "P3:b"],
                  values=rng.standard_normal((50, 2)),
                  labels=np.repeat([1, 0], 25),
                  subject_ids=[]).to_csv(tmp_path / "feat.csv")
    code = main(["train", "--features", str(tmp_path / "feat.csv"),
                 "--classifier", classifier, "--selection", "yes"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: feature matrix has no columns\n"
    assert captured.out == ""


def _importance_matrix(tmp_path):
    """A 20 + 20-subject, 5-column feature matrix, written to feat.csv,
    where cross-validation picks max_depth 3 and gamma 1.0."""
    rng = np.random.default_rng(2)
    labels = np.repeat([1, 0], 20)
    values = np.round(rng.standard_normal((40, 5)), 1)
    values[:, :2] += 0.7 * labels[:, None]
    matrix = FeatureMatrix(column_names=["P3:%s" % c for c in "abcde"],
                           values=values, labels=labels, subject_ids=[])
    matrix.to_csv(tmp_path / "feat.csv")
    return matrix


def _holdout_lines(matrix, cfg):
    """What train --importance --seed 3 prints of train_final's fit."""
    _, holdout, imp = classify.train_final(
        matrix.values, matrix.labels, cfg, split_seed=3,
        feature_names=matrix.column_names)
    return "holdout accuracy %.4f\n" % holdout + "".join(
        "  %-28s %.4f\n" % (name, gain) for name, gain in imp[:15])


def test_train_importance_prints_what_it_printed_before(tmp_path, capsys):
    # recorded when the holdout was still scored by a second tree walk
    # over the returned model; the engine's routed holdout rows must give
    # the same accuracy, and the default fit the same gains
    matrix = _importance_matrix(tmp_path)
    assert _holdout_lines(matrix, classify.GbtConfig()) == (
        "holdout accuracy 0.8750\n"
        "  P3:a                         5.5012\n"
        "  P3:e                         4.4860\n"
        "  P3:c                         3.9159\n"
        "  P3:b                         3.1610\n")
    assert main(["train", "--features", str(tmp_path / "feat.csv"),
                 "--classifier", "gbt", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        "classifier=gbt folds=0.6250,0.7500,0.6250,0.8750,0.6250\n"
        "mean accuracy 0.7000 +- 0.1118, best config "
        "{\"eta\": 0.3, \"gamma\": 1.0, \"max_depth\": 3}\n")


def test_train_importance_fits_the_chosen_grid_point(tmp_path, capsys):
    # the holdout model was fitted at GbtConfig() defaults, whatever
    # cross-validation chose
    matrix = _importance_matrix(tmp_path)
    assert main(["train", "--features", str(tmp_path / "feat.csv"),
                 "--classifier", "gbt", "--importance", "--seed", "3"]) == 0
    out = capsys.readouterr().out.split("\n", 2)
    assert out[1].endswith('{"eta": 0.3, "gamma": 1.0, "max_depth": 3}')
    chosen = _holdout_lines(matrix, classify.GbtConfig(
        eta=0.3, gamma=1.0, max_depth=3))
    assert chosen != _holdout_lines(matrix, classify.GbtConfig())
    assert out[2] == chosen


def test_train_searches_the_config_grid(tmp_path, capsys):
    # train searched the default grid whatever the grids block said
    rng = np.random.default_rng(2)
    labels = np.repeat([1, 0], 20)
    values = rng.standard_normal((40, 3)) + 0.7 * labels[:, None]
    FeatureMatrix(column_names=["P3:%s" % c for c in "abc"], values=values,
                  labels=labels, subject_ids=[]).to_csv(tmp_path / "feat.csv")
    assert main(["train", "--features", str(tmp_path / "feat.csv"),
                 "--classifier", "knn", "--set",
                 'grids={"knn": [{"k": 1}]}']) == 0
    assert capsys.readouterr().out.endswith('best config {"k": 1}\n')


def test_cpus_are_one_where_the_count_is_unknown(tmp_path, monkeypatch):
    # os.cpu_count() returns None where the count cannot be read
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert sweep._usable_cpus() == 1
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--subjects", "2",
                 "--duration", "2", "--seed", "3"]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["cpus"] == 1
    cohort = load_cohort(out / "manifest.json")
    table = sweep.feature_vectors(cohort, [("raw", SegmentSpec(1, 1), "P3")],
                                  CleaningPipeline(), DEFAULT_PARAMS)
    assert table.errors.tolist() == [[None]] * len(cohort)
