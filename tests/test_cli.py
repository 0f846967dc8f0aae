import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import eegsweep
from eegsweep import cleaning, cli
from eegsweep.cli import main
from eegsweep.features import FeatureMatrix


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


def test_provenance_peak_rss_without_resource_module(tmp_path, monkeypatch):
    # Windows has no resource module
    monkeypatch.setattr(cli, "resource", None)
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--subjects", "2",
                 "--duration", "2", "--seed", "3"]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["peak_rss_mb"] is None


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs every command about 34 MB and half a second
    src = str(Path(eegsweep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, eegsweep.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['scipy', 'stats']))")
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
    with cli._one_blas_thread():
        assert fake.threads == 1
    assert fake.threads == 6
    with pytest.raises(RuntimeError):
        with cli._one_blas_thread():
            assert fake.threads == 1
            raise RuntimeError("command failed")
    assert fake.threads == 6 and fake.calls == [1, 6, 1, 6]


def test_one_blas_thread_on_numpys_openblas():
    blas = cleaning._openblas()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    get, put = blas
    before = get()
    for raised in (False, True):
        try:
            with cli._one_blas_thread():
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
    assert seen == [1, 1] and fake.threads == 4


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
