import json
from pathlib import Path

import pytest

import eegsweep
from eegsweep.cli import main


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
