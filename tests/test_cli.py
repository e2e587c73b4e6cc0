import builtins
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest

from conftest import make_experiment, read_embeddings, subset
from oracles import cosine_bits_oracle, load_scores_oracle, select_impostors_oracle
from spkdbn import cli
from spkdbn.balance import kmeans_cosine
from spkdbn.cli import (
    ExperimentConfig,
    PipelineError,
    config_hash,
    derive_seed,
    main,
    parse_config_file,
    resolve_config,
    run_pipeline,
)
from spkdbn.embeddings import (
    Dataset,
    SynthConfig,
    fit_whitener,
    generate_synthetic,
    load_arrays,
    save_arrays,
    save_embeddings,
)
from spkdbn.evaluation import evaluate_trials, fuse, parse_trials, save_report
from spkdbn.rbm import RbmParams
from spkdbn.udbn import DbnParams, load_dbn, normalize_udbn, save_dbn, train_udbn

STAGE_COMMANDS = ("train-udbn", "balance", "train-speakers", "score")
# Each retired subcommand name, with the stage that runs in its place.
RETIRED = {"select-impostors": "balance", "cluster": "balance", "score-baseline": "score",
           "fuse": "score", "evaluate": "score"}


def _file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tree_hashes(root):
    """{path relative to root: content hash} for every file under root."""
    return {str(p.relative_to(root)): _file_hash(p) for p in root.rglob("*") if p.is_file()}


def _write_config(path, pairs):
    path.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()))
    return str(path)


def test_config_file_overrides_and_presets(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("# experiment\ntask=single\ndepth=2\nft_lr=0.25\n")
    pairs = parse_config_file(cfg_file)
    cfg = resolve_config(pairs, {"depth": "3"})
    assert cfg.depth == 3                 # override wins over file
    assert cfg.ft_lr == 0.25              # file wins over preset
    assert cfg.impostor_kappa == 500      # single-3L preset
    assert cfg.adapt_lr == (0.001, 0.0001)
    multi = resolve_config({"task": "multi", "depth": "3"})
    assert multi.num_centroids == 24
    assert multi.adapt_layers == 1
    assert multi.adapt_epochs == (25,)
    assert multi.ft_lr == 0.08
    # keys no preset sets keep the ExperimentConfig field defaults
    assert multi.hidden_size == 512


# The (learning_rate, epochs) each preset gives each adapted layer and
# fine-tuning; pretraining takes (0.014, 200) for layer 0 and (0.06, 120)
# above it in every preset.  The test pins every field of every kernel
# config, momentum, weight decay, minibatch size and seed included.
KERNEL_SETTINGS = {
    ("single", 1): ([(0.001, 10)], (0.001, 30)),
    ("single", 2): ([(0.001, 20), (0.0001, 15)], (0.005, 100)),
    ("single", 3): ([(0.001, 15), (0.0001, 20)], (0.08, 500)),
    ("multi", 1): ([(0.001, 10)], (0.001, 30)),
    ("multi", 2): ([(0.001, 10)], (0.01, 100)),
    ("multi", 3): ([(0.001, 25)], (0.08, 500)),
}


@pytest.mark.parametrize("task, depth", sorted(KERNEL_SETTINGS))
def test_preset_kernel_configs_are_pinned(task, depth):
    cfg = resolve_config({"task": task, "depth": str(depth)})
    adapt, fine_tune = KERNEL_SETTINGS[(task, depth)]
    pretrain = [(0.014, 200)] + [(0.06, 120)] * (depth - 1)
    assert [astuple(c) for c in cli._rbm_configs(cfg)] == [
        (lr, epochs, 0.9, 0.0002, 100, derive_seed(0, "udbn", k))
        for k, (lr, epochs) in enumerate(pretrain)]
    assert [astuple(c) for c in cli._adapt_configs(cfg, seed=12345)] == [
        (lr, epochs, 0.9, 0.0002, 100, 12345) for lr, epochs in adapt]
    assert astuple(cli._fine_tune_config(cfg)) == (*fine_tune, 0.9, 0.0012)


# config_hash of each preset with no other key set.  A preset holds only
# the values that differ from the ExperimentConfig field defaults, so these
# digests also change when a default that a preset relies on changes.  The
# input and output paths are not hashed.
PRESET_HASHES = {
    ("single", 1): "091bbd4287a6899b6f0d8544864e661ba4ec2b62b89fe54d39bea709925826d6",
    ("single", 2): "d598342f2531e6cc01c56f9a3f06d2e0c645ecbb937a0349398a33f0663a5c64",
    ("single", 3): "8e42700660eee472c4ad97c96269ccced670af199eff4d7191a4e8f73878cf6c",
    ("multi", 1): "f301899cb17939f0d5ef1d8080a7cc29050f781e5f901ba0fafa43c640b0be39",
    ("multi", 2): "5b89c349236fb63e300c6fd62e745d687ce01337b34df550a0178c327f2b2f0a",
    ("multi", 3): "fe4c008970e01ceaca45f109a1e0e15f39115fc2cc9e2ad092f48a6327f85738",
}


@pytest.mark.parametrize("task, depth", sorted(PRESET_HASHES))
def test_preset_config_hash_is_pinned(task, depth):
    cfg = resolve_config({"task": task, "depth": str(depth)})
    assert config_hash(cfg) == PRESET_HASHES[(task, depth)]


def test_readme_config_example_parses_and_resolves(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"^```ini\n(.*?)^```", readme, re.S | re.M).group(1)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(example)
    cfg = resolve_config(parse_config_file(cfg_file))
    assert (cfg.background, cfg.trials, cfg.out) == ("data/background.txt", "data/trials.txt", "out")
    assert (cfg.task, cfg.depth, cfg.master_seed) == ("single", 1, 7)


def test_config_file_rejects_a_repeated_key(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("out=a\n# comment\ntask=single\nout=b\n")
    with pytest.raises(ValueError, match=re.escape(f"{cfg_file}:4: key 'out' repeats line 1")):
        parse_config_file(cfg_file)
    assert main(["run", "--config", str(cfg_file)]) == 1
    assert "key 'out' repeats line 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["out=out   # artifact directory", "task=single  # x",
                                  "depth=1  # x"])
def test_config_file_rejects_an_inline_comment(tmp_path, capsys, monkeypatch, line):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"# experiment\n{line}\n")
    key = line.split("=")[0]
    message = f"{cfg_file}:2: inline comment in the value of {key!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config_file(cfg_file)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg_file)]) == 1
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["exp.cfg"]


def test_config_file_keeps_a_hash_inside_a_value(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("out=run#2\n")
    assert parse_config_file(cfg_file) == {"out": "run#2"}


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError, match="unknown config key"):
        resolve_config({"bogus": "1"})
    with pytest.raises(ValueError):
        resolve_config({"task": "triple"})
    with pytest.raises(ValueError):
        resolve_config({"depth": "4"})


def test_config_hash_sensitivity():
    a = resolve_config({"task": "single", "depth": "1"})
    b = resolve_config({"task": "single", "depth": "1", "master_seed": "5"})
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(resolve_config({"task": "single", "depth": "1"}))
    moved = {"background": "b.txt", "enroll": "e.txt", "test": "t.txt", "trials": "tr.txt",
             "out": "elsewhere"}
    assert config_hash(a) == config_hash(resolve_config({"task": "single", "depth": "1"} | moved))


# For each key that config_hash covers, a valid value other than single-2L's.
HASHED_CHANGES = {
    "task": "multi", "depth": "3", "master_seed": "1", "init_mode": "random",
    "hidden_size": "64", "grbm_epochs": "5", "bb_epochs": "5", "impostor_kappa": "400",
    "num_centroids": "6", "adapt_lr": "0.002,0.0001", "adapt_epochs": "20,16",
    "ft_lr": "0.004", "ft_epochs": "99",
}


def test_every_key_but_the_paths_has_a_hashed_change():
    paths = {*cli._INPUTS, "out"}
    assert set(HASHED_CHANGES) == {f.name for f in fields(ExperimentConfig)} - paths


@pytest.mark.parametrize("key", sorted(HASHED_CHANGES))
def test_config_hash_changes_with_each_experiment_key(key):
    base = {"task": "single", "depth": "2"}
    a, b = resolve_config(base), resolve_config(base | {key: HASHED_CHANGES[key]})
    assert getattr(a, key) != getattr(b, key)
    assert config_hash(a) != config_hash(b)


def test_the_same_experiment_in_two_output_directories_writes_identical_files(tmp_path):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    for out in ("a", "b"):
        assert main(["run", "--config", cfg_file, "--override", f"out={tmp_path / out}"]) == 0
    assert _file_hash(tmp_path / "a" / "stamp") == _file_hash(tmp_path / "b" / "stamp")
    assert _tree_hashes(tmp_path / "a") == _tree_hashes(tmp_path / "b")


def test_a_second_spelling_of_the_output_path_resumes_without_a_mismatch(tmp_path, monkeypatch):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    monkeypatch.chdir(tmp_path)
    assert main(["train-udbn", "--config", cfg_file, "--override", "out=rel/out"]) == 0
    assert main(["balance", "--config", cfg_file, "--override", "out=./rel/out"]) == 0
    assert (tmp_path / "rel" / "out" / "stamp").read_text().splitlines()[1:] == [
        "train-udbn", "balance"]


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(7, "spk0001") == derive_seed(7, "spk0001")
    assert derive_seed(7, "spk0001") != derive_seed(7, "spk0002")
    assert derive_seed(7, "spk0001") != derive_seed(8, "spk0001")


def test_missing_input_fails_before_partial_output(tmp_path):
    cfg = ExperimentConfig(background="nope.txt", enroll="nope.txt", test="nope.txt",
                           trials="nope.txt", out=str(tmp_path / "out"))
    with pytest.raises(PipelineError, match="missing input"):
        run_pipeline(cfg)
    assert not (tmp_path / "out").exists()


def test_pipeline_end_to_end_and_artifacts(tmp_path):
    pairs = make_experiment(tmp_path / "exp")
    cfg = resolve_config(pairs)
    reports = run_pipeline(cfg)
    out = tmp_path / "exp" / "out"
    for name in ("udbn_norm.dbn", "whitener.npz", "selected_impostors.txt",
                 "centroids.npz", "scores_dnn.txt", "scores_baseline.txt", "scores_fused.txt",
                 "report_dnn.txt", "det_dnn.csv"):
        assert (out / name).exists(), name
    assert (out / "models" / "spk0000.dnn").exists()
    # the raw UDBN and a list of the enrolled speakers would repeat what
    # udbn_norm.dbn and the enrollment file already hold
    assert not (out / "udbn.dbn").exists()
    assert not (out / "models.txt").exists()
    assert set(reports) == {"dnn", "baseline", "fused"}
    line = (out / "report_dnn.txt").read_text().splitlines()[0]
    assert line.startswith("eer=")


def test_pipeline_reruns_are_byte_identical(tmp_path):
    pairs1 = make_experiment(tmp_path / "a")
    pairs2 = make_experiment(tmp_path / "b")
    run_pipeline(resolve_config(pairs1))
    run_pipeline(resolve_config(pairs2))
    for name in ("scores_dnn.txt", "scores_baseline.txt", "scores_fused.txt",
                 "models/spk0007.dnn", "udbn_norm.dbn"):
        assert _file_hash(tmp_path / "a" / "out" / name) == _file_hash(tmp_path / "b" / "out" / name)


def test_stage_skipping_matches_fresh_run(tmp_path):
    pairs = make_experiment(tmp_path / "exp")
    cfg = resolve_config(pairs)
    run_pipeline(cfg)
    before = _file_hash(tmp_path / "exp" / "out" / "scores_fused.txt")
    # delete a late artifact; resume must regenerate it identically
    os.remove(tmp_path / "exp" / "out" / "scores_fused.txt")
    run_pipeline(cfg)
    assert _file_hash(tmp_path / "exp" / "out" / "scores_fused.txt") == before


# Every file a 4-speaker run writes besides `stamp`, with the stage that writes it.
ARTIFACT_STAGES = {
    "udbn_norm.dbn": "train-udbn", "whitener.npz": "train-udbn",
    "selected_impostors.txt": "balance", "centroids.npz": "balance",
    **{f"models/spk{s:04d}.dnn": "train-speakers" for s in range(4)},
    **{name: "score" for system in ("dnn", "baseline", "fused")
       for name in (f"scores_{system}.txt", f"report_{system}.txt", f"det_{system}.csv")},
}


@pytest.fixture(scope="module")
def finished_experiment(tmp_path_factory):
    """(pairs, config file) of a 4-speaker experiment that has run to the end;
    a test that runs a stage copies its `out` first."""
    root = tmp_path_factory.mktemp("finished")
    pairs = make_experiment(root / "exp", num_speakers=4)
    cfg_file = _write_config(root / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 0
    return pairs, cfg_file


def test_every_artifact_of_a_run_has_its_stage_listed(finished_experiment):
    pairs, _ = finished_experiment
    assert set(_tree_hashes(Path(pairs["out"]))) == {*ARTIFACT_STAGES, "stamp"}


@pytest.mark.parametrize("artifact", sorted(ARTIFACT_STAGES))
def test_a_missing_artifact_re_runs_only_its_stage_to_the_same_bytes(
        tmp_path, monkeypatch, finished_experiment, artifact):
    pairs, cfg_file = finished_experiment
    out = tmp_path / "out"
    shutil.copytree(pairs["out"], out)
    want = _tree_hashes(out)
    os.remove(out / artifact)
    ran = []
    for name, _, _ in cli.STAGES:
        attr = "stage_" + name.replace("-", "_")
        real = getattr(cli, attr)
        monkeypatch.setattr(cli, attr,
                            lambda *args, _real=real, _name=name: ran.append(_name) or _real(*args))
    assert main(["run", "--config", cfg_file, "--override", f"out={out}"]) == 0
    assert ran == [ARTIFACT_STAGES[artifact]]
    assert _tree_hashes(out) == want


@pytest.mark.parametrize("system", ["dnn", "baseline", "fused"])
def test_reports_and_det_files_evaluate_the_written_scores(tmp_path, finished_experiment, system):
    pairs, _ = finished_experiment
    out = Path(pairs["out"])
    trials = parse_trials(Path(pairs["trials"]).read_text().splitlines(), pairs["trials"])
    scores = load_scores_oracle(out / f"scores_{system}.txt", trials)
    if system == "fused":
        fused = fuse(*(load_scores_oracle(out / f"scores_{s}.txt", trials)
                       for s in ("dnn", "baseline")))
        assert fused.tobytes() == scores.tobytes()
    save_report(evaluate_trials(scores, trials.keys), tmp_path / "report.txt", tmp_path / "det.csv")
    assert _file_hash(tmp_path / "report.txt") == _file_hash(out / f"report_{system}.txt")
    assert _file_hash(tmp_path / "det.csv") == _file_hash(out / f"det_{system}.csv")


def test_resume_with_different_config_is_rejected(tmp_path):
    pairs = make_experiment(tmp_path / "exp")
    run_pipeline(resolve_config(pairs))
    changed = resolve_config(pairs | {"master_seed": "99"})
    with pytest.raises(PipelineError, match="config-hash mismatch"):
        run_pipeline(changed)


def test_resume_after_an_input_changed_is_rejected(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 0
    out = tmp_path / "exp" / "out"
    before = _tree_hashes(out)
    test = read_embeddings(pairs["test"])
    save_embeddings(Dataset(test.ids, test.speakers, -test.vectors), pairs["test"])
    capsys.readouterr()
    assert main(["run", "--config", cfg_file]) == 1
    assert "an input file changed" in capsys.readouterr().err
    assert _tree_hashes(out) == before


@pytest.mark.parametrize("k", range(1, len(STAGE_COMMANDS)))
def test_stage_after_k_stages_of_another_config_is_rejected(tmp_path, capsys, k):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    for cmd in STAGE_COMMANDS[:k]:
        assert main([cmd, "--config", cfg_file]) == 0, cmd
    out = tmp_path / "exp" / "out"
    before = _tree_hashes(out)
    capsys.readouterr()
    assert main([STAGE_COMMANDS[k], "--config", cfg_file, "--override", "master_seed=99"]) == 1
    assert "config-hash mismatch" in capsys.readouterr().err
    assert _tree_hashes(out) == before


def test_stage_that_crashes_on_its_re_run_is_not_skipped(tmp_path, monkeypatch):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 0
    out = tmp_path / "exp" / "out"
    before = _tree_hashes(out)
    report = (out / "report_dnn.txt").read_bytes()
    os.remove(out / "report_dnn.txt")

    def crash(*args):
        (out / "report_dnn.txt").write_bytes(report[:len(report) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(cli.evaluation, "save_report", crash)
    assert main(["run", "--config", cfg_file]) == 1
    monkeypatch.undo()
    assert main(["run", "--config", cfg_file]) == 0
    assert _tree_hashes(out) == before


def test_crash_in_the_middle_of_train_speakers_resumes_to_a_fresh_run(tmp_path, monkeypatch):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    out = tmp_path / "exp" / "out"
    assert main(["run", "--config", cfg_file]) == 0
    fresh = _tree_hashes(out)
    os.rename(out, tmp_path / "fresh")

    calls = []
    save_dnn = cli.dnn.save_dnn

    def crash_on_the_third(model, path):
        calls.append(path)
        save_dnn(model, path)
        if len(calls) == 3:
            Path(path).write_bytes(Path(path).read_bytes()[:100])
            raise OSError("disk full")

    monkeypatch.setattr(cli.dnn, "save_dnn", crash_on_the_third)
    assert main(["run", "--config", cfg_file]) == 1
    assert len(calls) == 3
    assert (out / "stamp").read_text().splitlines()[1:] == list(STAGE_COMMANDS[:2])
    monkeypatch.undo()
    assert main(["run", "--config", cfg_file]) == 0
    assert _tree_hashes(out) == fresh


def test_cli_gen_synth_and_subcommands(tmp_path, capsys):
    out = tmp_path / "bg.txt"
    rc = main(["gen-synth", "--speakers", "3", "--sessions", "2", "--dim", "5",
               "--seed", "1", "--unlabeled", "--out", str(out)])
    assert rc == 0
    ds = read_embeddings(out)
    assert len(ds) == 6
    assert ds.speakers == (None,) * 6


def test_cli_run_and_stagewise_equivalence(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    out = tmp_path / "exp" / "out"
    assert main(["run", "--config", cfg_file]) == 0
    assert "dnn: eer=" in capsys.readouterr().out
    os.rename(out, tmp_path / "whole")

    for cmd in STAGE_COMMANDS:
        assert main([cmd, "--config", cfg_file]) == 0
    whole = _tree_hashes(tmp_path / "whole")
    assert "stamp" in whole
    assert _tree_hashes(out) == whole


def test_cli_stage_writes_only_its_own_artifacts(tmp_path):
    pairs = make_experiment(tmp_path / "exp")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["train-udbn", "--config", cfg_file]) == 0
    assert sorted(os.listdir(tmp_path / "exp" / "out")) == [
        "stamp", "udbn_norm.dbn", "whitener.npz"]


def test_cli_writes_the_normalized_udbn(tmp_path):
    pairs = make_experiment(tmp_path / "exp") | {"depth": "2"}
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["train-udbn", "--config", cfg_file]) == 0
    written = load_dbn(tmp_path / "exp" / "out" / "udbn_norm.dbn")
    cfg = resolve_config(pairs)
    background = read_embeddings(pairs["background"]).vectors
    expected = normalize_udbn(train_udbn(background, [cfg.hidden_size] * cfg.depth,
                                         cli._rbm_configs(cfg)))
    assert written.normalized and expected.normalized
    assert len(written.layers) == len(expected.layers) == 2
    for got, want in zip(written.layers, expected.layers):
        assert got.visible_kind == want.visible_kind
        for name in ("W", "b_vis", "b_hid"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("command, stage", [("train-speakers", "train-speakers"),
                                            ("score", "score"), ("fuse", "score"),
                                            ("score-baseline", "score"), ("evaluate", "score")])
def test_cli_stage_before_its_inputs_fails(tmp_path, capsys, command, stage):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main([command, "--config", cfg_file]) == 1
    assert f"stage {stage}: " in capsys.readouterr().err
    assert os.listdir(pairs["out"]) == []     # no artifact and no stamp


def test_cli_train_speakers_names_the_speaker_with_bad_enrollment(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    enroll = read_embeddings(pairs["enroll"])
    second = enroll.by_speaker()["spk0005"] + 0.01
    save_embeddings(Dataset(enroll.ids + ("spk0005_sess000b",), enroll.speakers + ("spk0005",),
                            np.vstack([enroll.vectors, second])), pairs["enroll"])
    for cmd in STAGE_COMMANDS[:2]:
        assert main([cmd, "--config", cfg_file]) == 0
    capsys.readouterr()
    assert main(["train-speakers", "--config", cfg_file]) == 1
    err = capsys.readouterr().err
    assert "speaker spk0005" in err
    assert "exactly 1 enrollment vector" in err


def test_cli_error_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("background=missing.txt\nenroll=missing.txt\n"
                        "test=missing.txt\ntrials=missing.txt\nout=o\n")
    assert main(["run", "--config", str(cfg_file)]) == 1
    assert "missing input" in capsys.readouterr().err

    # each missing input is named by its key: an unset one as such, an
    # absent file with its path
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    del pairs["background"]
    pairs["trials"] = str(tmp_path / "nope.txt")
    assert main(["run", "--config", _write_config(cfg_file, pairs)]) == 1
    assert capsys.readouterr().err == ("spkdbn: stage validate: missing input file(s): "
                                       f"background (not set), trials={tmp_path / 'nope.txt'}\n")
    assert not os.path.exists(pairs["out"])


BAD_TRAINING_VALUES = [
    ({"ft_epochs": "-1"}, "epochs must be >= 0"),
    ({"depth": "2", "adapt_lr": "0.001"},   # single-2L adapts two layers
     "adapt_lr and adapt_epochs need one value per adapted layer, at most depth=2; "
     "got 1 and 2"),
    ({"adapt_epochs": "10,10"},
     "adapt_lr and adapt_epochs need one value per adapted layer, at most depth=1; "
     "got 1 and 2"),
    ({"adapt_lr": "0.001,0.001", "adapt_epochs": "10,10"},
     "adapt_lr and adapt_epochs need one value per adapted layer, at most depth=1; "
     "got 2 and 2"),
    ({"adapt_lr": "", "adapt_epochs": "10"},
     "adapt_lr and adapt_epochs need one value per adapted layer, at most depth=1; "
     "got 0 and 1"),
    ({"adapt_epochs": "0"}, "epochs must be >= 1"),
    ({"num_centroids": "13"}, "num_centroids=13 not divisible into num_minibatches=3"),
    ({"num_centroids": "0"}, "num_centroids=0 must be in 1..impostor_kappa=60"),
    ({"impostor_kappa": "6"}, "num_centroids=12 must be in 1..impostor_kappa=6"),
    ({"impostor_kappa": "0"}, "impostor_kappa must be >= 1, got 0"),
    ({"grbm_epochs": "0"}, "epochs must be >= 1"),
    ({"hidden_size": "0"}, "hidden_size must be >= 1"),
    ({"ft_lr": "nan"}, "learning_rate must be finite and >= 0, got nan"),
    # momentum, weight decay, minibatch size and the k-means cap are not keys
    ({"rbm_momentum": "0.5"}, "unknown config key 'rbm_momentum'"),
    # nor are the four constants of ExperimentConfig and the adapted layer
    # count, which the adaptation lists give
    ({"grbm_lr": "nan"}, "unknown config key 'grbm_lr'"),
    ({"impostor_n": "0"}, "unknown config key 'impostor_n'"),
    ({"adapt_layers": "2"}, "unknown config key 'adapt_layers'"),
    ({"adapt_layers": "-1"}, "unknown config key 'adapt_layers'"),
]


@pytest.mark.parametrize("bad, message", BAD_TRAINING_VALUES,
                         ids=[",".join(f"{k}={v}" for k, v in bad.items())
                              for bad, _ in BAD_TRAINING_VALUES])
def test_cli_run_rejects_a_bad_training_value_before_any_stage(tmp_path, capsys, bad, message):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4) | bad
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 1
    assert f"stage config: {message}" in capsys.readouterr().err
    assert not os.path.exists(pairs["out"])


@pytest.mark.parametrize("key", ["grbm_lr", "bb_lr", "impostor_n", "num_minibatches",
                                 "adapt_layers"])
def test_cli_override_of_a_constant_or_derived_value_is_an_unknown_key(tmp_path, capsys, key):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file, "--override", f"{key}=1"]) == 1
    assert capsys.readouterr().err == f"spkdbn: stage config: unknown config key {key!r}\n"
    assert not os.path.exists(pairs["out"])


def test_cli_empty_adaptation_lists_train_without_adaptation(tmp_path, monkeypatch):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4) | {"adapt_lr": "",
                                                                 "adapt_epochs": ""}
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert resolve_config(pairs).adapt_layers == 0
    for cmd in STAGE_COMMANDS[:2]:
        assert main([cmd, "--config", cfg_file]) == 0
    adapted = []
    adapt_udbn = cli.udbn.adapt_udbn

    def spy(dbn, batches, cfgs):
        adapted.append(list(cfgs))
        return adapt_udbn(dbn, batches, cfgs)

    def no_epochs(*args):
        raise AssertionError("an adaptation epoch ran")

    monkeypatch.setattr(cli.udbn, "adapt_udbn", spy)
    monkeypatch.setattr(cli.udbn, "_cd1_epochs", no_epochs)
    assert main(["train-speakers", "--config", cfg_file]) == 0
    assert adapted == [[]] * 4
    monkeypatch.undo()
    assert main(["score", "--config", cfg_file]) == 0


@pytest.mark.parametrize("key", ["impostor_kappa"])
def test_config_names_an_impostor_count_below_one_and_its_value(key):
    with pytest.raises(ValueError, match=f"^{key} must be >= 1, got 0$"):
        ExperimentConfig(**{key: 0})


@pytest.mark.parametrize("too_large, rows, message", [
    # impostor_n is 10; 9 rows of dimension 8 are enough to fit the whitener
    ({}, 9, "impostor_n=10 exceeds the 9 background vectors"),
    ({"impostor_kappa": "300", "num_centroids": "201"}, 200,
     "num_centroids=201 exceeds the 200 impostors kept from 200 background vectors"),
], ids=["impostor_n", "num_centroids"])
def test_cli_value_too_large_for_the_background_fails_before_the_udbn_is_stamped(
        tmp_path, capsys, too_large, rows, message):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4, dim=8)   # 200 background vectors
    full = Path(pairs["background"]).read_bytes()
    background = read_embeddings(pairs["background"])
    save_embeddings(subset(background, lambda utt: utt in background.ids[:rows]),
                    pairs["background"])
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs | too_large)
    assert main(["run", "--config", cfg_file]) == 1
    assert capsys.readouterr().err == f"spkdbn: stage train-udbn: {message}\n"
    assert os.listdir(pairs["out"]) == []     # no artifact and no stamp

    # The corrected config and background resume in the same directory.
    Path(pairs["background"]).write_bytes(full)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 0
    assert os.path.exists(os.path.join(pairs["out"], "report_fused.txt"))


def test_cli_background_too_small_to_whiten_fails_before_anything_is_stamped(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)   # d=50
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    full = (tmp_path / "exp" / "background.txt").read_bytes()
    background = read_embeddings(pairs["background"])
    save_embeddings(subset(background, lambda utt: utt in background.ids[:40]), pairs["background"])
    assert main(["run", "--config", cfg_file]) == 1
    assert ("stage train-udbn: need at least d+1=51 vectors to fit a whitener, got 40"
            in capsys.readouterr().err)
    assert os.listdir(pairs["out"]) == []     # no artifact and no stamp

    # The full background resumes in the same directory.
    (tmp_path / "exp" / "background.txt").write_bytes(full)
    assert main(["run", "--config", cfg_file]) == 0
    assert os.path.exists(os.path.join(pairs["out"], "report_fused.txt"))


def _nan_at_trial(monkeypatch, system, index, value=np.nan):
    """Make the score stage's `system` score of trial `index` NaN (or `value`):
    the DNN's by the batch that scores it, the baseline's by the call that scores it."""
    if system == "dnn":
        score_llr_batch, start = cli.dnn.score_llr_batch, [0]

        def patched(model, X):
            scores = score_llr_batch(model, X)
            if start[0] <= index < start[0] + len(scores):
                scores[index - start[0]] = value
            start[0] += len(scores)
            return scores

        monkeypatch.setattr(cli.dnn, "score_llr_batch", patched)
    else:
        score_baseline, calls = cli.evaluation.score_baseline, []

        def patched(model, test):
            calls.append(1)
            return value if len(calls) == index + 1 else score_baseline(model, test)

        monkeypatch.setattr(cli.evaluation, "score_baseline", patched)


@pytest.mark.parametrize("system, index", [("dnn", 6), ("baseline", 5)])
def test_cli_score_rejects_a_nan_score_before_writing_anything(tmp_path, capsys, monkeypatch,
                                                              system, index):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    out = tmp_path / "exp" / "out"
    for cmd in STAGE_COMMANDS[:3]:
        assert main([cmd, "--config", cfg_file]) == 0
    before = _tree_hashes(out)
    trials = parse_trials(Path(pairs["trials"]).read_text().splitlines(), pairs["trials"])
    _nan_at_trial(monkeypatch, system, index)
    capsys.readouterr()
    assert main(["score", "--config", cfg_file]) == 1
    assert capsys.readouterr().err == (
        f"spkdbn: stage score: non-finite {system} score nan for trial "
        f"'{trials.models[index]} {trials.tests[index]}'\n")
    assert _tree_hashes(out) == before        # no score file, report or DET file
    monkeypatch.undo()
    assert main(["score", "--config", cfg_file]) == 0


@pytest.mark.filterwarnings("error")
def test_cli_score_names_a_test_utterance_it_cannot_normalize(tmp_path, capsys):
    # the whitened vector's norm overflows, and dividing by inf would turn
    # it into zeros that no cosine can be taken of
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    lines = Path(pairs["test"]).read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[first].split()
    assert fields[0] == "spk0000_sess001"
    lines[first] = " ".join(fields[:2] + ["1e200"] + fields[3:]) + "\n"
    Path(pairs["test"]).write_text("".join(lines))
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path / "exp.cfg", pairs)]) == 1
    assert capsys.readouterr().err == (
        f"spkdbn: stage score: test utterance 'spk0000_sess001' in {pairs['test']}: "
        "cannot length-normalize a vector of norm inf\n")
    assert not [p.name for p in (tmp_path / "exp" / "out").iterdir()
                if p.name.startswith(("scores_", "report_", "det_"))]


def _set_row(path, row: int, values) -> str:
    """Replace the values of record `row` of an embedding file; returns its id."""
    lines = Path(path).read_text().splitlines(keepends=True)
    i = [i for i, line in enumerate(lines) if not line.startswith("#")][row]
    fields = lines[i].split()
    lines[i] = " ".join(fields[:2] + values(fields[2:])) + "\n"
    Path(path).write_text("".join(lines))
    return fields[0]


# kind -> (new values of a row from its old ones, the norm the error reports)
BAD_ROW = {"zero": (lambda v: ["0"] * len(v), "0.0"),
           "overflow": (lambda v: ["1e200"] + v[1:], "inf")}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", BAD_ROW)
def test_cli_train_udbn_names_a_background_vector_of_zero_or_overflowing_norm(tmp_path, capsys,
                                                                               kind):
    # a zero row would fail only in balance, unnamed; an overflowing one would
    # fail the whitener fit after numpy's overflow warnings
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    values, norm = BAD_ROW[kind]
    first = _set_row(pairs["background"], 7, values)
    _set_row(pairs["background"], 12, values)
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path / "exp.cfg", pairs)]) == 1
    assert capsys.readouterr().err == (
        f"spkdbn: stage train-udbn: background utterance {first!r} in {pairs['background']}: "
        f"norm {norm} is zero or overflows\n")
    assert list((tmp_path / "exp" / "out").iterdir()) == []    # nothing recorded


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", BAD_ROW)
def test_cli_balance_names_a_speaker_whose_target_has_zero_or_overflowing_norm(tmp_path, capsys,
                                                                                kind):
    # an overflowing target norm would turn the target into zeros, whose
    # cosines all tie, so impostor selection would keep the first rows by index
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    values, norm = BAD_ROW[kind]
    assert _set_row(pairs["enroll"], 1, values) == "spk0001_sess000"
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path / "exp.cfg", pairs)]) == 1
    assert capsys.readouterr().err == (
        f"spkdbn: stage balance: speaker 'spk0001' in {pairs['enroll']}: "
        f"norm {norm} is zero or overflows\n")
    out = tmp_path / "exp" / "out"
    assert sorted(p.name for p in out.iterdir()) == ["stamp", "udbn_norm.dbn", "whitener.npz"]


@pytest.mark.filterwarnings("error")
def test_cli_a_zero_session_among_several_still_trains(tmp_path):
    # the target is the mean of the sessions, whose norm is not zero
    pairs = make_experiment(tmp_path / "exp", num_speakers=4) | {"task": "multi"}
    save_embeddings(generate_synthetic(SynthConfig(4, 8, 50, 1.0, 0.2, seed=5)), pairs["enroll"])
    assert _set_row(pairs["enroll"], 19, BAD_ROW["zero"][0]) == "spk0002_sess003"
    assert main(["run", "--config", _write_config(tmp_path / "exp.cfg", pairs)]) == 0
    models = sorted(p.name for p in (tmp_path / "exp" / "out" / "models").glob("*.dnn"))
    assert models == [f"spk{s:04d}.dnn" for s in range(4)]


@pytest.mark.filterwarnings("error")
def test_cli_balance_names_a_speaker_whose_session_mean_overflows(tmp_path, capsys):
    # each session is finite, but their sum, and so the target, is not
    pairs = make_experiment(tmp_path / "exp", num_speakers=4) | {"task": "multi"}
    save_embeddings(generate_synthetic(SynthConfig(4, 2, 50, 1.0, 0.2, seed=5)), pairs["enroll"])
    for row in (0, 1):
        assert _set_row(pairs["enroll"], row, lambda v: ["1e308"] * len(v)).startswith("spk0000")
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path / "exp.cfg", pairs)]) == 1
    assert capsys.readouterr().err == (
        f"spkdbn: stage balance: speaker 'spk0000' in {pairs['enroll']}: "
        "norm inf is zero or overflows\n")


@pytest.fixture(scope="module")
def trained_experiment(tmp_path_factory):
    """(pairs, config file, trials) of a 4-speaker experiment whose first three
    stages have run; a test copies its `out` before running a stage."""
    root = tmp_path_factory.mktemp("trained")
    pairs = make_experiment(root / "exp", num_speakers=4)
    cfg_file = _write_config(root / "exp.cfg", pairs)
    for cmd in STAGE_COMMANDS[:3]:
        assert main([cmd, "--config", cfg_file]) == 0
    trials = parse_trials(Path(pairs["trials"]).read_text().splitlines(), pairs["trials"])
    return pairs, cfg_file, trials


@pytest.mark.parametrize("position", [0, 13, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("system", ["dnn", "baseline"])
def test_cli_score_names_the_first_non_finite_score_of_either_system(
        tmp_path, capsys, monkeypatch, trained_experiment, system, value, position):
    pairs, cfg_file, trials = trained_experiment
    out = tmp_path / "out"
    shutil.copytree(pairs["out"], out)
    before = _tree_hashes(out)
    index = position % len(trials)
    _nan_at_trial(monkeypatch, system, index, value)
    capsys.readouterr()
    assert main(["score", "--config", cfg_file, "--override", f"out={out}"]) == 1
    assert capsys.readouterr().err == (
        f"spkdbn: stage score: non-finite {system} score {float(value)!r} for trial "
        f"'{trials.models[index]} {trials.tests[index]}'\n")
    assert _tree_hashes(out) == before        # no score file, report or DET file


@pytest.mark.parametrize("command", ["run", "score-baseline", "fuse", "evaluate"])
def test_cli_a_nan_score_stops_every_command_that_runs_the_score_stage(
        tmp_path, capsys, monkeypatch, trained_experiment, command):
    pairs, cfg_file, trials = trained_experiment
    out = tmp_path / "out"
    shutil.copytree(pairs["out"], out)
    before = _tree_hashes(out)
    _nan_at_trial(monkeypatch, "dnn", 13)
    capsys.readouterr()
    assert main([command, "--config", cfg_file, "--override", f"out={out}"]) == 1
    assert capsys.readouterr().err == (
        f"spkdbn: stage score: non-finite dnn score nan for trial "
        f"'{trials.models[13]} {trials.tests[13]}'\n")
    assert _tree_hashes(out) == before


def test_cli_balance_stage_uses_the_configured_n_and_clusters_the_selected_rows(tmp_path):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["balance", "--config", cfg_file]) == 0
    background = read_embeddings(pairs["background"])
    targets = [v.mean(axis=0).tolist() for v in read_embeddings(pairs["enroll"]).by_speaker().values()]
    kappa, n = int(pairs["impostor_kappa"]), ExperimentConfig.impostor_n
    selected, freqs = select_impostors_oracle(targets, background.vectors.tolist(), n, kappa)
    lines = (tmp_path / "exp" / "out" / "selected_impostors.txt").read_text().splitlines()
    assert lines == [f"{background.ids[i]} {freqs[i]}" for i in selected]
    # kappa=60 keeps every impostor that a top-10 list names: N * T picks in all
    assert sum(int(line.split()[1]) for line in lines) == n * len(targets)
    # the centroids cluster the kappa selected rows, not the whole background
    cfg = resolve_config(pairs)
    want = kmeans_cosine(background.vectors[selected], cfg.num_centroids,
                         seed=derive_seed(cfg.master_seed, "kmeans"))
    got = load_arrays(tmp_path / "exp" / "out" / "centroids.npz", "centroids")["centroids"]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_cli_score_names_a_truncated_model_file(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp")
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()))
    assert main(["run", "--config", str(cfg_file)]) == 0
    out = tmp_path / "exp" / "out"
    model = out / "models" / "spk0003.dnn"
    model.write_bytes(model.read_bytes()[:100])
    os.remove(out / "scores_dnn.txt")
    capsys.readouterr()
    assert main(["score", "--config", str(cfg_file)]) == 1
    assert str(model) in capsys.readouterr().err


def test_cli_train_speakers_rejects_a_centroids_file_of_another_format(
        tmp_path, capsys, trained_experiment):
    pairs, cfg_file, _ = trained_experiment
    out = tmp_path / "out"
    shutil.copytree(pairs["out"], out)
    save_arrays(out / "centroids.npz", "whitener", centroids=np.ones((12, 50)))
    os.remove(out / "models" / "spk0000.dnn")
    capsys.readouterr()
    assert main(["train-speakers", "--config", cfg_file, "--override", f"out={out}"]) == 1
    assert capsys.readouterr().err == (
        f"spkdbn: stage train-speakers: {out / 'centroids.npz'}: expected a centroids file, "
        "format tag is 'whitener'\n")


def _scores_by_trial(path, rename):
    """{(model, test): score text} of a score file, a model renamed by `rename`."""
    return {(rename.get(m, m), t): score
            for m, t, score in (line.split() for line in Path(path).read_text().splitlines())}


def test_renaming_a_speaker_changes_only_what_its_label_reaches(tmp_path):
    # The label seeds the speaker's model and orders the trial list, so the
    # renamed model, the score files, the DNN and fused reports and the stamp
    # differ; nothing else does, and no other speaker's scores move.
    runs = {}
    for label in ("spk0002", "zzz0002"):
        pairs = make_experiment(tmp_path / label, num_speakers=5)
        for name in ("enroll", "trials"):
            text = Path(pairs[name]).read_text()
            Path(pairs[name]).write_text(re.sub(r"(^|(?<= ))spk0002(?= )", label, text,
                                                flags=re.M))
        assert main(["run", "--config", _write_config(tmp_path / f"{label}.cfg", pairs)]) == 0
        runs[label] = Path(pairs["out"])
    a, b = _tree_hashes(runs["spk0002"]), _tree_hashes(runs["zzz0002"])
    same = {name for name in a if a[name] == b.get(name)}
    assert same == {*(f"models/spk{s:04d}.dnn" for s in (0, 1, 3, 4)), "udbn_norm.dbn",
                    "whitener.npz", "selected_impostors.txt", "centroids.npz",
                    "report_baseline.txt", "det_dnn.csv", "det_baseline.csv", "det_fused.csv"}
    assert set(b) - set(a) == {"models/zzz0002.dnn"}
    for system, renamed in (("baseline", None), ("dnn", "spk0002")):
        want = _scores_by_trial(runs["spk0002"] / f"scores_{system}.txt", {})
        got = _scores_by_trial(runs["zzz0002"] / f"scores_{system}.txt", {"zzz0002": "spk0002"})
        assert got.keys() == want.keys()
        assert ({k: v for k, v in got.items() if k[0] != renamed}
                == {k: v for k, v in want.items() if k[0] != renamed})


def test_cli_multi_task_trains_a_speaker_with_fewer_sessions(tmp_path):
    pairs = make_experiment(tmp_path / "exp", num_speakers=6) | {"task": "multi"}
    # 8 sessions per speaker (the multi impostor group size), spk0004 has 7
    sessions = generate_synthetic(SynthConfig(6, 8, 50, 1.0, 0.2, seed=5))
    save_embeddings(subset(sessions, lambda utt: utt != "spk0004_sess007"), pairs["enroll"])
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    for cmd in STAGE_COMMANDS[:3]:
        assert main([cmd, "--config", cfg_file]) == 0, cmd
    models = sorted(p.name for p in (tmp_path / "exp" / "out" / "models").glob("*.dnn"))
    assert models == [f"spk{s:04d}.dnn" for s in range(6)]


def test_cli_score_baseline_bytes_match_the_per_trial_definition(tmp_path):
    pairs = make_experiment(tmp_path / "exp", num_speakers=3) | {"task": "multi"}
    # speakers enroll 1, 2 and 5 sessions; every test id is scored under all three
    full = generate_synthetic(SynthConfig(3, 8, 50, 1.0, 0.2, seed=5))
    sessions = {"spk0000": 1, "spk0001": 2, "spk0002": 5}
    enroll = subset(full, lambda utt: int(utt[-3:]) < sessions[utt[:7]])
    test = subset(full, lambda utt: int(utt[-3:]) >= 5)
    save_embeddings(enroll, pairs["enroll"])
    save_embeddings(Dataset(test.ids, (None,) * len(test), test.vectors), pairs["test"])
    with open(pairs["trials"], "w") as fh:
        for spk in sessions:
            for utt, test_spk in zip(test.ids, test.speakers):
                fh.write(f"{spk} {utt} {'target' if test_spk == spk else 'nontarget'}\n")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 0

    w = fit_whitener(read_embeddings(pairs["background"]).vectors)

    def unit(v):
        return v / np.linalg.norm(v)

    want = []
    for spk in sessions:
        enrolled = enroll.vectors[[s == spk for s in enroll.speakers]]
        model = unit(np.stack([w.transform @ (e - w.mean) for e in enrolled]).mean(axis=0))
        for utt, t in zip(test.ids, test.vectors):
            score = cosine_bits_oracle(model, unit(w.transform @ (t - w.mean)))
            want.append(f"{spk} {utt} {'%.17g' % score}\n")
    assert (tmp_path / "exp" / "out" / "scores_baseline.txt").read_text() == "".join(want)


@pytest.mark.parametrize("trial, message", [
    ("spk0001 nosuchutt nontarget", "unknown utterance id 'nosuchutt'"),
    ("spk9999 spk0001_sess001 nontarget", "trial model 'spk9999' is not an enrolled speaker"),
    ("spk9999 nosuchutt nontarget", "trial model 'spk9999' is not an enrolled speaker"),
])
def test_cli_trial_naming_an_unknown_id_is_reported(tmp_path, capsys, trial, message):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    with open(pairs["trials"], "a") as fh:
        fh.write(trial + "\n")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 1
    assert f"stage score: {message}" in capsys.readouterr().err
    assert main(["score-baseline", "--config", cfg_file]) == 1    # runs the score stage
    assert f"stage score: {message}" in capsys.readouterr().err


def _drop_last_value(text):
    """An embedding file's text with the last value of every record removed."""
    return "".join(line if line.startswith("#") else line.rsplit(" ", 1)[0] + "\n"
                   for line in text.splitlines(keepends=True))


# fault -> (the input it edits, the edit, the stages recorded before the
# failing one, and that stage's message, which names both files)
LATE_FAULTS = {
    "enroll-dimension": ("enroll", _drop_last_value, ["train-udbn"],
                         "balance: {enroll} has dimension 49, {background} has 50"),
    "test-dimension": ("test", _drop_last_value, list(STAGE_COMMANDS[:3]),
                       "score: {test} has dimension 49, {enroll} has 50"),
    "trial-utterance": ("trials", lambda text: text + "spk0001 nosuch_utt nontarget\n",
                        list(STAGE_COMMANDS[:3]),
                        "score: unknown utterance id 'nosuch_utt' in {trials}: "
                        "no such utterance in {test}"),
}


@pytest.mark.parametrize("fault", LATE_FAULTS)
def test_cli_an_input_that_disagrees_with_another_names_both_files(tmp_path, capsys, fault):
    name, edit, recorded, message = LATE_FAULTS[fault]
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    path = Path(pairs[name])
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path / "exp.cfg", pairs)]) == 1
    assert capsys.readouterr().err == f"spkdbn: stage {message.format(**pairs)}\n"
    assert (Path(pairs["out"]) / "stamp").read_text().splitlines()[1:] == recorded


def test_cli_a_byte_that_is_not_utf8_names_the_file_and_line(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    lines = Path(pairs["test"]).read_bytes().splitlines(keepends=True)
    assert lines[2].startswith(b"spk0000_sess002 ")
    lines[2] = b"spk00\xff" + lines[2][6:]
    Path(pairs["test"]).write_bytes(b"".join(lines))
    capsys.readouterr()
    assert main(["run", "--config", _write_config(tmp_path / "exp.cfg", pairs)]) == 1
    assert capsys.readouterr().err == (
        f"spkdbn: stage score: {pairs['test']}:3: not UTF-8 text (byte 0xff at column 6)\n")


def test_cli_tab_separated_inputs_give_the_same_outputs(tmp_path):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    assert main(["run", "--config", _write_config(tmp_path / "exp.cfg", pairs)]) == 0
    tabbed = pairs | {"out": str(tmp_path / "tabbed")}
    for name in cli._INPUTS:
        tabbed[name] = str(tmp_path / f"tabbed_{name}.txt")
        Path(tabbed[name]).write_text(Path(pairs[name]).read_text().replace(" ", "\t"))
    assert main(["run", "--config", _write_config(tmp_path / "tabbed.cfg", tabbed)]) == 0
    want, got = _tree_hashes(Path(pairs["out"])), _tree_hashes(tmp_path / "tabbed")
    assert want.pop("stamp") != got.pop("stamp")     # the stamp hashes the input bytes
    assert got == want


def test_cli_repeated_trial_pair_is_reported(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    with open(pairs["trials"], "a") as fh:
        fh.write("spk0001 spk0002_sess001 target\n")  # line 13 lists it as nontarget
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 1
    assert (f"stage score: {pairs['trials']}:33: trial 'spk0001 spk0002_sess001' repeats line 13"
            in capsys.readouterr().err)


@pytest.mark.parametrize("name", ["trials", "enroll", "test"])
def test_cli_input_row_order_does_not_change_the_outputs(tmp_path, name):
    # only the background's row order fixes the UDBN, the impostors and the models
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    lines = Path(pairs[name]).read_text().splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines if not line.startswith("#")]
    shuffled = tmp_path / f"shuffled_{name}.txt"
    order = np.random.default_rng(0).permutation(len(rows))
    shuffled.write_text("".join(header + [rows[i] for i in order]))
    run_pipeline(resolve_config(pairs))
    run_pipeline(resolve_config(pairs | {name: str(shuffled), "out": str(tmp_path / "out")}))
    want, got = ({path: h for path, h in _tree_hashes(root).items() if path != "stamp"}
                 for root in (Path(pairs["out"]), tmp_path / "out"))
    assert len(want) == 17 and got == want


INPUTS = ("background", "enroll", "test", "trials")


def test_run_opens_each_input_twice_and_parses_it_once(tmp_path, monkeypatch):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    name_of = {pairs[key]: key for key in INPUTS}
    opens, parses = Counter(), Counter()
    real_open = builtins.open

    def spy_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) in name_of:
            opens[name_of[os.fspath(file)]] += 1
        return real_open(file, *args, **kwargs)

    def counted(parse):
        def wrapper(lines, path):
            parses[name_of[path]] += 1
            return parse(lines, path)
        return wrapper

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(cli, "parse_embeddings", counted(cli.parse_embeddings))
    monkeypatch.setattr(cli.evaluation, "parse_trials", counted(cli.evaluation.parse_trials))
    assert main(["run", "--config", cfg_file]) == 0
    assert opens == dict.fromkeys(INPUTS, 2)   # hashed once, parsed once
    assert parses == dict.fromkeys(INPUTS, 1)


def test_stage_subcommands_parse_the_background_only_in_the_setup_stages(tmp_path, monkeypatch):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    name_of = {pairs[key]: key for key in INPUTS}
    parses = []
    parse = cli.parse_embeddings

    def spy(lines, path):
        parses.append((command, name_of[path]))
        return parse(lines, path)

    monkeypatch.setattr(cli, "parse_embeddings", spy)
    for command in STAGE_COMMANDS:
        assert main([command, "--config", cfg_file]) == 0, command
    assert [cmd for cmd, name in parses if name == "background"] == ["train-udbn", "balance"]


def test_score_parses_trials_and_test_once_and_reads_no_score_file(tmp_path, monkeypatch):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    for cmd in STAGE_COMMANDS[:3]:
        assert main([cmd, "--config", cfg_file]) == 0
    name_of = {pairs[key]: key for key in INPUTS}
    parses, reads = Counter(), []
    real_open = builtins.open

    def spy_open(file, mode="r", *args, **kwargs):
        if (isinstance(file, (str, os.PathLike)) and "w" not in mode
                and os.path.basename(file).startswith("scores_")):
            reads.append(os.fspath(file))
        return real_open(file, mode, *args, **kwargs)

    def counted(parse):
        def wrapper(lines, path):
            parses[name_of[path]] += 1
            return parse(lines, path)
        return wrapper

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(cli, "parse_embeddings", counted(cli.parse_embeddings))
    monkeypatch.setattr(cli.evaluation, "parse_trials", counted(cli.evaluation.parse_trials))
    assert main(["score", "--config", cfg_file]) == 0
    assert parses == {"trials": 1, "test": 1, "enroll": 1}
    assert reads == []


@pytest.mark.parametrize("command", ["balance", "select-impostors", "cluster"])
def test_balance_parses_the_background_once_and_reads_back_no_impostor_list(tmp_path, monkeypatch,
                                                                           command):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["train-udbn", "--config", cfg_file]) == 0
    name_of = {pairs[key]: key for key in INPUTS}
    parses, reads = Counter(), []
    real_open = builtins.open

    def spy_open(file, mode="r", *args, **kwargs):
        if (isinstance(file, (str, os.PathLike)) and "w" not in mode
                and os.path.basename(file) == "selected_impostors.txt"):
            reads.append(os.fspath(file))
        return real_open(file, mode, *args, **kwargs)

    def counted(lines, path):
        parses[name_of[path]] += 1
        return parse(lines, path)

    parse = cli.parse_embeddings
    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(cli, "parse_embeddings", counted)
    assert main([command, "--config", cfg_file]) == 0
    assert parses == {"background": 1, "enroll": 1}
    assert reads == []
    assert (tmp_path / "exp" / "out" / "stamp").read_text().splitlines()[1:] == [
        "train-udbn", "balance"]


@pytest.mark.parametrize("spelling", ["dot", "absolute", "parent"])
@pytest.mark.parametrize("key", INPUTS)
def test_a_second_spelling_of_an_input_path_resumes_without_a_mismatch(tmp_path, monkeypatch,
                                                                        key, spelling):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    monkeypatch.chdir(tmp_path)
    relative = {k: f"exp/{k}.txt" for k in INPUTS}
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs | relative | {"out": "out"})
    respelled = {"dot": f"./exp/{key}.txt", "absolute": str(tmp_path / "exp" / f"{key}.txt"),
                 "parent": f"exp/../exp/{key}.txt"}[spelling]
    assert main(["train-udbn", "--config", cfg_file]) == 0
    assert main(["balance", "--config", cfg_file, "--override", f"{key}={respelled}"]) == 0
    assert (tmp_path / "out" / "stamp").read_text().splitlines()[1:] == ["train-udbn", "balance"]


@pytest.mark.parametrize("retired", sorted(RETIRED))
def test_retired_subcommand_runs_its_merged_stage(tmp_path, retired):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    stage = RETIRED[retired]
    for cmd in STAGE_COMMANDS[:STAGE_COMMANDS.index(stage)]:
        assert main([cmd, "--config", cfg_file]) == 0
    out = tmp_path / "exp" / "out"
    before = set(_tree_hashes(out))
    assert main([retired, "--config", cfg_file]) == 0
    made = _tree_hashes(out)
    assert (out / "stamp").read_text().splitlines()[-1] == stage
    assert len(set(made) - before - {"stamp"}) == (2 if stage == "balance" else 9)
    # a missing artifact of the merged stage makes the retired name re-run it
    os.remove(out / ("selected_impostors.txt" if stage == "balance" else "det_baseline.csv"))
    assert main([retired, "--config", cfg_file]) == 0
    assert _tree_hashes(out) == made


def test_input_rewritten_after_the_stamp_fails_the_stage_that_parses_it(tmp_path, monkeypatch,
                                                                         capsys):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    original = (tmp_path / "exp" / "background.txt").read_bytes()
    background = read_embeddings(pairs["background"])
    real_stage = cli._stage

    def rewrite_before_train_udbn(name, *args):
        if name == "train-udbn":
            save_embeddings(Dataset(background.ids, background.speakers, -background.vectors),
                            pairs["background"])
        return real_stage(name, *args)

    monkeypatch.setattr(cli, "_stage", rewrite_before_train_udbn)
    assert main(["run", "--config", cfg_file]) == 1
    err = capsys.readouterr().err
    assert f"stage train-udbn: input file {pairs['background']} changed" in err
    assert os.listdir(pairs["out"]) == []     # no artifact and no stamp

    # On the restored bytes the stage trains afresh, as in a new directory.
    monkeypatch.undo()
    (tmp_path / "exp" / "background.txt").write_bytes(original)
    assert main(["train-udbn", "--config", cfg_file]) == 0
    fresh = tmp_path / "fresh"
    assert main(["train-udbn", "--config", cfg_file, "--override", f"out={fresh}"]) == 0
    for name in ("udbn_norm.dbn", "whitener.npz"):
        assert _file_hash(fresh / name) == _file_hash(os.path.join(pairs["out"], name)), name


def test_crlf_inputs_give_identical_scores_reports_and_det_files(tmp_path):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    crlf = dict(pairs, out=str(tmp_path / "crlf_out"))
    for key in INPUTS:
        crlf[key] = str(tmp_path / f"crlf_{key}.txt")
        with open(pairs[key], "rb") as src, open(crlf[key], "wb") as dst:
            dst.write(src.read().replace(b"\n", b"\r\n"))
    run_pipeline(resolve_config(pairs))
    run_pipeline(resolve_config(crlf))
    for system in ("dnn", "baseline", "fused"):
        for name in (f"scores_{system}.txt", f"report_{system}.txt", f"det_{system}.csv"):
            assert _file_hash(os.path.join(crlf["out"], name)) == \
                _file_hash(os.path.join(pairs["out"], name)), name


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_jobs_below_one(tmp_path, capsys, jobs):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    with pytest.raises(SystemExit) as exit_info:
        main(["train-udbn", "--config", cfg_file, "--jobs", jobs])
    assert exit_info.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not os.path.exists(pairs["out"])


def test_train_speakers_starts_at_most_one_worker_per_speaker(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    for cmd in STAGE_COMMANDS[:2]:
        assert main([cmd, "--config", cfg_file]) == 0
    assert main(["train-speakers", "--config", cfg_file, "--jobs", "64"]) == 0
    assert sizes == [4]


def test_speakers_with_identical_enrollment_get_different_models(tmp_path):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    enroll = read_embeddings(pairs["enroll"])
    vectors = enroll.vectors.copy()
    vectors[1] = vectors[0]
    save_embeddings(Dataset(enroll.ids, enroll.speakers, vectors), pairs["enroll"])
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    for cmd in STAGE_COMMANDS[:3]:
        assert main([cmd, "--config", cfg_file]) == 0
    models = tmp_path / "exp" / "out" / "models"
    a, b = enroll.speakers[:2]
    assert a != b
    assert _file_hash(models / f"{a}.dnn") != _file_hash(models / f"{b}.dnn")


@pytest.mark.parametrize("label", ["../escaped", "a/b", "{tmp_path}/abs/x"])
def test_a_speaker_label_with_a_path_separator_is_rejected(tmp_path, capsys, label):
    # A label names its model file, models/<label>.dnn: one with a separator
    # would write the model into another directory, or outside out/.
    label = label.format(tmp_path=tmp_path)
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    enroll = read_embeddings(pairs["enroll"])
    old = enroll.speakers[0]
    speakers = tuple(label if s == old else s for s in enroll.speakers)
    save_embeddings(Dataset(enroll.ids, speakers, enroll.vectors), pairs["enroll"])
    trials = Path(pairs["trials"])
    lines = trials.read_text().splitlines(keepends=True)
    trials.write_text("".join(label + line[len(old):] if line.split()[0] == old else line
                              for line in lines))
    assert main(["run", "--config", _write_config(tmp_path / "exp.cfg", pairs)]) == 1
    err = capsys.readouterr().err
    assert repr(label) in err and pairs["enroll"] in err, err
    models = Path(pairs["out"]) / "models"
    assert [p for p in tmp_path.rglob("*.dnn") if models not in p.parents] == []


def test_training_a_speaker_holds_one_network_and_one_momentum_state(tmp_path):
    # A 100-512-512-2 network is 315,394 float64 weights and biases,
    # 2,523,152 bytes.  Its momentum state holds as many again in dW and db,
    # plus the gW and step blocks, 2 * (64*512 + 64*512 + 512*2) float64 =
    # 1,064,960 bytes.  The largest transient is one 512x512 weight matrix,
    # 2,097,152 bytes, as the buffer that saving it makes.  One more copy of
    # the weights (2,506,752 bytes) crosses the bound.
    rng = np.random.default_rng(0)
    layers = [RbmParams(kind, rng.uniform(-0.01, 0.01, size=(n, 512)), np.zeros(n), np.zeros(512))
              for kind, n in (("gaussian", 100), ("bernoulli", 512))]
    save_dbn(DbnParams(layers, normalized=True), tmp_path / "udbn_norm.dbn")
    (tmp_path / "models").mkdir()
    cfg = ExperimentConfig(out=str(tmp_path), task="single", depth=2, init_mode="dbn",
                           adapt_lr=(0.001, 0.0001), adapt_epochs=(1, 1), ft_epochs=2)
    task = (cfg, "spk", rng.normal(size=(1, 100)), rng.normal(size=(12, 100)))
    tracemalloc.start()
    try:
        cli._train_one_speaker(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_523_152 + (2_523_152 + 1_064_960) + 2_097_152, peak


def test_cli_import_and_an_eer_load_no_scipy_and_no_numpy_ma():
    # modules `import numpy` itself loads (numpy.ma, on numpy 1.x) are not counted
    code = (
        "import sys, numpy\n"
        "preloaded = set(sys.modules)\n"
        "import spkdbn.cli\n"
        "from spkdbn.evaluation import evaluate_trials\n"
        "evaluate_trials([1.0, 2.0, 0.5], ['target', 'nontarget', 'target']).eer\n"
        "print(*sorted(m for m in set(sys.modules) - preloaded\n"
        "              if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = Path(cli.__file__).parents[1]
    result = subprocess.run([sys.executable, "-c", code], env=os.environ | {"PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == []
