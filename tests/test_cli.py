import builtins
import hashlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import make_experiment, subset
from spkdbn import cli
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
from spkdbn.balance import ImpostorSelectionConfig, impostor_frequencies, select_impostors
from spkdbn.embeddings import (
    Dataset,
    SynthConfig,
    average_embeddings,
    generate_synthetic,
    load_embeddings,
    save_embeddings,
)
from spkdbn.evaluation import load_trials, save_scores
from spkdbn.udbn import load_dbn, normalize_udbn

STAGE_COMMANDS = ("train-udbn", "select-impostors", "cluster", "train-speakers",
                  "score", "score-baseline", "fuse", "evaluate")


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
    assert multi.grbm_lr == 0.014
    assert multi.hidden_size == 512
    assert multi.ft_weight_decay == 0.0012


# config_hash of each preset with no other key set.  A preset holds only
# the values that differ from the ExperimentConfig field defaults, so these
# digests also change when a default that a preset relies on changes.
PRESET_HASHES = {
    ("single", 1): "fbd55e591d2c0063b18d65a9600381ba5f932455439698513791135d87ce4500",
    ("single", 2): "78c902309ff9ea9cb98d977b1f324ba901835c1034ca7b7d2eb52fb3869c2853",
    ("single", 3): "07016ebf738daf8228e9e24407342b134e65a70a459a1db1bd35c4e7acc8b26f",
    ("multi", 1): "412fca4429f37e2d0548583848da84feb06f587f411fcff12455f625e69537d5",
    ("multi", 2): "5953e5d1b9b00f58c0798fe6500c685628e936166b8880343441ffea32ed2de2",
    ("multi", 3): "bc831f834dcaecdf817deba478641430575041b5efd124eb132dd8cadefe757d",
}


@pytest.mark.parametrize("task, depth", sorted(PRESET_HASHES))
def test_preset_config_hash_is_pinned(task, depth):
    cfg = resolve_config({"task": task, "depth": str(depth)})
    assert config_hash(cfg) == PRESET_HASHES[(task, depth)]


def test_config_file_rejects_a_repeated_key(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("out=a\n# comment\ntask=single\nout=b\n")
    with pytest.raises(ValueError, match=re.escape(f"{cfg_file}:4: key 'out' repeats line 1")):
        parse_config_file(cfg_file)
    assert main(["run", "--config", str(cfg_file)]) == 1
    assert "key 'out' repeats line 1" in capsys.readouterr().err


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
    for name in ("udbn.dbn", "udbn_norm.dbn", "selected_impostors.txt", "centroids.txt",
                 "scores_dnn.txt", "scores_baseline.txt", "scores_fused.txt",
                 "report_dnn.txt", "det_dnn.csv"):
        assert (out / name).exists(), name
    assert (out / "models" / "spk0000.dnn").exists()
    assert not list(out.glob("whitener*"))  # the baseline's whitener is not stored
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
    test = load_embeddings(pairs["test"])
    save_embeddings(Dataset(test.ids, test.speakers, -test.vectors), pairs["test"])
    capsys.readouterr()
    assert main(["run", "--config", cfg_file]) == 1
    assert "an input file changed" in capsys.readouterr().err
    assert _tree_hashes(out) == before


def test_cli_gen_synth_and_subcommands(tmp_path, capsys):
    out = tmp_path / "bg.txt"
    rc = main(["gen-synth", "--speakers", "3", "--sessions", "2", "--dim", "5",
               "--seed", "1", "--unlabeled", "--out", str(out)])
    assert rc == 0
    ds = load_embeddings(out)
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
    assert "models/spk0000.dnn.hash" in whole
    assert _tree_hashes(out) == whole


def test_cli_stage_writes_only_its_own_artifacts(tmp_path):
    pairs = make_experiment(tmp_path / "exp")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["train-udbn", "--config", cfg_file]) == 0
    assert sorted(os.listdir(tmp_path / "exp" / "out")) == [
        "udbn.dbn", "udbn.dbn.hash", "udbn_norm.dbn", "udbn_norm.dbn.hash"]


def test_cli_writes_the_normalized_udbn(tmp_path):
    pairs = make_experiment(tmp_path / "exp") | {"depth": "2"}
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["train-udbn", "--config", cfg_file]) == 0
    written = load_dbn(tmp_path / "exp" / "out" / "udbn_norm.dbn")
    expected = normalize_udbn(load_dbn(tmp_path / "exp" / "out" / "udbn.dbn"))
    assert written.normalized and expected.normalized
    assert len(written.layers) == len(expected.layers) == 2
    for got, want in zip(written.layers, expected.layers):
        assert got.visible_kind == want.visible_kind
        for name in ("W", "b_vis", "b_hid"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_cli_stage_before_its_inputs_fails(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["cluster", "--config", cfg_file]) == 1
    assert "stage cluster" in capsys.readouterr().err


def test_cli_train_speakers_names_the_speaker_with_bad_enrollment(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    enroll = load_embeddings(pairs["enroll"])
    second = enroll.by_speaker()["spk0005"] + 0.01
    save_embeddings(Dataset(enroll.ids + ("spk0005_sess000b",), enroll.speakers + ("spk0005",),
                            np.vstack([enroll.vectors, second])), pairs["enroll"])
    for cmd in STAGE_COMMANDS[:3]:
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


@pytest.mark.parametrize("bad", [
    {"ft_momentum": "1"},
    {"ft_epochs": "-1"},
    {"adapt_momentum": "1.5"},
    {"depth": "2", "adapt_lr": "0.001"},   # single-2L adapts two layers
    {"adapt_epochs": "0"},
    {"adapt_layers": "2"},                 # depth 1
    {"adapt_layers": "-1"},
    {"num_centroids": "13"},               # 3 minibatches
    {"num_centroids": "0"},
    {"impostor_kappa": "6"},               # fewer impostors than the 12 centroids
    {"impostor_n": "0"},
    {"impostor_kappa": "0"},
    {"grbm_epochs": "0"},
    {"hidden_size": "0"},
    {"ft_weight_decay": "-1"},
    {"ft_lr": "nan"},
    {"grbm_lr": "nan"},
    {"adapt_weight_decay": "inf"},
], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
def test_cli_run_rejects_a_bad_training_value_before_any_stage(tmp_path, capsys, bad):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4) | bad
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 1
    assert "stage config:" in capsys.readouterr().err
    assert not os.path.exists(pairs["out"])


@pytest.mark.parametrize("too_large, message", [
    ({"impostor_n": "1000"}, "impostor_n=1000 exceeds the 200 background vectors"),
    ({"impostor_kappa": "300", "num_centroids": "201"}, "num_centroids=201 exceeds"),
], ids=["impostor_n", "num_centroids"])
def test_cli_value_too_large_for_the_background_fails_before_the_udbn_is_stamped(
        tmp_path, capsys, too_large, message):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)   # 200 background vectors
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs | too_large)
    assert main(["run", "--config", cfg_file]) == 1
    assert f"stage train-udbn: {message}" in capsys.readouterr().err
    assert os.listdir(pairs["out"]) == []     # no artifact and no stamp

    # The corrected config resumes in the same directory.
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 0
    assert os.path.exists(os.path.join(pairs["out"], "report_fused.txt"))


def test_cli_evaluate_rejects_a_nan_score(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    out = tmp_path / "exp" / "out"
    out.mkdir()
    trials = load_trials(pairs["trials"])
    scores = np.arange(len(trials), dtype=float)
    for system in ("dnn", "baseline", "fused"):
        save_scores(scores, trials, out / f"scores_{system}.txt")
    assert main(["evaluate", "--config", cfg_file]) == 0
    lines = (out / "scores_baseline.txt").read_text().splitlines()
    lines[5] = lines[5].rsplit(" ", 1)[0] + " nan"
    (out / "scores_baseline.txt").write_text("\n".join(lines) + "\n")
    os.remove(out / "report_baseline.txt")
    capsys.readouterr()
    assert main(["evaluate", "--config", cfg_file]) == 1
    assert (f"stage evaluate: {out / 'scores_baseline.txt'}:6: non-finite score 'nan'"
            in capsys.readouterr().err)
    assert not (out / "report_baseline.txt").exists()


def test_cli_fuse_rejects_a_nan_score_by_line(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    out = tmp_path / "exp" / "out"
    out.mkdir()
    trials = load_trials(pairs["trials"])
    for system in ("dnn", "baseline"):
        save_scores(np.arange(len(trials), dtype=float), trials, out / f"scores_{system}.txt")
    lines = (out / "scores_dnn.txt").read_text().splitlines()
    lines[6] = lines[6].rsplit(" ", 1)[0] + " nan"
    (out / "scores_dnn.txt").write_text("\n".join(lines) + "\n")
    assert main(["fuse", "--config", cfg_file]) == 1
    assert (f"stage fuse: {out / 'scores_dnn.txt'}:7: non-finite score 'nan'"
            in capsys.readouterr().err)
    assert not (out / "scores_fused.txt").exists()


def test_cli_select_impostors_stage_uses_the_configured_n(tmp_path):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4) | {"impostor_n": "3"}
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["select-impostors", "--config", cfg_file]) == 0
    background = load_embeddings(pairs["background"])
    targets = [average_embeddings(v) for v in load_embeddings(pairs["enroll"]).by_speaker().values()]
    kappa = int(pairs["impostor_kappa"])
    selected = select_impostors(targets, background.vectors, ImpostorSelectionConfig(3, kappa))
    freqs = impostor_frequencies(targets, background.vectors, 3)
    lines = (tmp_path / "exp" / "out" / "selected_impostors.txt").read_text().splitlines()
    assert lines == [f"{background.ids[i]} {freqs[i]}" for i in selected]
    # kappa=60 keeps every impostor that a top-3 list names: N * T picks in all
    assert sum(int(line.split()[1]) for line in lines) == 3 * len(targets)


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


def test_cli_multi_task_trains_a_speaker_with_fewer_sessions(tmp_path):
    pairs = make_experiment(tmp_path / "exp", num_speakers=6) | {"task": "multi"}
    # 8 sessions per speaker (the multi impostor group size), spk0004 has 7
    sessions = generate_synthetic(SynthConfig(6, 8, 50, 1.0, 0.2, seed=5))
    save_embeddings(subset(sessions, lambda utt: utt != "spk0004_sess007"), pairs["enroll"])
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    for cmd in STAGE_COMMANDS[:4]:
        assert main([cmd, "--config", cfg_file]) == 0, cmd
    out = tmp_path / "exp" / "out"
    assert (out / "models.txt").read_text().split() == [f"spk{s:04d}" for s in range(6)]
    assert (out / "models" / "spk0004.dnn").exists()


@pytest.mark.parametrize("trial, message", [
    ("spk0001 nosuchutt nontarget", "unknown utterance id 'nosuchutt'"),
    ("spk9999 spk0001_sess001 nontarget", "trial model 'spk9999' is not an enrolled speaker"),
])
def test_cli_trial_naming_an_unknown_id_is_reported(tmp_path, capsys, trial, message):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    with open(pairs["trials"], "a") as fh:
        fh.write(trial + "\n")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 1
    assert f"stage score: {message}" in capsys.readouterr().err
    assert main(["score-baseline", "--config", cfg_file]) == 1
    assert f"stage score-baseline: {message}" in capsys.readouterr().err


def test_cli_repeated_trial_pair_is_reported(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    with open(pairs["trials"], "a") as fh:
        fh.write("spk0001 spk0002_sess001 target\n")  # line 13 lists it as nontarget
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["run", "--config", cfg_file]) == 1
    assert (f"stage score: {pairs['trials']}:33: trial 'spk0001 spk0002_sess001' repeats line 13"
            in capsys.readouterr().err)


def test_cli_trial_order_does_not_change_the_outputs(tmp_path):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    with open(pairs["trials"]) as fh:
        lines = fh.readlines()
    shuffled = tmp_path / "shuffled_trials.txt"
    shuffled.write_text("".join(lines[i] for i in np.random.default_rng(0).permutation(len(lines))))
    run_pipeline(resolve_config(pairs))
    run_pipeline(resolve_config(pairs | {"trials": str(shuffled), "out": str(tmp_path / "out")}))
    for system in ("dnn", "baseline", "fused"):
        for name in (f"scores_{system}.txt", f"report_{system}.txt", f"det_{system}.csv"):
            assert _file_hash(tmp_path / "out" / name) == _file_hash(pairs["out"] + "/" + name)


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


def test_input_rewritten_after_the_stamp_fails_the_stage_that_parses_it(tmp_path, monkeypatch,
                                                                         capsys):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    original = (tmp_path / "exp" / "background.txt").read_bytes()
    background = load_embeddings(pairs["background"])
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
    assert _file_hash(fresh / "udbn.dbn") == _file_hash(os.path.join(pairs["out"], "udbn.dbn"))


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
    for cmd in STAGE_COMMANDS[:3]:
        assert main([cmd, "--config", cfg_file]) == 0
    assert main(["train-speakers", "--config", cfg_file, "--jobs", "64"]) == 0
    assert sizes == [4]


def test_speakers_with_identical_enrollment_get_different_models(tmp_path):
    pairs = make_experiment(tmp_path / "exp", num_speakers=4)
    enroll = load_embeddings(pairs["enroll"])
    vectors = enroll.vectors.copy()
    vectors[1] = vectors[0]
    save_embeddings(Dataset(enroll.ids, enroll.speakers, vectors), pairs["enroll"])
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    for cmd in STAGE_COMMANDS[:4]:
        assert main([cmd, "--config", cfg_file]) == 0
    models = tmp_path / "exp" / "out" / "models"
    a, b = enroll.speakers[:2]
    assert a != b
    assert _file_hash(models / f"{a}.dnn") != _file_hash(models / f"{b}.dnn")


def test_cli_import_and_an_eer_load_no_scipy_and_no_numpy_ma():
    # modules `import numpy` itself loads (numpy.ma, on numpy 1.x) are not counted
    code = (
        "import sys, numpy\n"
        "preloaded = set(sys.modules)\n"
        "import spkdbn.cli\n"
        "from spkdbn.evaluation import compute_eer\n"
        "compute_eer([1.0, 2.0, 0.5], ['target', 'nontarget', 'target'])\n"
        "print(*sorted(m for m in set(sys.modules) - preloaded\n"
        "              if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    src = Path(cli.__file__).parents[1]
    result = subprocess.run([sys.executable, "-c", code], env=os.environ | {"PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == []
