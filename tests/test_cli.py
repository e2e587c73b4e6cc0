import hashlib
import os

import numpy as np
import pytest

from conftest import make_experiment, subset
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
    generate_synthetic,
    load_embeddings,
    save_embeddings,
)
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
                 "whitener.npz", "scores_dnn.txt", "scores_baseline.txt", "scores_fused.txt",
                 "report_dnn.txt", "det_dnn.csv"):
        assert (out / name).exists(), name
    assert (out / "models" / "spk0000.dnn").exists()
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
