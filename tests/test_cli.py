import hashlib
import os

import pytest

from conftest import make_experiment
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
from spkdbn.embeddings import Dataset, Embedding, load_embeddings, save_embeddings

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
    save_embeddings(Dataset.from_embeddings(
        [Embedding(e.utterance_id, e.speaker_id, -e.values) for e in test.embeddings]
    ), pairs["test"])
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
    assert all(e.speaker_id is None for e in ds.embeddings)


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


def test_cli_stage_before_its_inputs_fails(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    assert main(["cluster", "--config", cfg_file]) == 1
    assert "stage cluster" in capsys.readouterr().err


def test_cli_train_speakers_names_the_speaker_with_bad_enrollment(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "exp")
    cfg_file = _write_config(tmp_path / "exp.cfg", pairs)
    enroll = load_embeddings(pairs["enroll"]).embeddings
    second = [Embedding(e.utterance_id + "b", e.speaker_id, e.values + 0.01)
              for e in enroll if e.speaker_id == "spk0005"]
    save_embeddings(Dataset.from_embeddings(enroll + tuple(second)), pairs["enroll"])
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
