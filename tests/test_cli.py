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
from spkdbn.evaluation import load_scores


def _file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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


def test_cli_gen_synth_and_subcommands(tmp_path, capsys):
    out = tmp_path / "bg.txt"
    rc = main(["gen-synth", "--speakers", "3", "--sessions", "2", "--dim", "5",
               "--seed", "1", "--unlabeled", "--out", str(out)])
    assert rc == 0
    from spkdbn.embeddings import load_embeddings
    ds = load_embeddings(out)
    assert len(ds) == 6
    assert all(e.speaker_id is None for e in ds.embeddings)


def test_cli_run_and_stagewise_equivalence(tmp_path, capsys):
    pairs = make_experiment(tmp_path / "whole")
    cfg_file = tmp_path / "whole.cfg"
    cfg_file.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()))
    assert main(["run", "--config", str(cfg_file)]) == 0
    assert "dnn: eer=" in capsys.readouterr().out

    pairs2 = make_experiment(tmp_path / "staged")
    cfg_file2 = tmp_path / "staged.cfg"
    cfg_file2.write_text("".join(f"{k}={v}\n" for k, v in pairs2.items()))
    for cmd in ("train-udbn", "select-impostors", "cluster", "train-speakers",
                "score", "score-baseline", "fuse", "evaluate"):
        assert main([cmd, "--config", str(cfg_file2)]) == 0
    a = load_scores(tmp_path / "whole" / "out" / "scores_fused.txt")
    b = load_scores(tmp_path / "staged" / "out" / "scores_fused.txt")
    assert a == b


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
