"""Pipeline orchestration and command-line interface.

Wires the full flow: background data -> universal DBN -> impostor
selection and clustering -> per-speaker adaptation and fine-tuning ->
LLR and cosine-baseline scoring -> fusion -> evaluation.  The stages
are declared once, in `STAGES`; `run` walks every entry and each stage
subcommand runs only its own.  Every stage persists its artifacts under
the output directory with a stamp that hashes the config and the
contents of the four input files, so re-runs skip completed stages; a
stamp that does not match (the config or an input file changed) aborts
the run instead of silently mixing results.

Configuration is a flat key=value text file; `--override key=value`
wins over the file, and preset defaults (per task and depth) fill
anything left unset.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import balance, dnn, evaluation, udbn
from .embeddings import (
    Dataset,
    SynthConfig,
    average_embeddings,
    fit_whitener,
    generate_synthetic,
    load_embeddings,
    save_embeddings,
    save_whitener,
)
from .presets import preset_defaults
from .rbm import RbmTrainConfig


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


_SYSTEMS = ("dnn", "baseline", "fused")


@dataclass(frozen=True)
class ExperimentConfig:
    # input/output paths
    background: str = ""
    enroll: str = ""
    test: str = ""
    trials: str = ""
    out: str = ""
    # experiment shape
    task: str = "single"
    depth: int = 1
    master_seed: int = 0
    init_mode: str = "dbn"  # dbn | random
    # UDBN pre-training
    hidden_size: int = 512
    grbm_lr: float = 0.014
    grbm_epochs: int = 200
    bb_lr: float = 0.06
    bb_epochs: int = 120
    rbm_momentum: float = 0.9
    rbm_weight_decay: float = 0.0002
    rbm_minibatch: int = 100
    # balanced training
    impostor_n: int = 10
    impostor_kappa: int = 2000
    num_minibatches: int = 3
    num_centroids: int = 12
    kmeans_max_iter: int = 100
    # adaptation
    adapt_layers: int = 1
    adapt_lr: tuple = (0.001,)
    adapt_epochs: tuple = (10,)
    adapt_momentum: float = 0.9
    adapt_weight_decay: float = 0.0002
    # fine-tuning
    ft_lr: float = 0.001
    ft_epochs: int = 30
    ft_momentum: float = 0.9
    ft_weight_decay: float = 0.0012

    def __post_init__(self):
        if self.task not in ("single", "multi"):
            raise ValueError(f"task must be 'single' or 'multi', got {self.task!r}")
        if not 1 <= self.depth <= 3:
            raise ValueError("depth must be in 1..3")
        if self.init_mode not in ("dbn", "random"):
            raise ValueError(f"init_mode must be 'dbn' or 'random', got {self.init_mode!r}")


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_TUPLE_FLOAT_KEYS = {"adapt_lr"}
_TUPLE_INT_KEYS = {"adapt_epochs"}


def _coerce(key: str, value: str):
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    if key in _TUPLE_FLOAT_KEYS:
        return tuple(float(x) for x in value.split(",") if x)
    if key in _TUPLE_INT_KEYS:
        return tuple(int(x) for x in value.split(",") if x)
    t = _FIELD_TYPES[key]
    if t in ("int", int):
        return int(value)
    if t in ("float", float):
        return float(value)
    return value


def parse_config_file(path) -> dict:
    pairs = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


def resolve_config(pairs: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Merge file pairs, overrides and preset defaults into a config."""
    merged = dict(pairs)
    merged.update(overrides or {})
    typed = {k: _coerce(k, v) for k, v in merged.items()}
    task = typed.get("task", "single")
    depth = typed.get("depth", 1)
    defaults = preset_defaults(task, depth)
    for key, value in defaults.items():
        typed.setdefault(key, value)
    return ExperimentConfig(**typed)


def config_hash(cfg: ExperimentConfig) -> str:
    parts = [f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(ExperimentConfig)]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def derive_seed(*parts) -> int:
    """Stable 64-bit stream seed from any printable parts."""
    h = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "little")


def _stamp_path(artifact: str) -> str:
    return artifact + ".hash"


def _run_stamp(cfg: ExperimentConfig) -> str:
    """Stamp for this config and these inputs: the config hash and the
    SHA-256 of the contents of each of the four input files."""
    stamp = hashlib.sha256(config_hash(cfg).encode())
    for path in (cfg.background, cfg.enroll, cfg.test, cfg.trials):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        stamp.update(digest.digest())
    return stamp.hexdigest()


def _stage(name: str, artifacts: list[str], stamp: str, fn) -> bool:
    """Run fn unless every artifact exists with a matching stamp.

    Returns True when the stage executed, False when skipped.  An
    existing artifact whose stamp disagrees with the current one is a
    hard error (resume after the config or an input file changed).
    """
    done = []
    for art in artifacts:
        stamp_path = _stamp_path(art)
        if os.path.exists(art) and os.path.exists(stamp_path):
            with open(stamp_path) as fh:
                recorded = fh.read().strip()
            if recorded != stamp:
                raise PipelineError(
                    f"stage {name}: config-hash mismatch on resume for {art}: the config "
                    "or an input file changed (clean the output directory or use a fresh one)"
                )
            done.append(True)
        else:
            done.append(False)
    if all(done):
        return False
    try:
        fn()
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage {name}: {exc}") from exc
    for art in artifacts:
        if not os.path.exists(art):
            raise PipelineError(f"stage {name}: expected artifact {art} was not produced")
        with open(_stamp_path(art), "w") as fh:
            fh.write(stamp + "\n")
    return True


@dataclass(frozen=True)
class _Paths:
    out: str

    @property
    def udbn(self): return os.path.join(self.out, "udbn.dbn")
    @property
    def udbn_norm(self): return os.path.join(self.out, "udbn_norm.dbn")
    @property
    def selected(self): return os.path.join(self.out, "selected_impostors.txt")
    @property
    def centroids(self): return os.path.join(self.out, "centroids.txt")
    @property
    def whitener(self): return os.path.join(self.out, "whitener.npz")
    @property
    def models_dir(self): return os.path.join(self.out, "models")
    @property
    def models_list(self): return os.path.join(self.out, "models.txt")

    def model(self, speaker_id: str) -> str:
        return os.path.join(self.models_dir, f"{speaker_id}.dnn")

    def scores(self, system: str) -> str:
        return os.path.join(self.out, f"scores_{system}.txt")

    def report(self, system: str) -> str:
        return os.path.join(self.out, f"report_{system}.txt")

    def det_csv(self, system: str) -> str:
        return os.path.join(self.out, f"det_{system}.csv")


def _validate_inputs(cfg: ExperimentConfig) -> None:
    missing = [
        p for p in (cfg.background, cfg.enroll, cfg.test, cfg.trials) if not os.path.exists(p)
    ]
    if missing:
        raise PipelineError(f"stage validate: missing input file(s): {', '.join(missing)}")
    if not cfg.out:
        raise PipelineError("stage validate: output directory (out=) not set")


def _speaker_groups(enroll: Dataset) -> dict[str, np.ndarray]:
    groups = enroll.by_speaker()
    if not groups:
        raise ValueError("enrollment data has no speaker labels")
    return groups


def _rbm_configs(cfg: ExperimentConfig) -> list[RbmTrainConfig]:
    cfgs = []
    for k in range(cfg.depth):
        lr = cfg.grbm_lr if k == 0 else cfg.bb_lr
        epochs = cfg.grbm_epochs if k == 0 else cfg.bb_epochs
        cfgs.append(
            RbmTrainConfig(
                learning_rate=lr,
                epochs=epochs,
                momentum=cfg.rbm_momentum,
                weight_decay=cfg.rbm_weight_decay,
                minibatch_size=cfg.rbm_minibatch,
                seed=derive_seed(cfg.master_seed, "udbn", k),
            )
        )
    return cfgs


def stage_train_udbn(cfg: ExperimentConfig, paths: _Paths) -> None:
    background = load_embeddings(cfg.background)
    model = udbn.train_udbn(background.vectors, [cfg.hidden_size] * cfg.depth, _rbm_configs(cfg))
    udbn.save_dbn(model, paths.udbn)
    udbn.save_dbn(udbn.normalize_udbn(model), paths.udbn_norm)


def stage_select_impostors(cfg: ExperimentConfig, paths: _Paths) -> None:
    background = load_embeddings(cfg.background)
    enroll = load_embeddings(cfg.enroll)
    targets = [average_embeddings(vs) for vs in _speaker_groups(enroll).values()]
    freqs = balance.impostor_frequencies(targets, background.vectors, cfg.impostor_n)
    selected = balance.rank_impostors(freqs, min(cfg.impostor_kappa, len(background)))
    with open(paths.selected, "w") as fh:
        for idx in selected:
            fh.write(f"{background.ids[idx]} {freqs[idx]}\n")


def stage_cluster(cfg: ExperimentConfig, paths: _Paths) -> None:
    background = load_embeddings(cfg.background)
    with open(paths.selected) as fh:
        ids = [ln.split()[0] for ln in fh if ln.strip()]
    centroids = balance.kmeans_cosine(
        background.rows(ids), cfg.num_centroids, seed=derive_seed(cfg.master_seed, "kmeans"),
        max_iter=cfg.kmeans_max_iter,
    )
    ids = tuple(f"centroid_{j}" for j in range(len(centroids)))
    save_embeddings(Dataset(ids, (None,) * len(ids), centroids), paths.centroids)


def _build_plan(cfg: ExperimentConfig, targets: np.ndarray, centroids: np.ndarray):
    if cfg.task == "single":
        if targets.shape[0] != 1:
            raise ValueError(
                f"single task needs exactly 1 enrollment vector per speaker, got {targets.shape[0]}"
            )
        return balance.build_minibatch_plan([targets[0]], centroids, cfg.num_minibatches, "single")
    return balance.build_minibatch_plan(list(targets), centroids, cfg.num_minibatches, "multi")


def _train_one_speaker(args) -> str:
    """Worker: adapt (optionally) and fine-tune one speaker's DNN."""
    cfg, speaker_id, targets, centroids, udbn_path, model_path = args
    try:
        plan = _build_plan(cfg, targets, centroids)
    except ValueError as exc:
        raise ValueError(f"speaker {speaker_id}: {exc}") from exc
    spk_seed = derive_seed(cfg.master_seed, speaker_id)
    if cfg.init_mode == "dbn":
        base = udbn.load_dbn(udbn_path)
        adapt_cfg = udbn.AdaptConfig(
            layers_to_adapt=min(cfg.adapt_layers, cfg.depth),
            learning_rates=tuple(cfg.adapt_lr),
            epochs=tuple(cfg.adapt_epochs),
            momentum=cfg.adapt_momentum,
            weight_decay=cfg.adapt_weight_decay,
            seed=spk_seed,
        )
        adapted = udbn.adapt_udbn(base, plan.matrices(), adapt_cfg)
        model = dnn.init_from_dbn(adapted, seed=derive_seed(spk_seed, "output"))
    else:
        sizes = [targets.shape[1]] + [cfg.hidden_size] * cfg.depth + [2]
        model = dnn.init_random(sizes, seed=spk_seed)
    ft_cfg = dnn.FineTuneConfig(
        learning_rate=cfg.ft_lr,
        epochs=cfg.ft_epochs,
        momentum=cfg.ft_momentum,
        weight_decay=cfg.ft_weight_decay,
    )
    trained = dnn.train_speaker_dnn(model, plan, ft_cfg)
    dnn.save_dnn(trained, model_path)
    return speaker_id


def stage_train_speakers(cfg: ExperimentConfig, paths: _Paths, jobs: int = 1) -> None:
    enroll = load_embeddings(cfg.enroll)
    centroids = load_embeddings(paths.centroids).vectors
    groups = _speaker_groups(enroll)
    os.makedirs(paths.models_dir, exist_ok=True)
    tasks = [
        (cfg, spk, targets, centroids, paths.udbn_norm, paths.model(spk))
        for spk, targets in groups.items()
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(_train_one_speaker, tasks))
    else:
        for t in tasks:
            _train_one_speaker(t)
    with open(paths.models_list, "w") as fh:
        for spk in groups:
            fh.write(f"{spk}\n")


def _model_blocks(trials: evaluation.Trials, enrolled) -> dict[str, slice]:
    """`trials.by_model()`, checking that every model is among `enrolled`."""
    unknown = set(trials.models) - set(enrolled)
    if unknown:
        raise ValueError(f"trial model {min(unknown)!r} is not an enrolled speaker")
    return trials.by_model()


def stage_score_dnn(cfg: ExperimentConfig, paths: _Paths) -> None:
    test = load_embeddings(cfg.test)
    trials = evaluation.load_trials(cfg.trials)
    with open(paths.models_list) as fh:
        blocks = _model_blocks(trials, set(fh.read().split()))
    scores = np.empty(len(trials))
    for model_id, block in blocks.items():
        model = dnn.load_dnn(paths.model(model_id))
        scores[block] = dnn.score_llr_batch(model, test.rows(trials.tests[block]))
    evaluation.save_scores(scores, trials, paths.scores("dnn"))


def stage_score_baseline(cfg: ExperimentConfig, paths: _Paths) -> None:
    background = load_embeddings(cfg.background)
    enroll = load_embeddings(cfg.enroll)
    test = load_embeddings(cfg.test)
    trials = evaluation.load_trials(cfg.trials)
    whitener = fit_whitener(background.vectors)
    save_whitener(whitener, paths.whitener)
    groups = _speaker_groups(enroll)
    scores = np.empty(len(trials))
    for model_id, block in _model_blocks(trials, groups).items():
        scores[block] = [evaluation.score_baseline(groups[model_id], x, whitener)
                         for x in test.rows(trials.tests[block])]
    evaluation.save_scores(scores, trials, paths.scores("baseline"))


def stage_fuse(cfg: ExperimentConfig, paths: _Paths) -> None:
    trials = evaluation.load_trials(cfg.trials)
    a = evaluation.load_scores(paths.scores("dnn"), trials)
    b = evaluation.load_scores(paths.scores("baseline"), trials)
    evaluation.save_scores(evaluation.fuse(a, b), trials, paths.scores("fused"))


def stage_evaluate(cfg: ExperimentConfig, paths: _Paths) -> None:
    trials = evaluation.load_trials(cfg.trials)
    for system in _SYSTEMS:
        scores = evaluation.load_scores(paths.scores(system), trials)
        report = evaluation.evaluate_trials(scores, trials)
        evaluation.save_report(report, paths.report(system), paths.det_csv(system))


def _speaker_artifacts(cfg: ExperimentConfig, paths: _Paths) -> list[str]:
    """One model per enrolled speaker, then the model list; parses enroll."""
    speakers = list(_speaker_groups(load_embeddings(cfg.enroll)))
    return [paths.model(spk) for spk in speakers] + [paths.models_list]


# The pipeline in order, as (name, artifacts(cfg, paths), run(cfg, paths, jobs)).
# Each run looks its stage_* function up in the module globals when called,
# so a wrapper installed on this module (the benchmark's span tracer) runs.
STAGES = (
    ("train-udbn", lambda cfg, paths: [paths.udbn, paths.udbn_norm],
     lambda cfg, paths, jobs: stage_train_udbn(cfg, paths)),
    ("select-impostors", lambda cfg, paths: [paths.selected],
     lambda cfg, paths, jobs: stage_select_impostors(cfg, paths)),
    ("cluster", lambda cfg, paths: [paths.centroids],
     lambda cfg, paths, jobs: stage_cluster(cfg, paths)),
    ("train-speakers", _speaker_artifacts,
     lambda cfg, paths, jobs: stage_train_speakers(cfg, paths, jobs)),
    ("score", lambda cfg, paths: [paths.scores("dnn")],
     lambda cfg, paths, jobs: stage_score_dnn(cfg, paths)),
    ("score-baseline", lambda cfg, paths: [paths.scores("baseline"), paths.whitener],
     lambda cfg, paths, jobs: stage_score_baseline(cfg, paths)),
    ("fuse", lambda cfg, paths: [paths.scores("fused")],
     lambda cfg, paths, jobs: stage_fuse(cfg, paths)),
    ("evaluate",
     lambda cfg, paths: [paths.report(s) for s in _SYSTEMS] + [paths.det_csv(s) for s in _SYSTEMS],
     lambda cfg, paths, jobs: stage_evaluate(cfg, paths)),
)


def _run_stages(cfg: ExperimentConfig, jobs: int, only: str | None = None) -> _Paths:
    """Run every STAGES entry, or only the one named, skipping the ones
    already completed for this exact config and these inputs."""
    _validate_inputs(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    paths = _Paths(cfg.out)
    stamp = _run_stamp(cfg)
    for name, artifacts, run in STAGES:
        if only in (None, name):
            _stage(name, artifacts(cfg, paths), stamp, lambda: run(cfg, paths, jobs))
    return paths


def run_pipeline(cfg: ExperimentConfig, jobs: int = 1) -> dict[str, str]:
    """Execute all stages, skipping the ones already completed for this
    exact config and these inputs.  Returns the per-system report paths."""
    paths = _run_stages(cfg, jobs)
    return {s: paths.report(s) for s in _SYSTEMS}


def _load_cli_config(args) -> ExperimentConfig:
    pairs = parse_config_file(args.config) if args.config else {}
    overrides = {}
    for item in args.override or []:
        if "=" not in item:
            raise PipelineError(f"stage config: bad override {item!r}, expected key=value")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    try:
        return resolve_config(pairs, overrides)
    except (ValueError, TypeError) as exc:
        raise PipelineError(f"stage config: {exc}") from exc


def _add_common(parser) -> None:
    parser.add_argument("--config", help="flat key=value experiment config file")
    parser.add_argument("--override", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for speaker training (results are identical)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spkdbn", description="DBN/DNN speaker verification pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synth", help="generate a synthetic embedding file")
    gen.add_argument("--speakers", type=int, required=True)
    gen.add_argument("--sessions", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--between-spread", type=float, default=1.0)
    gen.add_argument("--within-spread", type=float, default=0.2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--unlabeled", action="store_true",
                     help="write '-' speaker labels (background data)")
    gen.add_argument("--out", required=True)

    for name in ("run", *(name for name, _, _ in STAGES)):
        _add_common(sub.add_parser(name))

    args = parser.parse_args(argv)
    try:
        if args.command == "gen-synth":
            ds = generate_synthetic(
                SynthConfig(args.speakers, args.sessions, args.dim,
                            args.between_spread, args.within_spread, args.seed)
            )
            if args.unlabeled:
                ds = Dataset(ds.ids, (None,) * len(ds), ds.vectors)
            save_embeddings(ds, args.out)
            return 0

        cfg = _load_cli_config(args)
        if args.command == "run":
            reports = run_pipeline(cfg, jobs=args.jobs)
            for system, path in reports.items():
                with open(path) as fh:
                    print(f"{system}: {fh.readline().strip()}")
            return 0

        _run_stages(cfg, args.jobs, only=args.command)
        return 0
    except PipelineError as exc:
        print(f"spkdbn: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"spkdbn: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
