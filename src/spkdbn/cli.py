"""Pipeline orchestration and command-line interface.

Wires the full flow: background data -> universal DBN -> impostor
selection and clustering -> per-speaker adaptation and fine-tuning ->
LLR and cosine-baseline scoring -> fusion -> evaluation.  The stages
are declared once, in `STAGES`; `run` walks every entry and each stage
subcommand runs only its own.  Each input file is hashed when an
invocation starts and parsed at most once; a file that changes between
the two is an error.  Every stage stamps its artifacts with the config
hash and the input digests, so re-runs skip completed stages; a stamp
that does not match (the config or an input file changed) aborts the run
instead of silently mixing results.

Configuration is a flat key=value text file; `--override key=value`
wins over the file, and preset defaults (per task and depth) fill
anything left unset.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
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
    parse_embeddings,
    save_embeddings,
)
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
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.init_mode not in ("dbn", "random"):
            raise ValueError(f"init_mode must be 'dbn' or 'random', got {self.init_mode!r}")
        balance.ImpostorSelectionConfig(self.impostor_n, self.impostor_kappa)
        if not 1 <= self.num_centroids <= self.impostor_kappa:
            raise ValueError(f"num_centroids={self.num_centroids} must be in "
                             f"1..impostor_kappa={self.impostor_kappa}")
        if self.num_minibatches < 1 or self.num_centroids % self.num_minibatches:
            raise ValueError(f"num_centroids={self.num_centroids} not divisible into "
                             f"num_minibatches={self.num_minibatches} minibatches")
        _rbm_configs(self)
        _adapt_configs(self, seed=0)
        _fine_tune_config(self)


# Published hyperparameters per (task, depth) that differ from the field
# defaults above.  Explicit config keys and CLI overrides win over them.
_PRESETS = {
    ("single", 1): {},
    ("single", 2): {"impostor_kappa": 300, "adapt_layers": 2, "adapt_lr": (0.001, 0.0001),
                    "adapt_epochs": (20, 15), "ft_lr": 0.005, "ft_epochs": 100},
    ("single", 3): {"impostor_kappa": 500, "adapt_layers": 2, "adapt_lr": (0.001, 0.0001),
                    "adapt_epochs": (15, 20), "ft_lr": 0.08, "ft_epochs": 500},
    ("multi", 1): {"num_centroids": 24},
    ("multi", 2): {"impostor_kappa": 300, "num_centroids": 24, "ft_lr": 0.01, "ft_epochs": 100},
    ("multi", 3): {"impostor_kappa": 500, "num_centroids": 24, "adapt_epochs": (25,),
                   "ft_lr": 0.08, "ft_epochs": 500},
}

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
    pairs, first_line = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in pairs:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
            pairs[key], first_line[key] = value, lineno
    return pairs


def resolve_config(pairs: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Merge file pairs, overrides and preset defaults into a config."""
    merged = dict(pairs)
    merged.update(overrides or {})
    typed = {k: _coerce(k, v) for k, v in merged.items()}
    preset = _PRESETS.get((typed.get("task", "single"), typed.get("depth", 1)), {})
    return ExperimentConfig(**(preset | typed))


def config_hash(cfg: ExperimentConfig) -> str:
    parts = [f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(ExperimentConfig)]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def derive_seed(*parts) -> int:
    """Stable 64-bit stream seed from any printable parts."""
    h = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "little")


def _stamp_path(artifact: str) -> str:
    return artifact + ".hash"


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


def _parsed(name: str):
    """A cached `_Inputs` property: input `name`, parsed as it is hashed."""
    def get(inputs):
        path, digest = getattr(inputs.cfg, name), hashlib.sha256()
        parse = evaluation.parse_trials if name == "trials" else parse_embeddings
        with open(path, "rb") as fh:
            parsed = parse((digest.update(line) or line.decode() for line in fh), path)
        if digest.digest() != inputs.digests[name]:
            raise ValueError(f"input file {path} changed after this invocation hashed it")
        return parsed
    return functools.cached_property(get)


class _Inputs:
    """The four input files of one invocation: each is hashed into `stamp`
    (SHA-256 of the config hash and the four file digests) when built, and
    parsed at most once, on first use, by a pass that checks its digest."""

    background = _parsed("background")
    enroll = _parsed("enroll")
    test = _parsed("test")
    trials = _parsed("trials")

    def __init__(self, cfg: ExperimentConfig):
        paths = {name: getattr(cfg, name) for name in ("background", "enroll", "test", "trials")}
        missing = [p for p in paths.values() if not os.path.exists(p)]
        if missing:
            raise PipelineError(f"stage validate: missing input file(s): {', '.join(missing)}")
        if not cfg.out:
            raise PipelineError("stage validate: output directory (out=) not set")
        self.cfg, self.digests = cfg, {}
        stamp = hashlib.sha256(config_hash(cfg).encode())
        for name, path in paths.items():
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            self.digests[name] = digest.digest()
            stamp.update(self.digests[name])
        self.stamp = stamp.hexdigest()

    @functools.cached_property
    def speakers(self) -> dict[str, np.ndarray]:
        """`enroll.by_speaker()`, which must name at least one speaker."""
        groups = self.enroll.by_speaker()
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


def _adapt_configs(cfg: ExperimentConfig, seed: int) -> list[RbmTrainConfig]:
    """One RbmTrainConfig per adapted layer; seed is the speaker's stream seed."""
    if not 0 <= cfg.adapt_layers <= cfg.depth:
        raise ValueError(f"adapt_layers must be in 0..depth={cfg.depth}, got {cfg.adapt_layers}")
    if min(len(cfg.adapt_lr), len(cfg.adapt_epochs)) < cfg.adapt_layers:
        raise ValueError(f"adapt_lr and adapt_epochs need a value per adapted layer "
                         f"(adapt_layers={cfg.adapt_layers})")
    return [RbmTrainConfig(learning_rate=cfg.adapt_lr[k], epochs=cfg.adapt_epochs[k],
                           momentum=cfg.adapt_momentum, weight_decay=cfg.adapt_weight_decay,
                           seed=seed)
            for k in range(cfg.adapt_layers)]


def _fine_tune_config(cfg: ExperimentConfig) -> dnn.FineTuneConfig:
    return dnn.FineTuneConfig(learning_rate=cfg.ft_lr, epochs=cfg.ft_epochs,
                              momentum=cfg.ft_momentum, weight_decay=cfg.ft_weight_decay)


def stage_train_udbn(cfg: ExperimentConfig, paths: _Paths, inputs: _Inputs) -> None:
    # Checked before any artifact is stamped, which would make the corrected
    # re-run stop with a config-hash mismatch.
    m = len(inputs.background)
    if cfg.impostor_n > m:
        raise ValueError(f"impostor_n={cfg.impostor_n} exceeds the {m} background vectors")
    if cfg.num_centroids > min(cfg.impostor_kappa, m):
        raise ValueError(f"num_centroids={cfg.num_centroids} exceeds the "
                         f"{min(cfg.impostor_kappa, m)} impostors kept from {m} background vectors")
    model = udbn.train_udbn(inputs.background.vectors, [cfg.hidden_size] * cfg.depth,
                            _rbm_configs(cfg))
    udbn.save_dbn(model, paths.udbn)
    udbn.save_dbn(udbn.normalize_udbn(model), paths.udbn_norm)


def stage_select_impostors(cfg: ExperimentConfig, paths: _Paths, inputs: _Inputs) -> None:
    targets = [average_embeddings(vs) for vs in inputs.speakers.values()]
    freqs = balance.impostor_frequencies(targets, inputs.background.vectors, cfg.impostor_n)
    selected = balance.rank_impostors(freqs, min(cfg.impostor_kappa, len(inputs.background)))
    with open(paths.selected, "w") as fh:
        for idx in selected:
            fh.write(f"{inputs.background.ids[idx]} {freqs[idx]}\n")


def stage_cluster(cfg: ExperimentConfig, paths: _Paths, inputs: _Inputs) -> None:
    with open(paths.selected) as fh:
        ids = [ln.split()[0] for ln in fh if ln.strip()]
    centroids = balance.kmeans_cosine(
        inputs.background.rows(ids), cfg.num_centroids,
        seed=derive_seed(cfg.master_seed, "kmeans"), max_iter=cfg.kmeans_max_iter,
    )
    ids = tuple(f"centroid_{j}" for j in range(len(centroids)))
    save_embeddings(Dataset(ids, (None,) * len(ids), centroids), paths.centroids)


def _train_one_speaker(args) -> str:
    """Worker: adapt (optionally) and fine-tune one speaker's DNN."""
    cfg, speaker_id, targets, centroids, udbn_path, model_path = args
    try:
        if cfg.task == "single" and targets.shape[0] != 1:
            raise ValueError(f"single task needs exactly 1 enrollment vector per speaker, "
                             f"got {targets.shape[0]}")
        plan = balance.build_minibatch_plan(targets, centroids, cfg.num_minibatches)
    except ValueError as exc:
        raise ValueError(f"speaker {speaker_id}: {exc}") from exc
    spk_seed = derive_seed(cfg.master_seed, speaker_id)
    if cfg.init_mode == "dbn":
        adapted = udbn.adapt_udbn(udbn.load_dbn(udbn_path), plan.batches,
                                  _adapt_configs(cfg, spk_seed))
        model = dnn.init_from_dbn(adapted, seed=derive_seed(spk_seed, "output"))
    else:
        sizes = [targets.shape[1]] + [cfg.hidden_size] * cfg.depth + [2]
        model = dnn.init_random(sizes, seed=spk_seed)
    trained = dnn.train_speaker_dnn(model, plan, _fine_tune_config(cfg))
    dnn.save_dnn(trained, model_path)
    return speaker_id


def stage_train_speakers(cfg: ExperimentConfig, paths: _Paths, inputs: _Inputs, jobs: int) -> None:
    centroids = load_embeddings(paths.centroids).vectors
    os.makedirs(paths.models_dir, exist_ok=True)
    tasks = [
        (cfg, spk, targets, centroids, paths.udbn_norm, paths.model(spk))
        for spk, targets in inputs.speakers.items()
    ]
    # A fork-context pool starts all max_workers processes at once.
    workers = min(jobs, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_train_one_speaker, tasks))
    else:
        for t in tasks:
            _train_one_speaker(t)
    with open(paths.models_list, "w") as fh:
        for spk in inputs.speakers:
            fh.write(f"{spk}\n")


def _model_blocks(trials: evaluation.Trials, enrolled) -> dict[str, slice]:
    """`trials.by_model()`, checking that every model is among `enrolled`."""
    unknown = set(trials.models) - set(enrolled)
    if unknown:
        raise ValueError(f"trial model {min(unknown)!r} is not an enrolled speaker")
    return trials.by_model()


def stage_score_dnn(cfg: ExperimentConfig, paths: _Paths, inputs: _Inputs) -> None:
    test, trials = inputs.test, inputs.trials
    with open(paths.models_list) as fh:
        blocks = _model_blocks(trials, set(fh.read().split()))
    scores = np.empty(len(trials))
    for model_id, block in blocks.items():
        model = dnn.load_dnn(paths.model(model_id))
        scores[block] = dnn.score_llr_batch(model, test.rows(trials.tests[block]))
    evaluation.save_scores(scores, trials, paths.scores("dnn"))


def stage_score_baseline(cfg: ExperimentConfig, paths: _Paths, inputs: _Inputs) -> None:
    test, trials, groups = inputs.test, inputs.trials, inputs.speakers
    whitener = fit_whitener(inputs.background.vectors)
    scores = np.empty(len(trials))
    for model_id, block in _model_blocks(trials, groups).items():
        scores[block] = [evaluation.score_baseline(groups[model_id], x, whitener)
                         for x in test.rows(trials.tests[block])]
    evaluation.save_scores(scores, trials, paths.scores("baseline"))


def stage_fuse(cfg: ExperimentConfig, paths: _Paths, inputs: _Inputs) -> None:
    trials = inputs.trials
    a = evaluation.load_scores(paths.scores("dnn"), trials)
    b = evaluation.load_scores(paths.scores("baseline"), trials)
    evaluation.save_scores(evaluation.fuse(a, b), trials, paths.scores("fused"))


def stage_evaluate(cfg: ExperimentConfig, paths: _Paths, inputs: _Inputs) -> None:
    trials = inputs.trials
    for system in _SYSTEMS:
        scores = evaluation.load_scores(paths.scores(system), trials)
        report = evaluation.evaluate_trials(scores, trials)
        evaluation.save_report(report, paths.report(system), paths.det_csv(system))


# The pipeline in order, as (name, artifacts(paths, inputs), run(cfg, paths, inputs, jobs)).
# Each run looks its stage_* function up when called, so a wrapper put on this module runs.
STAGES = (
    ("train-udbn", lambda paths, inputs: [paths.udbn, paths.udbn_norm],
     lambda cfg, paths, inputs, jobs: stage_train_udbn(cfg, paths, inputs)),
    ("select-impostors", lambda paths, inputs: [paths.selected],
     lambda cfg, paths, inputs, jobs: stage_select_impostors(cfg, paths, inputs)),
    ("cluster", lambda paths, inputs: [paths.centroids],
     lambda cfg, paths, inputs, jobs: stage_cluster(cfg, paths, inputs)),
    ("train-speakers",
     lambda paths, inputs: [paths.model(spk) for spk in inputs.speakers] + [paths.models_list],
     lambda cfg, paths, inputs, jobs: stage_train_speakers(cfg, paths, inputs, jobs)),
    ("score", lambda paths, inputs: [paths.scores("dnn")],
     lambda cfg, paths, inputs, jobs: stage_score_dnn(cfg, paths, inputs)),
    ("score-baseline", lambda paths, inputs: [paths.scores("baseline")],
     lambda cfg, paths, inputs, jobs: stage_score_baseline(cfg, paths, inputs)),
    ("fuse", lambda paths, inputs: [paths.scores("fused")],
     lambda cfg, paths, inputs, jobs: stage_fuse(cfg, paths, inputs)),
    ("evaluate",
     lambda paths, inputs: [*map(paths.report, _SYSTEMS), *map(paths.det_csv, _SYSTEMS)],
     lambda cfg, paths, inputs, jobs: stage_evaluate(cfg, paths, inputs)),
)


def _run_stages(cfg: ExperimentConfig, jobs: int, only: str | None = None) -> _Paths:
    """Run every STAGES entry, or only the one named, skipping the ones
    already completed for this exact config and these inputs."""
    inputs = _Inputs(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    paths = _Paths(cfg.out)
    for name, artifacts, run in STAGES:
        if only in (None, name):
            _stage(name, artifacts(paths, inputs), inputs.stamp, lambda: run(cfg, paths, inputs, jobs))
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
    if args.command != "gen-synth" and args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
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
