"""Pipeline orchestration and command-line interface.

Wires the full flow: background data -> universal DBN -> impostor
selection and clustering -> per-speaker adaptation and fine-tuning ->
LLR and cosine-baseline scoring -> fusion -> evaluation.  The stages
are declared once, in `STAGES`, each with the files it writes, named
relative to the output directory; `run` walks every entry and each stage
subcommand runs only its own (a retired subcommand name in `_ALIASES`
runs the stage that took it over).  A speaker label names its model file,
`models/<label>.dnn`, so a label with a path separator is an error.  Each
input file is hashed when an invocation starts and parsed at most once; a
file that changes between the two is an error.  One resume record,
`out/stamp`, holds the config hash (paths left out) and the input digests
and names every completed stage, so re-runs skip them; a record of another
stamp (the config or an input file changed) aborts any invocation before
it writes, instead of mixing results.

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
import re
import sys
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import balance, dnn, evaluation, udbn
from .embeddings import (
    Dataset,
    SynthConfig,
    Whitener,
    _lines,
    fit_whitener,
    generate_synthetic,
    load_arrays,
    parse_embeddings,
    save_arrays,
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
    grbm_epochs: int = 200
    bb_epochs: int = 120
    # balanced training
    impostor_kappa: int = 2000
    num_centroids: int = 12
    # adaptation: one learning rate and one epoch count per adapted layer,
    # from the bottom; both empty adapts nothing
    adapt_lr: tuple = (0.001,)
    adapt_epochs: tuple = (10,)
    # fine-tuning
    ft_lr: float = 0.001
    ft_epochs: int = 30

    # The same in every published configuration, so not config keys.
    grbm_lr: ClassVar[float] = 0.014
    bb_lr: ClassVar[float] = 0.06
    impostor_n: ClassVar[int] = 10
    num_minibatches: ClassVar[int] = 3

    @property
    def adapt_layers(self) -> int:
        return len(self.adapt_lr)

    def __post_init__(self):
        if self.task not in ("single", "multi"):
            raise ValueError(f"task must be 'single' or 'multi', got {self.task!r}")
        if not 1 <= self.depth <= 3:
            raise ValueError("depth must be in 1..3")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.init_mode not in ("dbn", "random"):
            raise ValueError(f"init_mode must be 'dbn' or 'random', got {self.init_mode!r}")
        if self.impostor_kappa < 1:
            raise ValueError(f"impostor_kappa must be >= 1, got {self.impostor_kappa}")
        if not 1 <= self.num_centroids <= self.impostor_kappa:
            raise ValueError(f"num_centroids={self.num_centroids} must be in "
                             f"1..impostor_kappa={self.impostor_kappa}")
        if self.num_centroids % self.num_minibatches:
            raise ValueError(f"num_centroids={self.num_centroids} not divisible into "
                             f"num_minibatches={self.num_minibatches} minibatches")
        if len(self.adapt_lr) != len(self.adapt_epochs) or len(self.adapt_lr) > self.depth:
            raise ValueError(f"adapt_lr and adapt_epochs need one value per adapted layer, "
                             f"at most depth={self.depth}; got {len(self.adapt_lr)} and "
                             f"{len(self.adapt_epochs)}")
        _rbm_configs(self)
        _adapt_configs(self, seed=0)
        _fine_tune_config(self)


# Published hyperparameters per (task, depth) that differ from the field
# defaults above.  Explicit config keys and CLI overrides win over them.
_PRESETS = {
    ("single", 1): {},
    ("single", 2): {"impostor_kappa": 300, "adapt_lr": (0.001, 0.0001),
                    "adapt_epochs": (20, 15), "ft_lr": 0.005, "ft_epochs": 100},
    ("single", 3): {"impostor_kappa": 500, "adapt_lr": (0.001, 0.0001),
                    "adapt_epochs": (15, 20), "ft_lr": 0.08, "ft_epochs": 500},
    ("multi", 1): {"num_centroids": 24},
    ("multi", 2): {"impostor_kappa": 300, "num_centroids": 24, "ft_lr": 0.01, "ft_epochs": 100},
    ("multi", 3): {"impostor_kappa": 500, "num_centroids": 24, "adapt_epochs": (25,),
                   "ft_lr": 0.08, "ft_epochs": 500},
}

_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _coerce(key: str, value: str):
    """`value` as the type of the key's default; a tuple key's value is a
    comma-separated list, each item of the type of the default's items."""
    if key not in _DEFAULTS:
        raise ValueError(f"unknown config key {key!r}")
    default = _DEFAULTS[key]
    if isinstance(default, tuple):
        return tuple(type(default[0])(x) for x in value.split(",") if x)
    return type(default)(value)


def parse_config_file(path) -> dict:
    pairs, first_line = {}, {}
    with open(path, "rb") as fh:
        for lineno, line in _lines(fh, path):
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if re.search(r"\s#", value):
                raise ValueError(f"{path}:{lineno}: inline comment in the value of {key!r}; "
                                 "a comment takes a line of its own")
            if key in pairs:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
            pairs[key], first_line[key] = value.strip(), lineno
    return pairs


def resolve_config(pairs: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Merge file pairs, overrides and preset defaults into a config."""
    merged = dict(pairs)
    merged.update(overrides or {})
    typed = {k: _coerce(k, v) for k, v in merged.items()}
    preset = _PRESETS.get((typed.get("task", "single"), typed.get("depth", 1)), {})
    return ExperimentConfig(**(preset | typed))


# Where the inputs and outputs live is not part of an experiment: `_Inputs`
# hashes the input contents, and the output directory holds the record.
_INPUTS = ("background", "enroll", "test", "trials")


def config_hash(cfg: ExperimentConfig) -> str:
    parts = [f"{f.name}={getattr(cfg, f.name)!r}" for f in fields(ExperimentConfig)
             if f.name not in (*_INPUTS, "out")]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def derive_seed(*parts) -> int:
    """Stable 64-bit stream seed from any printable parts."""
    h = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "little")


class _Record:
    """The resume record `out/stamp`: the invocation's stamp, then each completed stage
    in STAGES order, one a line.  Read before any stage runs; replaced via a temp file."""

    def __init__(self, out: str, stamp: str):
        self.path, self.stamp, self.done = os.path.join(out, "stamp"), stamp, set()
        if os.path.exists(self.path):
            with open(self.path) as fh:
                recorded, _, stages = fh.read().partition("\n")
            if recorded != self.stamp:
                raise PipelineError(
                    f"stage validate: config-hash mismatch on resume in {self.path}: the config "
                    "or an input file changed (clean the output directory or use a fresh one)")
            self.done = set(stages.split())

    def update(self, name: str, done: bool) -> None:
        self.done = self.done | {name} if done else self.done - {name}
        with open(self.path + ".tmp", "w") as fh:
            fh.write("\n".join([self.stamp, *(s for s, _, _ in STAGES if s in self.done)]) + "\n")
        os.replace(self.path + ".tmp", self.path)


def _stage(name: str, artifacts: list[str], record: _Record, fn) -> None:
    """Run fn unless `record` names the stage and every artifact exists.  A
    recorded stage is dropped from the record before fn re-runs, so a crash
    leaves it unrecorded, and recorded once fn has produced every artifact."""
    if name in record.done:
        if all(map(os.path.exists, artifacts)):
            return
        record.update(name, done=False)
    try:
        fn()
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(f"stage {name}: {exc}") from exc
    for art in artifacts:
        if not os.path.exists(art):
            raise PipelineError(f"stage {name}: expected artifact {art} was not produced")
    record.update(name, done=True)


# Every file the pipeline writes, as a name relative to `out`; a template's
# `{}` is a speaker label or a system.  STAGES lists them per stage, and each
# stage joins them onto `cfg.out`.
_UDBN, _WHITENER = "udbn_norm.dbn", "whitener.npz"
_SELECTED, _CENTROIDS = "selected_impostors.txt", "centroids.npz"
_MODEL = os.path.join("models", "{}.dnn")
_SCORES, _REPORT, _DET = "scores_{}.txt", "report_{}.txt", "det_{}.csv"


def _hashed(fh, digest):
    """The lines of the binary file `fh`, each hashed into `digest` first."""
    for line in fh:
        digest.update(line)
        yield line


def _parsed(name: str):
    """A cached `_Inputs` property: input `name`, parsed as it is hashed."""
    def get(inputs):
        path, digest = getattr(inputs.cfg, name), hashlib.sha256()
        parse = evaluation.parse_trials if name == "trials" else parse_embeddings
        with open(path, "rb") as fh:
            parsed = parse(_hashed(fh, digest), path)
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
        paths = {name: getattr(cfg, name) for name in _INPUTS}
        missing = [f"{name}={path}" if path else f"{name} (not set)"
                   for name, path in paths.items() if not os.path.exists(path)]
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
        """`enroll.by_speaker()`, checked by every rule that the enrollment alone sets."""
        path, groups = self.cfg.enroll, self.enroll.by_speaker()
        if not groups:
            raise ValueError(f"{path} has no speaker labels")
        limit = 1 if self.cfg.task == "single" else self.cfg.num_centroids  # a plan's target slots
        for label, sessions in groups.items():
            if os.path.basename(label) != label:
                raise ValueError(f"speaker label {label!r} in {path} has a path separator; "
                                 f"a label names its model file {_MODEL.format('<label>')}")
            if len(sessions) > limit:
                raise ValueError(f"speaker {label!r} in {path} has {len(sessions)} sessions; "
                                 f"the {self.cfg.task} task takes at most {limit}")
        return groups


# Momentum, weight decay, the RBM minibatch size and the k-means iteration
# cap are the same in every published configuration, so they are not config
# keys: `RbmTrainConfig`, `dnn.FineTuneConfig` and `balance.kmeans_cosine`
# hold them as their defaults.
def _rbm_configs(cfg: ExperimentConfig) -> list[RbmTrainConfig]:
    return [RbmTrainConfig(learning_rate=cfg.grbm_lr if k == 0 else cfg.bb_lr,
                           epochs=cfg.grbm_epochs if k == 0 else cfg.bb_epochs,
                           seed=derive_seed(cfg.master_seed, "udbn", k))
            for k in range(cfg.depth)]


def _adapt_configs(cfg: ExperimentConfig, seed: int) -> list[RbmTrainConfig]:
    """One RbmTrainConfig per adapted layer; seed is the speaker's stream seed."""
    return [RbmTrainConfig(learning_rate=cfg.adapt_lr[k], epochs=cfg.adapt_epochs[k], seed=seed)
            for k in range(cfg.adapt_layers)]


def _fine_tune_config(cfg: ExperimentConfig) -> dnn.FineTuneConfig:
    return dnn.FineTuneConfig(learning_rate=cfg.ft_lr, epochs=cfg.ft_epochs)


def _check_norms(vectors, names, what: str, path: str) -> None:
    """Reject the first row whose Euclidean norm is zero or overflows, as
    `<what> <name> in <path>`; the overflow raises no RuntimeWarning."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vectors, axis=1)
    bad = np.flatnonzero(~((0.0 < norms) & (norms < np.inf)))
    if bad.size:
        raise ValueError(f"{what} {names[bad[0]]!r} in {path}: norm {norms[bad[0]]} "
                         "is zero or overflows")


def stage_train_udbn(cfg: ExperimentConfig, inputs: _Inputs) -> None:
    # The enrollment, the background, the whitener and the config are checked before
    # the first stage is recorded, so that a corrected config or input can resume here.
    inputs.speakers
    _check_norms(inputs.background.vectors, inputs.background.ids, "background utterance",
                 cfg.background)
    whitener = fit_whitener(inputs.background.vectors)
    m = len(inputs.background)
    if cfg.impostor_n > m:
        raise ValueError(f"impostor_n={cfg.impostor_n} exceeds the {m} background vectors")
    if cfg.num_centroids > min(cfg.impostor_kappa, m):
        raise ValueError(f"num_centroids={cfg.num_centroids} exceeds the "
                         f"{min(cfg.impostor_kappa, m)} impostors kept from {m} background vectors")
    model = udbn.train_udbn(inputs.background.vectors, [cfg.hidden_size] * cfg.depth,
                            _rbm_configs(cfg))
    udbn.save_dbn(udbn.normalize_udbn(model), os.path.join(cfg.out, _UDBN))
    save_arrays(os.path.join(cfg.out, _WHITENER), "whitener",
                mean=whitener.mean, transform=whitener.transform)


def stage_balance(cfg: ExperimentConfig, inputs: _Inputs) -> None:
    """Select the kappa most frequent impostors, then cluster their rows.
    A speaker's target, the mean of its sessions, needs a finite non-zero norm."""
    if inputs.enroll.dimension != inputs.background.dimension:
        raise ValueError(f"{cfg.enroll} has dimension {inputs.enroll.dimension}, "
                         f"{cfg.background} has {inputs.background.dimension}")
    with np.errstate(over="ignore"):   # _check_norms names the speaker whose mean overflows
        targets = [vs.mean(axis=0) for vs in inputs.speakers.values()]
    _check_norms(targets, list(inputs.speakers), "speaker", cfg.enroll)
    freqs = balance.impostor_frequencies(targets, inputs.background.vectors, cfg.impostor_n)
    selected = balance.rank_impostors(freqs, min(cfg.impostor_kappa, len(inputs.background)))
    with open(os.path.join(cfg.out, _SELECTED), "w") as fh:
        for idx in selected:
            fh.write(f"{inputs.background.ids[idx]} {freqs[idx]}\n")
    centroids = balance.kmeans_cosine(inputs.background.vectors[selected], cfg.num_centroids,
                                      seed=derive_seed(cfg.master_seed, "kmeans"))
    save_arrays(os.path.join(cfg.out, _CENTROIDS), "centroids", centroids=centroids)


def _train_one_speaker(args) -> str:
    """Worker: adapt (optionally) and fine-tune one speaker's DNN.  The
    network is one set of arrays from load to save: adaptation, the DNN
    built on the adapted DBN and fine-tuning all work in place."""
    cfg, speaker_id, targets, centroids = args
    plan = balance.build_minibatch_plan(targets, centroids, cfg.num_minibatches)
    spk_seed = derive_seed(cfg.master_seed, speaker_id)
    if cfg.init_mode == "dbn":
        adapted = udbn.adapt_udbn(udbn.load_dbn(os.path.join(cfg.out, _UDBN)), plan.batches,
                                  _adapt_configs(cfg, spk_seed))
        model = dnn.init_from_dbn(adapted, seed=derive_seed(spk_seed, "output"))
    else:
        sizes = [targets.shape[1]] + [cfg.hidden_size] * cfg.depth + [2]
        model = dnn.init_random(sizes, seed=spk_seed)
    dnn.save_dnn(dnn.train_speaker_dnn(model, plan, _fine_tune_config(cfg)),
                 os.path.join(cfg.out, _MODEL.format(speaker_id)))
    return speaker_id


def stage_train_speakers(cfg: ExperimentConfig, inputs: _Inputs, jobs: int) -> None:
    centroids = load_arrays(os.path.join(cfg.out, _CENTROIDS), "centroids")["centroids"]
    os.makedirs(os.path.join(cfg.out, os.path.dirname(_MODEL)), exist_ok=True)
    tasks = [(cfg, spk, targets, centroids) for spk, targets in inputs.speakers.items()]
    # A fork-context pool starts all max_workers processes at once.
    workers = min(jobs, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_train_one_speaker, tasks))
    else:
        for t in tasks:
            _train_one_speaker(t)


def _baseline_vectors(rows, what: str, path: str, whitener: Whitener) -> dict[str, np.ndarray]:
    """{name: baseline vector} of each (name, vectors) in `rows`.  A vector
    that cannot be length-normalized raises as `<what> <name> in <path>`,
    with no RuntimeWarning: the path of every baseline vector of a score run."""
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):   # length_normalize rejects the result
        for name, vectors in rows:
            try:
                out[name] = evaluation.baseline_vector(vectors, whitener)
            except ValueError as exc:
                raise ValueError(f"{what} {name!r} in {path}: {exc}") from None
    return out


def stage_score(cfg: ExperimentConfig, inputs: _Inputs) -> None:
    """Score every trial with its speaker's DNN and with the cosine baseline,
    fuse the two, and write each system's scores, report and DET file."""
    test, trials, groups = inputs.test, inputs.trials, inputs.speakers
    arrays = load_arrays(os.path.join(cfg.out, _WHITENER), "whitener")
    whitener = Whitener(arrays["mean"], arrays["transform"])
    unknown = set(trials.models) - set(groups)
    if unknown:
        raise ValueError(f"trial model {min(unknown)!r} in {cfg.trials} is not a speaker "
                         f"in {cfg.enroll}")
    utts = list(dict.fromkeys(trials.tests))
    missing = set(utts) - set(test.ids)
    if missing:
        raise ValueError(f"unknown utterance id {min(missing)!r} in {cfg.trials}: "
                         f"no such utterance in {cfg.test}")
    if test.dimension != inputs.enroll.dimension:
        raise ValueError(f"{cfg.test} has dimension {test.dimension}, "
                         f"{cfg.enroll} has {inputs.enroll.dimension}")
    blocks = trials.by_model()
    prepared = _baseline_vectors(zip(utts, test.rows(utts)), "test utterance", cfg.test, whitener)
    centres = _baseline_vectors(((m, groups[m]) for m in blocks), "speaker", cfg.enroll, whitener)
    scores = {"dnn": np.empty(len(trials)), "baseline": np.empty(len(trials))}
    for model_id, block in blocks.items():
        model = dnn.load_dnn(os.path.join(cfg.out, _MODEL.format(model_id)))
        scores["dnn"][block] = dnn.score_llr_batch(model, test.rows(trials.tests[block]))
        scores["baseline"][block] = [evaluation.score_baseline(centres[model_id], prepared[t])
                                     for t in trials.tests[block]]
    for system, s in scores.items():
        bad = np.flatnonzero(~np.isfinite(s))
        if bad.size:
            i = bad[0]
            raise ValueError(f"non-finite {system} score {float(s[i])!r} for trial "
                             f"'{trials.models[i]} {trials.tests[i]}'")
    scores["fused"] = evaluation.fuse(scores["dnn"], scores["baseline"])
    reports = {system: evaluation.evaluate_trials(s, trials.keys) for system, s in scores.items()}
    for system in _SYSTEMS:
        scores_file, report, det = (os.path.join(cfg.out, name.format(system))
                                    for name in (_SCORES, _REPORT, _DET))
        evaluation.save_scores(scores[system], trials, scores_file)
        evaluation.save_report(reports[system], report, det)


# The pipeline in order, as (name, artifacts(inputs), run(cfg, inputs, jobs)), where
# artifacts are names relative to `out`.  Each run looks its stage_* function up
# when called, so a wrapper put on this module runs.
STAGES = (
    ("train-udbn", lambda inputs: [_UDBN, _WHITENER],
     lambda cfg, inputs, jobs: stage_train_udbn(cfg, inputs)),
    ("balance", lambda inputs: [_SELECTED, _CENTROIDS],
     lambda cfg, inputs, jobs: stage_balance(cfg, inputs)),
    ("train-speakers", lambda inputs: [_MODEL.format(spk) for spk in inputs.speakers],
     lambda cfg, inputs, jobs: stage_train_speakers(cfg, inputs, jobs)),
    ("score", lambda inputs: [name.format(s) for name in (_SCORES, _REPORT, _DET)
                              for s in _SYSTEMS],
     lambda cfg, inputs, jobs: stage_score(cfg, inputs)),
)
# Subcommands of the eight-stage pipeline, each run as the stage that now holds it.
_ALIASES = {"select-impostors": "balance", "cluster": "balance", "score-baseline": "score",
            "fuse": "score", "evaluate": "score"}


def run_pipeline(cfg: ExperimentConfig, jobs: int = 1, only: str | None = None) -> dict[str, str]:
    """Run every STAGES entry, or only the one named, skipping the ones
    already completed for this exact config and these inputs.  Returns the
    per-system report paths."""
    inputs = _Inputs(cfg)
    record = _Record(cfg.out, inputs.stamp)
    os.makedirs(cfg.out, exist_ok=True)
    for name, artifacts, run in STAGES:
        if only in (None, name):
            _stage(name, [os.path.join(cfg.out, a) for a in artifacts(inputs)], record,
                   lambda: run(cfg, inputs, jobs))
    return {s: os.path.join(cfg.out, _REPORT.format(s)) for s in _SYSTEMS}


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

    for name in ("run", *(name for name, _, _ in STAGES), *_ALIASES):
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

        run_pipeline(cfg, args.jobs, only=_ALIASES.get(args.command, args.command))
        return 0
    except PipelineError as exc:
        print(f"spkdbn: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"spkdbn: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
