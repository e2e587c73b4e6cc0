"""Benchmark workloads and their synthetic inputs, generated from a seed.

The inputs are written by this file's own numpy code in the embedding
text format, so they stay the same across versions of the program.
Speaker means are drawn isotropic Gaussian with spread 1.0 in 100
dimensions and sessions around them with `within_spread`.  The spreads
are large enough that no system separates the trials perfectly, so the
reported EERs can move, and small enough that the DNN and fused EERs stay
far below chance on every seed.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

DIMENSION = 100
BETWEEN_SPREAD = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    depth: int
    jobs: int
    within_spread: float
    background_speakers: int
    background_sessions: int
    speakers: int
    enroll_sessions: int
    test_sessions: int          # per enrolled speaker: its target trials
    impostor_utterances: int    # test utterances of speakers never enrolled
    nontargets_per_model: int   # 0: every other test utterance
    overrides: dict             # config keys beyond the presets

    @property
    def config(self) -> dict:
        """Experiment config keys beyond the input paths and `out`."""
        return {"task": self.task, "depth": self.depth, **self.overrides}


WORKLOADS = {
    w.name: w
    for w in (
        # Per-speaker work dominates: six single-session speakers, each
        # adapting and fine-tuning a 100-512-512-2 network and saving it,
        # against a small background set and a short trial list.
        Workload(
            name="enroll-single-2L", task="single", depth=2, jobs=1, within_spread=1.35,
            background_speakers=120, background_sessions=1,
            speakers=6, enroll_sessions=1, test_sessions=5,
            impostor_utterances=32, nontargets_per_model=35,
            overrides={"grbm_epochs": 40, "bb_epochs": 20,
                       "adapt_epochs": "12,8", "ft_epochs": 40},
        ),
        # Speaker-independent set-up and scoring dominate: pretraining and
        # impostor selection on a large background set, and every model
        # scored against every test utterance. Speakers train briefly,
        # through a two-process pool.
        Workload(
            name="score-multi-1L", task="multi", depth=1, jobs=2, within_spread=2.0,
            background_speakers=600, background_sessions=3,
            speakers=8, enroll_sessions=8, test_sessions=6,
            impostor_utterances=1500, nontargets_per_model=0,
            overrides={"grbm_epochs": 60},
        ),
    )
}


def _workload_rng(workload: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.name.encode())])


def _write_embeddings(path: str, rows: list[tuple[str, str, np.ndarray]]) -> None:
    with open(path, "w") as fh:
        fh.write(f"# embeddings d={DIMENSION} n={len(rows)}\n")
        for utt, spk, values in rows:
            fh.write(f"{utt} {spk} " + " ".join("%.17g" % x for x in values) + "\n")


def generate_inputs(workload: Workload, seed: int, directory: str) -> dict:
    """Write background, enroll, test and trials files under directory.

    Returns the experiment config pairs naming them, with master_seed set
    to the seed. The same (workload, seed) always gives the same bytes.
    """
    os.makedirs(directory, exist_ok=True)
    rng = _workload_rng(workload, seed)
    w = workload

    def sessions(count):
        mean = rng.normal(0.0, BETWEEN_SPREAD, DIMENSION)
        return mean + rng.normal(0.0, w.within_spread, (count, DIMENSION))

    background = []
    for b in range(w.background_speakers):
        for k, v in enumerate(sessions(w.background_sessions)):
            background.append((f"bg{b:04d}_{k}", "-", v))

    enroll, test, owner = [], [], {}
    for s in range(w.speakers):
        spk = f"spk{s:03d}"
        vectors = sessions(w.enroll_sessions + w.test_sessions)
        for k, v in enumerate(vectors[: w.enroll_sessions]):
            enroll.append((f"{spk}_e{k}", spk, v))
        for k, v in enumerate(vectors[w.enroll_sessions :]):
            test.append((f"{spk}_t{k}", "-", v))
            owner[f"{spk}_t{k}"] = spk
    for i in range(w.impostor_utterances):
        test.append((f"imp{i:04d}", "-", sessions(1)[0]))

    test_ids = [utt for utt, _, _ in test]
    trials = []
    for s in range(w.speakers):
        spk = f"spk{s:03d}"
        own = [t for t in test_ids if owner.get(t) == spk]
        others = [t for t in test_ids if owner.get(t) != spk]
        if w.nontargets_per_model:
            picked = rng.choice(len(others), w.nontargets_per_model, replace=False)
            others = [others[i] for i in sorted(picked)]
        trials += [(spk, t, "target") for t in own] + [(spk, t, "nontarget") for t in others]

    paths = {name: os.path.join(directory, f"{name}.txt")
             for name in ("background", "enroll", "test", "trials")}
    _write_embeddings(paths["background"], background)
    _write_embeddings(paths["enroll"], enroll)
    _write_embeddings(paths["test"], test)
    with open(paths["trials"], "w") as fh:
        fh.writelines(f"{m} {t} {key}\n" for m, t, key in trials)
    return {**paths, **workload.config, "master_seed": seed}
