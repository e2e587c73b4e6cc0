import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from spkdbn.embeddings import Dataset, SynthConfig, generate_synthetic, save_embeddings


def unlabel(dataset: Dataset) -> Dataset:
    return Dataset(dataset.ids, (None,) * len(dataset), dataset.vectors)


def subset(dataset: Dataset, keep) -> Dataset:
    """The rows of dataset whose utterance id satisfies keep, in order."""
    rows = [i for i, utt in enumerate(dataset.ids) if keep(utt)]
    return Dataset(tuple(dataset.ids[i] for i in rows),
                   tuple(dataset.speakers[i] for i in rows), dataset.vectors[rows])


def make_experiment(root: Path, data_seed: int = 0, master_seed: int = 7,
                    num_speakers: int = 20, dim: int = 50, spread_ratio: float = 0.2):
    """Write a small synthetic single-session experiment and return its
    config key/value pairs (scaled-down presets, depth 1)."""
    root.mkdir(parents=True, exist_ok=True)
    background = unlabel(
        generate_synthetic(SynthConfig(40, 5, dim, 1.0, spread_ratio, seed=data_seed + 1000))
    )
    save_embeddings(background, root / "background.txt")

    # 1 enrollment + 2 test sessions per speaker
    full = generate_synthetic(SynthConfig(num_speakers, 3, dim, 1.0, spread_ratio, seed=data_seed))
    enroll = subset(full, lambda utt: utt.endswith("sess000"))
    test = subset(full, lambda utt: not utt.endswith("sess000"))
    save_embeddings(enroll, root / "enroll.txt")
    save_embeddings(unlabel(test), root / "test.txt")

    with open(root / "trials.txt", "w") as fh:
        for spk in sorted(set(enroll.speakers)):
            for utt, test_spk in zip(test.ids, test.speakers):
                key = "target" if test_spk == spk else "nontarget"
                fh.write(f"{spk} {utt} {key}\n")

    return {
        "background": str(root / "background.txt"),
        "enroll": str(root / "enroll.txt"),
        "test": str(root / "test.txt"),
        "trials": str(root / "trials.txt"),
        "out": str(root / "out"),
        "task": "single",
        "depth": "1",
        "master_seed": str(master_seed),
        "hidden_size": "32",
        "grbm_epochs": "30",
        "bb_epochs": "20",
        "impostor_kappa": "60",
        "ft_lr": "0.01",
        "ft_epochs": "60",
    }
