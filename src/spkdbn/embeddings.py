"""Utterance embedding containers, text I/O, the float64 `.npz` store for
model and whitener files, synthetic data and whitening.

Embeddings are fixed-dimension real vectors with an utterance id and an
optional speaker label.  The text format is one record per line:

    <utterance_id> <speaker_id|-> <v_1> ... <v_d>

separated by single spaces; lines starting with '#' are comments.  The
speaker label '-' marks unlabeled (background) data.
"""

from __future__ import annotations

import re
import zipfile

import numpy as np
from dataclasses import dataclass

# 17 significant digits round-trip any IEEE double through text exactly.
FLOAT_FMT = "%.17g"


class ParseError(ValueError):
    """Malformed input file; the message names the file, and the offending
    line of a text file."""


class _Arrays(dict):
    """The arrays of one archive; a missing name raises ParseError."""

    def __init__(self, path, arrays: dict):
        super().__init__(arrays)
        self.path = path

    def __missing__(self, name):
        raise ParseError(f"{self.path}: missing array {name!r}")


def save_arrays(path, kind: str, **arrays) -> None:
    """Write named float64 arrays and the format tag `kind` to `path` as an
    uncompressed `.npz` archive; floats round-trip exactly.

    Model and whitener files go through this function and `load_arrays`
    only.  np.savez is given an open file because it appends `.npz` to a
    name that lacks it.
    """
    data = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
    with open(path, "wb") as fh:
        np.savez(fh, format=np.array(kind), **data)


def load_arrays(path, kind: str) -> dict[str, np.ndarray]:
    """Read an archive written by `save_arrays` with the same `kind`.

    Raises ParseError naming the path for a file that is not such an
    archive, a different format tag, an array that is not float64 (object
    arrays are never unpickled), and, on lookup, a missing array name.
    """
    try:
        with open(path, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError("not an .npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise ParseError(f"{path}: unreadable {kind} file ({exc})") from None
    tag = str(arrays.pop("format", "missing"))
    if tag != kind:
        raise ParseError(f"{path}: expected a {kind} file, format tag is {tag!r}")
    for name, a in arrays.items():
        if a.dtype != np.float64:
            raise ParseError(f"{path}: array {name!r} is {a.dtype}, not float64")
    return _Arrays(path, arrays)


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


@dataclass(frozen=True)
class Embedding:
    """One utterance's embedding vector."""

    utterance_id: str
    speaker_id: str | None
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("embedding values must be a non-empty 1-D vector")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"non-finite value in embedding {self.utterance_id!r}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of embeddings sharing one dimension."""

    embeddings: tuple[Embedding, ...]
    dimension: int

    def __post_init__(self):
        embs = tuple(self.embeddings)
        seen = set()
        for e in embs:
            if e.values.size != self.dimension:
                raise ValueError(
                    f"embedding {e.utterance_id!r} has dimension {e.values.size}, "
                    f"expected {self.dimension}"
                )
            if e.utterance_id in seen:
                raise ValueError(f"duplicate utterance_id {e.utterance_id!r}")
            seen.add(e.utterance_id)
        object.__setattr__(self, "embeddings", embs)

    @classmethod
    def from_embeddings(cls, embeddings) -> "Dataset":
        embs = list(embeddings)
        if not embs:
            raise ValueError("cannot infer dimension of an empty dataset")
        return cls(tuple(embs), embs[0].values.size)

    def __len__(self) -> int:
        return len(self.embeddings)

    def matrix(self) -> np.ndarray:
        """Row-stacked (n, d) view of all embedding vectors."""
        if not self.embeddings:
            return np.zeros((0, self.dimension))
        return np.stack([e.values for e in self.embeddings])

    def utterance_ids(self) -> list[str]:
        return [e.utterance_id for e in self.embeddings]

    def by_speaker(self) -> dict[str, list[Embedding]]:
        """Labeled embeddings grouped by speaker, insertion-ordered."""
        groups: dict[str, list[Embedding]] = {}
        for e in self.embeddings:
            if e.speaker_id is not None:
                groups.setdefault(e.speaker_id, []).append(e)
        return groups


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic embedding generator."""

    num_speakers: int
    sessions_per_speaker: int
    dimension: int
    between_speaker_spread: float
    within_speaker_spread: float
    seed: int

    def __post_init__(self):
        if min(self.num_speakers, self.sessions_per_speaker, self.dimension) < 1:
            raise ValueError("counts must be >= 1")
        if self.between_speaker_spread <= 0 or self.within_speaker_spread <= 0:
            raise ValueError("spreads must be > 0")


def load_embeddings(path) -> Dataset:
    """Parse an embedding text file into a Dataset.

    The dimension is inferred from the first record; a malformed row,
    inconsistent dimension or duplicate utterance id raises ParseError
    naming the line number.
    """
    embeddings: list[Embedding] = []
    dim = None
    header_dim = None
    seen: set[str] = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                m = re.match(r"#\s*embeddings\s+d=(\d+)", line)
                if m:
                    header_dim = int(m.group(1))
                continue
            fields = line.split(" ")
            if len(fields) < 3:
                raise ParseError(f"{path}:{lineno}: expected id, speaker and values")
            utt, spk = fields[0], fields[1]
            try:
                values = np.array([float(x) for x in fields[2:]])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad float field ({exc})") from None
            if dim is None:
                dim = values.size
            elif values.size != dim:
                raise ParseError(
                    f"{path}:{lineno}: dimension {values.size} != {dim} of first row"
                )
            if utt in seen:
                raise ParseError(f"{path}:{lineno}: duplicate utterance_id {utt!r}")
            seen.add(utt)
            try:
                emb = Embedding(utt, None if spk == "-" else spk, values)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            embeddings.append(emb)
    if dim is None:
        if header_dim is not None:
            return Dataset((), header_dim)
        raise ParseError(f"{path}: no embedding records found")
    return Dataset(tuple(embeddings), dim)


def save_embeddings(dataset: Dataset, path) -> None:
    """Write a Dataset in the embedding text format (lossless floats)."""
    with open(path, "w") as fh:
        fh.write(f"# embeddings d={dataset.dimension} n={len(dataset)}\n")
        for e in dataset.embeddings:
            spk = e.speaker_id if e.speaker_id is not None else "-"
            vals = " ".join(_fmt(x) for x in e.values)
            fh.write(f"{e.utterance_id} {spk} {vals}\n")


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Draw a labeled synthetic dataset of clustered speaker embeddings.

    Each speaker gets an isotropic-Gaussian latent mean (scale
    between_speaker_spread); sessions are drawn around it with scale
    within_speaker_spread.  Deterministic given the seed.
    """
    rng = np.random.default_rng(config.seed)
    means = rng.normal(
        0.0, config.between_speaker_spread, size=(config.num_speakers, config.dimension)
    )
    embeddings = []
    for s in range(config.num_speakers):
        spk = f"spk{s:04d}"
        offsets = rng.normal(
            0.0,
            config.within_speaker_spread,
            size=(config.sessions_per_speaker, config.dimension),
        )
        for k in range(config.sessions_per_speaker):
            embeddings.append(
                Embedding(f"{spk}_sess{k:03d}", spk, means[s] + offsets[k])
            )
    return Dataset(tuple(embeddings), config.dimension)


def length_normalize(v: np.ndarray) -> np.ndarray:
    """Scale a vector to unit Euclidean norm."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot length-normalize the zero vector")
    return v / n


def average_embeddings(vectors) -> np.ndarray:
    """Componentwise arithmetic mean of a non-empty list of equal-length vectors."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs:
        raise ValueError("average_embeddings: empty input")
    X = np.stack(vs)
    return X.mean(axis=0)


@dataclass(frozen=True)
class Whitener:
    """Affine whitening transform: y = transform @ (x - mean)."""

    mean: np.ndarray
    transform: np.ndarray


def fit_whitener(background: Dataset) -> Whitener:
    """Fit a whitening transform on a background dataset.

    Uses the inverse Cholesky factor of the regularized sample covariance
    (cov + eps*I with eps = 1e-6 * trace/d), so the covariance of the
    whitened fitting set is the identity up to the regularization.
    """
    X = background.matrix()
    n, d = X.shape
    if n < d + 1:
        raise ValueError(f"need at least d+1={d + 1} vectors to fit a whitener, got {n}")
    mean = X.mean(axis=0)
    cov = np.cov(X, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    eps = 1e-6 * np.trace(cov) / d
    try:
        L = np.linalg.cholesky(cov + eps * np.eye(d))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular covariance, cannot whiten: {exc}") from None
    transform = np.linalg.inv(L)
    if not np.all(np.isfinite(transform)):
        raise ValueError("non-finite whitening transform")
    return Whitener(mean, transform)


def apply_whitener(w: Whitener, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return w.transform @ (v - w.mean)


def save_whitener(w: Whitener, path) -> None:
    """Whitener file: archive tagged `whitener` with `mean` (d,) and
    `transform` (d, d)."""
    save_arrays(path, "whitener", mean=w.mean, transform=w.transform)


def load_whitener(path) -> Whitener:
    arrays = load_arrays(path, "whitener")
    mean, transform = arrays["mean"], arrays["transform"]
    if mean.ndim != 1 or transform.shape != (mean.size, mean.size):
        raise ParseError(f"{path}: whitener dimensions inconsistent with d={mean.size}")
    return Whitener(mean, transform)
