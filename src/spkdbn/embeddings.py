"""Utterance embedding sets, text I/O, the float64 `.npz` store for every
array the program reads back, synthetic data and whitening.

Embeddings are fixed-dimension real vectors with an utterance id and an
optional speaker label.  A `Dataset` holds a set of them as columns: one
(n, d) float64 matrix `vectors`, whose row i belongs to utterance `ids[i]`
of speaker `speakers[i]`.  `rows(ids)` and `by_speaker()` index it, so
callers never rebuild the matrix or an id map.  The text format is one
record per line:

    <utterance_id> <speaker_id|-> <v_1> ... <v_d>

separated by any run of whitespace, as the fields of a trial list are;
lines starting with '#' are comments.  The speaker label '-' marks
unlabeled (background) data.
"""

from __future__ import annotations

import zipfile

import numpy as np
from dataclasses import dataclass, field

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

    Every array the program reads back (models, whitener, centroids) goes
    through this function and `load_arrays`.  np.savez is given an open
    file because it appends `.npz` to a name that lacks it.
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


@dataclass(frozen=True, eq=False)
class Dataset:
    """An embedding set held as three columns: row i of the (n, d) float64
    matrix `vectors` is utterance `ids[i]` of speaker `speakers[i]` (None
    for unlabeled background data).  It checks nothing: `parse_embeddings`
    checks its file line by line, and code builds only valid sets."""

    ids: tuple[str, ...]
    speakers: tuple[str | None, ...]
    vectors: np.ndarray
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {utt: i for i, utt in enumerate(self.ids)})

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def rows(self, ids) -> np.ndarray:
        """The (len(ids), d) vectors of the given utterance ids, in that order."""
        try:
            return self.vectors[[self._index[utt] for utt in ids]]
        except KeyError as exc:
            raise ValueError(f"unknown utterance id {exc.args[0]!r}") from None

    def by_speaker(self) -> dict[str, np.ndarray]:
        """{speaker: (sessions, d) matrix} of the labeled rows, speakers sorted."""
        groups: dict[str, list[int]] = {}
        for i, spk in enumerate(self.speakers):
            if spk is not None:
                groups.setdefault(spk, []).append(i)
        return {spk: self.vectors[groups[spk]] for spk in sorted(groups)}


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


def _lines(lines, path):
    """(line number, stripped text) per record of the binary `lines` of the text input
    `path`: a line that is not UTF-8 is a ParseError, and blank and '#' lines are skipped."""
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode().strip()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not UTF-8 text (byte {raw[exc.start]:#04x} "
                             f"at column {exc.start + 1})") from None
        if line and not line.startswith("#"):
            yield lineno, line


def parse_embeddings(lines, path) -> Dataset:
    """Parse the binary lines of the embedding text file `path` into a Dataset.

    The one check of an embedding file: the dimension is inferred from the
    first record; a malformed row, bad float, inconsistent dimension,
    non-finite value or duplicate utterance id raises ParseError naming the
    line number, and a file with no records one naming the file.
    """
    ids: list[str] = []
    speakers: list[str | None] = []
    rows: list[np.ndarray] = []
    dim = None
    seen: set[str] = set()
    for lineno, line in _lines(lines, path):
        fields = line.split()
        if len(fields) < 3:
            raise ParseError(f"{path}:{lineno}: expected id, speaker and values")
        utt, spk = fields[0], fields[1]
        try:
            values = np.array(fields[2:], dtype=np.float64)  # float()'s parser, bit for bit
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
        if not np.isfinite(values).all():
            raise ParseError(f"{path}:{lineno}: non-finite value in embedding {utt!r}")
        seen.add(utt)
        ids.append(utt)
        speakers.append(None if spk == "-" else spk)
        rows.append(values)
    if dim is None:
        raise ParseError(f"{path}: no embedding records found")
    return Dataset(tuple(ids), tuple(speakers), np.stack(rows))


def save_embeddings(dataset: Dataset, path) -> None:
    """Write a Dataset in the embedding text format (lossless floats)."""
    with open(path, "w") as fh:
        fh.write(f"# embeddings d={dataset.dimension} n={len(dataset)}\n")
        for utt, spk, v in zip(dataset.ids, dataset.speakers, dataset.vectors):
            vals = " ".join(_fmt(x) for x in v)
            fh.write(f"{utt} {spk if spk is not None else '-'} {vals}\n")


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
    ids, speakers, rows = [], [], []
    for s in range(config.num_speakers):
        spk = f"spk{s:04d}"
        offsets = rng.normal(
            0.0,
            config.within_speaker_spread,
            size=(config.sessions_per_speaker, config.dimension),
        )
        for k in range(config.sessions_per_speaker):
            ids.append(f"{spk}_sess{k:03d}")
            speakers.append(spk)
        rows.append(means[s] + offsets)
    return Dataset(tuple(ids), tuple(speakers), np.vstack(rows))


def length_normalize(v: np.ndarray) -> np.ndarray:
    """Scale a vector to unit Euclidean norm, which must be finite and non-zero."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if not 0.0 < n < np.inf:
        raise ValueError(f"cannot length-normalize a vector of norm {n}")
    return v / n


@dataclass(frozen=True)
class Whitener:
    """Affine whitening transform: y = transform @ (x - mean)."""

    mean: np.ndarray
    transform: np.ndarray


def fit_whitener(background: np.ndarray) -> Whitener:
    """Fit a whitening transform on an (n, d) matrix of background vectors.

    Uses the inverse Cholesky factor of the regularized sample covariance
    (cov + eps*I with eps = 1e-6 * trace/d), so the covariance of the
    whitened fitting set is the identity up to the regularization.
    """
    X = np.asarray(background, dtype=np.float64)
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
