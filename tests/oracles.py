"""Independent brute-force reference implementations used as test oracles.

The metric, selection and forward-pass oracles are pure-python loop code,
deliberately written without reusing any vectorized library internals, so
oracle agreement is a real cross-check and not a tautology.  There are two
exceptions.  The fine-tuning loss: finite differences evaluate it once per
parameter, so it is vectorised and reads the output pre-activations of the
library's forward pass, which `forward_oracle` checks.  And the cosine that
score files are compared with byte for byte: `cosine_bits_oracle` is the
`np.linalg.norm` formula, which the package's cosine reproduces bit for bit
and a loop sum does not.  The reader oracles
at the end parse one line at a time, with `float()` per field.
"""

import math

import numpy as np

from spkdbn.dnn import _forward_full
from spkdbn.embeddings import Dataset, ParseError
from spkdbn.evaluation import Trials


def cosine_oracle(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def cosine_bits_oracle(a, b):
    """The cosine of two float64 vectors by the `np.linalg.norm` formula,
    whose bits the package's cosine must reproduce."""
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def select_impostors_oracle(targets, impostors, n_local, kappa):
    """Frequency-count selection with tie-break by ascending index."""
    M = len(impostors)
    f = [0] * M
    for t in targets:
        scores = [cosine_oracle(t, impostors[m]) for m in range(M)]
        ranked = sorted(range(M), key=lambda m: (-scores[m], m))
        for m in ranked[:n_local]:
            f[m] += 1
    final = sorted(range(M), key=lambda m: (-f[m], m))
    return final[:kappa], f


def sweep_oracle(scores, keys):
    """(threshold, p_miss, p_fa) at midpoints plus -inf/+inf sentinels."""
    tar = [s for s, k in zip(scores, keys) if k == "target"]
    non = [s for s, k in zip(scores, keys) if k == "nontarget"]
    uniq = sorted(set(list(tar) + list(non)))
    thresholds = (
        [float("-inf")]
        + [(a + b) / 2.0 for a, b in zip(uniq, uniq[1:])]
        + [float("inf")]
    )
    points = []
    for t in thresholds:
        p_miss = sum(1 for s in tar if s < t) / len(tar)
        p_fa = sum(1 for s in non if s >= t) / len(non)
        points.append((t, p_miss, p_fa))
    return points


def eer_oracle(scores, keys):
    """Linear interpolation at the sign flip of (p_miss - p_fa)."""
    points = sweep_oracle(scores, keys)
    prev = None
    for t, p_miss, p_fa in points:
        d = p_miss - p_fa
        if d == 0.0:
            return p_miss, t
        if d > 0.0:
            t0, m0, f0 = prev
            d0 = m0 - f0
            a = d0 / (d0 - d)
            return m0 + a * (p_miss - m0), t0 + a * (t - t0)
        prev = (t, p_miss, p_fa)
    raise AssertionError("no crossing found")


def min_dcf_oracle(scores, keys, c_miss=10.0, c_fa=1.0, p_target=0.01):
    points = sweep_oracle(scores, keys)
    best = None
    for t, p_miss, p_fa in points:
        dcf = c_miss * p_target * p_miss + c_fa * (1.0 - p_target) * p_fa
        if best is None or dcf < best[0]:
            best = (dcf, t)
    return best


def forward_oracle(weights, biases, x):
    """Plain-loop sigmoid/softmax forward pass; returns (activations, probs)."""
    acts = []
    a = list(x)
    for W, b in zip(weights[:-1], biases[:-1]):
        n_in, n_out = len(W), len(W[0])
        z = [b[j] + sum(a[i] * W[i][j] for i in range(n_in)) for j in range(n_out)]
        a = [1.0 / (1.0 + math.exp(-v)) for v in z]
        acts.append(a)
    W, b = weights[-1], biases[-1]
    z = [b[j] + sum(a[i] * W[i][j] for i in range(len(W))) for j in range(len(b))]
    zmax = max(z)
    e = [math.exp(v - zmax) for v in z]
    s = sum(e)
    return acts, [v / s for v in e]


def mean_cross_entropy_oracle(model, X, Y):
    """Mean over the rows of -log softmax(z)[label] = log(1 + e^(z_other - z_label)),
    for one-hot label rows Y and the 2-unit output pre-activations z."""
    _, z = _forward_full(model, X)
    return float(np.mean(np.logaddexp(0.0, (z * (1.0 - 2.0 * Y)).sum(axis=1))))


# Line-by-line readers that the package's readers must match: the
# same arrays, bit for bit, and the same ParseError text for a malformed file.
# Both take a file's binary lines.

def _text_oracle(raw, path, lineno):
    """A binary line as text.  Each byte that is not part of UTF-8 text
    decodes to its own lone surrogate, so the first one found is the byte
    to name, and the text before it re-encodes to its column."""
    text = raw.decode(errors="surrogateescape")
    bad = [i for i, ch in enumerate(text) if "\udc80" <= ch <= "\udcff"]
    if bad:
        column = len(text[:bad[0]].encode(errors="surrogateescape")) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text "
                         f"(byte {ord(text[bad[0]]) - 0xdc00:#04x} at column {column})")
    return text


def parse_embeddings_oracle(lines, path):
    ids, speakers, rows = [], [], []
    dim = None
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = _text_oracle(raw, path, lineno).strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
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
        if not np.isfinite(values).all():
            raise ParseError(f"{path}:{lineno}: non-finite value in embedding {utt!r}")
        seen.add(utt)
        ids.append(utt)
        speakers.append(None if spk == "-" else spk)
        rows.append(values)
    if dim is None:
        raise ParseError(f"{path}: no embedding records found")
    return Dataset(tuple(ids), tuple(speakers), np.stack(rows))


def parse_trials_oracle(lines, path):
    key_of, first_line = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        fields = _text_oracle(raw, path, lineno).split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 3 or fields[2] not in ("target", "nontarget"):
            raise ParseError(f"{path}:{lineno}: expected '<model> <test> <target|nontarget>'")
        pair = (fields[0], fields[1])
        if pair in key_of:
            raise ParseError(f"{path}:{lineno}: trial '{fields[0]} {fields[1]}' "
                             f"repeats line {first_line[pair]}")
        key_of[pair], first_line[pair] = fields[2], lineno
    if not key_of:
        raise ParseError(f"{path}: no trials found")
    keys = set(key_of.values())
    if "target" not in keys:
        raise ParseError(f"{path}: no target trial")
    if "nontarget" not in keys:
        raise ParseError(f"{path}: no nontarget trial")
    models, tests = zip(*sorted(key_of))
    return Trials(models, tests, tuple(key_of[pair] for pair in zip(models, tests)))


def load_scores_oracle(path, trials):
    scores = np.empty(len(trials))
    i = lineno = 0
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.split()
            if not fields or fields[0].startswith("#"):
                continue
            if i == len(trials):
                raise ParseError(f"{path}:{lineno}: score past the last of {len(trials)} trials")
            want = [trials.models[i], trials.tests[i]]
            if len(fields) != 3 or fields[:2] != want:
                raise ParseError(f"{path}:{lineno}: expected '{want[0]} {want[1]} <score>'")
            try:
                score = float(fields[2])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad score field") from None
            if not math.isfinite(score):
                raise ParseError(f"{path}:{lineno}: non-finite score {fields[2]!r}")
            scores[i] = score
            i += 1
    if i < len(trials):
        raise ParseError(f"{path}:{lineno + 1}: missing '{trials.models[i]} {trials.tests[i]}'")
    return scores
