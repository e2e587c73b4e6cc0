"""Trial scoring and evaluation: cosine baseline, EER, minDCF, DET, fusion.

A trial list (`Trials`) holds columns `models`, `tests` and `keys`,
sorted by (model, test), the only trial order: a score set is a float64
vector whose element i scores trial i, and a score file is in that order.

Scores are similarity-oriented throughout (higher = more target-like).
The threshold sweep takes a threshold between each pair of consecutive
distinct scores (their midpoint, or the higher score where the midpoint
does not fall above the lower one) plus -inf/+inf sentinels, which covers
every achievable operating point; a trial is accepted when its score >=
threshold.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
from dataclasses import dataclass

from .embeddings import ParseError, Whitener, _fmt, apply_whitener, length_normalize

DCF_C_MISS = 10.0
DCF_C_FA = 1.0
DCF_P_TARGET = 0.01


@dataclass(frozen=True)
class Trials:
    """A trial list as three columns, strictly increasing in (model, test)."""

    models: tuple[str, ...]
    tests: tuple[str, ...]
    keys: tuple[str, ...]

    def __post_init__(self):
        if not len(self.models) == len(self.tests) == len(self.keys):
            raise ValueError("trial columns differ in length")
        unknown = set(self.keys) - {"target", "nontarget"}
        if unknown:
            raise ValueError(f"unknown trial key {min(unknown)!r}")
        pairs = list(zip(self.models, self.tests))
        if any(not p < q for p, q in zip(pairs, pairs[1:])):
            raise ValueError("trial pairs are not strictly increasing in (model, test)")

    def __len__(self) -> int:
        return len(self.models)

    def by_model(self) -> dict[str, slice]:
        """{model: slice of its trial indices}, models sorted; the list is
        sorted, so each model's trials are one contiguous block."""
        return {m: slice(bisect.bisect_left(self.models, m), bisect.bisect_right(self.models, m))
                for m in dict.fromkeys(self.models)}


@dataclass(frozen=True, eq=False)
class EvalReport:
    eer: float
    min_dcf: float
    det_points: np.ndarray  # (n, 2) float64: (p_fa, p_miss) per threshold, in threshold order
    threshold_at_eer: float


def baseline_vector(vectors, whitener: Whitener) -> np.ndarray:
    """Whiten each (sessions, d) row, average, length-normalize: a model from
    its enrollment, a test vector from its one row (whose average is itself)."""
    vectors = np.atleast_2d(vectors)
    if vectors.shape[0] == 0:
        raise ValueError("no enrolled vectors")
    return length_normalize(np.mean([apply_whitener(whitener, v) for v in vectors], axis=0))


def score_baseline(model: np.ndarray, test: np.ndarray) -> float:
    """Cosine similarity a.b / (|a||b|) of two `baseline_vector`s, a model's
    and a test's."""
    a = np.asarray(model, dtype=float)
    b = np.asarray(test, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    ra, rb = a.ravel(order="K"), b.ravel(order="K")  # np.linalg.norm's sum, without its overhead
    na, nb = math.sqrt(ra.dot(ra)), math.sqrt(rb.dot(rb))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for the zero vector")
    return float(a @ b / (na * nb))


def mean_var_normalize(scores) -> np.ndarray:
    """Shift/scale to zero mean and unit population variance."""
    x = np.asarray(scores, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 scores to normalize")
    sd = x.std()
    if sd == 0.0:
        raise ValueError("zero-variance scores cannot be normalized")
    return (x - x.mean()) / sd


def fuse(scores_a, scores_b) -> np.ndarray:
    """Sum of two aligned score vectors, each mean/variance-normalized."""
    return mean_var_normalize(scores_a) + mean_var_normalize(scores_b)


def _operating_points(scores, keys):
    """Thresholds (ascending) with P_miss and P_fa at each: the one sweep
    that EER, minDCF and the DET points are all read from."""
    s, k = np.asarray(scores, dtype=float), np.asarray(keys)
    if s.shape != k.shape:
        raise ValueError("scores and keys differ in length")
    nan = np.count_nonzero(np.isnan(s))
    if nan:
        raise ValueError(f"{nan} of {s.size} scores are NaN")
    tar, non = np.sort(s[k == "target"]), np.sort(s[k == "nontarget"])
    if tar.size == 0 or non.size == 0:
        raise ValueError("need at least one target and one nontarget trial")
    s = np.sort(np.concatenate([tar, non]))
    s = s[np.concatenate(([True], s[1:] != s[:-1]))]  # distinct scores
    lo, hi = s[:-1], s[1:]
    with np.errstate(invalid="ignore", over="ignore"):
        mid = (lo + hi) / 2.0
    # The midpoint separates lo from hi unless it is NaN (-inf, +inf),
    # equals lo (-inf, finite) or rounds to lo (adjacent doubles); then hi does.
    thr = np.concatenate(([-np.inf], np.where((lo < mid) & (mid <= hi), mid, hi), [np.inf]))
    p_miss = np.searchsorted(tar, thr, side="left") / tar.size
    p_fa = (non.size - np.searchsorted(non, thr, side="left")) / non.size
    return thr, p_miss, p_fa


def _eer(thr, p_miss, p_fa):
    """Equal error rate and its threshold, interpolated linearly between the
    two adjacent operating points where the sign of (P_miss - P_fa) flips."""
    diff = p_miss - p_fa
    i = int(np.argmax(diff >= 0.0))  # diff[0] = -1, so i >= 1 unless degenerate
    if diff[i] == 0.0:
        return float(p_miss[i]), float(thr[i])
    a = diff[i - 1] / (diff[i - 1] - diff[i])
    eer = p_miss[i - 1] + a * (p_miss[i] - p_miss[i - 1])
    if np.isfinite(thr[i - 1]) and np.isfinite(thr[i]):
        t = thr[i - 1] + a * (thr[i] - thr[i - 1])
    else:
        t = thr[i] if np.isfinite(thr[i]) else thr[i - 1]
    return float(eer), float(t)


def evaluate_trials(scores, keys) -> EvalReport:
    """Full report for scores whose trials have `keys`, from one sweep.
    minDCF is the minimum of C_miss*P_target*P_miss + C_fa*(1-P_target)*P_fa
    over thresholds, with the DCF_* costs and prior."""
    thr, p_miss, p_fa = _operating_points(scores, keys)
    eer, threshold = _eer(thr, p_miss, p_fa)
    dcf = DCF_C_MISS * DCF_P_TARGET * p_miss + DCF_C_FA * (1.0 - DCF_P_TARGET) * p_fa
    return EvalReport(eer, float(dcf.min()), np.column_stack((p_fa, p_miss)), threshold)


def parse_trials(lines, path) -> Trials:
    """Trial list file `path` from its lines, `<model_id> <test_utterance_id>
    <target|nontarget>` each, in any order, each pair once; sorted by (model, test)."""
    key_of, first_line = {}, {}
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
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
    models, tests = zip(*sorted(key_of))
    return Trials(models, tests, tuple(key_of[pair] for pair in zip(models, tests)))


def save_scores(scores, trials: Trials, path) -> None:
    """Score file: `<model_id> <test_utterance_id> <score>` per trial, in order."""
    if len(scores) != len(trials):
        raise ValueError(f"{len(scores)} scores for {len(trials)} trials")
    with open(path, "w") as fh:
        for model_id, test_id, score in zip(trials.models, trials.tests, scores):
            fh.write(f"{model_id} {test_id} {_fmt(score)}\n")


def save_report(report: EvalReport, report_path, det_csv_path) -> None:
    """Structured report text plus a CSV of the DET curve's corners for plotting.

    The DET points form a staircase in threshold order.  A point is left
    out of the CSV when both its neighbours share its p_fa, or both share
    its p_miss: it lies on the axis-parallel segment between them, so the
    kept points draw the same curve.  The first and last points are kept.
    """
    with open(report_path, "w") as fh:
        fh.write(f"eer={_fmt(report.eer)} min_dcf={_fmt(report.min_dcf)}\n")
        fh.write(f"threshold_at_eer={_fmt(report.threshold_at_eer)}\n")
        # presentation only: EER as percent, minDCF scaled by 1e4
        fh.write(f"eer_pct={_fmt(100.0 * report.eer)} min_dcf_x1e4={_fmt(1e4 * report.min_dcf)}\n")
    points = report.det_points
    same = points[1:] == points[:-1]  # row i: point i+1 shares (p_fa, p_miss) with point i
    keep = np.ones(len(points), dtype=bool)
    keep[1:-1] = ~(same[:-1] & same[1:]).any(axis=1)
    with open(det_csv_path, "w") as fh:
        fh.write("p_fa,p_miss\n")
        for p_fa, p_miss in points[keep].tolist():
            fh.write(f"{_fmt(p_fa)},{_fmt(p_miss)}\n")
