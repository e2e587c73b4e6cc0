"""Correctness checks on the pipeline's user-facing outputs.

Every check reads only the input files, the score files and the reports,
never the model files, and computes what it compares against with its
own numpy code.  Each check returns a list of problems; an empty list
means it passed.
"""

from __future__ import annotations

import math
import os

import numpy as np

SYSTEMS = ("dnn", "baseline", "fused")
DCF_C_MISS, DCF_C_FA, DCF_P_TARGET = 10.0, 1.0, 0.01
# Cosines lie in [-1, 1] and normalized scores within a few units, so an
# absolute 1e-9 allows for a different whitening factor or summation order
# while catching any real perturbation.
SCORE_TOL = 1e-9
# EER and minDCF come from the same parsed floats by exact counting.
METRIC_TOL = 1e-12
# Chance is an EER of 0.5; a trained system must stay well clear of it.
MAX_EER = 0.25


def read_embeddings(path):
    """(utterance ids, speaker labels or None, (n, d) matrix)."""
    ids, speakers, rows = [], [], []
    with open(path) as fh:
        for line in fh:
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split()
            ids.append(fields[0])
            speakers.append(None if fields[1] == "-" else fields[1])
            rows.append([float(x) for x in fields[2:]])
    return ids, speakers, np.array(rows)


def read_trials(path) -> list[tuple[str, str, str]]:
    with open(path) as fh:
        return [tuple(line.split()) for line in fh if line.strip()]


def read_scores(path) -> list[tuple[str, str, float]]:
    """Every line of a score file, duplicates kept."""
    out = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                model, test, score = line.split()
                out.append((model, test, float(score)))
    return out


def read_report(path) -> tuple[float, float]:
    """(eer, min_dcf) from the first line of a report."""
    with open(path) as fh:
        fields = dict(f.split("=", 1) for f in fh.readline().split())
    return float(fields["eer"]), float(fields["min_dcf"])


def check_scored_once(trials, lines, system: str) -> list[str]:
    """Each trial appears exactly once, with a finite score, and no other
    pair appears."""
    problems = []
    pairs = [(m, t) for m, t, _ in lines]
    if len(set(pairs)) != len(pairs):
        problems.append(f"{system}: {len(pairs) - len(set(pairs))} trial(s) scored more than once")
    wanted = {(m, t) for m, t, _ in trials}
    if set(pairs) != wanted:
        problems.append(f"{system}: {len(wanted - set(pairs))} trial(s) unscored, "
                        f"{len(set(pairs) - wanted)} unknown pair(s) scored")
    bad = sum(1 for *_, s in lines if not math.isfinite(s))
    if bad:
        problems.append(f"{system}: {bad} non-finite score(s)")
    return problems


def baseline_scores(background, enroll, test, pairs) -> np.ndarray:
    """Cosine scores after whitening and length normalization.

    Whitens with the symmetric inverse square root of the background
    covariance, regularized as the program does (eps = 1e-6 * trace / d).
    The program uses an inverse Cholesky factor; the two differ by a
    rotation, which leaves every cosine unchanged.  An enrolled model is
    the mean of its whitened sessions.
    """
    _, _, B = background
    mean = B.mean(axis=0)
    cov = np.cov(B, rowvar=False, ddof=1)
    cov += 1e-6 * np.trace(cov) / cov.shape[0] * np.eye(cov.shape[0])
    vals, vecs = np.linalg.eigh(cov)
    T = (vecs / np.sqrt(vals)) @ vecs.T

    def unit(X):
        return X / np.linalg.norm(X, axis=1, keepdims=True)

    _, e_spk, E = enroll
    whitened, e_spk = (E - mean) @ T, np.array(e_spk)
    model_ids = sorted(set(e_spk))
    models = np.stack([whitened[e_spk == m].mean(axis=0) for m in model_ids])
    model_unit = dict(zip(model_ids, unit(models)))
    t_ids, _, X = test
    test_unit = dict(zip(t_ids, unit((X - mean) @ T)))
    return np.array([model_unit[m] @ test_unit[t] for m, t in pairs])


def check_baseline(background, enroll, test, lines) -> list[str]:
    expected = baseline_scores(background, enroll, test, [(m, t) for m, t, _ in lines])
    got = np.array([s for *_, s in lines])
    worst = np.abs(got - expected).max(initial=0.0)
    if not worst <= SCORE_TOL:
        return [f"baseline: score differs from the recomputed cosine by {worst:.3g}"]
    return []


def check_fused(dnn_lines, baseline_lines, fused_lines) -> list[str]:
    """Fused = mean/variance-normalized DNN score + normalized baseline score."""
    def normalized(lines):
        by_pair = {(m, t): s for m, t, s in lines}
        x = np.array(list(by_pair.values()))
        return dict(zip(by_pair, (x - x.mean()) / x.std()))

    a, b = normalized(dnn_lines), normalized(baseline_lines)
    worst = max((abs(s - (a[(m, t)] + b[(m, t)])) for m, t, s in fused_lines), default=0.0)
    if not worst <= SCORE_TOL:
        return [f"fused: score differs from the normalized sum by {worst:.3g}"]
    return []


def sweep(scores, keys) -> tuple[float, float]:
    """EER and minDCF from an exhaustive threshold sweep.

    A trial is accepted when its score is at least the threshold.  The
    thresholds are every distinct score, ascending, then +inf.  The EER is
    where the line through consecutive (P_fa, P_miss) points crosses
    P_miss = P_fa; minDCF is the least 10*0.01*P_miss + 0.99*P_fa.
    """
    pairs = sorted(zip(scores, keys))
    n_tar = sum(1 for k in keys if k == "target")
    n_non = len(keys) - n_tar
    points, misses, false_alarms, i = [], 0, n_non, 0
    while i < len(pairs):
        points.append((misses / n_tar, false_alarms / n_non))
        threshold = pairs[i][0]
        while i < len(pairs) and pairs[i][0] == threshold:
            if pairs[i][1] == "target":
                misses += 1
            else:
                false_alarms -= 1
            i += 1
    points.append((misses / n_tar, false_alarms / n_non))

    eer = None
    for (m0, f0), (m1, f1) in zip(points, points[1:]):
        if m0 - f0 == 0.0:
            eer = m0
            break
        if m1 - f1 >= 0.0:
            if m1 - f1 == 0.0:
                eer = m1
            else:
                a = (m0 - f0) / ((m0 - f0) - (m1 - f1))
                eer = m0 + a * (m1 - m0)
            break
    min_dcf = min(DCF_C_MISS * DCF_P_TARGET * m + DCF_C_FA * (1.0 - DCF_P_TARGET) * f
                  for m, f in points)
    return eer, min_dcf


def check_report(trials, lines, report, system: str) -> list[str]:
    """The report's EER and minDCF equal the sweep over its score file."""
    key = {(m, t): k for m, t, k in trials}
    eer, min_dcf = sweep([s for *_, s in lines], [key[(m, t)] for m, t, _ in lines])
    problems = []
    if not abs(report[0] - eer) <= METRIC_TOL:
        problems.append(f"{system}: report EER {report[0]!r} != swept {eer!r}")
    if not abs(report[1] - min_dcf) <= METRIC_TOL:
        problems.append(f"{system}: report minDCF {report[1]!r} != swept {min_dcf!r}")
    return problems


def check_outputs(inputs: dict, out_dir: str):
    """Run every check on one pipeline output directory.

    inputs maps 'background', 'enroll', 'test' and 'trials' to their
    paths.  Returns (problems, {system: (eer, min_dcf)}).
    """
    trials = read_trials(inputs["trials"])
    lines = {s: read_scores(os.path.join(out_dir, f"scores_{s}.txt")) for s in SYSTEMS}
    reports = {s: read_report(os.path.join(out_dir, f"report_{s}.txt")) for s in SYSTEMS}
    problems = []
    for s in SYSTEMS:
        problems += check_scored_once(trials, lines[s], s)
    if problems:
        return problems, reports
    embeddings = [read_embeddings(inputs[k]) for k in ("background", "enroll", "test")]
    problems += check_baseline(*embeddings, lines["baseline"])
    problems += check_fused(lines["dnn"], lines["baseline"], lines["fused"])
    for s in SYSTEMS:
        problems += check_report(trials, lines[s], reports[s], s)
    for s in ("dnn", "fused"):
        if not reports[s][0] < MAX_EER:
            problems.append(f"{s}: EER {reports[s][0]:.4f} is not below {MAX_EER}")
    return problems, reports
