import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import eer_oracle, load_scores_oracle, min_dcf_oracle, sweep_oracle
from spkdbn import evaluation
from spkdbn.embeddings import (
    Whitener,
    apply_whitener,
    fit_whitener,
    length_normalize,
)
from spkdbn.evaluation import (
    EvalReport,
    Trials,
    baseline_vector,
    evaluate_trials,
    fuse,
    mean_var_normalize,
    parse_trials,
    save_report,
    save_scores,
    score_baseline,
)


def _random_trial_scores(seed, n=1000, overlap=1.0):
    rng = np.random.default_rng(seed)
    n_tar = n // 4
    scores = np.concatenate([rng.normal(overlap, 1.0, n_tar), rng.normal(0.0, 1.0, n - n_tar)])
    keys = ["target"] * n_tar + ["nontarget"] * (n - n_tar)
    return scores, keys


def _eer(scores, keys):
    """The report's (EER, threshold at the EER)."""
    report = evaluate_trials(scores, keys)
    return report.eer, report.threshold_at_eer


def _det_points(scores, keys):
    """The report's DET points as a list of (p_fa, p_miss) tuples."""
    return list(map(tuple, evaluate_trials(scores, keys).det_points.tolist()))


def test_eer_perfect_and_inverted():
    eer = evaluate_trials([2.0, 3.0, 0.0, 1.0], ["target", "target", "nontarget", "nontarget"]).eer
    assert eer == 0.0
    eer = evaluate_trials([0.0, 1.0, 2.0, 3.0], ["target", "target", "nontarget", "nontarget"]).eer
    assert eer == 1.0


def test_eer_matches_bruteforce_oracle():
    for seed in range(10):
        scores, keys = _random_trial_scores(seed)
        eer, thr = _eer(scores, keys)
        o_eer, o_thr = eer_oracle(scores.tolist(), keys)
        assert eer == pytest.approx(o_eer, abs=1e-9)
        assert thr == pytest.approx(o_thr, abs=1e-9)
        assert 0.0 <= eer <= 1.0


def test_eer_requires_both_classes():
    with pytest.raises(ValueError):
        evaluate_trials([1.0, 2.0], ["target", "target"])


def test_metrics_reject_a_nan_score():
    # NaN sorts above every score and compares false: unchecked, these
    # separable trials report an EER of 1/3 and no error
    scores = [2.0, 3.0, 4.0, 0.0, 1.0, np.nan]
    keys = ["target"] * 3 + ["nontarget"] * 3
    with pytest.raises(ValueError, match="1 of 6 scores are NaN"):
        evaluate_trials(scores, keys)


def test_min_dcf_trivial_cases():
    dcf = evaluate_trials([2.0, 3.0, 0.0, 1.0],
                          ["target", "target", "nontarget", "nontarget"]).min_dcf
    assert dcf == 0.0
    # all-equal scores: best is accept-all (0.99) vs reject-all (0.1)
    dcf = evaluate_trials([1.0, 1.0, 1.0], ["target", "nontarget", "nontarget"]).min_dcf
    assert dcf == pytest.approx(0.1, abs=1e-15)


def test_min_dcf_matches_bruteforce_oracle():
    for seed in range(10):
        scores, keys = _random_trial_scores(seed + 100)
        dcf = evaluate_trials(scores, keys).min_dcf
        o_dcf, _ = min_dcf_oracle(scores.tolist(), keys)
        assert dcf == pytest.approx(o_dcf, abs=1e-12)


def test_metrics_invariant_under_monotone_transform():
    scores, keys = _random_trial_scores(7, n=400)
    report1 = evaluate_trials(scores, keys)
    report2 = evaluate_trials(np.tanh(scores) * 3.0 + 1.0, keys)
    eer1, eer2 = report1.eer, report2.eer
    assert eer1 == pytest.approx(eer2, abs=1e-12)
    dcf1, dcf2 = report1.min_dcf, report2.min_dcf
    assert dcf1 == pytest.approx(dcf2, abs=1e-12)


def test_det_points_properties_and_oracle():
    scores, keys = _random_trial_scores(3, n=200)
    pts = _det_points(scores, keys)
    n_distinct = len(set(scores.tolist()))
    assert len(pts) <= n_distinct + 1
    p_fa = [p for p, _ in pts]
    p_miss = [m for _, m in pts]
    assert all(b <= a for a, b in zip(p_fa, p_fa[1:]))       # non-increasing
    assert all(b >= a for a, b in zip(p_miss, p_miss[1:]))   # non-decreasing
    oracle = [(pm, pf) for _, pm, pf in sweep_oracle(scores.tolist(), keys)]
    assert [(pf, pm) for pm, pf in oracle] == pts


def test_det_points_perfect_separation_contains_origin():
    pts = _det_points([2.0, 3.0, 0.0, 1.0], ["target", "target", "nontarget", "nontarget"])
    assert (0.0, 0.0) in pts


def test_threshold_sweep_separates_infinite_and_adjacent_scores():
    # The midpoint of -inf and +inf is NaN, that of -inf and a finite score
    # is -inf, and that of two adjacent doubles rounds to the lower one: none
    # separates the pair, so the higher score is the threshold there.
    keys = ["target", "nontarget"]
    above_one = np.nextafter(1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _eer([np.inf, -np.inf, np.inf, -np.inf], keys * 2) == (0.0, np.inf)
        assert _eer([above_one, 1.0], keys) == (0.0, above_one)
        assert _eer([1.0, -np.inf], keys) == (0.0, 1.0)
        assert evaluate_trials([np.inf, -np.inf], keys).min_dcf == 0.0
        # at threshold 1.0 the target is accepted and the nontarget rejected
        assert (0.0, 0.0) in _det_points([1.0, -np.inf], keys)


def test_mean_var_normalize():
    out = mean_var_normalize([1.0, 2.0, 3.0])
    np.testing.assert_allclose(out, [-1.22474487, 0.0, 1.22474487], atol=1e-8)
    again = mean_var_normalize(out)
    np.testing.assert_allclose(again, out, atol=1e-9)  # idempotent once normalized
    with pytest.raises(ValueError):
        mean_var_normalize([5.0, 5.0, 5.0])
    with pytest.raises(ValueError):
        mean_var_normalize([1.0])


def test_fuse_self_and_symmetry():
    rng = np.random.default_rng(0)
    a = rng.normal(size=10)
    b = rng.normal(size=10)
    fab, fba = fuse(a, b), fuse(b, a)
    np.testing.assert_allclose(fab, fba, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fuse(a, a), 2.0 * mean_var_normalize(a), rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        fuse(a, np.array([1.0, 2.0]))


def test_fuse_matches_normalization_oracle():
    rng = np.random.default_rng(1)
    va = rng.normal(2.0, 3.0, size=50)
    vb = rng.normal(-1.0, 0.5, size=50)
    want = (va - va.mean()) / va.std() + (vb - vb.mean()) / vb.std()
    np.testing.assert_allclose(fuse(va, vb), want, atol=1e-12)


def test_score_baseline_values():
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert score_baseline(e0, e0) == pytest.approx(1.0)
    assert score_baseline(e0, e1) == pytest.approx(0.0)
    assert score_baseline(np.array([1.0, 1.0]), e0) == pytest.approx(0.70710678, abs=1e-8)


def test_score_baseline_is_bitwise_the_linalg_norm_formula():
    # contiguous, strided and reversed views: np.linalg.norm ravels each in
    # memory order and sums x.dot(x), whose bits a strided dot may not share
    rng = np.random.default_rng(9)
    for d in (3, 100, 400):
        M = rng.normal(size=(2, 3 * d)) * rng.choice([1e-150, 1.0, 1e150], size=(2, 1))
        for a, b in ((M[0, :d], M[1, :d]), (M[0, ::3], M[1, 1::3]), (M[0, ::-1], M[1, ::-1])):
            assert score_baseline(a, b) == float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def _whitener(seed=0, d=4, n=200):
    rng = np.random.default_rng(seed)
    return fit_whitener(rng.normal(size=(n, d)))


def _score(enrolled, test, w):
    return score_baseline(baseline_vector(enrolled, w), baseline_vector(test, w))


def test_score_baseline_self_similarity_and_scale_invariance():
    w = _whitener()
    rng = np.random.default_rng(2)
    v = rng.normal(size=4)
    t = rng.normal(size=4)
    assert _score([v], v, w) == pytest.approx(1.0, abs=1e-12)
    assert -1.0 <= _score([v], t, w) <= 1.0
    # with a centered whitener, positive scaling of the inputs is neutral
    # because the cosine acts on length-normalized vectors
    w0 = Whitener(np.zeros(4), w.transform)
    s1 = _score([v], t, w0)
    s2 = _score([v * 100.0], t * 7.0, w0)
    assert s2 == pytest.approx(s1, abs=1e-12)


def test_score_baseline_orthogonal_whitened_vectors():
    w = Whitener(np.zeros(2), np.eye(2))
    assert _score([np.array([1.0, 0.0])], np.array([0.0, 1.0]), w) == pytest.approx(0.0)


def test_score_baseline_multisession_identical_equals_single():
    w = _whitener(3)
    rng = np.random.default_rng(4)
    v = rng.normal(size=4)
    t = rng.normal(size=4)
    single = _score([v], t, w)
    multi = _score([v] * 8, t, w)
    assert multi == pytest.approx(single, abs=1e-12)


def test_baseline_vector_of_one_row_is_the_whitened_unit_vector_and_of_none_raises():
    w = _whitener(5)
    x = np.random.default_rng(6).normal(size=4)
    want = length_normalize(apply_whitener(w, x))
    assert baseline_vector(x[None], w).tobytes() == want.tobytes()
    assert baseline_vector(x, w).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="no enrolled vectors"):
        baseline_vector(np.zeros((0, 4)), w)


def test_evaluate_trials_and_report_files(tmp_path):
    trials = Trials(("m1", "m1", "m2", "m2"), ("t1", "t2", "t1", "t2"),
                    ("target", "nontarget", "nontarget", "target"))
    scores = np.array([2.0, -1.0, -2.0, 1.0])
    report = evaluate_trials(scores, trials.keys)
    assert report.eer == 0.0
    assert report.min_dcf == 0.0
    rp, dp = tmp_path / "r.txt", tmp_path / "d.csv"
    save_report(report, rp, dp)
    first = rp.read_text().splitlines()[0]
    assert first.startswith("eer=0 ")
    assert dp.read_text().splitlines()[0] == "p_fa,p_miss"
    with pytest.raises(ValueError):
        evaluate_trials(np.array([1.0]), trials.keys)


def _det_case(name):
    """(scores, keys): continuous scores; integer scores that tie only within
    a class; or scores rounded to 0.1, so that targets and nontargets tie."""
    if name.startswith("continuous"):
        return _random_trial_scores(20 + int(name[-1]), n=600)
    if name == "class-ties":
        rng = np.random.default_rng(4)
        scores = np.concatenate([2 * rng.integers(0, 8, 60) + 1, 2 * rng.integers(0, 6, 300)])
        return scores.astype(float), ["target"] * 60 + ["nontarget"] * 300
    scores, keys = _random_trial_scores(5, n=600)
    return np.round(scores, 1), keys


@pytest.mark.parametrize("name", ["continuous-0", "continuous-1", "continuous-2", "class-ties",
                                  "cross-class-ties"])
def test_det_csv_holds_the_corners_of_the_det_staircase(tmp_path, name):
    scores, keys = _det_case(name)
    pts = _det_points(scores, keys)
    save_report(evaluate_trials(scores, keys), tmp_path / "r.txt", tmp_path / "d.csv")
    header, *lines = (tmp_path / "d.csv").read_text().splitlines()
    assert header == "p_fa,p_miss"
    csv = [tuple(float(x) for x in line.split(",")) for line in lines]
    kept, i = [], 0
    for point in csv:                      # the CSV is a subsequence of the DET points
        i = pts.index(point, i)
        kept.append(i)
        i += 1
    assert kept[0] == 0 and kept[-1] == len(pts) - 1
    assert len(kept) < len(pts)
    for a, b in zip(kept, kept[1:]):       # each dropped point is on an axis-parallel segment
        (fa0, miss0), (fa1, miss1) = pts[a], pts[b]
        for fa, miss in pts[a + 1:b]:
            assert (fa0 == fa == fa1 and miss0 <= miss <= miss1) or \
                (miss0 == miss == miss1 and fa0 >= fa >= fa1), (pts[a], (fa, miss), pts[b])
    for a, b, c in zip(csv, csv[1:], csv[2:]):
        assert not (a[0] == b[0] == c[0] or a[1] == b[1] == c[1]), (a, b, c)
        if not name.startswith("cross-class"):
            # Exact collinearity.  A score shared by a target and a nontarget
            # trial makes a diagonal step, whose ends the rule keeps, so the
            # cross-class case is checked only for axis-parallel runs above.
            (ax, ay), (bx, by), (cx, cy) = (map(Fraction, p) for p in (a, b, c))
            assert (bx - ax) * (cy - by) != (by - ay) * (cx - bx), (a, b, c)


def test_evaluate_trials_sweeps_once_and_matches_the_three_oracles(monkeypatch):
    scores, keys = _random_trial_scores(11, n=400)
    sweeps = []
    sweep = evaluation._operating_points
    monkeypatch.setattr(evaluation, "_operating_points",
                        lambda *args: sweeps.append(1) or sweep(*args))
    report = evaluate_trials(scores, keys)
    assert len(sweeps) == 1
    o_eer, o_thr = eer_oracle(scores.tolist(), keys)
    assert report.eer == pytest.approx(o_eer, abs=1e-9)
    assert report.threshold_at_eer == pytest.approx(o_thr, abs=1e-9)
    assert report.min_dcf == pytest.approx(min_dcf_oracle(scores.tolist(), keys)[0], abs=1e-12)
    assert report.det_points.dtype == np.float64
    assert list(map(tuple, report.det_points.tolist())) == [
        (pf, pm) for _, pm, pf in sweep_oracle(scores.tolist(), keys)]


def test_trial_and_score_files(tmp_path):
    trials = parse_trials([b"m2 t1 nontarget\n", b"m1 t2 nontarget\n", b"# comment\n",
                           b"m1 t1 target\n"], "trials.txt")
    assert trials.models == ("m1", "m1", "m2")
    assert trials.tests == ("t1", "t2", "t1")
    assert trials.keys == ("target", "nontarget", "nontarget")

    sp = tmp_path / "scores.txt"
    scores = np.array([1.25, -0.5, 0.1])
    save_scores(scores, trials, sp)
    assert sp.read_text() == "m1 t1 1.25\nm1 t2 -0.5\nm2 t1 0.10000000000000001\n"
    back = load_scores_oracle(sp, trials)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, scores)
    with pytest.raises(ValueError):
        save_scores(scores[:2], trials, sp)


@pytest.mark.parametrize("value", [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 2.0 ** 53 + 2, -1.23456789e-5,
])
def test_a_written_score_reads_back_bit_for_bit(tmp_path, value):
    trials = Trials(("m1", "m1", "m2"), ("t1", "t2", "t1"), ("target", "nontarget", "nontarget"))
    scores = np.array([value, -value, np.nextafter(value, 0.0)])
    sp = tmp_path / "scores.txt"
    save_scores(scores, trials, sp)
    assert load_scores_oracle(sp, trials).tobytes() == scores.tobytes()


def test_trials_columns_are_checked():
    trials = Trials(("a", "a", "b", "c", "c"), ("x", "y", "x", "x", "y"), ("target",) * 5)
    assert trials.by_model() == {"a": slice(0, 2), "b": slice(2, 3), "c": slice(3, 5)}
