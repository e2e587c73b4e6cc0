import numpy as np
import pytest

from oracles import eer_oracle, min_dcf_oracle, sweep_oracle
from spkdbn.embeddings import fit_whitener
from spkdbn.evaluation import (
    EvalReport,
    Trial,
    compute_eer,
    compute_min_dcf,
    det_points,
    evaluate_trials,
    fuse,
    load_scores,
    load_trials,
    mean_var_normalize,
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


def test_eer_perfect_and_inverted():
    eer, _ = compute_eer([2.0, 3.0, 0.0, 1.0], ["target", "target", "nontarget", "nontarget"])
    assert eer == 0.0
    eer, _ = compute_eer([0.0, 1.0, 2.0, 3.0], ["target", "target", "nontarget", "nontarget"])
    assert eer == 1.0


def test_eer_matches_bruteforce_oracle():
    for seed in range(10):
        scores, keys = _random_trial_scores(seed)
        eer, thr = compute_eer(scores, keys)
        o_eer, o_thr = eer_oracle(scores.tolist(), keys)
        assert eer == pytest.approx(o_eer, abs=1e-9)
        assert thr == pytest.approx(o_thr, abs=1e-9)
        assert 0.0 <= eer <= 1.0


def test_eer_requires_both_classes():
    with pytest.raises(ValueError):
        compute_eer([1.0, 2.0], ["target", "target"])


def test_min_dcf_trivial_cases():
    dcf, _ = compute_min_dcf([2.0, 3.0, 0.0, 1.0],
                             ["target", "target", "nontarget", "nontarget"])
    assert dcf == 0.0
    # all-equal scores: best is accept-all (0.99) vs reject-all (0.1)
    dcf, _ = compute_min_dcf([1.0, 1.0, 1.0], ["target", "nontarget", "nontarget"])
    assert dcf == pytest.approx(0.1, abs=1e-15)


def test_min_dcf_matches_bruteforce_oracle():
    for seed in range(10):
        scores, keys = _random_trial_scores(seed + 100)
        dcf, thr = compute_min_dcf(scores, keys)
        o_dcf, o_thr = min_dcf_oracle(scores.tolist(), keys)
        assert dcf == pytest.approx(o_dcf, abs=1e-12)
        assert thr == pytest.approx(o_thr, abs=1e-12)


def test_metrics_invariant_under_monotone_transform():
    scores, keys = _random_trial_scores(7, n=400)
    eer1, _ = compute_eer(scores, keys)
    eer2, _ = compute_eer(np.tanh(scores) * 3.0 + 1.0, keys)
    assert eer1 == pytest.approx(eer2, abs=1e-12)
    dcf1, _ = compute_min_dcf(scores, keys)
    dcf2, _ = compute_min_dcf(np.tanh(scores) * 3.0 + 1.0, keys)
    assert dcf1 == pytest.approx(dcf2, abs=1e-12)


def test_det_points_properties_and_oracle():
    scores, keys = _random_trial_scores(3, n=200)
    pts = det_points(scores, keys)
    n_distinct = len(set(scores.tolist()))
    assert len(pts) <= n_distinct + 1
    p_fa = [p for p, _ in pts]
    p_miss = [m for _, m in pts]
    assert all(b <= a for a, b in zip(p_fa, p_fa[1:]))       # non-increasing
    assert all(b >= a for a, b in zip(p_miss, p_miss[1:]))   # non-decreasing
    oracle = [(pm, pf) for _, pm, pf in sweep_oracle(scores.tolist(), keys)]
    assert [(pf, pm) for pm, pf in oracle] == pts


def test_det_points_perfect_separation_contains_origin():
    pts = det_points([2.0, 3.0, 0.0, 1.0], ["target", "target", "nontarget", "nontarget"])
    assert (0.0, 0.0) in pts


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
    keys = [("m", f"t{i}") for i in range(10)]
    a = {k: float(rng.normal()) for k in keys}
    b = {k: float(rng.normal()) for k in keys}
    fab, fba = fuse(a, b), fuse(b, a)
    for k in keys:
        assert fab[k] == pytest.approx(fba[k], abs=1e-12)
    self_fused = fuse(a, a)
    na = mean_var_normalize([a[k] for k in sorted(a)])
    for k, v in zip(sorted(a), na):
        assert self_fused[k] == pytest.approx(2.0 * v, abs=1e-12)
    with pytest.raises(ValueError):
        fuse(a, {("m", "other"): 1.0})


def test_fuse_matches_normalization_oracle():
    rng = np.random.default_rng(1)
    keys = [("m", f"t{i}") for i in range(50)]
    a = {k: float(rng.normal(2.0, 3.0)) for k in keys}
    b = {k: float(rng.normal(-1.0, 0.5)) for k in keys}
    fused = fuse(a, b)
    sk = sorted(keys)
    va = np.array([a[k] for k in sk])
    vb = np.array([b[k] for k in sk])
    want = (va - va.mean()) / va.std() + (vb - vb.mean()) / vb.std()
    np.testing.assert_allclose([fused[k] for k in sk], want, atol=1e-12)


def _whitener(seed=0, d=4, n=200):
    rng = np.random.default_rng(seed)
    return fit_whitener(rng.normal(size=(n, d)))


def test_score_baseline_self_similarity_and_scale_invariance():
    w = _whitener()
    rng = np.random.default_rng(2)
    v = rng.normal(size=4)
    t = rng.normal(size=4)
    assert score_baseline([v], v, w) == pytest.approx(1.0, abs=1e-12)
    assert -1.0 <= score_baseline([v], t, w) <= 1.0
    # with a centered whitener, positive scaling of the inputs is neutral
    # because the cosine acts on length-normalized vectors
    from spkdbn.embeddings import Whitener
    w0 = Whitener(np.zeros(4), w.transform)
    s1 = score_baseline([v], t, w0)
    s2 = score_baseline([v * 100.0], t * 7.0, w0)
    assert s2 == pytest.approx(s1, abs=1e-12)


def test_score_baseline_orthogonal_whitened_vectors():
    from spkdbn.embeddings import Whitener
    w = Whitener(np.zeros(2), np.eye(2))
    assert score_baseline([np.array([1.0, 0.0])], np.array([0.0, 1.0]), w) == pytest.approx(0.0)


def test_score_baseline_multisession_identical_equals_single():
    w = _whitener(3)
    rng = np.random.default_rng(4)
    v = rng.normal(size=4)
    t = rng.normal(size=4)
    single = score_baseline([v], t, w)
    multi = score_baseline([v] * 8, t, w)
    assert multi == pytest.approx(single, abs=1e-12)


def test_evaluate_trials_and_report_files(tmp_path):
    trials = [Trial("m1", "t1", "target"), Trial("m1", "t2", "nontarget"),
              Trial("m2", "t1", "nontarget"), Trial("m2", "t2", "target")]
    scores = {("m1", "t1"): 2.0, ("m1", "t2"): -1.0, ("m2", "t1"): -2.0, ("m2", "t2"): 1.0}
    report = evaluate_trials(scores, trials)
    assert report.eer == 0.0
    assert report.min_dcf == 0.0
    rp, dp = tmp_path / "r.txt", tmp_path / "d.csv"
    save_report(report, rp, dp)
    first = rp.read_text().splitlines()[0]
    assert first.startswith("eer=0 ")
    assert dp.read_text().splitlines()[0] == "p_fa,p_miss"
    with pytest.raises(ValueError):
        evaluate_trials({("m1", "t1"): 1.0}, trials)


def test_trial_and_score_files(tmp_path):
    p = tmp_path / "trials.txt"
    p.write_text("m1 t1 target\nm1 t2 nontarget\n")
    trials = load_trials(p)
    assert trials[0] == Trial("m1", "t1", "target")
    bad = tmp_path / "bad.txt"
    bad.write_text("m1 t1 bogus\n")
    with pytest.raises(Exception):
        load_trials(bad)

    sp = tmp_path / "scores.txt"
    scores = {("m1", "t1"): 1.25, ("m1", "t2"): -0.5}
    save_scores(scores, sp)
    assert load_scores(sp) == scores
