"""Acceptance suite: nine system-level checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (the verdict lines print even
under output capture).
"""

import copy
import hashlib
import time

import numpy as np
import pytest

from conftest import make_experiment
from oracles import eer_oracle, mean_cross_entropy_oracle, min_dcf_oracle, select_impostors_oracle
from spkdbn.balance import build_minibatch_plan, impostor_frequencies, rank_impostors
from spkdbn.cli import resolve_config, run_pipeline
from spkdbn.dnn import DnnModel, DnnVelocity, FineTuneConfig, backprop_minibatch
from spkdbn.evaluation import evaluate_trials
from spkdbn.rbm import RbmParams, RbmTrainConfig, train_rbm
from spkdbn.udbn import DbnParams, normalize_udbn


@pytest.fixture
def verdict(capsys):
    def _report(num, name, ok, detail=""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            extra = f" ({detail})" if detail else ""
            print(f"[acceptance {num}] {name}: {status}{extra}")
        assert ok, f"acceptance criterion {num} ({name}) failed: {detail}"
    return _report


# --- 1: analytic gradients vs central finite differences -------------------

def _random_model(sizes, rng):
    weights = [rng.normal(scale=0.5, size=(a, b)) for a, b in zip(sizes, sizes[1:])]
    biases = [rng.normal(scale=0.1, size=b) for b in sizes[1:]]
    return DnnModel(weights, biases)


def _analytic_grads(model, X, Y):
    probe = copy.deepcopy(model)
    cfg = FineTuneConfig(learning_rate=1.0, epochs=1, momentum=0.0, weight_decay=0.0)
    backprop_minibatch(probe, X, Y, cfg, DnnVelocity.zeros_like(probe))
    return ([w0 - w1 for w0, w1 in zip(model.weights, probe.weights)]
            + [b0 - b1 for b0, b1 in zip(model.biases, probe.biases)])


def _numeric_grads(model, X, Y, step=1e-5):
    out = []
    for arr in model.weights + model.biases:
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            up = mean_cross_entropy_oracle(model, X, Y)
            arr[idx] = orig - step
            dn = mean_cross_entropy_oracle(model, X, Y)
            arr[idx] = orig
            g[idx] = (up - dn) / (2.0 * step)
        out.append(g)
    return out


def test_acceptance_1_gradient_correctness(verdict):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for n_hidden in (1, 2, 3):
            sizes = [20] + [16] * n_hidden + [2]
            model = _random_model(sizes, rng)
            X = rng.normal(size=(4, 20))
            Y = np.zeros((4, 2))
            Y[np.arange(4), rng.integers(0, 2, size=4)] = 1.0
            for a, n in zip(_analytic_grads(model, X, Y), _numeric_grads(model, X, Y)):
                mask = np.abs(n) > 1e-8
                if np.any(mask):
                    worst = max(worst, float(np.max(np.abs(a[mask] - n[mask]) / np.abs(n[mask]))))
    elapsed = time.perf_counter() - start
    verdict(1, "gradient correctness", worst < 1e-4 and elapsed < 10.0,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


# --- 2: CD-1 reduces reconstruction error ----------------------------------

def test_acceptance_2_cd1_learning(verdict):
    start = time.perf_counter()
    wins = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        data = np.vstack([rng.normal([2.0, 2.0], 0.3, size=(30, 2)),
                          rng.normal([-2.0, -2.0], 0.3, size=(30, 2))])
        cfg = RbmTrainConfig(learning_rate=0.01, epochs=50, momentum=0.9,
                             weight_decay=0.0002, minibatch_size=10, seed=seed)
        _, errors = train_rbm(data, cfg, "gaussian", 8)
        if errors[-1] < errors[0]:
            wins += 1
    elapsed = time.perf_counter() - start
    verdict(2, "CD-1 learning", wins >= 4 and elapsed < 5.0,
            f"{wins}/5 seeds improved, {elapsed:.1f}s")


# --- 3: impostor selection matches brute force exactly ---------------------

def test_acceptance_3_impostor_selection_oracle(verdict):
    start = time.perf_counter()
    all_equal = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        targets = rng.normal(size=(10, 8))
        pool = rng.normal(size=(100, 8))
        freqs = impostor_frequencies(targets, pool, 5)
        got = rank_impostors(freqs, 20)
        want, f_want = select_impostors_oracle(targets.tolist(), pool.tolist(), 5, 20)
        all_equal = all_equal and got == want and freqs.tolist() == f_want
    elapsed = time.perf_counter() - start
    verdict(3, "impostor-selection oracle equivalence", all_equal and elapsed < 5.0,
            f"50/50 instances, {elapsed:.1f}s")


# --- 4: EER / minDCF match exhaustive threshold oracles --------------------

def test_acceptance_4_metric_oracles(verdict):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        scores = np.concatenate([rng.normal(1.0, 1.0, 250), rng.normal(0.0, 1.0, 750)])
        keys = ["target"] * 250 + ["nontarget"] * 750
        report = evaluate_trials(scores, keys)
        eer, dcf = report.eer, report.min_dcf
        o_eer, _ = eer_oracle(scores.tolist(), keys)
        o_dcf, _ = min_dcf_oracle(scores.tolist(), keys)
        worst = max(worst, abs(eer - o_eer), abs(dcf - o_dcf))
    elapsed = time.perf_counter() - start
    verdict(4, "EER/minDCF oracle equivalence", worst < 1e-9 and elapsed < 10.0,
            f"max abs dev {worst:.1e}, {elapsed:.1f}s")


# --- 5: balanced minibatch invariants --------------------------------------

def test_acceptance_5_balance_invariants(verdict):
    rng = np.random.default_rng(0)
    ok = True
    for n_targets, n_centroids, per_side in ((1, 12, 4), (8, 24, 8)):
        targets = rng.normal(size=(n_targets, 6))
        centroids = rng.normal(size=(n_centroids, 6))
        plan = build_minibatch_plan(targets, centroids, 3)
        # every minibatch shares the label block: one-hot rows, per_side of each class
        is_target = plan.labels[:, 0] == 1.0
        ok = ok and plan.batches.shape == (3, 2 * per_side, 6)
        ok = ok and plan.labels.shape == (2 * per_side, 2)
        ok = ok and np.all(plan.labels.sum(axis=1) == 1.0)
        ok = ok and np.count_nonzero(is_target) == np.count_nonzero(~is_target) == per_side
        used = [tuple(v) for v in plan.batches[:, ~is_target].reshape(-1, 6)]
        ok = ok and len(used) == n_centroids
        ok = ok and set(used) == set(map(tuple, centroids))
        drawn = {tuple(v) for v in plan.batches[:, is_target].reshape(-1, 6)}
        ok = ok and drawn == set(map(tuple, targets))
    verdict(5, "balance invariants", ok, "single 3x12->4+4, multi 3x24->8+8")


# --- 6: normalization contract ----------------------------------------------

def test_acceptance_6_normalization_contract(verdict):
    rng = np.random.default_rng(1)
    layers = [RbmParams("gaussian", rng.normal(size=(10, 8)), rng.normal(size=10), rng.normal(size=8)),
              RbmParams("bernoulli", rng.normal(scale=3.0, size=(8, 6)), rng.normal(size=8), rng.normal(size=6))]
    dbn = DbnParams(copy.deepcopy(layers))
    norm = normalize_udbn(dbn)
    ok = True
    detail = []
    for before, after in zip(layers, norm.layers):
        ok = ok and np.max(np.abs(after.W)) == 0.01
        ok = ok and np.all(np.sign(after.W) == np.sign(before.W))
        ratio_before = before.W / np.max(np.abs(before.W))
        ratio_after = after.W / 0.01
        ok = ok and np.allclose(ratio_after, ratio_before, atol=1e-12, rtol=0.0)
        ok = ok and np.allclose(after.b_vis, before.b_vis * 0.01, atol=0.0, rtol=1e-15)
        ok = ok and np.allclose(after.b_hid, before.b_hid * 0.01, atol=0.0, rtol=1e-15)
        detail.append(f"max|w|={np.max(np.abs(after.W)):.17g}")
    verdict(6, "normalization contract", ok, ", ".join(detail))


# --- 7: end-to-end synthetic experiment -------------------------------------

def _eer_from_report(path):
    with open(path) as fh:
        first = fh.readline().split()
    return float(first[0].split("=", 1)[1])


def test_acceptance_7_end_to_end(verdict, tmp_path):
    start = time.perf_counter()
    pairs = make_experiment(tmp_path / "exp")
    reports = run_pipeline(resolve_config(pairs))
    elapsed = time.perf_counter() - start
    dnn, base, fused = (_eer_from_report(reports[s]) for s in ("dnn", "baseline", "fused"))
    ok = dnn < 0.10 and base < 0.10 and fused <= max(dnn, base) + 0.02 and elapsed < 180.0
    verdict(7, "end-to-end synthetic experiment", ok,
            f"EER dnn={dnn:.4f} baseline={base:.4f} fused={fused:.4f}, {elapsed:.1f}s")


# --- 8: determinism ----------------------------------------------------------

def _run_hashes(root, pairs, jobs):
    run_pipeline(resolve_config(pairs), jobs=jobs)
    out = root / "out"
    names = sorted(p.relative_to(out) for p in out.rglob("*")
                   if p.is_file() and (p.suffix in (".txt", ".dnn", ".dbn", ".npz")))
    return {str(n): hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


def test_acceptance_8_determinism(verdict, tmp_path):
    h = []
    for i, jobs in enumerate((1, 1, 8)):
        root = tmp_path / f"run{i}"
        h.append(_run_hashes(root, make_experiment(root), jobs))
    ok = h[0] == h[1] == h[2] and len(h[0]) > 0
    verdict(8, "determinism", ok,
            f"{len(h[0])} files byte-identical across repeat run and jobs 1 vs 8")


# --- 9: adaptation must not hurt ---------------------------------------------

def test_acceptance_9_adaptation_effect(verdict, tmp_path):
    eers = {"dbn": [], "random": []}
    for seed in range(5):
        for mode in ("dbn", "random"):
            root = tmp_path / f"{mode}{seed}"
            pairs = make_experiment(root, data_seed=seed, master_seed=100 + seed)
            pairs["init_mode"] = mode
            reports = run_pipeline(resolve_config(pairs))
            eers[mode].append(_eer_from_report(reports["dnn"]))
    mean_dbn = float(np.mean(eers["dbn"]))
    mean_rand = float(np.mean(eers["random"]))
    verdict(9, "adaptation effect direction", mean_dbn <= mean_rand + 0.01,
            f"mean EER dbn-init={mean_dbn:.4f} vs random-init={mean_rand:.4f}")
