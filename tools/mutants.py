"""Apply one-line mutants to a copy of the package and report which the tests kill.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only the named ones
    python3 tools/mutants.py --list     # names and edits; exit 1 if one no longer applies

Run from anywhere; paths are taken relative to this file.  Each mutant
replaces one fragment of one line of `src/spkdbn/<module>.py`; the
fragment must occur exactly once in that file, so a mutant that no
longer applies is reported as such, not silently skipped.  For each
mutant the tool copies `src/`, `tests/`, `pyproject.toml` and
`README.md` (whose config example a test parses) into a temporary
directory, applies the edit there and runs `python -m pytest -x -q tests`
in it.  A failing run kills the mutant; a
passing one lets it survive.  The unmutated copy is run first and must
pass, or no verdict would mean anything.

The tool uses only the standard library and is not part of the test
suite (`testpaths` does not include `tools/`).  Exit status: 0 when every
selected mutant is killed, 1 otherwise; with `--list`, 0 when every
listed fragment occurs exactly once, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (module, fragment, replacement)
MUTANTS = {
    # impostor selection and clustering
    "tie-break-descending": (
        "balance", "np.lexsort((idx, -scores))", "np.lexsort((-idx, -scores))"),
    "stage-impostor-n-one": (
        "cli", "inputs.background.vectors, cfg.impostor_n)", "inputs.background.vectors, 1)"),
    "balance-clusters-every-row": (
        "cli", "inputs.background.vectors[selected]", "inputs.background.vectors"),
    "target-norm-unchecked": ("cli", "    _check_norms(targets,", "    0 and _check_norms(targets,"),
    "overflowing-target-selected": (
        "balance", "if not np.all((0.0 < norms) & (norms < np.inf)):", "if np.any(norms == 0.0):"),
    "no-empty-cluster-repair": (
        "balance", "new_assign = _repair_empty_clusters(new_assign, sims, k)",
        "new_assign = new_assign"),
    # minibatch plans
    "every-batch-centroid-0": (
        "balance", "C.reshape(num_minibatches, group, -1)", "C[np.zeros_like(rows)]"),
    "labels-swapped": (
        "balance", "np.repeat(np.eye(2), group, axis=0)", "np.repeat(np.eye(2)[::-1], group, axis=0)"),
    "no-single-task-check": (
        "cli", 'if cfg.task == "single" and targets.shape[0] != 1:', "if False:"),
    # pretraining, normalization and adaptation
    "udbn-layer-on-layer-0-outputs": (
        "udbn", "X = hidden_probs(layer, X)", "X = hidden_probs(layer, X) if k == 0 else X"),
    "cd1-gradient-sign": (
        "rbm", "return np.divide(gW, m, out=gW)", "return np.divide(gW, -m, out=gW)"),
    "unnormalized-udbn-write": (
        "cli", "udbn.save_dbn(udbn.normalize_udbn(model),",
        "udbn.save_dbn(udbn.DbnParams(model.layers, True),"),
    "adapt-no-op": (
        "udbn", "_cd1_epochs(dbn.layers[k], inputs",
        '_cd1_epochs(__import__("copy").deepcopy(dbn.layers[k]), inputs'),
    "adapt-same-layer-seed": (
        "udbn", "np.random.default_rng([cfg.seed, k])", "np.random.default_rng([cfg.seed, 0])"),
    "adapt-bottom-layer-only": (
        "udbn", "for k, cfg in enumerate(cfgs):", "for k, cfg in enumerate(cfgs[:1]):"),
    "adapt-minibatch-shape-unchecked": (
        "udbn", "if batches.ndim != 3 or 0 in batches.shape or batches.shape[2] != d:", "if False:"),
    "adapt-one-layer-fewer": (
        "cli", "for k in range(cfg.adapt_layers)]", "for k in range(cfg.adapt_layers - 1)]"),
    "adapt-lists-unchecked": (
        "cli", "if len(self.adapt_lr) != len(self.adapt_epochs) or len(self.adapt_lr) > self.depth:",
        "if False:"),
    "same-speaker-seed": (
        "cli", "derive_seed(cfg.master_seed, speaker_id)", 'derive_seed(cfg.master_seed, "speaker")'),
    # fine-tuning
    "fine-tune-batches-reversed": (
        "dnn", "for X in plan.batches)", "for X in plan.batches[::-1])"),
    "fine-tune-plan-unchecked": (
        "dnn", "if K == 0 or plan.labels.shape != (m, 2) or width != model.input_dim:", "if False:"),
    # the per-speaker network is one set of arrays: a second copy changes
    # no output byte, only the worker's peak memory
    "speaker-network-copied": (
        "cli", "dnn.init_from_dbn(adapted,",
        'dnn.init_from_dbn(__import__("copy").deepcopy(adapted),'),
    # the momentum step shared by CD-1 and fine-tuning
    "decay-sign": (
        "rbm", "np.multiply(Wb, cfg.weight_decay,", "np.multiply(Wb, -cfg.weight_decay,"),
    "momentum-sign": ("rbm", "dW *= cfg.momentum", "dW *= -cfg.momentum"),
    "last-partial-block-skipped": (
        "rbm", "range(0, W.shape[0], self.gW.shape[0])",
        "range(0, W.shape[0] // self.gW.shape[0] * self.gW.shape[0], self.gW.shape[0])"),
    # the finiteness checks after each epoch of CD-1 and of fine-tuning
    "no-bias-finite-check": (
        "rbm", "for p in (rbm.W, rbm.b_vis, rbm.b_hid)", "for p in (rbm.W,)"),
    "finite-check-first-block-only": (
        "dnn", "np.isfinite(p).all() for p in (loss,",
        "np.isfinite(np.atleast_1d(p)[:64]).all() for p in (loss,"),
    "non-finite-loss-unchecked": ("dnn", "for p in (loss, *model.weights", "for p in (*model.weights"),
    # scoring, fusion and evaluation
    "baseline-unwhitened": ("embeddings", "return w.transform @ (v - w.mean)", "return v"),
    "overflowing-norm-unchecked": ("embeddings", "if not 0.0 < n < np.inf:", "if n == 0.0:"),
    "baseline-average-before-whitening": (
        "evaluation", "np.mean([apply_whitener(whitener, v) for v in vectors], axis=0)",
        "apply_whitener(whitener, np.mean(vectors, axis=0))"),
    "baseline-first-session-only": (
        "cli", "baseline_vector(groups[model_id], whitener)",
        "baseline_vector(groups[model_id][:1], whitener)"),
    "fusion-ignores-baseline": (
        "evaluation", "return mean_var_normalize(scores_a) + mean_var_normalize(scores_b)",
        "return 2.0 * mean_var_normalize(scores_a)"),
    "miss-count-side-right": (
        "evaluation", 'p_miss = np.searchsorted(tar, thr, side="left")',
        'p_miss = np.searchsorted(tar, thr, side="right")'),
    "plain-midpoint-threshold": (
        "evaluation", "np.where((lo < mid) & (mid <= hi), mid, hi)", "mid"),
    "eer-no-interpolation": (
        "evaluation", "eer = p_miss[i - 1] + a * (p_miss[i] - p_miss[i - 1])", "eer = p_miss[i]"),
    "non-finite-score-fused": ("cli", "        if bad.size:", "        if False:"),
    "trial-duplicates-unchecked": ("evaluation", "if pair in key_of:", "if False:"),
    "forward-bias-dropped": ("dnn", "a += b", "pass"),
    "score-enrolled-set-unchecked": (
        "cli", "unknown = set(trials.models) - set(groups)", "unknown = set()"),
    "baseline-whitener-refitted": (
        "cli", 'Whitener(arrays["mean"], arrays["transform"])',
        "fit_whitener(inputs.background.vectors)"),
    "det-corner-dropped": ("evaluation", "same[:-1] & same[1:]", "same[:-1] | same[1:]"),
    "det-collinear-point-kept": ("evaluation", ".any(axis=1)", ".all(axis=1)"),
    # config reading, input checks and resume; the readers are the only
    # check of their files, so nothing behind them catches these
    "embedding-duplicates-unchecked": ("embeddings", "if utt in seen:", "if False:"),
    "embedding-non-finite-unchecked": (
        "embeddings", "if not np.isfinite(values).all():", "if False:"),
    "embedding-dimension-unchecked": ("embeddings", "elif values.size != dim:", "elif False:"),
    "embedding-fields-single-spaced": ("embeddings", "fields = line.split()", 'fields = line.split(" ")'),
    "non-utf8-line-unnamed": (
        "cli", "except UnicodeDecodeError as exc:", "except ArithmeticError as exc:"),
    # two inputs that disagree are named together by the stage that holds both
    "enroll-dimension-unchecked": (
        "cli", "if inputs.enroll.dimension != inputs.background.dimension:", "if False:"),
    "test-dimension-unchecked": ("cli", "if test.dimension != inputs.enroll.dimension:", "if False:"),
    "trial-utterance-unchecked": ("cli", "missing = set(utts) - set(test.ids)", "missing = set()"),
    "trial-key-unchecked": (
        "evaluation", 'if len(fields) != 3 or fields[2] not in ("target", "nontarget"):',
        "if len(fields) != 3:"),
    "background-norm-unchecked": (
        "cli", "    _check_norms(inputs.background.vectors,",
        "    0 and _check_norms(inputs.background.vectors,"),
    "config-inline-comment-accepted": ("cli", 'if re.search(r"\\s#", value):', "if False:"),
    "stamp-mismatch-skipped": ("cli", "if recorded != self.stamp:", "if False:"),
    "speaker-label-unchecked": ("cli", "if os.path.basename(label) != label:", "if False:"),
    "rerun-stage-kept-in-record": ("cli", "record.update(name, done=False)", "pass"),
}


def _copy_project(dest: str) -> None:
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(os.path.join(ROOT, name), dest)


def _mutated(root: str, module: str, fragment: str, replacement: str) -> tuple[str, str]:
    """(path, mutated text) of the module under root; ValueError unless the
    fragment occurs exactly once in it."""
    path = os.path.join(root, "src", "spkdbn", f"{module}.py")
    with open(path) as fh:
        text = fh.read()
    count = text.count(fragment)
    if count != 1:
        raise ValueError(f"{module}.py holds {count} copies of {fragment!r}, not one")
    return path, text.replace(fragment, replacement)


def _apply(dest: str, *mutant) -> None:
    path, text = _mutated(dest, *mutant)
    with open(path, "w") as fh:
        fh.write(text)


def _tests_pass(dest: str) -> bool:
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"))
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          "tests"], cwd=dest, env=env, capture_output=True)
    return run.returncode == 0


def _run(mutant) -> str:
    """'killed', 'survived' or 'does not apply' for one mutant; None runs the
    unmutated copy."""
    with tempfile.TemporaryDirectory(prefix="spkdbn-mutant-") as dest:
        _copy_project(dest)
        if mutant is not None:
            try:
                _apply(dest, *mutant)
            except ValueError as exc:
                return f"does not apply: {exc}"
        return "survived" if _tests_pass(dest) else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(MUTANTS))
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    names = args.names or list(MUTANTS)
    if args.list:
        stale = 0
        for name in names:
            module, fragment, replacement = MUTANTS[name]
            try:
                _mutated(ROOT, *MUTANTS[name])
                print(f"{name}: {module}.py: {fragment!r} -> {replacement!r}")
            except ValueError as exc:
                stale += 1
                print(f"{name}: does not apply: {exc}")
        return 1 if stale else 0

    if _run(None) != "survived":
        print("mutants: the unmutated tests fail; fix them first", file=sys.stderr)
        return 1
    killed = 0
    for name in names:
        start = time.perf_counter()
        verdict = _run(MUTANTS[name])
        killed += verdict == "killed"
        print(f"{name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{killed} of {len(names)} mutants killed")
    return 0 if killed == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
