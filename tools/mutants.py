"""Apply one-line mutants to a copy of the package and report which the tests kill.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # only the named ones
    python3 tools/mutants.py --list     # names and edits; exit 1 if one no longer applies

Run from anywhere; paths are taken relative to this file.  Each mutant
replaces one fragment of one line of `src/spkdbn/<module>.py`; the
fragment must occur exactly once in that file, so a mutant that no
longer applies is reported as such, not silently skipped.  For each
mutant the tool copies `src/`, `tests/` and `pyproject.toml` into a
temporary directory, applies the edit there and runs
`python -m pytest -x -q tests` in it.  A failing run kills the mutant; a
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
    "cd1-gradient-sign": ("rbm", "gW /= m", "gW /= -m"),
    "unnormalized-udbn-write": (
        "cli", "udbn.save_dbn(udbn.normalize_udbn(model), paths.udbn_norm)",
        "udbn.save_dbn(udbn.DbnParams(model.layers, True), paths.udbn_norm)"),
    "adapt-no-op": (
        "udbn", "_cd1_epochs(adapted.layers[k], inputs",
        "_cd1_epochs(adapted.layers[k].copy(), inputs"),
    "adapt-propagates-unadapted": (
        "udbn", "adapted.propagate(b, upto=k)", "udbn_norm.propagate(b, upto=k)"),
    "adapt-same-layer-seed": (
        "udbn", "np.random.default_rng([cfg.seed, k])", "np.random.default_rng([cfg.seed, 0])"),
    "adapt-bottom-layer-only": (
        "udbn", "for k, cfg in enumerate(cfgs):", "for k, cfg in enumerate(cfgs[:1]):"),
    "adapt-one-layer-fewer": (
        "cli", "for k in range(cfg.adapt_layers)]", "for k in range(cfg.adapt_layers - 1)]"),
    "same-speaker-seed": (
        "cli", "derive_seed(cfg.master_seed, speaker_id)", 'derive_seed(cfg.master_seed, "speaker")'),
    # fine-tuning
    "fine-tune-batches-reversed": (
        "dnn", "for X in plan.batches:", "for X in plan.batches[::-1]:"),
    # the momentum step shared by CD-1 and fine-tuning
    "decay-sign": (
        "rbm", "np.multiply(W, cfg.weight_decay, out=self.step)",
        "np.multiply(W, -cfg.weight_decay, out=self.step)"),
    "momentum-sign": ("rbm", "self.dW *= cfg.momentum", "self.dW *= -cfg.momentum"),
    "no-bias-finite-check": (
        "rbm", " and all(np.isfinite(b).all() for b in biases)", ""),
    # scoring, fusion and evaluation
    "baseline-unwhitened": ("embeddings", "return w.transform @ (v - w.mean)", "return v"),
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
    "non-finite-score-loads": ("evaluation", "if not math.isfinite(score):", "if False:"),
    # resume
    "stamp-mismatch-skipped": ("cli", "if recorded != stamp:", "if False:"),
}


def _copy_project(dest: str) -> None:
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(os.path.join(ROOT, "pyproject.toml"), dest)


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
