"""Tests for the benchmark's own checks.

    python3 -m pytest bench

The checks must pass on what the program really writes, and each must
fail when one score, or one figure in a report, is perturbed.
"""

import math
import os
import shutil
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks
import spans
from workloads import WORKLOADS, generate_inputs

# A scaled-down single-session task that trains in about a second.
TINY = replace(
    WORKLOADS["enroll-single-2L"], name="tiny", depth=1, within_spread=0.5,
    background_speakers=120, speakers=6, test_sessions=2,
    impostor_utterances=8, nontargets_per_model=6,
    overrides={"hidden_size": 16, "grbm_epochs": 5, "impostor_kappa": 60,
               "adapt_epochs": "3", "ft_epochs": 20, "ft_lr": 0.01},
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """(inputs, output directory) of one real pipeline run."""
    from spkdbn.cli import main

    root = tmp_path_factory.mktemp("tiny")
    pairs = generate_inputs(TINY, seed=3, directory=str(root / "inputs"))
    cfg = root / "experiment.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()))
    out = root / "out"
    assert main(["run", "--config", str(cfg), "--override", f"out={out}"]) == 0
    inputs = {k: pairs[k] for k in ("background", "enroll", "test", "trials")}
    return inputs, out


@pytest.fixture
def copy(pipeline, tmp_path):
    inputs, out = pipeline
    target = tmp_path / "out"
    shutil.copytree(out, target)
    return inputs, target


def _edit_line(path, index, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[index] = edit(lines[index])
    path.write_text("".join(lines))


def _nudge_score(line):
    model, test, score = line.split()
    return f"{model} {test} {float(score) + 1e-6!r}\n"


def test_checks_pass_on_program_outputs(pipeline):
    problems, reports = checks.check_outputs(*pipeline)
    assert problems == []
    assert set(reports) == set(checks.SYSTEMS)


@pytest.mark.parametrize("system, expected", [
    ("baseline", "baseline: score differs"),
    ("dnn", "fused: score differs"),
    ("fused", "fused: score differs"),
])
def test_one_perturbed_score_fails(copy, system, expected):
    inputs, out = copy
    _edit_line(out / f"scores_{system}.txt", 3, _nudge_score)
    problems, _ = checks.check_outputs(inputs, out)
    assert any(p.startswith(expected) for p in problems), problems


@pytest.mark.parametrize("system", checks.SYSTEMS)
@pytest.mark.parametrize("field", ["eer", "min_dcf"])
def test_one_perturbed_report_figure_fails(copy, system, field):
    inputs, out = copy

    def nudge(line):
        fields = dict(f.split("=", 1) for f in line.split())
        fields[field] = repr(float(fields[field]) + 1e-6)
        return " ".join(f"{k}={v}" for k, v in fields.items()) + "\n"

    _edit_line(out / f"report_{system}.txt", 0, nudge)
    problems, _ = checks.check_outputs(inputs, out)
    label = "EER" if field == "eer" else "minDCF"
    assert any(p.startswith(f"{system}: report {label}") for p in problems), problems


@pytest.mark.parametrize("edit, expected", [
    (lambda line: "", "trial(s) unscored"),
    (lambda line: line + line, "scored more than once"),
    (lambda line: " ".join(line.split()[:2] + ["nan"]) + "\n", "non-finite"),
])
def test_trial_not_scored_exactly_once_fails(copy, edit, expected):
    inputs, out = copy
    _edit_line(out / "scores_dnn.txt", 0, edit)
    problems, _ = checks.check_outputs(inputs, out)
    assert any(p.startswith("dnn:") and expected in p for p in problems), problems


def test_eer_above_limit_fails(copy):
    inputs, out = copy
    _edit_line(out / "report_fused.txt", 0, lambda line: "eer=0.5 min_dcf=0.1\n")
    problems, _ = checks.check_outputs(inputs, out)
    assert any(p.startswith("fused: EER 0.5000 is not below") for p in problems), problems


def test_sweep_hand_worked():
    # Thresholds 0.1 .. 0.9, +inf give (P_miss, P_fa) points
    # (0,1) (0,3/4) (0,1/2) (0,1/4) (1/3,1/4) (1/3,0) (2/3,0) (1,0).
    # The diagonal is crossed between (0,1/4) and (1/3,1/4): P_miss - P_fa
    # goes -1/4 -> 1/12, so a = 3/4 and EER = 3/4 * 1/3 = 1/4.  minDCF is
    # 0.1 * 1/3 at threshold 0.6.
    scores = [0.9, 0.6, 0.4, 0.5, 0.3, 0.2, 0.1]
    keys = ["target"] * 3 + ["nontarget"] * 4
    eer, min_dcf = checks.sweep(scores, keys)
    assert eer == pytest.approx(0.25, abs=1e-15)
    assert min_dcf == pytest.approx(1 / 30, abs=1e-15)


def test_sweep_tied_scores_cross_on_a_point():
    # One target and one nontarget tie at 0.5: the points are (0,1),
    # (0,1/2), (1/2,0), (1,0), and P_miss = P_fa = 1/4 halfway along the
    # diagonal step through the tie.
    eer, _ = checks.sweep([0.5, 0.9, 0.5, 0.1], ["target", "target", "nontarget", "nontarget"])
    assert eer == pytest.approx(0.25, abs=1e-15)


def test_self_time_subtracts_union_of_children():
    parent = (1, None, "p", 0.0, 10.0)
    children = [(2, 1, "a", 1.0, 3.0), (3, 1, "b", 2.0, 5.0), (4, 1, "c", 7.0, 8.0)]
    assert math.isclose(spans.self_time(parent, children), 10.0 - 4.0 - 1.0)
