"""The embedding and trial readers against line-by-line oracles.

Each case runs the package reader and its oracle on the same file: a valid
file must give bit-identical arrays, and a malformed one the same ParseError
text.
"""

import pytest
import numpy as np

from oracles import parse_embeddings_oracle, parse_trials_oracle
from spkdbn.embeddings import ParseError, parse_embeddings
from spkdbn.evaluation import Trials, parse_trials


def _outcome(read, *args):
    """('ok', result) or ('error', ParseError text) of one reader call."""
    try:
        return "ok", read(*args)
    except ParseError as exc:
        return "error", str(exc)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _check_embeddings(text, path="emb.txt"):
    lines = text.splitlines(keepends=True)
    got, want = _outcome(parse_embeddings, lines, path), _outcome(parse_embeddings_oracle, lines, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert got[1].ids == want[1].ids and got[1].speakers == want[1].speakers
        assert _same_array(got[1].vectors, want[1].vectors)
    return got


def _check_trials(text, path="trials.txt"):
    lines = text.splitlines(keepends=True)
    got, want = _outcome(parse_trials, lines, path), _outcome(parse_trials_oracle, lines, path)
    assert got == want
    return got


def _trials(n_models, n_tests):
    models = [f"m{i:03d}" for i in range(n_models) for _ in range(n_tests)]
    tests = [f"t{j:06d}" for _ in range(n_models) for j in range(n_tests)]
    keys = ["target" if j % 7 == 0 else "nontarget" for j in range(len(models))]
    return Trials(tuple(models), tuple(tests), tuple(keys))


# ---------------------------------------------------------------- embeddings

EDGE_FLOATS = "1_0 +1.5 ٣.٥ 1e-320 4.9e-324 2.5e-324 .5 5. 1E5 -0 1.7976931348623157e308"


@pytest.mark.parametrize("text", [
    "# embeddings d=3 n=2\nu1 spkA 1.0 2.0 3.0\nu2 - -0.5 0.25 1e-300\n",
    "# comment\n\nu1 a 1 2\n\n# another\nu2 b 3 4\n",
    "u1 a 1.0 2.0\r\nu2 - 3.0 4.0\r\n",
    "u1 a 1.0 2.0   \nu2 b 3.0 4.0 \t\n",
    # any run of whitespace separates fields, as in a trial list
    "u1 a 1.0  2.0\n",
    "u1\ta\t1.0\t2.0\nu2 -\t 3.0 \t4.0\n",
    f"u1 a {EDGE_FLOATS}\n",
])
def test_embedding_reader_matches_the_oracle_on_valid_files(text):
    assert _check_embeddings(text)[0] == "ok"


def test_embedding_reader_matches_the_oracle_on_random_rows():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 7)) * rng.choice([1e-300, 1e-5, 1.0, 1e200], size=(50, 1))
    text = "".join(f"u{i} s{i % 4} " + " ".join(repr(float(x)) for x in row) + "\n"
                   for i, row in enumerate(X))
    assert _check_embeddings(text)[0] == "ok"


@pytest.mark.parametrize("text, message", [
    ("", "no embedding records found"),
    ("# only a comment\n", "no embedding records found"),
    ("# embeddings d=4 n=0\n", "emb.txt: no embedding records found"),
    ("#embeddings d=2\n\n", "emb.txt: no embedding records found"),
    ("u1 a 1.0\nu2 b\n", ":2: expected id, speaker and values"),
    ("u1 a 1.0 oops\n", ":1: bad float field (could not convert string to float: 'oops')"),
    ("u1\ta\t1.0\nu2\tb\n", ":2: expected id, speaker and values"),
    ("u1 a 0x10\n", ":1: bad float field"),
    ("u1 a 1__0\n", ":1: bad float field"),
    ("u1 a 1.0 2.0\nu2 a 1.0 2.0 3.0\n", ":2: dimension 3 != 2 of first row"),
    ("u1 a 1.0 2.0\nu1 b 3.0 4.0\n", ":2: duplicate utterance_id 'u1'"),
    ("u1 a 1.0 2.0\nu2 a Infinity 2.0\n", ":2: non-finite value in embedding 'u2'"),
    ("u1 a 1.0 2.0\nu2 a 1e400 2.0\n", ":2: non-finite value in embedding 'u2'"),
    ("u1 a 1.0 2.0\nu2 a nan 2.0\n", ":2: non-finite value in embedding 'u2'"),
    # two faults: the earlier line is named, and within a line the checks keep their order
    ("u1 a 1.0 2.0\nu2 a x 2.0\nu1 a 1.0 2.0\n", ":2: bad float field"),
    ("u1 a 1.0 2.0\nu1 a inf 2.0\nu3 a 1.0\n", ":2: duplicate utterance_id 'u1'"),
])
def test_embedding_reader_matches_the_oracle_on_malformed_files(text, message):
    outcome, error = _check_embeddings(text)
    assert outcome == "error" and message in error


# --------------------------------------------------------------- trial lists

@pytest.mark.parametrize("text", [
    "m2 t1 nontarget\nm1 t2 nontarget\n# comment\nm1 t1 target\n",
    "\n\n# c\nm1 t1 target\n\n",
    "m1 t1 target\r\nm1 t2 nontarget\r\n",
    "m1 t1 target   \n  m1 t2 nontarget\t\n",
    "m1 t1 target\nt1 m1 target\nm1 m1 nontarget\n",
])
def test_trial_reader_matches_the_oracle_on_valid_files(text):
    assert _check_trials(text)[0] == "ok"


@pytest.mark.parametrize("text, message", [
    ("", "trials.txt: no trials found"),
    ("# c\n\n", "trials.txt: no trials found"),
    ("m1 t1 target\nm1 t2\n", ":2: expected '<model> <test> <target|nontarget>'"),
    ("m1 t1 target\nm1 t2 bogus\n", ":2: expected '<model> <test> <target|nontarget>'"),
    ("m1 t1 target extra\n", ":1: expected '<model> <test> <target|nontarget>'"),
    ("m1 t1 target\nm1 t2 nontarget\nm1 t1 nontarget\n", ":3: trial 'm1 t1' repeats line 1"),
    ("m1 t1 target\n# c\nm1 t1 target\n", ":3: trial 'm1 t1' repeats line 1"),
    # two faults: the earlier line is named
    ("m1 t1 target\nm1 t2 bogus\nm1 t1 target\n", ":2: expected"),
    ("m1 t1 target\nm1 t1 target\nm1 t2 bogus\n", ":2: trial 'm1 t1' repeats line 1"),
    ("m1 t1 target\nm1 t2 target\nm1 t3 target\nm1 t2 x\nm1 t1 target\n", ":4: expected"),
])
def test_trial_reader_matches_the_oracle_on_malformed_files(text, message):
    outcome, error = _check_trials(text)
    assert outcome == "error" and message in error


def test_trial_reader_matches_the_oracle_on_a_long_shuffled_list():
    trials = _trials(3, 25000)
    lines = [f"{m} {t} {k}\n" for m, t, k in zip(trials.models, trials.tests, trials.keys)]
    np.random.default_rng(4).shuffle(lines)
    assert _check_trials("".join(lines)) == ("ok", trials)
    outcome, error = _check_trials("".join(lines) + lines[0])
    assert error.endswith(f":{len(lines) + 1}: trial '{' '.join(lines[0].split()[:2])}' "
                          f"repeats line 1")
