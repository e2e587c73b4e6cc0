import tracemalloc

import numpy as np
import pytest

from conftest import read_embeddings
from spkdbn.embeddings import (
    Dataset,
    ParseError,
    SynthConfig,
    Whitener,
    apply_whitener,
    fit_whitener,
    generate_synthetic,
    length_normalize,
    parse_embeddings,
    save_embeddings,
)


def test_load_minimal_file(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("u1 spkA 1.0 2.0\n")
    ds = read_embeddings(p)
    assert ds.dimension == 2
    assert len(ds) == 1
    assert ds.ids == ("u1",)
    assert ds.speakers == ("spkA",)
    np.testing.assert_array_equal(ds.vectors, [[1.0, 2.0]])


def test_load_unlabeled_and_comments(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("# comment\nu1 - 0.5 0.5\n\n")
    ds = read_embeddings(p)
    assert ds.speakers == (None,)


def test_dimension_mismatch_names_line(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("u1 a 1.0 2.0\nu2 a 1.0 2.0 3.0\n")
    with pytest.raises(ParseError, match=":2:"):
        read_embeddings(p)


def test_malformed_row_and_duplicate_id(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("u1 a 1.0 oops\n")
    with pytest.raises(ParseError, match=":1:"):
        read_embeddings(p)
    p.write_text("u1 a 1.0 2.0\nu1 b 3.0 4.0\n")
    with pytest.raises(ParseError, match="duplicate"):
        read_embeddings(p)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_field_names_line(tmp_path, field):
    p = tmp_path / "bad.txt"
    p.write_text(f"u1 a 1.0 2.0\nu2 a {field} 2.0\n")
    with pytest.raises(ParseError, match=r":2: non-finite value in embedding 'u2'"):
        read_embeddings(p)


def test_parsing_streams_the_file_one_line_at_a_time(tmp_path):
    # 1800x100 rows: the parsed matrix, the per-row arrays it is stacked
    # from, and one line's fields; a token list of the whole file would
    # peak at about 14x the matrix
    rng = np.random.default_rng(2)
    ds = Dataset(tuple(f"bg{i:04d}" for i in range(1800)), (None,) * 1800,
                 rng.normal(size=(1800, 100)))
    p = tmp_path / "background.txt"
    save_embeddings(ds, p)
    tracemalloc.start()
    try:
        with open(p, "rb") as fh:
            back = parse_embeddings(fh, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.vectors, ds.vectors)
    assert peak <= 4 * ds.vectors.nbytes, peak


def test_rows_and_by_speaker():
    vectors = np.arange(10.0).reshape(5, 2)
    ds = Dataset(("a", "b", "c", "d", "e"), ("s2", None, "s1", "s2", "s1"), vectors)
    np.testing.assert_array_equal(ds.rows(["d", "a", "d"]), vectors[[3, 0, 3]])
    assert ds.rows([]).shape == (0, 2)
    with pytest.raises(ValueError, match="unknown utterance id 'x'"):
        ds.rows(["a", "x"])
    groups = ds.by_speaker()
    assert list(groups) == ["s1", "s2"]
    np.testing.assert_array_equal(groups["s1"], vectors[[2, 4]])
    np.testing.assert_array_equal(groups["s2"], vectors[[0, 3]])


def test_roundtrip_is_bitwise_identity(tmp_path):
    rng = np.random.default_rng(3)
    vectors = np.stack([rng.normal(size=7) * 10.0 ** rng.integers(-8, 8) for _ in range(100)])
    ds = Dataset(tuple(f"u{i}" for i in range(100)),
                 tuple("s" if i % 2 else None for i in range(100)), vectors)
    p = tmp_path / "rt.txt"
    save_embeddings(ds, p)
    back = read_embeddings(p)
    assert back.ids == ds.ids
    assert back.speakers == ds.speakers
    assert np.array_equal(back.vectors, ds.vectors)  # exact, 17 significant digits


def test_empty_dataset_roundtrip(tmp_path):
    # a file with no records, such as an empty set's header line, is no input
    p = tmp_path / "empty.txt"
    save_embeddings(Dataset((), (), np.zeros((0, 4))), p)
    assert p.read_text() == "# embeddings d=4 n=0\n"
    with pytest.raises(ParseError, match=r"empty\.txt: no embedding records found$"):
        read_embeddings(p)


def test_synthetic_counts_and_determinism():
    cfg = SynthConfig(2, 3, 4, 1.0, 0.1, seed=7)
    ds = generate_synthetic(cfg)
    assert len(ds) == 6
    assert len(set(ds.speakers)) == 2
    ds2 = generate_synthetic(cfg)
    assert ds.ids == ds2.ids
    assert np.array_equal(ds.vectors, ds2.vectors)


def test_synthetic_within_vs_cross_cosine():
    ds = generate_synthetic(SynthConfig(10, 5, 20, 1.0, 0.05, seed=11))
    def cos(a, b):
        return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    within, cross = [], []
    rows = list(zip(ds.speakers, ds.vectors))
    for i, (spk_a, a) in enumerate(rows):
        for spk_b, b in rows[i + 1:]:
            (within if spk_a == spk_b else cross).append(cos(a, b))
    assert np.mean(within) > np.mean(cross)


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(0, 1, 2, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        SynthConfig(1, 1, 2, 0.0, 1.0, 0)


def test_length_normalize():
    np.testing.assert_allclose(length_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)
    v = length_normalize(np.random.default_rng(0).normal(size=9))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    np.testing.assert_allclose(length_normalize(v), v, atol=1e-12)  # idempotent
    with pytest.raises(ValueError):
        length_normalize([0.0, 0.0])


def _exactly_white_matrix(n, d, seed):
    """Rows with exactly zero sample mean and identity sample covariance."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X = X - X.mean(axis=0)
    L = np.linalg.cholesky(np.cov(X, rowvar=False, ddof=1))
    return X @ np.linalg.inv(L).T


def test_whitener_on_exactly_white_data_is_near_identity():
    ds = _exactly_white_matrix(500, 6, seed=2)
    w = fit_whitener(ds)
    np.testing.assert_allclose(w.mean, np.zeros(6), atol=1e-12)
    # only the 1e-6 covariance regularization separates it from identity
    np.testing.assert_allclose(w.transform, np.eye(6), atol=2e-6)


def test_whitened_fitting_set_has_identity_covariance():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(2000, 5)) + rng.normal(size=5)
    w = fit_whitener(X)
    Y = np.stack([apply_whitener(w, x) for x in X])
    cov = np.cov(Y, rowvar=False, ddof=1)
    # the covariance regularization eps = 1e-6*trace/d bounds the residual
    # deviation around eps / lambda_min, ~1e-6 for near-isotropic data
    np.testing.assert_allclose(cov, np.eye(5), atol=2e-6)


def test_whitener_needs_enough_vectors_and_nonsingular_cov():
    v = np.ones(4)
    with pytest.raises(ValueError):
        fit_whitener(np.stack([v + i for i in range(3)]))
    with pytest.raises(ValueError):
        fit_whitener(np.tile(v, (10, 1)))
