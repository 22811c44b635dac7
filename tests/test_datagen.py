import math

import numpy as np
import pytest

from convexcluster.datagen import (
    BallModelSpec,
    GmmSpec,
    embedded_circles,
    gaussian_mixture,
    load_csv,
    paper_gaussians,
    save_csv,
    stochastic_ball,
)
from convexcluster.metrics import cluster_geometry

CENTERS = np.array([[0.0, 0.0], [5.0, 0.0]])


def test_ball_support_constraint_and_dist():
    spec = BallModelSpec(centers=CENTERS, per_cluster=200, seed=1)
    A, labels = stochastic_ball(spec)
    assert A.shape == (400, 2)
    for k in range(2):
        radii = np.linalg.norm(A[labels == k] - CENTERS[k], axis=1)
        assert np.all(radii <= 1.0 + 1e-12)
    stats = cluster_geometry(A, labels)
    assert stats.min_dist >= 5.0 - 2.0  # triangle inequality


def test_ball_empirical_mean_near_center():
    spec = BallModelSpec(centers=np.array([[2.0, -1.0]]), per_cluster=100000, seed=3)
    A, _ = stochastic_ball(spec)
    assert np.all(np.abs(A.mean(axis=0) - [2.0, -1.0]) < 0.02)


def test_ball_sphere_mode_and_determinism():
    spec = BallModelSpec(centers=CENTERS, per_cluster=50, distribution="uniform_sphere", seed=9)
    A, labels = stochastic_ball(spec)
    radii = np.linalg.norm(A[labels == 0] - CENTERS[0], axis=1)
    assert np.allclose(radii, 1.0)
    B, _ = stochastic_ball(spec)
    assert np.array_equal(A, B)
    with pytest.raises(ValueError):
        BallModelSpec(centers=CENTERS, per_cluster=0)
    with pytest.raises(ValueError):
        BallModelSpec(centers=CENTERS, per_cluster=5, distribution="disk")


def test_gmm_zero_covariance_exact():
    spec = GmmSpec(weights=[1.0], means=[[1.0, -2.0]], covariances=[np.zeros((2, 2))],
                   m=20, seed=0)
    A, labels = gaussian_mixture(spec)
    assert np.allclose(A, [1.0, -2.0])
    assert np.all(labels == 0)


def test_gmm_sample_statistics():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    spec = GmmSpec(weights=[0.5, 0.5], means=[[0.0, 0.0], [50.0, 50.0]],
                   covariances=[cov, np.eye(2)], m=100000, seed=5)
    A, labels = gaussian_mixture(spec)
    sel = labels == 0
    emp_mean = A[sel].mean(axis=0)
    emp_cov = np.cov(A[sel].T)
    n0 = sel.sum()
    assert np.all(np.abs(emp_mean) < 4 * math.sqrt(2.0 / n0) * 3)
    assert np.all(np.abs(emp_cov - cov) < 0.05)
    # component counts within 3 sigma of the binomial expectation
    sigma = math.sqrt(100000 * 0.25)
    assert abs(n0 - 50000) <= 3 * sigma


def test_gmm_validation():
    with pytest.raises(ValueError):
        GmmSpec(weights=[0.7, 0.2], means=[[0.0], [1.0]],
                covariances=[np.eye(1), np.eye(1)], m=5)
    with pytest.raises(ValueError):
        gaussian_mixture(GmmSpec(weights=[1.0], means=[[0.0]],
                                 covariances=[np.array([[-1.0]])], m=5))


def test_paper_gaussians_configuration():
    A, labels, r = paper_gaussians(1.0, seed=2)
    assert np.isclose(r, 0.14)
    assert A.shape == (30, 100)
    assert np.bincount(labels).tolist() == [10, 10, 10]
    _, _, r2 = paper_gaussians(2.0, seed=2)
    assert np.isclose(r2, 0.36)
    # cluster means land near 0, 3, -3 per coordinate
    assert abs(A[labels == 1].mean() - 3.0) < 0.2
    assert abs(A[labels == 2].mean() + 3.0) < 0.2
    with pytest.raises(ValueError):
        paper_gaussians(0.0)


def test_embedded_circles_shape_and_radii():
    A, labels = embedded_circles(seed=11)
    assert A.shape == (500, 2)
    assert np.bincount(labels).tolist() == [250, 250]
    outer = np.linalg.norm(A[labels == 1], axis=1)
    assert abs(outer.mean() - 5.0) < 0.05  # 3 sigma of N(5, 0.25^2)/sqrt(250)
    assert np.all(outer > 3.5)
    inner = np.linalg.norm(A[labels == 0], axis=1)
    assert inner.mean() < 2.0


def test_generators_deterministic():
    a1 = embedded_circles(seed=4)[0]
    a2 = embedded_circles(seed=4)[0]
    assert np.array_equal(a1, a2)
    b1 = paper_gaussians(2.0, seed=6)[0]
    b2 = paper_gaussians(2.0, seed=6)[0]
    assert np.array_equal(b1, b2)
    assert not np.array_equal(embedded_circles(seed=5)[0], a1)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "data.csv"
    A = np.array([[1.25, -3.5], [0.1, 2.0], [7.0, 0.0]])
    save_csv(path, A)
    back, labels, header = load_csv(path)
    assert np.array_equal(back, A)  # bit identical for decimal-exact values
    assert labels is None and header is None

    save_csv(path, A, labels=np.array([0, 1, 1]))
    back, labels, header = load_csv(path, label_column="label")
    assert np.array_equal(back, A)
    assert labels.tolist() == [0, 1, 1]
    assert header == ["x0", "x1"]

    # full-precision round trip for arbitrary doubles
    gen = np.random.default_rng(8)
    B = gen.normal(size=(4, 3)) * math.pi
    save_csv(path, B)
    assert np.array_equal(load_csv(path)[0], B)


def test_csv_label_by_index_and_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,0\n3,4,1\n", encoding="utf-8")
    A, labels, _ = load_csv(path, label_column=2)
    assert A.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert labels.tolist() == [0, 1]

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="ragged"):
        load_csv(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,x\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(bad)

    with pytest.raises(ValueError, match="label column"):
        load_csv(path, label_column="class")


def test_csv_string_labels(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x0,x1,kind\n1,2,iris-a\n3,4,iris-b\n5,6,iris-a\n", encoding="utf-8")
    A, labels, header = load_csv(path, label_column="kind")
    assert labels.tolist() == [0, 1, 0]
    assert header == ["x0", "x1"]
    # ids follow first occurrence, not sorted order
    path.write_text("x0,kind\n1,z\n2,a\n3,z\n", encoding="utf-8")
    assert load_csv(path, label_column="kind")[1].tolist() == [0, 1, 0]


@pytest.mark.parametrize("cells", [["inf", "1", "inf"], ["1e400", "-inf", "1e400"],
                                   ["1e19", "2", "1e19"]], ids=["inf", "overflow", "int64"])
def test_csv_labels_beyond_int64_map_to_dense_ids(tmp_path, cells):
    # int(float("inf")) and int64(1e19) overflow; they map like string labels
    path = tmp_path / "l.csv"
    path.write_text("x0,label\n" + "".join(f"{q},{c}\n" for q, c in enumerate(cells)),
                    encoding="utf-8")
    A, labels, header = load_csv(path, label_column="label")
    assert labels.dtype == np.int64 and labels.tolist() == [0, 1, 0]
    assert A.tolist() == [[0.0], [1.0], [2.0]] and header == ["x0"]


def test_csv_cells_parse_as_float_does(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text('x0,label,x1\n" 1_000 ",1,２\n-.5,2,+3e-1\n', encoding="utf-8")
    A, labels, header = load_csv(path, label_column=-2)
    assert A.tolist() == [[1000.0, 2.0], [-0.5, 0.3]]
    assert labels.tolist() == [1, 2] and header == ["x0", "x1"]
    # the first cell float() rejects is named, by row and in order
    path.write_text("1,2\n3,4\n5,x\n,y\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"non-numeric feature cell 'x' in data row 3"):
        load_csv(path)
    path.write_text("x0,label,x1\n1,a,2\n3,b,\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"non-numeric feature cell '' in data row 2"):
        load_csv(path, label_column="label")


@pytest.mark.parametrize("centers", [np.zeros((1, 0)), [[math.nan, 0.0], [4.0, 0.0]],
                                     [[math.inf, 0.0]]], ids=["no-column", "nan", "inf"])
def test_ball_spec_rejects_centers_without_columns_or_finite_entries(centers):
    # with no column the direction sampler never returns, and non-finite
    # centers fail the sampler's support check
    with pytest.raises(ValueError, match="at least one column and finite entries"):
        BallModelSpec(centers=centers, per_cluster=3)


def test_csv_label_index_out_of_range(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,2,0\n3,4,1\n", encoding="utf-8")
    for index in (3, -4):
        with pytest.raises(ValueError, match=rf"label column index {index} out of range"):
            load_csv(path, label_column=index)
    # the bounds are inclusive of the first column from either end
    assert load_csv(path, label_column=-3)[1].tolist() == [1, 3]


def test_csv_label_column_given_as_a_string_index(tmp_path):
    # the CLI passes --label-column as a string: one that names no header
    # column and parses as an integer is a column index
    path = tmp_path / "d.csv"
    path.write_text("1,2,0\n3,4,1\n", encoding="utf-8")
    for column in ("2", "-1"):
        A, labels, header = load_csv(path, label_column=column)
        assert A.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert labels.tolist() == [0, 1] and header is None
    with pytest.raises(ValueError, match="label column index 3 out of range"):
        load_csv(path, label_column="3")
    # a header name wins over the index it would parse as
    path.write_text("2,x,y\n0,1,5\n1,3,6\n", encoding="utf-8")
    A, labels, header = load_csv(path, label_column="2")
    assert labels.tolist() == [0, 1] and header == ["x", "y"]
    with pytest.raises(ValueError, match="label column 'z' not found"):
        load_csv(path, label_column="z")


@pytest.mark.parametrize("cells, expected", [
    (["0.2", "0.7", "1.4", "1.9"], [0, 1, 2, 3]),
    (["1", "0.5", "1.0", "0.5"], [0, 1, 0, 1]),
    (["3", "1.0", "3.0", "-2"], [3, 1, 3, -2]),
], ids=["fractions", "mixed", "integer-valued"])
def test_csv_fractional_labels_map_by_value(tmp_path, cells, expected):
    # integer labels keep their values; a column with any fraction maps to
    # dense ids by first occurrence of each numeric value
    path = tmp_path / "l.csv"
    path.write_text("x0,label\n" + "".join(f"{q},{c}\n" for q, c in enumerate(cells)),
                    encoding="utf-8")
    labels = load_csv(path, label_column="label")[1]
    assert labels.dtype == np.int64 and labels.tolist() == expected


@pytest.mark.parametrize("field, value", [
    ("weights", [math.nan, 1.0]), ("means", [[math.inf, 0.0], [3.0, 3.0]]),
    ("means", [[0.0, 0.0], [3.0, -math.inf]]),
    ("covariances", [np.eye(2), np.array([[math.nan, 0.0], [0.0, 1.0]])]),
], ids=["weights-nan", "means-inf", "means--inf", "covariances-nan"])
def test_gmm_spec_rejects_non_finite_fields(field, value):
    fields = {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [3.0, 3.0]],
              "covariances": [np.eye(2), np.eye(2)], "m": 10}
    with pytest.raises(ValueError, match=f"mixture {field} must be finite"):
        GmmSpec(**{**fields, field: value})
