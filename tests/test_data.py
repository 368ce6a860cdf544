import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohead import (ClassRole, ConfigError, DataError, NoiseKind, NoiseSpec,
                     build_toy_scenario, class_split, inject_noise,
                     make_transition_matrix, minibatches)
from twohead.data import (BlobSpec, DomainDataset, TOY_SOURCE_CENTERS,
                          _assert_private_margin, dataset_to_csv, sample_blobs)
from twohead.rng import make_rng


def test_symmetric_matrix_values():
    q = make_transition_matrix(NoiseSpec(NoiseKind.SYMMETRIC_FLIP, 0.45), 3)
    assert np.allclose(np.diag(q), 0.55)
    off = q[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.225)


def test_pair_matrix_values():
    q = make_transition_matrix(NoiseSpec(NoiseKind.PAIR_FLIP, 0.2), 3)
    assert np.allclose(q[0], [0.8, 0.2, 0.0])
    assert np.allclose(q[2], [0.2, 0.0, 0.8])  # wraps to class 0


def test_zero_rate_is_identity():
    for kind in NoiseKind:
        q = make_transition_matrix(NoiseSpec(kind, 0.0), 5)
        assert np.array_equal(q, np.eye(5))


@pytest.mark.parametrize("kind", list(NoiseKind))
@pytest.mark.parametrize("rate", [0.0, 0.2, 0.45, 0.49])
@pytest.mark.parametrize("c", [2, 3, 10, 31])
def test_rows_are_stochastic(kind, rate, c):
    q = make_transition_matrix(NoiseSpec(kind, rate), c)
    assert np.abs(q.sum(axis=1) - 1.0).max() < 1e-12
    assert q.min() >= 0.0


def test_matrix_rejects_small_class_count():
    with pytest.raises(ConfigError):
        make_transition_matrix(NoiseSpec(NoiseKind.PAIR_FLIP, 0.2), 1)


def test_noise_spec_validation():
    with pytest.raises(ConfigError):
        NoiseSpec(NoiseKind.PAIR_FLIP, 1.0)
    # a string kind fell into the symmetric branch of make_transition_matrix
    with pytest.raises(ConfigError, match="noise kind must be a NoiseKind"):
        NoiseSpec("pair", 0.2)
    for rate in (True, "0.2", None):
        with pytest.raises(ConfigError, match="noise rate must be a real number"):
            NoiseSpec(NoiseKind.SYMMETRIC_FLIP, rate)
    with pytest.warns(UserWarning):
        NoiseSpec(NoiseKind.PAIR_FLIP, 0.5)


def test_inject_noise_identity():
    labels = make_rng(0, "l").integers(0, 4, size=500)
    out = inject_noise(labels, np.eye(4), seed=3)
    assert np.array_equal(out, labels)


def test_inject_noise_deterministic():
    labels = make_rng(0, "l").integers(0, 3, size=500)
    q = make_transition_matrix(NoiseSpec(NoiseKind.SYMMETRIC_FLIP, 0.2), 3)
    a = inject_noise(labels, q, seed=3)
    b = inject_noise(labels, q, seed=3)
    c = inject_noise(labels, q, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_inject_noise_flip_statistics():
    labels = np.zeros(20000, dtype=np.int64)
    q = make_transition_matrix(NoiseSpec(NoiseKind.SYMMETRIC_FLIP, 0.2), 3)
    out = inject_noise(labels, q, seed=5)
    flipped = (out != labels).mean()
    assert abs(flipped - 0.2) < 0.02


def test_inject_noise_pair_partner_only():
    labels = np.zeros(20000, dtype=np.int64)
    q = make_transition_matrix(NoiseSpec(NoiseKind.PAIR_FLIP, 0.45), 3)
    out = inject_noise(labels, q, seed=6)
    assert abs((out == 1).mean() - 0.45) < 0.02
    assert (out == 2).sum() == 0


def test_inject_noise_label_range():
    with pytest.raises(DataError):
        inject_noise(np.array([0, 3]), np.eye(3), seed=1)


def test_class_split_31_classes():
    roles = class_split(31, 10, 10, 11)
    assert all(r is ClassRole.COMMON for r in roles[:10])
    assert all(r is ClassRole.SOURCE_PRIVATE for r in roles[10:20])
    assert all(r is ClassRole.TARGET_PRIVATE for r in roles[20:])


def test_class_split_toy():
    roles = class_split(4, 2, 1, 1)
    assert roles == (ClassRole.COMMON, ClassRole.COMMON,
                     ClassRole.SOURCE_PRIVATE, ClassRole.TARGET_PRIVATE)


def test_class_split_validation_and_warning():
    with pytest.raises(ConfigError):
        class_split(4, 2, 1, 2)
    with pytest.warns(UserWarning):
        class_split(2, 0, 1, 1)


def test_blob_spec_validation():
    with pytest.raises(ConfigError):
        BlobSpec(centers=[(0, 0), (0, 0)], stddevs=[1, 1], samples_per_class=5)
    with pytest.raises(ConfigError):
        BlobSpec(centers=[(0, 0)], stddevs=[-1.0], samples_per_class=5)
    # stddev=True sampled the toy at stddev 1
    for stddev in (True, "1.0"):
        with pytest.raises(ConfigError, match="stddevs must be real numbers"):
            build_toy_scenario(0, stddev=stddev)
    for count in (True, 64.0, "64"):
        with pytest.raises(ConfigError, match="samples_per_class must be an integer"):
            build_toy_scenario(0, samples_per_class=count)


def test_sample_blobs_shapes():
    spec = BlobSpec(centers=[(0.0, 0.0), (5.0, 5.0)], stddevs=[1.0, 0.5],
                    samples_per_class=100)
    x, y = sample_blobs(spec, make_rng(0, "blob"))
    assert x.shape == (200, 2)
    assert np.array_equal(np.bincount(y), [100, 100])
    # second cluster is tighter
    assert x[y == 1].std() < x[y == 0].std() + 1.0


def test_toy_scenario_shapes_and_roles():
    source, target = build_toy_scenario(7)
    assert source.features.shape == (900, 2)
    assert target.features.shape == (900, 2)
    assert source.observed_labels is not None
    assert target.observed_labels is None
    assert source.num_model_classes == 3
    assert set(np.unique(source.true_labels)) == {0, 1, 2}
    assert set(np.unique(target.true_labels)) == {0, 1, 3}
    # about 20% of source labels corrupted
    assert abs((source.observed_labels != source.true_labels).mean() - 0.2) < 0.04


def test_toy_scenario_reproducible():
    a_src, a_tgt = build_toy_scenario(7)
    b_src, b_tgt = build_toy_scenario(7)
    assert np.array_equal(a_src.features, b_src.features)
    assert np.array_equal(a_src.observed_labels, b_src.observed_labels)
    assert np.array_equal(a_tgt.features, b_tgt.features)
    c_src, _ = build_toy_scenario(8)
    assert not np.array_equal(a_src.features, c_src.features)


def test_toy_private_cluster_is_far():
    _, target = build_toy_scenario(7)
    private = target.features[target.true_labels == 3]
    for center in TOY_SOURCE_CENTERS:
        dist = np.linalg.norm(np.asarray(center) - np.array([10.0, -8.0]))
        assert dist > 5.0  # center layout: private sits beyond 5 stddevs
    # every private sample keeps a clear margin from all source centers
    _assert_private_margin(private, TOY_SOURCE_CENTERS, stddev=1.0)


def test_private_margin_guard_fires():
    points = np.asarray(TOY_SOURCE_CENTERS[0], dtype=float)[None, :] + 0.1
    with pytest.raises(ConfigError):
        _assert_private_margin(points, TOY_SOURCE_CENTERS, stddev=1.0)


def test_minibatches_full_batch():
    source, _ = build_toy_scenario(7)
    batches = minibatches(source, 900, seed=1, epoch=0)
    assert len(batches) == 1
    assert sorted(batches[0]) == list(range(900))


def test_minibatches_drops_remainder():
    source, _ = build_toy_scenario(7)
    batches = minibatches(source, 64, seed=1, epoch=0)
    assert len(batches) == 14
    assert all(len(b) == 64 for b in batches)


def test_minibatches_epoch_mixing_and_determinism():
    source, _ = build_toy_scenario(7)
    e0 = minibatches(source, 64, seed=1, epoch=0)
    e1 = minibatches(source, 64, seed=1, epoch=1)
    e0_again = minibatches(source, 64, seed=1, epoch=0)
    assert not np.array_equal(e0[0], e1[0])
    assert np.array_equal(e0[0], e0_again[0])


def test_minibatches_validation():
    source, _ = build_toy_scenario(7)
    with pytest.raises(ConfigError):
        minibatches(source, 1, seed=1, epoch=0)


def test_dataset_csv_export(tmp_path):
    source, target = build_toy_scenario(7)
    path = tmp_path / "source.csv"
    dataset_to_csv(source, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,observed_label,true_label,role,domain"
    assert len(lines) == 901
    dataset_to_csv(target, tmp_path / "target.csv")
    t_lines = (tmp_path / "target.csv").read_text().splitlines()
    # target rows carry no observed label
    assert t_lines[1].split(",")[2] == ""


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 40), st.integers(1, 6), st.booleans(), st.integers(0, 2**16))
def test_dataset_csv_matches_csv_writer_reference(tmp_path_factory, n, classes, labelled,
                                                  seed):
    """One csv.writer row per sample, with an empty observed label when
    the dataset has none."""
    rng = make_rng(seed, "dataset-csv")
    roles = tuple(ClassRole)
    dataset = DomainDataset(
        features=rng.normal(scale=10.0, size=(n, 2)),
        observed_labels=rng.integers(0, classes, size=n) if labelled else None,
        true_labels=rng.integers(0, classes, size=n),
        class_roles=tuple(roles[i] for i in rng.integers(0, len(roles), size=classes)),
        domain="source" if labelled else "target")
    path = tmp_path_factory.mktemp("dataset") / "data.csv"
    dataset_to_csv(dataset, path)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["x0", "x1", "observed_label", "true_label", "role", "domain"])
    for i in range(n):
        obs = "" if dataset.observed_labels is None else int(dataset.observed_labels[i])
        true = int(dataset.true_labels[i])
        writer.writerow([repr(float(dataset.features[i, 0])),
                         repr(float(dataset.features[i, 1])), obs, true,
                         dataset.class_roles[true].value, dataset.domain])
    assert path.read_bytes() == expected.getvalue().encode()
