"""Objective tests: gradient oracles, synthetic data, partitioning, loading."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedquant import objectives
from fedquant.objectives import (
    ClientShard,
    Dataset,
    ModelSpec,
    accuracy,
    generate_synthetic,
    gradient,
    init_params,
    load_delimited,
    loss,
    partition,
    sample_batch,
)

QUAD = ModelSpec.quadratic(5)
LOGI = ModelSpec.logistic(4)
MLP = ModelSpec.mlp(4, 3, 3)


def quad_data(seed=0, m=40):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, 5))
    w_true = rng.standard_normal(5)
    return Dataset(features=x, labels=x @ w_true), w_true


def logi_data(seed=0, m=60):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, 4))
    y = (x @ rng.standard_normal(4) > 0).astype(np.int64)
    return Dataset(features=x, labels=y)


def mlp_data(seed=0, m=30):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, 4))
    y = rng.integers(0, 3, size=m)
    return Dataset(features=x, labels=y)


def finite_difference(model, w, data, h=1e-5):
    g = np.zeros_like(w)
    for j in range(w.size):
        up, down = w.copy(), w.copy()
        up[j] += h
        down[j] -= h
        g[j] = (loss(model, up, data) - loss(model, down, data)) / (2 * h)
    return g


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 3)), labels=np.ones(3))
        with pytest.raises(ValueError):
            Dataset(features=np.ones(3), labels=np.ones(3))
        with pytest.raises(ValueError):
            Dataset(features=np.array([[np.nan]]), labels=np.array([1.0]))

    def test_immutability(self):
        data = Dataset(features=np.ones((2, 2)), labels=np.zeros(2))
        with pytest.raises(ValueError):
            data.features[0, 0] = 5.0

    def test_subset(self):
        data, _ = quad_data()
        sub = data.subset(np.array([3, 1]))
        assert sub.m == 2
        np.testing.assert_array_equal(sub.features[0], data.features[3])

    def test_subset_is_read_only(self):
        data = generate_synthetic("regression", 10, 3, seed=1)
        for sub in (data.subset(np.array([3, 1])), data.subset(slice(2, 5))):
            assert not sub.features.flags.writeable and not sub.labels.flags.writeable
            assert sub.planted_params is data.planted_params
            with pytest.raises(ValueError):
                sub.features[0, 0] = 5.0
        # a slice is a view of the rows, an index array a gathered copy
        assert np.shares_memory(data.subset(slice(2, 5)).features, data.features)
        assert not np.shares_memory(data.subset(np.array([3, 1])).features, data.features)

    @pytest.mark.parametrize("indices", [np.array([], dtype=np.intp), 3, slice(4, 4)])
    def test_subset_refuses_no_rows_and_a_lone_index(self, indices):
        with pytest.raises(ValueError, match="non-empty 2-D"):
            quad_data()[0].subset(indices)

    def test_constructor_copies_its_arguments(self):
        x, y, planted = np.ones((3, 2)), np.zeros(3), np.ones(2)
        data = Dataset(features=x, labels=y, planted_params=planted)
        for given, kept in ((x, data.features), (y, data.labels), (planted, data.planted_params)):
            assert not np.shares_memory(given, kept) and not kept.flags.writeable
            assert given.flags.writeable
        x[0, 0] = 5.0
        assert data.features[0, 0] == 1.0


class TestModelSpec:
    def test_dims(self):
        assert QUAD.dim == 5
        assert LOGI.dim == 5
        assert MLP.dim == 4 * 3 + 3 + 3 * 3 + 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="tree", n_features=3)
        with pytest.raises(ValueError):
            ModelSpec.mlp(4, 0, 3)
        with pytest.raises(ValueError):
            ModelSpec.mlp(4, 3, 1)
        with pytest.raises(ValueError):
            ModelSpec(kind="quadratic", n_features=3, hidden=2)


class TestLoss:
    def test_quadratic_zero_at_interpolating_solution(self):
        data, w_true = quad_data()
        assert loss(QUAD, w_true, data) == 0.0

    def test_logistic_ln2_at_zero(self):
        data = logi_data()
        np.testing.assert_allclose(loss(LOGI, np.zeros(5), data), math.log(2.0), rtol=1e-15)

    def test_mlp_uniform_at_zero_output_weights(self):
        data = mlp_data()
        w = init_params(MLP, np.random.default_rng(0))
        w[4 * 3 + 3 :] = 0.0  # zero the output layer: uniform softmax
        np.testing.assert_allclose(loss(MLP, w, data), math.log(3.0), rtol=1e-12)

    def test_weighted_shard_losses_reconstruct_union(self):
        data = logi_data(m=100)
        shards = partition(data, 7, mode="iid", seed=3)
        w = np.random.default_rng(4).standard_normal(5)
        union = Dataset(
            features=np.concatenate([s.data.features for s in shards]),
            labels=np.concatenate([s.data.labels for s in shards]),
        )
        weighted = sum(s.weight * loss(LOGI, w, s.data) for s in shards)
        assert abs(weighted - loss(LOGI, w, union)) < 1e-12

    def test_dimension_mismatch(self):
        data = logi_data()
        with pytest.raises(ValueError):
            loss(LOGI, np.zeros(7), data)

    def test_bad_labels(self):
        x = np.ones((2, 4))
        with pytest.raises(ValueError):
            loss(LOGI, np.zeros(5), Dataset(features=x, labels=np.array([0.0, 2.0])))
        with pytest.raises(ValueError):
            loss(MLP, init_params(MLP, np.random.default_rng(0)),
                 Dataset(features=x, labels=np.array([0, 3])))


class TestGradient:
    @pytest.mark.parametrize(
        "model,make",
        [(QUAD, lambda s: quad_data(s)[0]), (LOGI, logi_data), (MLP, mlp_data)],
        ids=["quadratic", "logistic", "mlp"],
    )
    def test_matches_finite_differences(self, model, make):
        rng = np.random.default_rng(17)
        data = make(2)
        for _ in range(10):
            w = rng.standard_normal(model.dim) * 0.5
            g = gradient(model, w, data)
            fd = finite_difference(model, w, data)
            assert np.all(np.abs(g - fd) <= 1e-4 * np.abs(fd) + 1e-7)

    def test_quadratic_zero_at_optimum(self):
        data, w_true = quad_data()
        np.testing.assert_allclose(gradient(QUAD, w_true, data), np.zeros(5), atol=1e-14)

    def test_singleton_minibatch_mean_is_full_gradient(self):
        data = logi_data(m=25)
        w = np.random.default_rng(8).standard_normal(5)
        singles = [
            gradient(LOGI, w, data.subset(np.array([i]))) for i in range(data.m)
        ]
        np.testing.assert_allclose(np.mean(singles, axis=0), gradient(LOGI, w, data), atol=1e-12)


def sigmoid_reference(z: np.ndarray) -> np.ndarray:
    """The logistic kernel's sigmoid with ``-|z|`` formed in two calls,
    ``abs`` then ``negative``."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = 1.0 + e
    np.copyto(e, 1.0, where=z >= 0)
    e /= denominator
    return e


def softplus_reference(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def logistic_gradients_reference(w, x, y):
    """The stacked logistic gradient with the weights' part divided by the
    row count on its own, then the bias's mean taken apart."""
    n, b, _ = x.shape
    out = np.empty((n, w.shape[1]))
    z = np.matmul(x, w[:, :-1, None])[:, :, 0] + w[:, -1:]
    resid = sigmoid_reference(z) - y
    np.matmul(x.swapaxes(1, 2), resid[:, :, None], out=out[:, :-1, None])
    out[:, :-1] /= b
    out[:, -1] = np.add.reduce(resid, axis=1) / b
    return out


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal bit for bit: signed zeros and NaN payloads count."""
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 745.0, -745.0, 1e-310, -1e-310, 36.0, -36.0, 1.0]


def sigmoid_into(z: np.ndarray, alias: bool) -> np.ndarray:
    """``_sigmoid`` given all its buffers, filled with junk first: the
    output is ``z`` itself with ``alias``, else an array of its own."""
    out = z if alias else np.full_like(z, np.nan)
    got = objectives._sigmoid(z, out, np.full_like(z, np.nan), np.ones(z.shape, dtype=bool))
    assert got is out
    return got


class TestLogisticKernels:
    """The logistic kernels bit for bit against their reference forms."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_edges(self):
        z = np.array(EDGES)
        assert same_bits(objectives._sigmoid(z.copy()), sigmoid_reference(z.copy()))
        for alias in (False, True):
            assert same_bits(sigmoid_into(z.copy(), alias), sigmoid_reference(z.copy()))
        assert same_bits(objectives._softplus(z.copy()), softplus_reference(z.copy()))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=40))
    def test_any_floats(self, values):
        z = np.array(values, dtype=np.float64)
        assert same_bits(objectives._sigmoid(z), sigmoid_reference(z))
        for alias in (False, True):
            assert same_bits(sigmoid_into(z.copy(), alias), sigmoid_reference(z))
        assert same_bits(objectives._softplus(z), softplus_reference(z))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 40), st.integers(1, 25), st.integers(0, 2**32), st.floats(0.01, 50.0))
    def test_stacked_gradients(self, n, b, f, seed, scale):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((n, f + 1)) * scale
        x = rng.standard_normal((n, b, f))
        y = (rng.random((n, b)) < 0.5).astype(np.float64)
        out = np.full((n, f + 1), np.nan)
        got = objectives._gradient_kernel(ModelSpec.logistic(f), w, out)(x, y)
        assert got is out
        assert same_bits(got, logistic_gradients_reference(w, x, y))


class TestGradientKernel:
    """A kernel bound once, called on successive row blocks while its plane
    is stepped in place, as local SGD calls it."""

    @pytest.mark.parametrize(
        "model", [ModelSpec.quadratic(5), ModelSpec.logistic(5), ModelSpec.mlp(5, 4, 3)], ids=lambda m: m.kind
    )
    def test_bound_kernel_is_a_fresh_call_at_every_step(self, model):
        rng = np.random.default_rng(11)
        n, steps, b = 3, 6, 7
        # the blocks as local SGD gets them: step views of one step-major
        # row buffer
        x = rng.standard_normal((steps, n, b, model.n_features))
        if model.kind == "mlp":
            y = rng.integers(0, model.n_classes, size=(steps, n, b))
        elif model.kind == "logistic":
            y = (rng.random((steps, n, b)) < 0.5).astype(np.float64)
        else:
            y = rng.standard_normal((steps, n, b))
        w = rng.standard_normal((n, model.dim)) * 0.5
        out = np.full((n, model.dim), np.nan)
        step = objectives._gradient_kernel(model, w, out)

        def check(step, w, x, y):
            want = objectives._gradient_kernel(model, w.copy(), np.empty(w.shape))(x, y)
            got = step(x, y)
            assert same_bits(got, want)
            if model.kind == "logistic":
                assert same_bits(got, logistic_gradients_reference(w, x, y))
            return got

        for t in range(steps):
            got = check(step, w, x[t], y[t])
            assert got is out
            got *= 0.3
            w -= got
        # a kernel on the first rows of a gradient buffer, as local SGD
        # binds a smaller group's kernel to the one buffer the groups share
        small = objectives._gradient_kernel(model, w[:2], out[:2])
        for t in range(2):
            got = check(small, w[:2], x[t, :2], y[t, :2])
            got *= 0.3
            w[:2] -= got

    def test_bound_logistic_step_allocates_nothing_after_its_first_call(self):
        n, b, f, steps = 8, 256, 20, 6
        rng = np.random.default_rng(12)
        x = rng.standard_normal((steps, n, b, f))
        y = (rng.random((steps, n, b)) < 0.5).astype(np.float64)
        w = rng.standard_normal((n, f + 1)) * 0.1
        step = objectives._gradient_kernel(ModelSpec.logistic(f), w, np.empty_like(w))
        step(x[0], y[0])
        tracemalloc.start()
        try:
            for t in range(1, steps):
                got = step(x[t], y[t])
                got *= 0.1
                w -= got
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * b * 8  # one (n, b) float64 array


class TestStochasticGradient:
    """Minibatch sampling, the stochastic part of local SGD's gradients."""

    def test_sample_batch_without_replacement(self):
        data = logi_data(m=30)
        batch = sample_batch(data, 10, np.random.default_rng(2))
        assert batch.m == 10
        # rows must come from the source with no duplicates
        rows = {tuple(r) for r in data.features}
        batch_rows = [tuple(r) for r in batch.features]
        assert set(batch_rows) <= rows
        assert len(set(batch_rows)) == 10


class TestSynthetic:
    def test_same_seed_identical(self):
        a = generate_synthetic("classification", 50, 6, noise=0.1, seed=9)
        b = generate_synthetic("classification", 50, 6, noise=0.1, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_noiseless_regression_planted_optimum(self):
        data = generate_synthetic("regression", 80, 5, noise=0.0, seed=1)
        assert loss(ModelSpec.quadratic(5), data.planted_params, data) == 0.0

    def test_binary_label_balance(self):
        data = generate_synthetic("classification", 100, 8, seed=4)
        ones = int(np.sum(data.labels))
        assert 30 <= ones <= 70

    def test_multiclass_labels_in_range(self):
        data = generate_synthetic("classification", 60, 5, seed=2, n_classes=4)
        assert set(np.unique(data.labels)) <= {0, 1, 2, 3}

    def test_label_noise_flips_some(self):
        clean = generate_synthetic("classification", 400, 6, noise=0.0, seed=3)
        noisy = generate_synthetic("classification", 400, 6, noise=0.3, seed=3)
        flipped = int(np.sum(clean.labels != noisy.labels))
        assert 60 <= flipped <= 180

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic("images", 10, 3)
        with pytest.raises(ValueError):
            generate_synthetic("classification", 10, 3, noise=1.5)


class TestPartition:
    def test_single_client(self):
        data = logi_data(m=20)
        (shard,) = partition(data, 1, mode="iid", seed=0)
        assert shard.weight == 1.0
        assert shard.data.m == 20

    def test_iid_sizes(self):
        data = logi_data(m=23)
        shards = partition(data, 5, mode="iid", seed=1)
        sizes = [s.data.m for s in shards]
        assert sum(sizes) == 23
        assert all(abs(sz - 23 / 5) <= 1 for sz in sizes)
        assert abs(sum(s.weight for s in shards) - 1.0) < 1e-12

    def test_union_preserves_rows(self):
        data = logi_data(m=31)
        shards = partition(data, 4, mode="iid", seed=7)
        merged = np.concatenate([s.data.features for s in shards])
        np.testing.assert_array_equal(
            np.sort(merged.ravel()), np.sort(data.features.ravel())
        )

    def test_sorted_label_single_label_shards(self):
        labels = np.repeat([0, 1, 2], 30)
        rng = np.random.default_rng(5)
        order = rng.permutation(90)
        data = Dataset(features=rng.standard_normal((90, 2)), labels=labels[order])
        shards = partition(data, 3, mode="sorted_label", seed=0)
        for shard in shards:
            assert len(np.unique(shard.data.labels)) == 1

    @pytest.mark.parametrize("mode", ["iid", "sorted_label"])
    def test_shards_are_consecutive_rows_of_the_dealt_order(self, mode):
        data = logi_data(m=23)
        shards = partition(data, 5, mode=mode, seed=4)
        if mode == "iid":
            order = np.random.default_rng(4).permutation(23)
        else:
            order = np.argsort(data.labels, kind="stable")
        merged = np.concatenate([s.data.features for s in shards])
        np.testing.assert_array_equal(merged, data.features[order])
        np.testing.assert_array_equal(np.concatenate([s.data.labels for s in shards]), data.labels[order])
        assert [s.data.m for s in shards] == [5, 5, 5, 4, 4]
        # one gathered block: every shard is a view, none owns its rows
        assert not any(s.data.features.flags.owndata for s in shards)
        assert len({id(s.data.features.base) for s in shards}) == 1

    def test_too_many_clients(self):
        with pytest.raises(ValueError):
            partition(logi_data(m=5), 6, mode="iid", seed=0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            partition(logi_data(), 2, mode="dirichlet", seed=0)


class TestLoadDelimited:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "data.txt"
        rows = np.array([[0.5, 1.5, 1.0], [2.0, -1.0, 0.0]])
        np.savetxt(path, rows)
        data = load_delimited(str(path), kind="classification")
        np.testing.assert_allclose(data.features, rows[:, :2])
        assert list(data.labels) == [1, 0]

    def test_regression_labels_stay_real(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0.25\n3.0,4.0,-0.5\n")
        data = load_delimited(str(path), kind="regression", delimiter=",")
        np.testing.assert_allclose(data.labels, [0.25, -0.5])

    def test_non_integer_class_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 0.5\n")
        with pytest.raises(ValueError):
            load_delimited(str(path), kind="classification")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("1.0 banana\n")
        with pytest.raises(ValueError):
            load_delimited(str(path))

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_delimited("/nonexistent/nowhere.txt")


class TestAccuracyAndInit:
    def test_logistic_perfect_separator(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 4))
        sep = np.array([1.0, -2.0, 0.5, 3.0])
        y = (x @ sep > 0).astype(np.int64)
        data = Dataset(features=x, labels=y)
        assert accuracy(LOGI, np.concatenate([sep, [0.0]]), data) == 1.0

    def test_accuracy_undefined_for_regression(self):
        data, w = quad_data()
        with pytest.raises(ValueError):
            accuracy(QUAD, w, data)

    def test_init_zero_for_convex(self):
        assert not init_params(QUAD, np.random.default_rng(0)).any()
        assert not init_params(LOGI, np.random.default_rng(0)).any()

    def test_init_mlp_shape_and_bias(self):
        w = init_params(MLP, np.random.default_rng(0))
        assert w.shape == (MLP.dim,)
        assert np.any(w[: 4 * 3])  # hidden weights drawn
        assert not w[4 * 3 : 4 * 3 + 3].any()  # hidden bias zero

    def test_client_shard_validation(self):
        data = logi_data(m=4)
        with pytest.raises(ValueError):
            ClientShard(client_id=0, data=data, weight=0.0)
        with pytest.raises(ValueError):
            ClientShard(client_id=-1, data=data, weight=0.5)
