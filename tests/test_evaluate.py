import json
import math

import numpy as np
import pytest

from dbmf import data, evaluate
from dbmf.errors import ValidationError
from oracles import exhaustive_alignment, two_pass_rmse


class TestRmse:
    def test_identical_vectors(self):
        assert evaluate.rmse(np.ones(5), np.ones(5)) == 0.0

    def test_constant_offset(self):
        assert evaluate.rmse(np.zeros(7), np.full(7, 2.0)) == pytest.approx(2.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        preds = rng.standard_normal(100)
        truths = rng.standard_normal(100)
        assert evaluate.rmse(preds, truths) == pytest.approx(
            two_pass_rmse(preds, truths), rel=1e-13)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        preds = rng.standard_normal(50)
        truths = rng.standard_normal(50)
        perm = rng.permutation(50)
        assert evaluate.rmse(preds, truths) == pytest.approx(
            evaluate.rmse(preds[perm], truths[perm]), rel=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            evaluate.rmse(np.empty(0), np.empty(0))
        with pytest.raises(ValidationError):
            evaluate.rmse(np.ones(2), np.ones(3))


class TestRmseByFrequency:
    def _setup(self, rng, n=12, d=6, k=2):
        x = rng.standard_normal((n, k))
        w = rng.standard_normal((d, k))
        full, _ = data.simulate(n, d, k, 1.0, seed=0)
        train, test = data.split_random(full, 0.3, seed=1)
        return x, w, train, test

    def test_single_bin_equals_global(self):
        rng = np.random.default_rng(2)
        x, w, train, test = self._setup(rng)
        from dbmf.sampler import predict
        global_rmse = evaluate.rmse(
            predict(x, w, test.rows, test.cols), test.vals)
        bins = evaluate.rmse_by_frequency(x, w, train, test, (0, math.inf))
        assert len(bins) == 1
        assert bins[0].count == test.m
        assert bins[0].value == pytest.approx(global_rmse)

    def test_empty_bin_marked(self):
        rng = np.random.default_rng(3)
        x, w, train, test = self._setup(rng)
        big = train.n_cols + 10
        bins = evaluate.rmse_by_frequency(x, w, train, test,
                                          (0, big, big + 1, math.inf))
        assert bins[1].count == 0 and bins[1].value is None

    def test_constructed_per_bin_errors(self):
        # two rows; row 0 has 1 training entry, row 1 has 2; predictions are
        # off by exactly 1 on row 0's test entry and 2 on row 1's
        train = data.SparseMatrix(2, 3, np.array([0, 1, 1]), np.array([0, 0, 1]),
                                  np.array([5.0, 5.0, 5.0]))
        test = data.SparseMatrix(2, 3, np.array([0, 1]), np.array([2, 2]),
                                 np.array([1.0, 2.0]))
        x, w = np.array([[2.0], [4.0]]), np.array([[0.0], [0.0], [1.0]])
        bins = evaluate.rmse_by_frequency(x, w, train, test, (1, 2, math.inf))
        assert bins[0].value == pytest.approx(1.0)   # rows with 1 entry
        assert bins[1].value == pytest.approx(2.0)   # rows with 2 entries

    def test_entry_outside_bins_rejected(self):
        rng = np.random.default_rng(4)
        x, w, train, test = self._setup(rng)
        with pytest.raises(ValidationError):
            evaluate.rmse_by_frequency(x, w, train, test, (1000, 2000))

    @pytest.mark.parametrize("edges", [(0, math.nan, math.inf), (math.nan, math.inf),
                                       (0, 5, 5, math.inf), (0, 10, 5, math.inf)])
    def test_edges_not_strictly_increasing_rejected(self, edges):
        # A NaN edge compares false both ways, so it too must fail.
        x, w, train, test = self._setup(np.random.default_rng(14))
        with pytest.raises(ValidationError, match="strictly increasing"):
            evaluate.rmse_by_frequency(x, w, train, test, edges)

    def test_test_row_outside_train_rejected(self):
        rng = np.random.default_rng(13)
        x, w, train, test = self._setup(rng)
        small = data.SparseMatrix(3, train.n_cols, np.array([0, 2]), np.array([0, 1]),
                                  np.ones(2))
        with pytest.raises(ValidationError, match="outside the training matrix"):
            evaluate.rmse_by_frequency(x, w, small, test, (0, math.inf))

    def test_bin_weighted_mse_reproduces_global(self):
        rng = np.random.default_rng(5)
        x, w, train, test = self._setup(rng, n=30, d=10)
        from dbmf.sampler import predict
        preds = predict(x, w, test.rows, test.cols)
        global_mse = float(np.mean((preds - test.vals) ** 2))
        bins = evaluate.rmse_by_frequency(x, w, train, test, (0, 2, 4, math.inf))
        weighted = sum(b.count * b.value ** 2 for b in bins if b.count) / test.m
        assert weighted == pytest.approx(global_mse, rel=1e-12)


class TestAlignment:
    def test_identity(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((40, 4))
        perm, signs = evaluate.align_latent_dimensions(a, a)
        assert perm.tolist() == [0, 1, 2, 3]
        assert signs.tolist() == [1, 1, 1, 1]

    def test_swap_and_negation_recovered(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((50, 3))
        b = a[:, [1, 0, 2]].copy()
        b[:, 2] *= -1
        perm, signs = evaluate.align_latent_dimensions(a, b)
        aligned = b[:, perm] * signs
        np.testing.assert_allclose(aligned, a)
        assert perm.tolist() == [1, 0, 2]
        assert signs.tolist() == [1, 1, -1]

    def test_matches_exhaustive_under_noise(self):
        rng = np.random.default_rng(8)
        for k in (2, 3, 4, 5):
            for _ in range(5):
                a = rng.standard_normal((60, k))
                perm_true = rng.permutation(k)
                signs_true = rng.choice([-1, 1], size=k)
                b = a[:, perm_true] * signs_true + 0.05 * rng.standard_normal((60, k))
                greedy = evaluate.align_latent_dimensions(a, b)
                exhaustive = exhaustive_alignment(a, b)
                assert greedy[0].tolist() == exhaustive[0].tolist()
                assert greedy[1].tolist() == exhaustive[1].tolist()

    def test_recovery_property_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            a = rng.standard_normal((30, k))
            perm_true = rng.permutation(k)
            signs_true = rng.choice([-1, 1], size=k)
            b = a[:, perm_true] * signs_true
            perm, signs = evaluate.align_latent_dimensions(a, b)
            aligned = b[:, perm] * signs
            for col in range(k):
                corr = np.corrcoef(a[:, col], aligned[:, col])[0, 1]
                assert corr == pytest.approx(1.0, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="^matrices must have the same shape"):
            evaluate.align_latent_dimensions(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_zero_variance_column(self):
        a = np.column_stack([np.ones(10), np.arange(10.0)])
        b = a.copy()
        perm, signs = evaluate.align_latent_dimensions(a, b)
        aligned = b[:, perm] * signs
        assert np.allclose(aligned[:, 1], a[:, 1])

    def test_25_factors_known_permutation_and_signs(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((80, 25))
        perm_true = rng.permutation(25)
        signs_true = np.where(np.arange(25) % 3 == 0, -1, 1)
        b = np.empty_like(a)
        b[:, perm_true] = a * signs_true
        perm, signs = evaluate.align_latent_dimensions(a, b)
        assert perm.tolist() == perm_true.tolist()
        assert signs.tolist() == signs_true.tolist()
        np.testing.assert_array_equal(b[:, perm] * signs, a)


class TestFlattenedCorrelation:
    def test_exact_half_correlation(self):
        rng = np.random.default_rng(10)
        raw_a = rng.standard_normal(400)
        raw_z = rng.standard_normal(400)
        a = (raw_a - raw_a.mean()) / raw_a.std()
        z = raw_z - raw_z.mean()
        z -= (z @ a) / (a @ a) * a          # exactly orthogonal to a
        z /= z.std()
        b = 0.5 * a + math.sqrt(0.75) * z
        corr = evaluate.flattened_correlation(a.reshape(40, 10), b.reshape(40, 10))
        assert corr == pytest.approx(0.5, abs=1e-12)

    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((13, 3))
        assert evaluate.flattened_correlation(a, a) == pytest.approx(1.0)


class TestSharingPairs:
    def test_pair_inventory_3x4(self):
        pairs = evaluate.sharing_pairs(3, 4)
        x_pairs = [p for p in pairs if p[0] == "x"]
        w_pairs = [p for p in pairs if p[0] == "w"]
        # X: (0,0)~(0,j) for j=1..3 plus (i,0)~(i,j) for i=1..2, j=1..3
        assert len(x_pairs) == 3 + 2 * 3
        # W: (0,0)~(i,0) for i=1..2 plus (0,j)~(i,j)
        assert len(w_pairs) == 2 + 3 * 2
        assert ("x", (0, 0), (0, 2)) in pairs
        assert ("w", (0, 3), (2, 3)) in pairs
        # the report order: X first, then W, each by (source, block)
        assert pairs == [
            ("x", (0, 0), (0, 1)), ("x", (0, 0), (0, 2)), ("x", (0, 0), (0, 3)),
            ("x", (1, 0), (1, 1)), ("x", (1, 0), (1, 2)), ("x", (1, 0), (1, 3)),
            ("x", (2, 0), (2, 1)), ("x", (2, 0), (2, 2)), ("x", (2, 0), (2, 3)),
            ("w", (0, 0), (1, 0)), ("w", (0, 0), (2, 0)),
            ("w", (0, 1), (1, 1)), ("w", (0, 1), (2, 1)),
            ("w", (0, 2), (1, 2)), ("w", (0, 2), (2, 2)),
            ("w", (0, 3), (1, 3)), ("w", (0, 3), (2, 3))]

    def test_single_block_no_pairs(self):
        assert evaluate.sharing_pairs(1, 1) == []


class TestWts:
    def test_equal_times(self):
        assert evaluate.wts(5.0, 5.0) == 1.0

    def test_benchmark_ratio_values(self):
        # published five-by-five speed-up: 33956 s over 10398 s
        assert round(evaluate.wts(33956, 10398), 3) == 3.266
        # the 30x30 row lists 87.069 for 118124 s over 1357 s; the exact
        # quotient is 87.048 (the table's printed ratio is rounded from
        # unreported unrounded times)
        value = evaluate.wts(118124, 1357)
        assert value == pytest.approx(118124 / 1357, rel=1e-15)
        assert abs(value - 87.069) < 0.05

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            evaluate.wts(0.0, 1.0)
        with pytest.raises(ValidationError):
            evaluate.wts(1.0, -2.0)


class TestMetricReport:
    def test_json_and_table(self):
        bins = [evaluate.FrequencyBin(0, 10, 0.9, 4),
                evaluate.FrequencyBin(10, math.inf, None, 0)]
        pair = evaluate.PairCorrelation("x", (0, 0), (0, 1), 0.87, [0.9, 0.8])
        report = evaluate.MetricReport(0.95, bins, [pair], 3.2)
        def reject(name):
            raise ValueError(f"not valid JSON: {name}")

        doc = json.loads(report.to_json(), parse_constant=reject)
        assert doc["rmse"] == 0.95
        assert doc["bins"][1]["high"] == "inf" and doc["bins"][0]["high"] == 10
        assert doc["wts"] == 3.2
        table = report.format_table()
        assert "RMSE" in table and "0.950000" in table
        assert "ledger speed-up" in table and "3.200" in table
        assert "n/a" in table          # empty bin marker
        assert "0.8700" in table

    def test_repair_table(self):
        rates = [evaluate.RepairRate("x", "subset 2", 0.25, 0.125)]
        table = evaluate.MetricReport(0.9, repairs=rates).format_table()
        assert "subset 2" in table and "0.2500" in table and "0.125" in table
        assert "eigenvalue repairs: none" in evaluate.MetricReport(0.9, repairs=[]).format_table()
        assert "repair" not in evaluate.MetricReport(0.9).format_table()

    def test_csv_row(self):
        row = evaluate.csv_row("5x5", "pp-mm", 3, 0.8512, 10398.0)
        assert row == "5x5,pp-mm,3,0.851200,10398.000,"
