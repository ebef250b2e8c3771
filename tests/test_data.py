import numpy as np
import pytest

from hit2mtsk import (
    Dataset,
    ParseError,
    load_csv,
    load_keel,
    make_folds,
    save_csv,
    split_holdout,
)
from hit2mtsk.data import (
    dataset_fingerprint,
    load_keel_folds,
    read_csv,
)

KEEL_SAMPLE = """\
@relation toy
@attribute x1 real [0.0, 10.0]
@attribute x2 integer [0, 5]
@attribute price real [1.0, 99.0]
@inputs x1, x2
@outputs price
@data
0.5, 1, 10.25
2.0, 3, 30.5
9.5, 0, 88.0
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestKeelParsing:
    def test_roundtrip_values(self, tmp_path):
        ds = load_keel(write(tmp_path, "toy.dat", KEEL_SAMPLE))
        assert ds.name == "toy"
        assert ds.feature_names == ("x1", "x2")
        assert ds.target_name == "price"
        assert ds.n_rows == 3
        np.testing.assert_allclose(ds.column("x1"), [0.5, 2.0, 9.5])
        np.testing.assert_allclose(ds.y, [10.25, 30.5, 88.0])
        assert ds.declared_ranges["price"] == (1.0, 99.0)

    def test_inputs_line_optional(self, tmp_path):
        text = KEEL_SAMPLE.replace("@inputs x1, x2\n", "")
        ds = load_keel(write(tmp_path, "toy.dat", text))
        assert ds.feature_names == ("x1", "x2")

    def test_case_insensitive_keywords(self, tmp_path):
        text = KEEL_SAMPLE.replace("@attribute", "@ATTRIBUTE").replace(
            "@data", "@DATA"
        )
        ds = load_keel(write(tmp_path, "toy.dat", text))
        assert ds.n_rows == 3

    def test_blank_lines_ignored(self, tmp_path):
        text = KEEL_SAMPLE.replace("@data\n", "@data\n\n")
        assert load_keel(write(tmp_path, "toy.dat", text)).n_rows == 3

    @pytest.mark.parametrize(
        "mutate,needle,line",
        [
            (lambda t: t.replace("x2 integer [0, 5]", "x2 string"), "unsupported", 3),
            (lambda t: t.replace("@attribute x2", "@attribute x1"), "duplicate", 3),
            (lambda t: t.split("@data")[0], "missing @data", None),
            (lambda t: t.replace("@outputs price\n", ""), "@outputs", None),
            (
                lambda t: t.replace("@outputs price", "@outputs nope"),
                "not declared",
                None,
            ),
            (lambda t: t.replace("2.0, 3, 30.5", "2.0, 3"), "expected 3", 9),
            (lambda t: t.replace("2.0, 3, 30.5", "2.0, ?, 30.5"), "missing value", 9),
            (lambda t: t.replace("2.0, 3, 30.5", "2.0, abc, 30.5"), "non-numeric", 9),
            (lambda t: t + "@what\n", "", None),
        ],
    )
    def test_error_paths(self, tmp_path, mutate, needle, line):
        bad = mutate(KEEL_SAMPLE)
        # header garbage must precede @data to be seen as a header error
        if needle == "":
            bad = "@what is this\n" + KEEL_SAMPLE
            needle, line = "unexpected header", 1
        with pytest.raises(ParseError) as exc:
            load_keel(write(tmp_path, "bad.dat", bad))
        assert needle in str(exc.value)
        if line is not None:
            assert f"bad.dat:{line}" in str(exc.value)

    def test_two_outputs_rejected(self, tmp_path):
        text = KEEL_SAMPLE.replace("@outputs price", "@outputs price, x1")
        with pytest.raises(ParseError, match="exactly one"):
            load_keel(write(tmp_path, "bad.dat", text))

    def test_no_rows_rejected(self, tmp_path):
        text = KEEL_SAMPLE.split("@data")[0] + "@data\n"
        with pytest.raises(ParseError, match="no data rows"):
            load_keel(write(tmp_path, "bad.dat", text))


class TestCsv:
    def test_roundtrip_bit_exact(self, tmp_path, toy_dataset):
        p = tmp_path / "toy.csv"
        save_csv(toy_dataset, p)
        back = load_csv(p, target_column=toy_dataset.target_name)
        assert back.feature_names == toy_dataset.feature_names
        assert np.array_equal(back.X, toy_dataset.X)
        assert np.array_equal(back.y, toy_dataset.y)

    def test_target_column_anywhere(self, tmp_path):
        p = write(tmp_path, "t.csv", "y,a,b\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        ds = load_csv(p, target_column="y")
        assert ds.feature_names == ("a", "b")
        np.testing.assert_allclose(ds.y, [1.0, 4.0])

    def test_missing_target_column(self, tmp_path):
        p = write(tmp_path, "t.csv", "a,b\n1,2\n")
        with pytest.raises(ParseError, match="target column"):
            load_csv(p, target_column="zzz")

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "t.csv", "a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="t.csv:3"):
            load_csv(p, target_column="b")

    @pytest.mark.parametrize("text", ["a,a,y\n1,2,3\n", "a,y,y\n1,2,3\n"])
    def test_repeated_column_name(self, tmp_path, text):
        p = write(tmp_path, "t.csv", text)
        with pytest.raises(ParseError, match="t.csv:1: .* repeats a column name"):
            load_csv(p, target_column="y")
        with pytest.raises(ParseError, match="repeats a column name"):
            read_csv(p)

    def test_read_without_a_target(self, tmp_path):
        p = write(tmp_path, "t.csv", "a,b\n1.0,2.0\n3.0,4.5\n")
        header, rows = read_csv(p)
        assert header == ("a", "b")
        assert np.array_equal(rows, [[1.0, 2.0], [3.0, 4.5]])


class TestDatasetContainer:
    def test_validation(self):
        with pytest.raises(ValueError, match="row counts"):
            Dataset("d", ("a",), np.zeros((3, 1)), "y", np.zeros(2))
        with pytest.raises(ValueError, match="duplicate"):
            Dataset("d", ("a", "a"), np.zeros((2, 2)), "y", np.zeros(2))
        with pytest.raises(ValueError, match="target duplicated"):
            Dataset("d", ("y",), np.zeros((2, 1)), "y", np.zeros(2))
        with pytest.raises(ValueError, match="non-finite"):
            Dataset("d", ("a",), np.array([[np.nan]]), "y", np.zeros(1))

    def test_column_lookup(self, toy_dataset):
        assert toy_dataset.column(toy_dataset.target_name) is toy_dataset.y
        with pytest.raises(KeyError):
            toy_dataset.column("nope")

    def test_subset_keeps_metadata(self, toy_dataset):
        sub = toy_dataset.subset([0, 2, 4])
        assert sub.n_rows == 3
        assert sub.feature_names == toy_dataset.feature_names
        np.testing.assert_array_equal(sub.X, toy_dataset.X[[0, 2, 4]])


class TestSplits:
    def test_holdout_counts_and_disjointness(self, toy_dataset):
        train, test = split_holdout(toy_dataset, fraction=0.2, seed=7)
        assert test.n_rows == round(toy_dataset.n_rows * 0.2)
        assert train.n_rows + test.n_rows == toy_dataset.n_rows
        # row-disjoint: every original row appears exactly once
        joined = np.vstack([train.X, test.X])
        assert (
            np.unique(joined, axis=0).shape[0]
            == np.unique(toy_dataset.X, axis=0).shape[0]
        )

    def test_holdout_deterministic(self, toy_dataset):
        a = split_holdout(toy_dataset, 0.25, seed=3)
        b = split_holdout(toy_dataset, 0.25, seed=3)
        assert np.array_equal(a[0].X, b[0].X)
        assert np.array_equal(a[1].y, b[1].y)

    def test_holdout_seed_changes_split(self, toy_dataset):
        a, _ = split_holdout(toy_dataset, 0.25, seed=3)
        b, _ = split_holdout(toy_dataset, 0.25, seed=4)
        assert not np.array_equal(a.X, b.X)

    def test_holdout_fraction_bounds(self, toy_dataset):
        with pytest.raises(ValueError):
            split_holdout(toy_dataset, 1.0, seed=0)
        with pytest.raises(ValueError, match="empty test set"):
            split_holdout(toy_dataset, 0.0, seed=0)

    def test_folds_partition_rows(self, toy_dataset):
        folds = make_folds(toy_dataset, k=5, seed=1)
        assert len(folds) == 5
        sizes = [f.test.n_rows for f in folds]
        assert sum(sizes) == toy_dataset.n_rows
        assert max(sizes) - min(sizes) <= 1
        for f in folds:
            assert f.train.n_rows + f.test.n_rows == toy_dataset.n_rows

    def test_folds_deterministic(self, toy_dataset):
        a = make_folds(toy_dataset, k=3, seed=9)
        b = make_folds(toy_dataset, k=3, seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.test.y, fb.test.y)

    def test_bad_fold_count(self, toy_dataset):
        with pytest.raises(ValueError):
            make_folds(toy_dataset, k=1)


class TestFingerprints:
    def test_same_values_same_fingerprint(self, toy_dataset):
        clone = Dataset(
            toy_dataset.name,
            toy_dataset.feature_names,
            toy_dataset.X.copy(),
            toy_dataset.target_name,
            toy_dataset.y.copy(),
        )
        assert dataset_fingerprint(clone) == dataset_fingerprint(toy_dataset)

    def test_value_change_changes_fingerprint(self, toy_dataset):
        X = toy_dataset.X.copy()
        X[0, 0] += 1e-9
        other = Dataset(
            toy_dataset.name,
            toy_dataset.feature_names,
            X,
            toy_dataset.target_name,
            toy_dataset.y,
        )
        assert dataset_fingerprint(other) != dataset_fingerprint(toy_dataset)


class TestKeelFolds:
    def make_fold_files(self, tmp_path):
        for i in range(1, 6):
            base = KEEL_SAMPLE.replace(
                "0.5, 1, 10.25", f"0.{i}, 1, 10.{i}"
            )
            write(tmp_path, f"toy-5-{i}tra.dat", base)
            write(tmp_path, f"toy-5-{i}tst.dat", base)

    def test_loads_five_folds(self, tmp_path):
        self.make_fold_files(tmp_path)
        folds = load_keel_folds(tmp_path)
        assert [f.fold_index for f in folds] == [0, 1, 2, 3, 4]
        assert folds[2].train.column("x1")[0] == pytest.approx(0.3)

    def test_name_inferred_or_explicit(self, tmp_path):
        self.make_fold_files(tmp_path)
        assert len(load_keel_folds(tmp_path, name="toy")) == 5

    def test_missing_fold_file(self, tmp_path):
        self.make_fold_files(tmp_path)
        (tmp_path / "toy-5-4tst.dat").unlink()
        with pytest.raises(FileNotFoundError):
            load_keel_folds(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_keel_folds(tmp_path)
