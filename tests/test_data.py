import collections

import numpy as np
import pytest

from imbaml import (ClassDistribution, DataError, Dataset, Rng, class_distribution,
                    load_arff, load_csv, load_source, stratified_folds,
                    train_test_split)

from helpers import make_dataset


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# ---------------------------------------------------------------- CSV loading

def test_load_csv_basic_counts(tmp_path):
    p = write(tmp_path, "t.csv", "f1,f2,y\n1,2,a\n3,4,a\n5,6,a\n7,8,b\n")
    d = load_csv(p, label_column="y")
    assert d.n == 4 and d.n_features == 2
    assert len(d.label_names) == 2
    assert d.label_names == ("a", "b")  # first-appearance coding


def test_load_csv_missing_numeric_imputed_with_median(tmp_path):
    # present values in f1: 3.0, 5.0, 9.0 -> median 5.0 (recomputed by hand)
    p = write(tmp_path, "t.csv", "f1,f2,y\n3,1,a\n,1,a\n5,1,b\n9,1,b\n")
    d = load_csv(p, label_column="y")
    assert d.features[1, 0] == 5.0
    assert d.n_missing_cells == 1


def test_load_csv_missing_categorical_gets_dedicated_category(tmp_path):
    p = write(tmp_path, "t.csv", "f1,y\nred,a\n?,a\nblue,b\n")
    d = load_csv(p, label_column="y")
    assert "<missing>" in d.columns[0].categories
    assert d.columns[0].kind == "categorical"


def test_load_csv_label_column_absent(tmp_path):
    p = write(tmp_path, "t.csv", "f1,y\n1,a\n")
    with pytest.raises(DataError, match="label column absent"):
        load_csv(p, label_column="nope")


def test_load_csv_zero_rows(tmp_path):
    p = write(tmp_path, "t.csv", "f1,y\n")
    with pytest.raises(DataError, match="zero rows"):
        load_csv(p, label_column="y")


def test_load_csv_all_missing_column(tmp_path):
    p = write(tmp_path, "t.csv", "f1,y\n?,a\n?,b\n")
    with pytest.raises(DataError, match="all values missing"):
        load_csv(p, label_column="y")


def test_load_csv_default_label_is_last_column(tmp_path):
    p = write(tmp_path, "t.csv", "f1,target\n1,x\n2,y\n")
    d = load_csv(p)
    assert d.label_names == ("x", "y")


def test_ingestion_deterministic(tmp_path):
    text = "f1,f2,y\n1,red,a\n2,,b\n3,blue,a\n"
    p1 = write(tmp_path, "a.csv", text)
    p2 = write(tmp_path, "b.csv", text)
    d1, d2 = load_csv(p1, label_column="y"), load_csv(p2, label_column="y")
    assert d1.features.tobytes() == d2.features.tobytes()
    assert d1.labels.tolist() == d2.labels.tolist()


def write_bytes(tmp_path, name, data: bytes):
    p = tmp_path / name
    p.write_bytes(data)
    return p


@pytest.mark.parametrize("ending", [b"\r\n", b"\r", b"\n"], ids=["crlf", "cr", "lf"])
def test_load_csv_line_endings_and_blank_lines(tmp_path, ending):
    text = b"f1,f2,y{e}{e}1,2,a{e}{e}3.5,4,b{e}{e}".replace(b"{e}", ending)
    d = load_csv(write_bytes(tmp_path, "t.csv", text))
    assert d.features.tolist() == [[1.0, 2.0], [3.5, 4.0]]
    assert d.label_names == ("a", "b") and d.labels.tolist() == [0, 1]


def test_load_csv_whitespace_only_line_is_a_short_row(tmp_path):
    p = write(tmp_path, "t.csv", "f1,y\n1,a\n   \n2,b\n")
    with pytest.raises(DataError, match="row 1 has 1 cells, expected 2"):
        load_csv(p)


def test_load_csv_quoted_numeric_field_is_numeric(tmp_path):
    p = write(tmp_path, "t.csv", 'f1,f2,y\n"1.5",2,a\n3,"4",b\n')
    d = load_csv(p)
    assert [c.kind for c in d.columns] == ["numeric", "numeric"]
    assert d.features.tolist() == [[1.5, 2.0], [3.0, 4.0]]


def test_load_csv_label_by_name_and_index_and_stripped(tmp_path):
    p = write(tmp_path, "t.csv", "f1,y,f2\n1, a ,2\n3,b  ,4\n5,a,6\n")
    by_name, by_index = load_csv(p, label_column="y"), load_csv(p, label_column=1)
    for d in (by_name, by_index):
        assert d.label_names == ("a", "b") and d.labels.tolist() == [0, 1, 0]
        assert [c.name for c in d.columns] == ["f1", "f2"]
        assert d.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert by_name.features.tobytes() == by_index.features.tobytes()


def test_load_csv_single_data_row(tmp_path):
    d = load_csv(write(tmp_path, "t.csv", "f1,f2,y\n1,2,a\n"))
    assert d.features.shape == (1, 2) and d.features.tolist() == [[1.0, 2.0]]
    assert d.label_names == ("a",)


def test_load_csv_trailing_comma_adds_an_empty_column(tmp_path):
    p = write(tmp_path, "t.csv", "f1,f2,y,\n1,2,a,\n3,4,b,\n")
    with pytest.raises(DataError, match="missing label value at data row 0"):
        load_csv(p)  # the last, empty column is the default label
    with pytest.raises(DataError, match="column '' has all values missing"):
        load_csv(p, label_column="y")


@pytest.mark.parametrize("row,cells", [("1,2,3,a", 4), ("1,a", 2)], ids=["more", "fewer"])
def test_load_csv_row_width_must_match_the_header(tmp_path, row, cells):
    p = write(tmp_path, "t.csv", f"f1,f2,y\n1,2,a\n{row}\n3,4,b\n")
    with pytest.raises(DataError, match=f"row 1 has {cells} cells, expected 3"):
        load_csv(p)


def test_load_csv_nan_cell_is_missing_and_inf_is_rejected(tmp_path):
    d = load_csv(write(tmp_path, "nan.csv", "f1,y\n1,a\nnan,b\n3,a\n"))
    assert d.features[:, 0].tolist() == [1.0, 2.0, 3.0]  # median of 1 and 3
    assert d.n_missing_cells == 1 and d.columns[0].kind == "numeric"
    with pytest.raises(DataError, match="non-finite"):
        load_csv(write(tmp_path, "inf.csv", "f1,y\n1,a\n-inf,b\n"))


def test_load_csv_reads_numbers_as_float_does(tmp_path):
    # underscores and non-ASCII decimal digits parse with float()
    p = write(tmp_path, "t.csv", "f1,f2,y\n1_000,\u0661\u0662,a\n2,3,b\n")
    d = load_csv(p)
    assert [c.kind for c in d.columns] == ["numeric", "numeric"]
    assert d.features.tolist() == [[1000.0, 12.0], [2.0, 3.0]]


# --------------------------------------------------------------- ARFF loading

ARFF = """% comment
@relation tiny
@attribute width numeric
@attribute height real
@attribute class {yes,no}
@data
1.0,2.0,yes
2.0,1.0,no
3.0,5.0,yes
"""


def test_load_arff_counts(tmp_path):
    p = write(tmp_path, "t.arff", ARFF)
    d = load_arff(p)
    assert d.n == 3 and d.n_features == 2
    assert d.name == "tiny"
    assert d.label_names == ("yes", "no")


def test_load_arff_numeric_missing_median(tmp_path):
    # width present values: 1.0, 2.0 -> median 1.5 (hand computed)
    text = ("@relation r\n@attribute width numeric\n@attribute class {a,b}\n"
            "@data\n1.0,a\n?,b\n2.0,a\n")
    d = load_arff(write(tmp_path, "m.arff", text))
    assert d.features[1, 0] == 1.5


def test_load_arff_nominal_domain_recorded(tmp_path):
    text = ("@relation r\n@attribute colour {red, green, blue}\n"
            "@attribute class {a,b}\n@data\nblue,a\nred,b\n")
    d = load_arff(write(tmp_path, "n.arff", text))
    assert d.columns[0].categories == ("red", "green", "blue")
    assert d.features[0, 0] == 2.0  # coded by declared order


def test_load_arff_arity_mismatch(tmp_path):
    text = ("@relation r\n@attribute a numeric\n@attribute b numeric\n"
            "@attribute class {x,y}\n@data\n1,2,x\n1,x\n")
    with pytest.raises(DataError, match="expected 3"):
        load_arff(write(tmp_path, "bad.arff", text))


def test_load_arff_malformed_attribute(tmp_path):
    text = "@relation r\n@attribute\n@data\n"
    with pytest.raises(DataError):
        load_arff(write(tmp_path, "bad2.arff", text))


def test_load_arff_label_override(tmp_path):
    text = ("@relation r\n@attribute g {m,f}\n@attribute class {a,b}\n"
            "@data\nm,a\nf,b\n")
    d = load_arff(write(tmp_path, "o.arff", text), label_attribute="g")
    assert d.label_names == ("m", "f")


def test_load_source_dispatches_by_suffix(tmp_path):
    csv_path = write(tmp_path, "t.csv", "a,b,c\nx,1,yes\ny,2,no\nx,3,yes\n")
    by_index = load_source(str(csv_path), "0")  # an all-digit CSV label is an index
    assert by_index.label_names == ("x", "y")
    assert load_source(str(csv_path), "a").features.tobytes() == by_index.features.tobytes()
    arff_path = write(tmp_path, "o.arff", "@relation r\n@attribute g {m,f}\n"
                      "@attribute class {a,b}\n@data\nm,a\nf,b\n")
    assert load_source(str(arff_path)).label_names == ("a", "b")
    assert load_source(str(arff_path), "g").label_names == ("m", "f")


# -------------------------------------------------------- class distribution

def test_class_distribution_simple():
    d = make_dataset({0: 10, 1: 5})
    dist = class_distribution(d)
    assert dist.counts == {0: 10, 1: 5}
    assert dist.imbalance_ratio == 2.0


def test_class_distribution_published_counts():
    dist = ClassDistribution.from_counts({0: 10923, 1: 260})
    assert dist.imbalance_ratio == pytest.approx(42.01, abs=0.01)


def test_class_distribution_single_class():
    d = make_dataset({0: 7})
    dist = class_distribution(d)
    assert dist.majority_size == dist.minority_size == 7
    assert dist.imbalance_ratio == 1.0


# ------------------------------------------------------------ fold splitting

def test_folds_exact_divisibility():
    d = make_dataset({0: 5, 1: 5})
    folds = stratified_folds(d, 5, Rng(0))
    for i in range(5):
        v = folds.val_indices(i)
        assert collections.Counter(d.labels[v].tolist()) == {0: 1, 1: 1}


def test_folds_90_10_brute_force_counts():
    d = make_dataset({0: 90, 1: 10})
    folds = stratified_folds(d, 5, Rng(3))
    # brute-force per-fold per-class tally
    for i in range(5):
        v = folds.val_indices(i)
        tally = collections.Counter(d.labels[v].tolist())
        assert tally == {0: 18, 1: 2}


def test_folds_small_class_spread_over_distinct_folds():
    d = make_dataset({0: 10, 1: 2})
    folds = stratified_folds(d, 3, Rng(1))
    minority_folds = folds.assignments[d.labels == 1]
    assert len(set(minority_folds.tolist())) == 2


def test_folds_property_random_labels():
    rng = Rng(9)
    for trial in range(25):
        n = int(rng.np.integers(6, 60))
        k = int(rng.np.integers(2, min(6, n) + 1))
        n_classes = int(rng.np.integers(1, 4)) + 1
        y = rng.np.integers(0, n_classes, size=n)
        d = Dataset.from_arrays("r", rng.np.normal(size=(n, 2)), y)
        folds = stratified_folds(d, k, Rng(trial))
        for c in set(y.tolist()):
            per_fold = [int(((folds.assignments == i) & (y == c)).sum())
                        for i in range(k)]
            assert max(per_fold) - min(per_fold) <= 1
        assert len(set(folds.assignments.tolist())) == k  # n >= k always here


def test_folds_k_exceeds_n():
    d = make_dataset({0: 3, 1: 2})
    with pytest.raises(DataError):
        stratified_folds(d, 6, Rng(0))


def test_train_test_split_stratified():
    d = make_dataset({0: 80, 1: 20})
    train, test = train_test_split(d, 0.25, Rng(5))
    assert train.n + test.n == d.n
    assert collections.Counter(test.labels.tolist()) == {0: 20, 1: 5}


def test_dataset_invariants():
    with pytest.raises(DataError):
        Dataset.from_arrays("bad", np.array([[np.nan]]), np.array([0]))
    with pytest.raises(DataError):
        Dataset.from_arrays("bad", np.zeros((2, 1)), np.array([0]))


def test_subset_takes_integer_indices_only():
    d = Dataset.from_arrays("four", np.arange(4.0)[:, None], np.array([0, 1, 0, 1]))
    # bool and float indices used to be cast to int64: rows 1, 0, 1, 0 and 0, 1
    for bad in ([True, False, True, False], [0.5, 1.7], np.array([1.0])):
        with pytest.raises(DataError, match="row indices must be integers"):
            d.subset(bad)
    assert d.subset(np.array([3, 1], dtype=np.uint8)).features[:, 0].tolist() == [3.0, 1.0]
    assert d.subset([-1]).features[:, 0].tolist() == [3.0]
