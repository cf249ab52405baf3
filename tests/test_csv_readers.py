"""``load_csv``'s NumPy reader against its cell-by-cell reference.

``io._read_csv_cells`` is the reference: every cell a string from
``csv.reader``. On every file here ``load_csv`` must return a ``Dataset``
byte-identical to it (features, labels, label names, columns, name, missing
count) or raise the same error, and on plain numeric files the NumPy reader
(``io._read_numeric_csv``) must be the one that answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from imbaml import DataError, load_csv
from imbaml.io import _read_csv_cells, _read_numeric_csv


def outcome(read, path, label=None):
    """What a reader makes of a file: the Dataset's bytes and metadata, or
    the error it raises."""
    try:
        d = read(path, label)
    except (DataError, UnicodeDecodeError) as exc:
        return (type(exc).__name__, str(exc))
    return (d.name, d.features.shape, d.features.tobytes(), d.labels.tobytes(),
            d.label_names, d.columns, d.n_missing_cells, d.provenance)


def assert_same(path, label=None):
    want = outcome(_read_csv_cells, path, label)
    assert outcome(load_csv, path, label) == want
    fast = _read_numeric_csv(path, label)
    if fast is not None:
        assert outcome(lambda p, lab: fast, path, label) == want
    return fast


EDGE_FILES = {
    "crlf": b"f1,f2,y\r\n1,2,a\r\n3.5,4,b\r\n",
    "lone_cr": b"f1,f2,y\r1,2,a\r3.5,4,b\r",
    "mixed_endings": b"f1,f2,y\r\n1,2,a\r3,4,b\n5,6,a",
    "blank_lines": b"\n\nf1,f2,y\n\n1,2,a\n\n\n3,4,b\n\n",
    "blank_crlf_lines": b"f1,f2,y\r\n\r\n1,2,a\r\n\r\n3,4,b\r\n",
    "whitespace_line": b"f1,y\n1,a\n   \n2,b\n",
    "whitespace_header": b"   \n1,a\n2,b\n",
    "quoted_number": b'f1,f2,y\n"1.5",2,a\n3,"4",b\n',
    "quoted_label": b'f1,f2,y\n1,2,"a"\n3,4,b\n',
    "quoted_label_comma": b'f1,f2,y\n1,2,"a,b"\n3,4,b\n',
    "quoted_header": b'"f1",f2,y\n1,2,a\n3,4,b\n',
    "quoted_newline": b'f1,f2,y\n1,2,"a\nb"\n3,4,b\n',
    "spaced_labels": b"f1,y,f2\n1, a ,2\n3,b  ,4\n5,\ta,6\n",
    "spaced_numbers": b"f1,f2,y\n 1 ,\t2,a\n3 , 4 ,b\n",
    "single_row": b"f1,f2,y\n1,2,a\n",
    "single_row_one_feature": b"f1,y\n7,a\n",
    "one_column": b"y\na\nb\n",
    "trailing_comma": b"f1,f2,y,\n1,2,a,\n3,4,b,\n",
    "row_one_more": b"f1,f2,y\n1,2,a\n1,2,3,a\n3,4,b\n",
    "row_one_fewer": b"f1,f2,y\n1,2,a\n1,a\n3,4,b\n",
    "header_narrower": b"f1,y\n1,2,a\n3,4,b\n",
    "header_wider": b"f1,f2,f3,y\n1,2,a\n3,4,b\n",
    "nan_cell": b"f1,y\n1,a\nnan,b\n3,a\n",
    "inf_cell": b"f1,y\n1,a\n-inf,b\n",
    "huge_cell": b"f1,y\n1,a\n1e400,b\n",
    "underscore": b"f1,f2,y\n1_000,2,a\n2,3,b\n",
    "arabic_digits": "f1,f2,y\n١٢,2,a\n2,3,b\n".encode(),
    "separator_chars": b"f1,f2,y\n\x1c1,2,a\n2,3\x1f,b\n",
    "comment_char": b"f1,f2,y\n#1,2,a\n2,3,b\n",
    "comment_label": b"f1,f2,y\n1,2,#a\n2,3,b\n",
    "missing_cells": b"f1,f2,y\n1,,a\n?,3,b\n4,5,a\n",
    "categorical": b"f1,f2,y\nred,2,a\nblue,3,b\n",
    "missing_label": b"f1,f2,y\n1,2,a\n3,4,?\n",
    "empty_label": b"f1,f2,y\n1,2,\n3,4,b\n",
    "header_only": b"f1,f2,y\n",
    "empty_file": b"",
    "blank_only": b"\n\n",
    "nul_in_label": b"f1,y\n1,b\x00c\n2,d\n",
    "nul_in_feature": b"f1,f2,y\n1,2\x00,a\n2,3,b\n",
    "nul_in_header": b"f1,f\x002,y\n1,2,a\n2,3,b\n",
    "bom": b"\xef\xbb\xbff1,y\n1,a\n2,b\n",
    "not_utf8": b"f1,y\n1,\xff\n2,b\n",
    "signs_and_exponents": b"f1,f2,y\n+1,-0,a\n.5,5.,b\n1E-3,-2.5e+2,a\n",
    "subnormals": b"f1,f2,y\n5e-324,2.2250738585072014e-308,a\n1.7976931348623157e308,0,b\n",
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_edge_files_read_alike(tmp_path, name):
    p = tmp_path / f"{name}.csv"
    p.write_bytes(EDGE_FILES[name])
    for label in (None, "y", 0, 1):
        assert_same(p, label)


@pytest.mark.parametrize("name", ["crlf", "lone_cr", "mixed_endings", "blank_lines",
                                  "spaced_labels", "spaced_numbers", "single_row",
                                  "single_row_one_feature", "comment_label", "bom",
                                  "signs_and_exponents", "subnormals"])
def test_numeric_edge_files_take_the_numpy_reader(tmp_path, name):
    p = tmp_path / f"{name}.csv"
    p.write_bytes(EDGE_FILES[name])
    assert assert_same(p, "y") is not None


@pytest.mark.parametrize("name", ["nul_in_label", "nul_in_feature", "nul_in_header"])
def test_nul_files_take_the_cell_reader(tmp_path, name):
    # csv.reader raises on a NUL before Python 3.11 and keeps it after, so
    # only the cell-by-cell path reads such a file alike on every version
    p = tmp_path / f"{name}.csv"
    p.write_bytes(EDGE_FILES[name])
    assert _read_numeric_csv(p, "y") is None


# cells the cell-by-cell reader treats specially, or that only one reader parses
ODD_CELLS = ["", " ", "?", " ? ", "nan", "NaN", "inf", "-Infinity", "1_0", "٣",
             '"1"', '"', "\x1c1", "1\x1f", "#1", "0x10", "1e", "1d5", "a", "-", ".",
             "\t2\t", " 3 ", "+0", "-0.0", "1e-320", "1,5", "　1"]


def numeric_csv(rng, n_rows, n_cols, label_idx, ending, odd_rate):
    header = [f"c{j}" for j in range(n_cols)]
    header[label_idx] = "label"
    lines = [",".join(header)]
    kinds = rng.integers(0, 5, size=n_cols)
    for _ in range(n_rows):
        cells = []
        for j in range(n_cols):
            if j == label_idx:
                cells.append(str(rng.choice(["a", "b", " c ", "d"])))
            elif rng.random() < odd_rate:
                cells.append(str(rng.choice(ODD_CELLS)))
            else:
                v = rng.normal(0, 10.0 ** rng.integers(-5, 6))
                cells.append([repr(v), f"{v:.3g}", str(int(v)), f"{v:.6e}", f" {v!r} "][kinds[j]])
        lines.append(",".join(cells))
        if rng.random() < 0.05:
            lines.append("")  # a blank line
    return (ending.join(lines) + (ending if rng.random() < 0.8 else "")).encode()


@pytest.mark.parametrize("seed", range(40))
def test_random_numeric_files_take_the_numpy_reader(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n_cols = int(rng.integers(2, 7))
    label_idx = int(rng.integers(0, n_cols))
    ending = str(rng.choice(["\n", "\r\n", "\r"]))
    p = tmp_path / "r.csv"
    p.write_bytes(numeric_csv(rng, int(rng.integers(1, 40)), n_cols, label_idx, ending, 0.0))
    assert assert_same(p, "label") is not None


@pytest.mark.parametrize("seed", range(120))
def test_random_files_with_odd_cells_read_alike(tmp_path, seed):
    rng = np.random.default_rng(1000 + seed)
    n_cols = int(rng.integers(2, 6))
    label_idx = int(rng.integers(0, n_cols))
    ending = str(rng.choice(["\n", "\r\n", "\r"]))
    text = numeric_csv(rng, int(rng.integers(1, 25)), n_cols, label_idx, ending, 0.05)
    if rng.random() < 0.3:  # one ragged or whitespace-only row
        lines = text.split(ending.encode())
        i = int(rng.integers(1, len(lines)))
        lines[i] = rng.choice([lines[i] + b",1", lines[i].rpartition(b",")[0], b"  "])
        text = ending.encode().join(lines)
    p = tmp_path / "r.csv"
    p.write_bytes(text)
    for label in (None, "label", label_idx):
        assert_same(p, label)
