"""Dataset ingestion: CSV, ARFF and a cached OpenML download client.

``load_csv`` has two readers. A file whose feature cells are all present,
finite, unquoted numbers is read by NumPy's C text reader (``np.loadtxt``)
from the file itself, one line at a time, so beyond the float64 feature
matrix it holds only the label cells and the reader's buffers. Every other
file, and any file the C reader rejects, is read cell by cell through
``csv.reader``, which holds every cell as a string. Whenever the C reader
returns, its ``Dataset`` is byte-identical to the cell-by-cell one.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import re
from pathlib import Path

import numpy as np

from .dataset import CATEGORICAL, NUMERIC, ColumnMeta, DataError, Dataset

MISSING_MARKERS = {"", "?"}
MISSING_CATEGORY = "<missing>"

OPENML_DESCRIPTION_URL = "https://www.openml.org/api/v1/json/data/{id}"
OPENML_CACHE_ENV = "IMBAML_OPENML_CACHE"


class OpenMLError(RuntimeError):
    """HTTP or protocol failure talking to OpenML; carries the status code."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


def _is_missing(cell: str) -> bool:
    return cell.strip() in MISSING_MARKERS


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _encode_columns(rows, col_names, col_kinds, nominal_domains=None):
    """Turn string cells into the coded float matrix, imputing missing values.

    Numeric cells are imputed with the column median of the present values;
    missing categorical cells get a dedicated category. Categorical codes
    follow the declared nominal domain when given, else first-appearance order.
    """
    n, d = len(rows), len(col_names)
    X = np.empty((n, d), dtype=np.float64)
    metas: list[ColumnMeta] = []
    n_missing = 0
    for j in range(d):
        cells = [row[j] for row in rows]
        if col_kinds[j] == NUMERIC:
            vals = np.array([np.nan if _is_missing(c) else float(c) for c in cells])
            missing = np.isnan(vals)
            if missing.all():
                raise DataError(f"column '{col_names[j]}' has all values missing")
            if missing.any():
                vals[missing] = np.median(vals[~missing])
                n_missing += int(missing.sum())
            X[:, j] = vals
            metas.append(ColumnMeta(col_names[j], NUMERIC))
        else:
            domain = list(nominal_domains[j]) if nominal_domains and nominal_domains[j] else []
            codes = {v: i for i, v in enumerate(domain)}
            declared = bool(domain)
            out = np.empty(n, dtype=np.float64)
            any_present = False
            for i, c in enumerate(cells):
                if _is_missing(c):
                    n_missing += 1
                    c = MISSING_CATEGORY
                else:
                    any_present = True
                c = c.strip()
                if c not in codes:
                    if declared and c != MISSING_CATEGORY:
                        raise DataError(
                            f"value '{c}' outside declared domain of '{col_names[j]}'")
                    codes[c] = len(codes)
                    domain.append(c)
                out[i] = codes[c]
            if not any_present:
                raise DataError(f"column '{col_names[j]}' has all values missing")
            X[:, j] = out
            metas.append(ColumnMeta(col_names[j], CATEGORICAL, tuple(domain)))
    return X, tuple(metas), n_missing


def _encode_labels(cells) -> tuple[np.ndarray, tuple[str, ...]]:
    codes: dict[str, int] = {}
    y = np.empty(len(cells), dtype=np.int64)
    for i, c in enumerate(cells):
        c = c.strip()
        if c in MISSING_MARKERS:
            raise DataError(f"missing label value at data row {i}")
        if c not in codes:
            codes[c] = len(codes)
        y[i] = codes[c]
    return y, tuple(codes)


def load_csv(path, label_column=None) -> Dataset:
    """Load a CSV file, comma-separated, with a header row, into a Dataset.

    ``label_column`` is a header name or 0-based index; by default the last
    column is the label. Columns where every present cell parses as a float
    are numeric; everything else is ordinal-coded categorical. Blank lines
    are skipped; every other row must have as many cells as the header.

    A file whose feature cells are all present, finite, unquoted numbers is
    read with ``np.loadtxt`` (``_read_numeric_csv``), which holds the
    feature matrix, the label cells and the reader's buffers; any other
    file is read cell by cell (``_read_csv_cells``), which holds every cell
    as a string. Both give the same ``Dataset``.
    """
    path = Path(path)
    d = _read_numeric_csv(path, label_column)
    return d if d is not None else _read_csv_cells(path, label_column)


def _label_index(names: list[str], label_column) -> int:
    if label_column is None:
        return len(names) - 1
    if isinstance(label_column, int):
        if not 0 <= label_column < len(names):
            raise DataError("label column absent")
        return label_column
    if label_column not in names:
        raise DataError("label column absent")
    return names.index(label_column)


def _read_csv_cells(path: Path, label_column) -> Dataset:
    """``load_csv`` for any file: every cell a string from ``csv.reader``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            table = [row for row in reader if row]
    except csv.Error as exc:
        raise DataError(f"CSV parse failure in {path}: {exc}") from exc
    if not table:
        raise DataError("zero rows")

    names, data = [c.strip() for c in table[0]], table[1:]
    if not data:
        raise DataError("zero rows")
    width = len(names)
    for i, row in enumerate(data):
        if len(row) != width:
            raise DataError(f"row {i} has {len(row)} cells, expected {width}")
    label_idx = _label_index(names, label_column)

    feat_idx = [j for j in range(width) if j != label_idx]
    rows = [[row[j] for j in feat_idx] for row in data]
    col_names = [names[j] for j in feat_idx]
    kinds = []
    for j in range(len(feat_idx)):
        cells = [r[j] for r in rows if not _is_missing(r[j])]
        numeric = bool(cells) and all(_parse_float(c) is not None for c in cells)
        kinds.append(NUMERIC if numeric else CATEGORICAL)
    X, metas, n_missing = _encode_columns(rows, col_names, kinds)
    y, label_names = _encode_labels([row[label_idx] for row in data])
    return Dataset(path.stem, X, y, label_names, metas, n_missing)


def _read_numeric_csv(path: Path, label_column) -> Dataset | None:
    """``load_csv`` by one ``np.loadtxt`` pass over the feature columns, or
    None where the result could differ from ``_read_csv_cells``'s.

    The file is opened with universal newlines, so its lines are the rows
    ``csv.reader`` sees (``\\r\\n`` and a lone ``\\r`` end a line), and
    ``_numeric_lines`` feeds them to ``loadtxt`` after checking each one's
    width. Any ``ValueError`` (a cell ``loadtxt`` cannot parse, a ragged
    row, a missing label, bytes that are not UTF-8) returns None, and so do
    a quote in the header or a label, which ``csv.reader`` would unquote, a
    NUL anywhere, which only some Python versions' ``csv.reader`` accepts,
    and a NaN or infinite cell, which the cell-by-cell path imputes or
    rejects.
    """
    label_cells: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            header = next((line for line in fh if line != "\n"), "")
            names = [c.strip() for c in header.split(",")]
            if '"' in header or "\x00" in header or len(names) < 2:
                return None
            label_idx = _label_index(names, label_column)
            lines = _numeric_lines(fh, len(names), label_idx, label_cells)
            first = next(lines, None)  # loadtxt warns on an empty input
            if first is None:
                return None
            feat_idx = [j for j in range(len(names)) if j != label_idx]
            X = np.loadtxt(itertools.chain((first,), lines), delimiter=",",
                           comments=None, usecols=feat_idx, ndmin=2)
        y, label_names = _encode_labels(label_cells)
    except ValueError:
        return None
    if any('"' in name for name in label_names) or not np.isfinite(X).all():
        return None
    columns = tuple(ColumnMeta(names[j], NUMERIC) for j in feat_idx)
    return Dataset(path.stem, X, y, label_names, columns)


def _numeric_lines(fh, width: int, label_idx: int, label_cells: list[str]):
    """The data lines of ``fh``, appending each one's label cell (unstripped)
    to ``label_cells``. Blank lines are skipped, as ``csv.reader`` yields no
    row for them. Raises ValueError at a line whose cell count is not
    ``width``, or that holds one of the separators U+001C..U+001F, which
    ``loadtxt`` strips from around a number and ``float`` rejects, or a NUL,
    which ``csv.reader`` rejects before Python 3.11 and accepts after."""
    tail = width - 1 - label_idx  # cells right of the label
    for line in fh:
        if (line.count(",") != width - 1 or "\x00" in line or "\x1c" in line
                or "\x1d" in line or "\x1e" in line or "\x1f" in line):
            if line == "\n":
                continue
            raise ValueError("not a line of the numeric reader")
        label_cells.append(line.rsplit(",", tail + 1)[-tail - 1])
        yield line


_ATTR_RE = re.compile(r"@attribute\s+('[^']+'|\"[^\"]+\"|\S+)\s+(.+)", re.IGNORECASE)


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def load_arff(path, label_attribute: str | None = None) -> Dataset:
    """Load a dense ARFF file; by default the last nominal attribute is the class."""
    path = Path(path)
    attrs: list[tuple[str, str, tuple[str, ...] | None]] = []  # name, kind, domain
    relation = path.stem
    data_rows: list[list[str]] = []
    in_data = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if not in_data:
                low = line.lower()
                if low.startswith("@relation"):
                    relation = _unquote(line.split(None, 1)[1]) if " " in line else relation
                elif low.startswith("@attribute"):
                    m = _ATTR_RE.match(line)
                    if not m:
                        raise DataError(f"malformed @attribute line {lineno}: {line!r}")
                    name = _unquote(m.group(1))
                    type_spec = m.group(2).strip()
                    if type_spec.startswith("{"):
                        if not type_spec.endswith("}"):
                            raise DataError(f"malformed nominal domain at line {lineno}")
                        values = next(csv.reader([type_spec[1:-1]], skipinitialspace=True))
                        attrs.append((name, CATEGORICAL, tuple(_unquote(v) for v in values)))
                    elif type_spec.lower() in ("numeric", "real", "integer"):
                        attrs.append((name, NUMERIC, None))
                    else:
                        raise DataError(
                            f"unsupported attribute type '{type_spec}' at line {lineno}")
                elif low.startswith("@data"):
                    in_data = True
            else:
                if line.startswith("{"):
                    raise DataError("sparse ARFF data is not supported")
                row = [_unquote(v) for v in
                       next(csv.reader([line], skipinitialspace=True))]
                if len(row) != len(attrs):
                    raise DataError(
                        f"data row {len(data_rows)} has {len(row)} values, "
                        f"expected {len(attrs)}")
                data_rows.append(row)
    if not attrs:
        raise DataError("ARFF header declares no attributes")
    if not data_rows:
        raise DataError("zero rows")

    if label_attribute is None:
        nominal = [i for i, a in enumerate(attrs) if a[1] == CATEGORICAL]
        if not nominal:
            raise DataError("no nominal attribute available as the class")
        label_idx = nominal[-1]
    else:
        names = [a[0] for a in attrs]
        if label_attribute not in names:
            raise DataError("label column absent")
        label_idx = names.index(label_attribute)

    feat_idx = [j for j in range(len(attrs)) if j != label_idx]
    rows = [[row[j] for j in feat_idx] for row in data_rows]
    col_names = [attrs[j][0] for j in feat_idx]
    kinds = [attrs[j][1] for j in feat_idx]
    domains = [attrs[j][2] for j in feat_idx]
    X, metas, n_missing = _encode_columns(rows, col_names, kinds, domains)
    y, label_names = _encode_labels([row[label_idx] for row in data_rows])
    return Dataset(relation, X, y, label_names, metas, n_missing)


def _default_http_get(url: str) -> bytes:
    import urllib.error  # only OpenML downloads need the network modules
    import urllib.request
    try:
        with urllib.request.urlopen(url, timeout=60) as resp:
            return resp.read()
    except urllib.error.HTTPError as exc:
        raise OpenMLError(f"HTTP {exc.code} fetching {url}", status=exc.code) from exc
    except urllib.error.URLError as exc:
        raise OpenMLError(f"network failure fetching {url}: {exc.reason}") from exc


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write via a .partial sibling and rename, so readers never see truncation."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".partial")
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def fetch_openml(dataset_id: int, cache_dir, http_get=None) -> Dataset:
    """Download (or reuse from cache) an OpenML dataset by id.

    Talks to the public JSON description endpoint to locate the ARFF file,
    caches both under ``cache_dir/<id>/`` and delegates parsing to
    :func:`load_arff`. A warm cache performs no network activity.
    """
    http_get = http_get or _default_http_get
    cache = Path(cache_dir) / str(int(dataset_id))
    arff_path = cache / "dataset.arff"
    desc_path = cache / "description.json"

    target = None
    if desc_path.exists():
        desc = json.loads(desc_path.read_text(encoding="utf-8"))
        target = desc.get("default_target_attribute")
    if not arff_path.exists():
        raw = http_get(OPENML_DESCRIPTION_URL.format(id=int(dataset_id)))
        try:
            desc = json.loads(raw)["data_set_description"]
        except (ValueError, KeyError) as exc:
            raise OpenMLError(f"malformed description for dataset {dataset_id}") from exc
        target = desc.get("default_target_attribute")
        payload = http_get(desc["url"])
        atomic_write_bytes(arff_path, payload)
        atomic_write_bytes(desc_path, json.dumps(
            {"id": int(dataset_id), "url": desc["url"],
             "default_target_attribute": target}).encode("utf-8"))
    if isinstance(target, str) and "," in target:
        target = None  # multi-target descriptions fall back to the last nominal
    return load_arff(arff_path, label_attribute=target)


def load_source(source: str, label=None) -> Dataset:
    """The one path from a source string to a Dataset: ``openml:<id>`` via
    :func:`fetch_openml` (``label`` unused; cached under
    ``$IMBAML_OPENML_CACHE``, else ``~/.cache/imbaml/openml``), ``.arff`` via
    :func:`load_arff`, else :func:`load_csv`, where an all-digit ``label`` is
    a column index."""
    if source.startswith("openml:"):
        return fetch_openml(int(source.split(":", 1)[1]), os.environ.get(
            OPENML_CACHE_ENV, str(Path.home() / ".cache" / "imbaml" / "openml")))
    path = Path(source)
    if path.suffix.lower() == ".arff":
        return load_arff(path, label_attribute=label)
    if isinstance(label, str) and label.isdigit():
        label = int(label)
    return load_csv(path, label_column=label)
