"""Dataset ingestion: CSV, ARFF and a cached OpenML download client."""

from __future__ import annotations

import csv
import json
import os
import re
import urllib.error
import urllib.request
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
    are numeric; everything else is ordinal-coded categorical.
    """
    path = Path(path)
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

    if label_column is None:
        label_idx = width - 1
    elif isinstance(label_column, int):
        if not 0 <= label_column < width:
            raise DataError("label column absent")
        label_idx = label_column
    else:
        if label_column not in names:
            raise DataError("label column absent")
        label_idx = names.index(label_column)

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
