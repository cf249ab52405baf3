import json

import pytest

from imbaml import class_distribution, fetch_openml, load_source
from imbaml.io import OPENML_CACHE_ENV, OPENML_DESCRIPTION_URL, OpenMLError

LAWSUIT_LIKE_ARFF = "\n".join(
    ["@relation analcat", "@attribute f1 numeric", "@attribute class {maj,min}",
     "@data"]
    + [f"{i},maj" for i in range(245)]
    + [f"{i},min" for i in range(19)]) + "\n"


def fake_http(dataset_id=77, arff=LAWSUIT_LIKE_ARFF, target="class"):
    calls = []

    def get(url):
        calls.append(url)
        if url == OPENML_DESCRIPTION_URL.format(id=dataset_id):
            return json.dumps({"data_set_description": {
                "id": str(dataset_id), "url": f"https://example.org/{dataset_id}.arff",
                "default_target_attribute": target}}).encode()
        if url.endswith(f"{dataset_id}.arff"):
            return arff.encode()
        raise OpenMLError(f"HTTP 404 fetching {url}", status=404)

    get.calls = calls
    return get


def test_fetch_downloads_and_parses(tmp_path):
    get = fake_http()
    d = fetch_openml(77, tmp_path, http_get=get)
    assert d.n == 264 and d.n_features == 1
    dist = class_distribution(d)
    # counts match the published majority/minority sizes for this dataset
    assert dist.majority_size == 245 and dist.minority_size == 19
    assert len(get.calls) == 2


def test_fetch_warm_cache_is_idempotent_and_offline(tmp_path):
    get = fake_http()
    d1 = fetch_openml(77, tmp_path, http_get=get)
    n_calls = len(get.calls)

    def no_network(url):
        raise AssertionError("network touched with a warm cache")

    d2 = fetch_openml(77, tmp_path, http_get=no_network)
    assert len(get.calls) == n_calls
    assert d1.features.tobytes() == d2.features.tobytes()
    assert d1.labels.tolist() == d2.labels.tolist()


def test_load_source_reads_the_openml_cache(tmp_path, monkeypatch):
    expected = fetch_openml(77, tmp_path, http_get=fake_http())
    monkeypatch.setenv(OPENML_CACHE_ENV, str(tmp_path))
    d = load_source("openml:77")
    assert d.features.tobytes() == expected.features.tobytes()
    assert d.labels.tolist() == expected.labels.tolist()


def test_fetch_unknown_id_carries_status(tmp_path):
    def get(url):
        raise OpenMLError(f"HTTP 404 fetching {url}", status=404)

    with pytest.raises(OpenMLError) as err:
        fetch_openml(999999, tmp_path, http_get=get)
    assert err.value.status == 404


def test_fetch_malformed_description(tmp_path):
    def get(url):
        return b"{}"

    with pytest.raises(OpenMLError, match="malformed description"):
        fetch_openml(5, tmp_path, http_get=get)
