"""Shared fixtures: the bundled example instances, parsed once per session,
and the randomized corpus, built once per session."""

from __future__ import annotations

from importlib import resources
from types import SimpleNamespace

import pytest

from wtbound import (
    compute_bound,
    parse_collection,
    parse_network,
    preprocess,
)

from helpers import (
    CORPUS_SEED,
    CORPUS_SIZE,
    enumerate_min_cuts,
    oracle_bounds,
    random_instance,
)


def _read_data(name: str) -> str:
    return (resources.files("wtbound") / "data" / name).read_text()


@pytest.fixture(scope="session")
def fig1():
    """The bundled two-sink instance: 12 nodes, 21 edges, 48 wiretap sets."""
    net, labels = parse_network(_read_data("fig1.net"))
    coll, warnings = parse_collection(_read_data("fig1.wsets"), net, labels)
    return SimpleNamespace(net=net, labels=labels, coll=coll, warnings=warnings)


@pytest.fixture(scope="session")
def singlesink():
    """The bundled single-sink instance: 13 nodes, 21 edges, mincut 4."""
    net, labels = parse_network(_read_data("singlesink.net"))
    return SimpleNamespace(net=net, labels=labels)


@pytest.fixture(scope="session")
def data_files(tmp_path_factory):
    """The bundled instance files copied to disk, for CLI invocations."""
    directory = tmp_path_factory.mktemp("data")
    for name in ("fig1.net", "fig1.wsets", "singlesink.net"):
        (directory / name).write_text(_read_data(name))
    return directory


@pytest.fixture(scope="session")
def corpus():
    """Randomized little instances with every expensive artifact precomputed.

    Per instance: the network, the preprocessed collection, the exhaustive
    minimum-cut family of every kept set, the brute-force class structure,
    the fast class partition, and the fast bound report.
    """
    records = []
    for i in range(CORPUS_SIZE):
        seed = CORPUS_SEED + i
        net, raw_sets = random_instance(seed)
        coll, _ = preprocess(net, raw_sets)
        fams = [enumerate_min_cuts(net, s) for s in coll.sets]
        records.append(
            SimpleNamespace(
                seed=seed,
                net=net,
                coll=coll,
                fams=fams,
                ob=oracle_bounds(net, coll.sets),
                classes=coll.classes,
                report=compute_bound(net, coll.classes),
            )
        )
    return records
