"""Every hot-path lever answers to traffic: a cache is hit, and bounded.

The survivors table of docs/PERFORMANCE.md keeps a parse cache only while
some benchmark traffic hits it, and ``tests/vids/test_memory_bounds.py``
bounds each one.  This audit holds both lists to the code: it finds every
``lru_cache`` by walking ``repro.sip`` and ``repro.vids``, drives one cold
pass of the two traffic shapes the benchmark is built from — ``sip_churn``
(a distinct caller, callee, branch and media port per dialog) and the
Figure-7 testbed capture (a few phones re-offering the same bodies) — at a
tenth of their size, and fails on a cache nobody hits or nobody bounds.
The testbed pass includes producing the capture: the simulated user agents
and proxies read the same cached values the IDS does, so no cache is left
that only one of them hits.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import repro.sip
import repro.vids
from repro.vids import DEFAULT_CONFIG, build_pipeline, call_spec

from .test_memory_bounds import PARSE_CACHES

REPO = Path(__file__).resolve().parents[2]


def parse_caches():
    """qualified name -> every ``lru_cache`` defined under sip/ and vids/,
    but the spec memo: it is keyed by config, not by traffic."""
    found = {}
    for package in (repro.sip, repro.vids):
        for info in pkgutil.walk_packages(package.__path__,
                                          package.__name__ + "."):
            module = importlib.import_module(info.name)
            for name, value in vars(module).items():
                if (hasattr(value, "cache_info") and value is not call_spec
                        and value.__module__ == module.__name__):
                    found[f"{module.__name__}.{name}"] = value
    return found


def load_workloads():
    """benchmarks/e2e/workloads.py by file path, read only."""
    spec = importlib.util.spec_from_file_location(
        "e2e_workloads", REPO / "benchmarks" / "e2e" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # its dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def cold_pass(make_capture, caches):
    """Clear every cache, produce the capture, replay it once; returns the
    hit count of each cache and what ``lookup_media`` was asked."""
    for function in caches.values():
        function.cache_clear()
    capture = make_capture()
    pipeline, clock = build_pipeline(
        config=DEFAULT_CONFIG.with_overrides(shed_high_watermark=1e9))
    factbase = pipeline.factbase
    lookup_media = factbase.lookup_media
    lookups = []

    def audited_lookup(dst):
        match = lookup_media(dst)
        # The one table is the whole answer: no second index, no rebuild.
        assert match is factbase.media_index.get(dst)
        lookups.append(match is not None)
        return match

    factbase.lookup_media = audited_lookup
    pipeline.process_batch(
        ((packet.datagram, packet.time) for packet in capture), clock=clock)
    assert len(lookups) == pipeline.metrics.rtp_packets
    hits = {name: function.cache_info().hits
            for name, function in caches.items()}
    return hits, lookups


def test_every_parse_cache_is_bounded_and_hit_by_some_traffic():
    caches = parse_caches()
    assert set(caches.values()) == {function for function, _ in PARSE_CACHES}
    assert len(caches) == len(PARSE_CACHES) == 7

    workloads = load_workloads()
    churn_hits, churn_lookups = cold_pass(
        lambda: workloads.sip_churn(1, 0.1), caches)
    testbed_hits, testbed_lookups = cold_pass(
        lambda: workloads.mixed_capture(1, 0.1).capture, caches)
    unused = [name for name in caches
              if not churn_hits[name] and not testbed_hits[name]]
    assert unused == []
    # A workload on each side of the property the SDP cache needs: a
    # distinct media port per dialog never repeats a body, the testbed's
    # phones do.
    sdp = "repro.sip.sdp.media_brief"
    assert churn_hits[sdp] == 0 < testbed_hits[sdp]
    # sip_churn carries no media; the testbed's is almost all answered
    # from the table (the rest is orphan media, which the table denies).
    assert churn_lookups == []
    assert sum(testbed_lookups) > 0.9 * len(testbed_lookups) > 0
