"""Pinned per-node usage tracks and live-sampler series.

Both readers of the per-node event fold -- ``derive_usage`` (step
tracks, store clamped at capacity) and ``TimeSeriesSampler`` (gauges
sampled every 0.25 s, unclamped) -- are hashed on two runs: a spilling
push* external sort (data about 3x the cluster's object store) and a
push shuffle under a LINK_DOWN fault, whose zero-length failed transfers
open and close at one instant.  The digests were recorded before the
two readers shared one fold, so any change to a track's points, an
interval label, a series' values or a series' birth shows.
"""

import hashlib
import json

from repro.chaos.harness import default_node_spec, make_inputs, submit_variant
from repro.chaos.injector import ChaosInjector
from repro.chaos.spec import FaultKind, matrix_plan
from repro.common.units import MB
from repro.futures import RetryPolicy, Runtime, RuntimeConfig
from repro.obs.live import TimeSeriesSampler
from repro.obs.perf import derive_usage
from repro.sort import SortJobConfig, run_sort

from tests.conftest import make_runtime

SPILL_USAGE_DIGEST = (
    "34239b9cae4f29ae1cfaa88a53af409f674b9783cfc17a9e7b081137a17c88f5"
)
SPILL_SERIES_DIGEST = (
    "2e31c68948b6cbc71fcaf5beba475c2ee3bbc4419fcc9e3a012bd0b6dd77c96b"
)
LINK_DOWN_USAGE_DIGEST = (
    "59d32a444c8f3b183f0bfea5091ab9beafeb21e7197a990254b54a0605dfa9b1"
)
LINK_DOWN_SERIES_DIGEST = (
    "b07cc7730ef19833dd2b25961a22688fdaaa2c4a959b3fcd3345cce1f3d5e098"
)


def _usage_digest(timeline):
    tracks = [
        [name, node, track.points]
        for name, per_node in sorted(timeline.tracks.items())
        for node, track in sorted(per_node.items())
    ]
    labels = [[i.start, i.end, i.label] for i in timeline.intervals(40)]
    text = json.dumps([tracks, labels])
    return hashlib.sha256(text.encode()).hexdigest()


def _spilling_sort():
    rt = make_runtime(num_nodes=2, store_mib=16)
    sampler = TimeSeriesSampler(interval_s=0.25)
    rt.attach_sampler(sampler)
    result = run_sort(
        rt,
        SortJobConfig(
            variant="push*",
            num_partitions=12,
            partition_bytes=8 * MB,
            output_to_disk=True,
            virtual=True,
        ),
    )
    assert result.validated
    sampler.finish()
    return rt, sampler


def _link_down_shuffle():
    rt = Runtime.create(
        default_node_spec(),
        4,
        config=RuntimeConfig(retry_policy=RetryPolicy(max_attempts=8)),
    )
    sampler = TimeSeriesSampler(interval_s=0.25)
    rt.attach_sampler(sampler)
    ChaosInjector(rt, matrix_plan(FaultKind.LINK_DOWN, seed=0))
    inputs = make_inputs(0, 8, 24)
    rt.run(lambda: rt.get(submit_variant("push", rt, inputs, 4)))
    rt.env.run()
    sampler.finish()
    return rt, sampler


def test_spilling_sort_usage_and_series_are_pinned():
    rt, sampler = _spilling_sort()
    assert rt.stats()["spill_bytes_written"] > 0
    timeline = derive_usage(rt.bus.events, cluster=rt.cluster_snapshot())
    # The usage view clamps store occupancy at capacity; the sampler
    # does not, and on this run its store series reads above it.
    cap = rt.cluster_snapshot()["N000"]["object_store_bytes"]
    assert timeline.track("store", "N000").max_value() == cap
    assert max(sampler.get("node:N000:store").values()) > cap
    assert _usage_digest(timeline) == SPILL_USAGE_DIGEST
    assert sampler.series_digest() == SPILL_SERIES_DIGEST


def test_link_down_usage_and_series_are_pinned():
    rt, sampler = _link_down_shuffle()
    events = rt.bus.events
    # Failed transfers over the downed link begin and end at one instant.
    begins = {e.seq: e.ts for e in events if e.kind == "transfer.begin"}
    assert any(
        begins.get(e.cause) == e.ts
        for e in events
        if e.kind == "transfer.end"
    )
    timeline = derive_usage(events, cluster=rt.cluster_snapshot())
    assert _usage_digest(timeline) == LINK_DOWN_USAGE_DIGEST
    assert sampler.series_digest() == LINK_DOWN_SERIES_DIGEST
