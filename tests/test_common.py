"""Unit tests for units, ids, and seeded randomness."""

import json
import pickle

import pytest

from repro.common import (
    GB,
    GIB,
    IdGenerator,
    MB,
    NodeId,
    ObjectId,
    TaskId,
    derive_seed,
    format_bytes,
    format_duration,
    parse_bytes,
    seeded_rng,
)


class TestUnits:
    def test_parse_decimal(self):
        assert parse_bytes("2GB") == 2 * GB
        assert parse_bytes("1.5 MB") == 1_500_000

    def test_parse_binary(self):
        assert parse_bytes("1GiB") == GIB
        assert parse_bytes("512 KiB") == 512 * 1024

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_bytes("twelve")
        with pytest.raises(ValueError):
            parse_bytes("5 parsecs")

    def test_format_bytes_round_trip_scale(self):
        assert format_bytes(1_500_000) == "1.50MB"
        assert format_bytes(2 * GB) == "2.00GB"
        assert format_bytes(999) == "999B"

    def test_format_duration(self):
        assert format_duration(0.0005) == "500.0us"
        assert format_duration(0.5) == "500.0ms"
        assert format_duration(42.0) == "42.0s"
        assert format_duration(93.5) == "1m33.5s"
        assert format_duration(3723.0) == "1h2m3s"

    def test_format_duration_negative(self):
        assert format_duration(-5.0) == "-5.0s"


class TestIds:
    def test_generator_is_monotonic(self):
        gen = IdGenerator()
        assert gen.next_task_id() == TaskId(0)
        assert gen.next_task_id() == TaskId(1)
        assert gen.next_object_id() == ObjectId(0)
        assert gen.next_node_id() == NodeId(0)

    def test_two_generators_independent(self):
        a, b = IdGenerator(), IdGenerator()
        a.next_task_id()
        assert b.next_task_id() == TaskId(0)

    def test_str_rendering(self):
        assert str(TaskId(42)) == "T00042"
        assert str(NodeId(3)) == "N003"
        assert str(ObjectId(317)) == "O00317"

    def test_ordering_and_hashing(self):
        assert TaskId(1) < TaskId(2)
        assert len({ObjectId(5), ObjectId(5)}) == 1

    def test_repr_and_format_render_the_tag(self):
        assert repr(TaskId(42)) == "T00042"
        assert repr([NodeId(3), ObjectId(317)]) == "[N003, O00317]"
        assert f"{NodeId(3)}" == "N003"
        assert "%s" % ObjectId(7) == "O00007"

    def test_ordering_within_one_kind(self):
        ids = [ObjectId(9), ObjectId(2), ObjectId(5)]
        assert sorted(ids) == [ObjectId(2), ObjectId(5), ObjectId(9)]
        assert max(ids) == ObjectId(9)
        assert NodeId(2) <= NodeId(2) < NodeId(10)

    def test_index_is_a_plain_int(self):
        index = TaskId(42).index
        assert index == 42 and type(index) is int

    def test_pickle_round_trip_keeps_kind(self):
        for ident in (NodeId(3), TaskId(42), ObjectId(0)):
            back = pickle.loads(pickle.dumps(ident))
            assert back == ident and type(back) is type(ident)
            assert str(back) == str(ident)

    def test_ids_are_slotted_ints(self):
        assert not hasattr(NodeId(1), "__dict__")
        assert hash(TaskId(7)) == hash(7)

    def test_node_zero_is_falsy_but_not_none(self):
        # Int semantics: test ids against None, never by truthiness.
        zero = NodeId(0)
        assert str(zero) == "N000"
        assert not zero
        assert zero is not None

    def test_kinds_compare_by_index(self):
        # Int semantics: kinds are not distinguished by ==, so one dict
        # must never key two kinds.
        assert NodeId(3) == TaskId(3) == 3
        assert len({NodeId(3), TaskId(3)}) == 1

    def test_json_encodes_the_bare_int(self):
        # default= is never consulted for an int subclass, so writers
        # must stringify ids themselves.
        assert json.dumps([NodeId(3)], default=str) == "[3]"
        assert json.dumps([str(NodeId(3))]) == '["N003"]'


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(7, "map", 3) == derive_seed(7, "map", 3)

    def test_derive_seed_distinguishes_paths(self):
        seeds = {
            derive_seed(7, "map", 3),
            derive_seed(7, "map", 4),
            derive_seed(7, "reduce", 3),
            derive_seed(8, "map", 3),
        }
        assert len(seeds) == 4

    def test_seeded_rng_reproducible(self):
        a = seeded_rng(1, "x").random(4)
        b = seeded_rng(1, "x").random(4)
        assert (a == b).all()
