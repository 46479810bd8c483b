"""Tests for the relational data model (repro.common.types)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SchemaError
from repro.common.types import (
    RelationData,
    Row,
    Schema,
    TupleId,
    VersionedTuple,
    estimate_values_size,
)


class TestSchema:
    def test_basic_construction(self):
        schema = Schema("R", ["x", "y"], key=["x"])
        assert schema.arity == 2
        assert schema.key == ("x",)

    def test_default_key_is_first_attribute(self):
        schema = Schema("R", ["x", "y"])
        assert schema.key == ("x",)

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", ["x", "x"])

    def test_key_must_be_subset(self):
        with pytest.raises(SchemaError):
            Schema("R", ["x", "y"], key=["z"])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema("R", [])

    def test_index_of(self):
        schema = Schema("R", ["x", "y", "z"])
        assert schema.index_of("y") == 1
        with pytest.raises(SchemaError):
            schema.index_of("w")

    def test_key_of_extracts_key_values(self):
        schema = Schema("R", ["x", "y", "z"], key=["z", "x"])
        assert schema.key_of(("a", "b", "c")) == ("c", "a")

    def test_key_of_checks_arity(self):
        schema = Schema("R", ["x", "y"])
        with pytest.raises(SchemaError):
            schema.key_of(("a",))

    def test_project_and_rename(self):
        schema = Schema("R", ["x", "y", "z"])
        projected = schema.project(["z", "x"], new_name="P")
        assert projected.name == "P"
        assert projected.attributes == ("z", "x")
        renamed = schema.rename("S")
        assert renamed.name == "S"
        assert renamed.attributes == schema.attributes


class TestTupleId:
    def test_hash_key_ignores_epoch(self):
        assert TupleId(("a",), 0).hash_key == TupleId(("a",), 5).hash_key

    def test_different_keys_have_different_hashes(self):
        assert TupleId(("a",), 0).hash_key != TupleId(("b",), 0).hash_key

    def test_ordering_and_equality(self):
        assert TupleId(("a",), 0) == TupleId(("a",), 0)
        assert TupleId(("a",), 0) < TupleId(("a",), 1)

    def test_with_epoch(self):
        tid = TupleId(("a",), 0).with_epoch(3)
        assert tid.epoch == 3
        assert tid.key_values == ("a",)

    def test_repr_shows_key_and_epoch(self):
        assert "@ 1" in repr(TupleId(("f",), 1))

    @pytest.mark.parametrize(
        "key_values, epoch, width",
        [(("a",), 0, 0), (("a", 2), 3, 1), (("a", 2, None), 7, 2), ((1.5, "x"), 1, 9)],
    )
    def test_hash_is_the_field_tuple_hash(self, key_values, epoch, width):
        # Set and dict orders of tuple IDs depend on this exact value.
        tid = TupleId(key_values, epoch, width)
        expected = hash((tid.key_values, tid.epoch, tid.partition_width))
        assert hash(tid) == expected
        assert hash(tid) == expected  # the cached value
        assert hash(TupleId(key_values, epoch, width)) == expected


class TestVersionedTuple:
    def test_fields(self):
        vt = VersionedTuple("R", TupleId(("a",), 2), ("a", "b"))
        assert vt.relation == "R"
        assert vt.epoch == 2
        assert vt.values == ("a", "b")
        assert not vt.deleted

    def test_hash_key_matches_tuple_id(self):
        tid = TupleId(("a",), 2)
        assert VersionedTuple("R", tid, ("a", "b")).hash_key == tid.hash_key

    def test_estimated_size_positive(self):
        vt = VersionedTuple("R", TupleId(("a",), 2), ("a", "some text", 12))
        assert vt.estimated_size() > 0


class TestRow:
    def test_mapping_interface(self):
        row = Row(("x", "y"), (1, "a"))
        assert row["x"] == 1
        assert row["y"] == "a"
        assert list(row) == ["x", "y"]
        assert len(row) == 2
        assert dict(row) == {"x": 1, "y": "a"}

    def test_missing_attribute(self):
        with pytest.raises(KeyError):
            Row(("x",), (1,))["y"]

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            Row(("x", "y"), (1,))

    def test_project(self):
        row = Row(("x", "y", "z"), (1, 2, 3))
        assert row.project(["z", "x"]).values == (3, 1)

    def test_concat(self):
        left = Row(("x",), (1,))
        right = Row(("y",), (2,))
        combined = left.concat(right)
        assert combined.attributes == ("x", "y")
        assert combined.values == (1, 2)

    def test_equality_and_hash(self):
        assert Row(("x",), (1,)) == Row(("x",), (1,))
        assert hash(Row(("x",), (1,))) == hash(Row(("x",), (1,)))
        assert Row(("x",), (1,)) != Row(("x",), (2,))

    def test_from_mapping(self):
        row = Row.from_mapping({"a": 1, "b": 2})
        assert row["a"] == 1 and row["b"] == 2


class TestRelationData:
    def test_add_and_iterate(self):
        data = RelationData(Schema("R", ["x", "y"]))
        data.add("a", 1)
        data.add("b", 2)
        assert len(data) == 2
        assert list(data) == [("a", 1), ("b", 2)]

    def test_add_checks_arity(self):
        data = RelationData(Schema("R", ["x", "y"]))
        with pytest.raises(SchemaError):
            data.add("only-one")

    def test_extend(self):
        data = RelationData(Schema("R", ["x"]))
        data.extend([("a",), ("b",)])
        assert len(data) == 2

    def test_estimated_size(self):
        data = RelationData(Schema("R", ["x"]))
        data.add("hello")
        assert data.estimated_size() == estimate_values_size(("hello",))


class TestEstimateValuesSize:
    def test_strings_scale_with_length(self):
        assert estimate_values_size(("aaaa",)) > estimate_values_size(("a",))

    def test_all_supported_types(self):
        size = estimate_values_size((None, True, 3, 2.5, "s", b"b", (1, 2)))
        assert size > 0

    @given(st.lists(st.one_of(st.integers(), st.text(max_size=30), st.floats(allow_nan=False), st.none())))
    def test_size_is_positive_and_monotone(self, values):
        base = estimate_values_size(values)
        assert base >= 2
        assert estimate_values_size(values + [1]) > base
