"""Unit tests for the utility modules: RNG streams, timing, validation, logging."""

import logging
import time

import numpy as np
import pytest

from repro.utils.logging import configure_logging, get_logger
from repro.utils.rng import RandomStreams, spawn_rng
from repro.utils.timing import TimingLedger
from repro.utils.validation import (
    check_angle_array,
    check_positive,
    check_probability,
    check_shape,
)


class TestSpawnRng:
    def test_deterministic_for_same_seed(self):
        a = spawn_rng(42, 1).random(5)
        b = spawn_rng(42, 1).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_give_different_streams(self):
        a = spawn_rng(42, 1).random(5)
        b = spawn_rng(42, 2).random(5)
        assert not np.allclose(a, b)

    def test_none_seed_gives_entropy(self):
        gen = spawn_rng(None)
        assert isinstance(gen, np.random.Generator)


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(seed=1)
        assert streams.get("mutation") is streams.get("mutation")

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=1)
        a = streams.get("a").random(10)
        b = streams.get("b").random(10)
        assert not np.allclose(a, b)

    def test_reproducible_across_instances(self):
        a = RandomStreams(seed=7).get("mutation").random(10)
        b = RandomStreams(seed=7).get("mutation").random(10)
        np.testing.assert_array_equal(a, b)

    def test_stream_names_tracked(self):
        streams = RandomStreams(seed=1)
        streams.get("x")
        streams.get("y")
        assert set(streams.names()) == {"x", "y"}

    def test_child_streams_differ_from_parent(self):
        parent = RandomStreams(seed=3)
        child = parent.child(0)
        other = parent.child(1)
        a = parent.get("m").random(5)
        b = child.get("m").random(5)
        c = other.get("m").random(5)
        assert not np.allclose(a, b)
        assert not np.allclose(b, c)

    def test_child_reproducible(self):
        a = RandomStreams(seed=3).child(4).get("m").random(5)
        b = RandomStreams(seed=3).child(4).get("m").random(5)
        np.testing.assert_array_equal(a, b)

    def test_seed_property(self):
        assert RandomStreams(seed=9).seed == 9
        assert RandomStreams().seed is None


class TestTimingLedger:
    def test_section_records_calls_and_seconds(self):
        ledger = TimingLedger()
        with ledger.section("work"):
            time.sleep(0.005)
        with ledger.section("work"):
            time.sleep(0.005)
        record = ledger.records["work"]
        assert record.calls == 2
        assert record.total_seconds >= 0.009
        assert record.mean_seconds == pytest.approx(record.total_seconds / 2)

    def test_add_and_total(self):
        ledger = TimingLedger()
        ledger.add("a", 1.0)
        ledger.add("b", 3.0)
        assert ledger.total() == pytest.approx(4.0)

    def test_fractions_sum_to_one(self):
        ledger = TimingLedger()
        ledger.add("a", 1.0)
        ledger.add("b", 3.0)
        fracs = ledger.fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)
        assert fracs["b"] == pytest.approx(0.75)

    def test_fractions_of_empty_ledger(self):
        assert TimingLedger().fractions() == {}

    def test_merge(self):
        a = TimingLedger()
        a.add("x", 1.0)
        b = TimingLedger()
        b.add("x", 2.0, calls=3)
        b.add("y", 1.0)
        a.merge(b)
        assert a.records["x"].total_seconds == pytest.approx(3.0)
        assert a.records["x"].calls == 4
        assert "y" in a.records

    def test_as_rows_sorted_by_time(self):
        ledger = TimingLedger()
        ledger.add("small", 0.1)
        ledger.add("big", 5.0)
        rows = ledger.as_rows()
        assert rows[0][0] == "big"

    def test_render_contains_sections(self):
        ledger = TimingLedger()
        ledger.add("CCD", 2.0)
        text = ledger.render("My breakdown")
        assert "My breakdown" in text
        assert "CCD" in text
        assert "TOTAL" in text

    def test_grouped_fractions(self):
        ledger = TimingLedger()
        ledger.add("CCD", 3.0)
        ledger.add("EvalVDW", 1.0)
        ledger.add("Sorting", 1.0)
        groups = ledger.grouped_fractions({"CCD": "closure", "EvalVDW": "scoring"})
        assert groups["closure"] == pytest.approx(0.6)
        assert groups["scoring"] == pytest.approx(0.2)
        assert groups["other"] == pytest.approx(0.2)


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError):
            check_positive("x", 0)
        check_positive("x", 0, strict=False)
        with pytest.raises(ValueError):
            check_positive("x", -1, strict=False)

    def test_check_probability(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", 1.5)
        with pytest.raises(ValueError):
            check_probability("p", -0.1)

    def test_check_shape_exact_and_wildcard(self):
        arr = np.zeros((3, 4))
        check_shape("arr", arr, (3, 4))
        check_shape("arr", arr, (-1, 4))
        with pytest.raises(ValueError):
            check_shape("arr", arr, (3, 5))
        with pytest.raises(ValueError):
            check_shape("arr", arr, (3, 4, 1))

    def test_check_angle_array(self):
        out = check_angle_array("angles", [0.1, 0.2])
        assert out.dtype == np.float64
        with pytest.raises(ValueError):
            check_angle_array("angles", [np.nan])
        with pytest.raises(ValueError):
            check_angle_array("angles", [np.inf])


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger().name == "repro"
        assert get_logger("scoring").name == "repro.scoring"
        assert get_logger("repro.moscem").name == "repro.moscem"

    def test_configure_logging_idempotent(self):
        configure_logging(logging.DEBUG)
        configure_logging(logging.DEBUG)
        logger = logging.getLogger("repro")
        assert len(logger.handlers) == 1
        assert logger.level == logging.DEBUG
