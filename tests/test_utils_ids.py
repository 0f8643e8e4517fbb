"""Tests for repro.utils.ids."""

import threading

import pytest

from repro.utils.ids import generate_id, reserve_id_block, reset_id_counters


def test_ids_are_sequential_per_namespace():
    reset_id_counters("seq-test")
    assert generate_id("seq-test") == "seq-test.0000"
    assert generate_id("seq-test") == "seq-test.0001"


def test_namespaces_are_independent():
    reset_id_counters("ns-a")
    reset_id_counters("ns-b")
    generate_id("ns-a")
    assert generate_id("ns-b") == "ns-b.0000"


def test_width_controls_padding():
    reset_id_counters("wide")
    assert generate_id("wide", width=6) == "wide.000000"


def test_counter_grows_past_padding():
    reset_id_counters("overflow")
    for _ in range(10_000):
        last = generate_id("overflow")
    assert last == "overflow.9999"
    assert generate_id("overflow") == "overflow.10000"


def test_blocks_interleaved_with_single_ids_match_one_id_each():
    """A block of n serials is exactly what n generate_id calls would
    have taken, so later ids continue the same sequence."""
    reset_id_counters("block")
    reset_id_counters("single")
    serials = []
    for n in (3, 1, 5, 2):
        first = reserve_id_block("block", n)
        serials.extend(range(first, first + n))
        serials.append(int(generate_id("block").rpartition(".")[2]))
    expected = [int(generate_id("single").rpartition(".")[2])
                for _ in serials]
    assert serials == expected == list(range(15))


def test_reserve_id_block_rejects_empty_blocks():
    with pytest.raises(ValueError):
        reserve_id_block("block-empty", 0)
    with pytest.raises(ValueError):
        reserve_id_block("", 1)


def test_empty_namespace_rejected():
    with pytest.raises(ValueError):
        generate_id("")


def test_reset_all_counters():
    generate_id("reset-all-x")
    generate_id("reset-all-y")
    reset_id_counters()
    assert generate_id("reset-all-x").endswith(".0000")
    assert generate_id("reset-all-y").endswith(".0000")


def test_thread_safety_no_duplicates():
    reset_id_counters("threads")
    ids: list[str] = []
    lock = threading.Lock()

    def worker():
        for _ in range(200):
            uid = generate_id("threads")
            with lock:
                ids.append(uid)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(ids) == len(set(ids)) == 1600
