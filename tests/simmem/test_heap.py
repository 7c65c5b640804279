"""Tests for the simulated C heap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmem.errors import SimDoubleFree, SimOutOfMemory, SimSegfault
from repro.simmem.heap import NULL, SimHeap, memcpy


class TestBasicAllocation:
    def test_write_read_roundtrip(self):
        heap = SimHeap(seed=1)
        buf = heap.malloc(8)
        for i in range(8):
            buf.write(i, i * i)
        assert buf.to_list() == [i * i for i in range(8)]

    def test_calloc_zero_fills(self):
        heap = SimHeap(seed=1)
        buf = heap.calloc(5)
        assert buf.to_list() == [0, 0, 0, 0, 0]

    def test_uninitialised_reads_return_garbage_not_crash(self):
        heap = SimHeap(seed=1)
        buf = heap.malloc(3)
        value = buf.read(0)
        assert isinstance(value, int)

    def test_len_and_bool(self):
        heap = SimHeap(seed=1)
        buf = heap.malloc(4)
        assert len(buf) == 4
        assert bool(buf)
        assert not NULL
        assert len(NULL) == 0

    def test_negative_malloc_segfaults(self):
        heap = SimHeap(seed=1)
        with pytest.raises(SimSegfault):
            heap.malloc(-1)

    def test_capacity_exhaustion(self):
        heap = SimHeap(seed=1, capacity=64)
        with pytest.raises(SimOutOfMemory):
            for _ in range(100):
                heap.malloc(8)

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 20), min_size=1, max_size=10),
        seed=st.integers(0, 1000),
    )
    def test_in_bounds_writes_never_interfere(self, sizes, seed):
        """Integrity property: with only in-bounds access, every buffer
        keeps exactly its own data, whatever the layout."""
        heap = SimHeap(seed=seed)
        bufs = [heap.malloc(n) for n in sizes]
        for k, buf in enumerate(bufs):
            for i in range(len(buf)):
                buf.write(i, k * 1000 + i)
        for k, buf in enumerate(bufs):
            assert buf.to_list() == [k * 1000 + i for i in range(len(buf))]
        assert heap.metadata_intact()


class TestNullAndFree:
    def test_null_dereference_segfaults(self):
        with pytest.raises(SimSegfault):
            NULL.read(0)
        with pytest.raises(SimSegfault):
            NULL.write(0, 1)

    def test_free_null_is_noop(self):
        heap = SimHeap(seed=1)
        heap.free(NULL)

    def test_double_free_detected(self):
        heap = SimHeap(seed=1)
        buf = heap.malloc(4)
        heap.free(buf)
        with pytest.raises(SimDoubleFree):
            heap.free(buf)

    def test_use_after_free_segfaults(self):
        heap = SimHeap(seed=1)
        buf = heap.malloc(4)
        heap.free(buf)
        with pytest.raises(SimSegfault):
            buf.read(0)
        with pytest.raises(SimSegfault):
            buf.write(0, 1)

    def test_free_of_garbage_segfaults(self):
        heap = SimHeap(seed=1)
        with pytest.raises(SimSegfault):
            heap.free(42)


class TestOutOfBounds:
    def test_wild_access_far_outside_heap_segfaults(self):
        heap = SimHeap(seed=1)
        buf = heap.malloc(4)
        with pytest.raises(SimSegfault):
            buf.write(100000, 1)
        with pytest.raises(SimSegfault):
            buf.read(-100000)

    def test_small_overrun_into_trailing_space_is_silent(self):
        heap = SimHeap(seed=1)
        buf = heap.malloc(4)  # last allocation: nothing after it
        buf.write(4 + heap.max_pad + 1, 7)  # beyond own pad, still in-range
        assert heap.metadata_intact() or True  # no exception is the point

    def test_overrun_can_corrupt_neighbour_silently(self):
        """With zero padding the next allocation's first cell follows the
        previous allocation's header; index size+1 lands on it."""
        heap = SimHeap(seed=1, max_pad=0)
        a = heap.malloc(4)
        b = heap.malloc(4)
        b.write(0, 111)
        a.write(5, 999)  # a[4] = b's header, a[5] = b[0]
        assert b.read(0) == 999

    def test_header_corruption_defers_crash_to_free(self):
        heap = SimHeap(seed=1, max_pad=0)
        a = heap.malloc(4)
        b = heap.malloc(4)
        a.write(4, 123)  # exactly b's header cell
        assert not heap.metadata_intact()
        with pytest.raises(SimSegfault):
            heap.free(b)

    def test_header_corruption_defers_crash_to_malloc(self):
        heap = SimHeap(seed=1, max_pad=0)
        a = heap.malloc(4)
        heap.malloc(4)
        a.write(4, 123)
        with pytest.raises(SimSegfault):
            heap.malloc(2)  # the allocator walks the corrupted heap

    def test_oob_read_of_live_neighbour_sees_its_data(self):
        heap = SimHeap(seed=1, max_pad=0)
        a = heap.malloc(2)
        b = heap.malloc(2)
        b.write(0, 55)
        assert a.read(3) == 55  # a[2]=header, a[3]=b[0]


class TestOomInjection:
    def test_injection_only_on_can_fail_sites(self):
        heap = SimHeap(seed=1, oom_rate=1.0)
        assert heap.malloc(4) is not NULL  # robust site
        assert heap.malloc(4, True) is NULL  # injectable site

    def test_no_injection_when_rate_zero(self):
        heap = SimHeap(seed=1, oom_rate=0.0)
        for _ in range(50):
            assert heap.malloc(1, True) is not NULL


class TestMemcpy:
    def test_copies_cells(self):
        heap = SimHeap(seed=1)
        src = heap.malloc(4)
        dst = heap.malloc(4)
        for i in range(4):
            src.write(i, i + 1)
        memcpy(dst, src, 4)
        assert dst.to_list() == [1, 2, 3, 4]

    def test_null_source_segfaults(self):
        heap = SimHeap(seed=1)
        dst = heap.malloc(4)
        with pytest.raises(SimSegfault):
            memcpy(dst, NULL, 4)

    def test_freed_source_segfaults(self):
        heap = SimHeap(seed=1)
        src = heap.malloc(4)
        dst = heap.malloc(4)
        heap.free(src)
        with pytest.raises(SimSegfault):
            memcpy(dst, src, 1)

    def test_non_pointer_segfaults(self):
        heap = SimHeap(seed=1)
        dst = heap.malloc(4)
        with pytest.raises(SimSegfault):
            memcpy(dst, [1, 2, 3], 3)


class TestLayoutRandomisation:
    def test_layouts_differ_across_seeds(self):
        bases = set()
        for seed in range(20):
            heap = SimHeap(seed=seed)
            heap.malloc(4)
            second = heap.malloc(4)
            bases.add(second.base)
        assert len(bases) > 1

    def test_same_seed_same_layout(self):
        def layout(seed):
            heap = SimHeap(seed=seed)
            return [heap.malloc(3).base for _ in range(5)]

        assert layout(9) == layout(9)

    def test_live_allocation_count(self):
        heap = SimHeap(seed=1)
        a = heap.malloc(2)
        b = heap.malloc(2)
        assert heap.live_allocations() == 2
        heap.free(a)
        assert heap.live_allocations() == 1
