"""Model-based property testing of the simulated heap.

A reference model (plain dicts) tracks what a correct C program would
see; random in-bounds operation sequences against the simulated heap
must agree with the model exactly, under every layout seed.  This is the
load-bearing guarantee for the whole evaluation: subjects only misbehave
when they actually commit a memory error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmem.errors import SimSegfault
from repro.simmem.heap import SimHeap


@st.composite
def _operation_sequences(draw):
    """A random schedule of malloc/write/read/free operations."""
    n_ops = draw(st.integers(5, 40))
    ops = []
    n_allocs = 0
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["malloc", "write", "read", "free"]))
        if kind == "malloc":
            ops.append(("malloc", draw(st.integers(1, 16))))
            n_allocs += 1
        elif n_allocs == 0:
            continue
        elif kind == "write":
            ops.append(
                (
                    "write",
                    draw(st.integers(0, n_allocs - 1)),
                    draw(st.integers(0, 200)),
                    draw(st.integers(-(2 ** 30), 2 ** 30)),
                )
            )
        elif kind == "read":
            ops.append(("read", draw(st.integers(0, n_allocs - 1)), draw(st.integers(0, 200))))
        else:
            ops.append(("free", draw(st.integers(0, n_allocs - 1))))
    return ops


class TestAgainstModel:
    @settings(max_examples=80, deadline=None)
    @given(ops=_operation_sequences(), seed=st.integers(0, 10 ** 6))
    def test_in_bounds_behaviour_matches_reference_model(self, ops, seed):
        heap = SimHeap(seed=seed)
        buffers = []
        model = []  # list of dict|None (None = freed)

        for op in ops:
            if op[0] == "malloc":
                buf = heap.malloc(op[1])
                buffers.append(buf)
                model.append({})
            elif op[0] == "write":
                _, idx, offset, value = op
                if model[idx] is None:
                    with pytest.raises(SimSegfault):
                        buffers[idx].write(offset % len(buffers[idx]), value)
                    continue
                offset = offset % len(buffers[idx])
                buffers[idx].write(offset, value)
                model[idx][offset] = value
            elif op[0] == "read":
                _, idx, offset = op
                if model[idx] is None:
                    with pytest.raises(SimSegfault):
                        buffers[idx].read(offset % len(buffers[idx]))
                    continue
                offset = offset % len(buffers[idx])
                if offset in model[idx]:
                    assert buffers[idx].read(offset) == model[idx][offset]
            else:
                _, idx = op
                if model[idx] is None:
                    continue  # double free would raise; skip in model test
                heap.free(buffers[idx])
                model[idx] = None

        assert heap.metadata_intact()

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 12), min_size=2, max_size=8),
        victim=st.integers(0, 7),
        seed=st.integers(0, 500),
    )
    def test_oob_writes_never_touch_nonadjacent_data(self, sizes, victim, seed):
        """A one-cell overrun can only affect the very next region, never
        buffers further away."""
        heap = SimHeap(seed=seed)
        bufs = [heap.malloc(n) for n in sizes]
        for k, buf in enumerate(bufs):
            for i in range(len(buf)):
                buf.write(i, k * 100 + i)
        victim = victim % (len(bufs) - 1)
        try:
            bufs[victim].write(len(bufs[victim]), -1)  # one past the end
        except SimSegfault:
            return
        # Buffers other than the immediate successor are untouched.
        for k, buf in enumerate(bufs):
            if k in (victim, victim + 1):
                continue
            assert buf.to_list() == [k * 100 + i for i in range(len(buf))]
