"""Property tests of the policy kernel: on random inputs every row equals
the scalar oracle, and the outcomes obey the model's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from endgame import balls_bins as bb
from endgame import bins_engine as be


@st.composite
def kernel_cases(draw):
    """A policy, (N, q, stop), a root seed and up to 16 rows of arrivals
    drawn from the streams ``(seed, "prop", row)``.  Some cases take N
    above 127, where ``preferred`` and the pairs are int16."""
    stop = draw(st.none() | st.integers(1, 60))
    N = draw(st.integers(2, 8) | st.integers(128, 200))
    q = draw(st.floats(0.05, 1.0))
    T = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**20))
    spec = bb.PolicySpec(kind=draw(st.sampled_from(bb.POLICY_KINDS)),
                         a_s=draw(st.floats(0.0, 3.0)),
                         a_d=draw(st.floats(0.0, 3.0)),
                         latched=draw(st.booleans()))
    rows = [oracle.draw(seed, N, q, T, "prop", row=row)
            for row in range(draw(st.integers(1, 16)))]
    return spec, N, q, stop, seed, rows


@pytest.mark.parametrize("chunk", [be._CHUNK, 7])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=kernel_cases())
def test_kernel_matches_oracle_and_invariants(chunk, case):
    with pytest.MonkeyPatch.context() as mp:
        # a narrow chunk puts events and stops across chunk boundaries
        mp.setattr(be, "_CHUNK", chunk)
        check_case(case)


@pytest.mark.parametrize("seg,chunk", [(1, 7), (3, 7), (3, be._CHUNK),
                                       (be._CHUNK, 7),
                                       (be._CHUNK, be._CHUNK)])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=kernel_cases())
def test_kernel_matches_oracle_at_segment_widths(seg, chunk, case):
    """The trigger search steps through the segments its bound cannot
    rule out; one-period segments, segments that do not divide the chunk
    and one segment per chunk find the same periods."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(be, "_SEG", seg)
        mp.setattr(be, "_CHUNK", chunk)
        check_case(case)


def check_case(case):
    spec, N, q, stop, seed, rows = case
    T = len(rows[0])
    with pytest.MonkeyPatch.context() as mp:
        # a small slab budget places rows in slices and, at large N,
        # narrows the chunks
        mp.setattr(be, "_SLAB", 16384, raising=False)
        # the oracle's rows as a block, and a block drawn on the rows'
        # own streams
        outs = [be.lockstep(spec, N, q, oracle.stack_arrivals(rows, spec),
                            stop),
                be.run_blocks([spec], N, q, T, len(rows), seed, ("prop",),
                              bb.draw_raw_arrays, stop)[0]]
    refs = [oracle.run(spec, N, q, arrivals, stop) for arrivals in rows]
    for out in outs:
        for r, (arrivals, ref) in enumerate(zip(rows, refs)):
            assert np.array_equal(out.loads[r], ref.loads)
            assert out.flex_count[r] == ref.flex_count
            assert out.first_trigger[r] == (-1 if ref.first_trigger is None
                                            else ref.first_trigger)
            assert out.stop_time[r] == ref.stop_time
            ran = int(out.stop_time[r])
            assert out.loads[r].sum() == ran
            assert out.loads[r].max() - ran / N >= 0
            assert out.flex_count[r] <= arrivals.is_flex[:ran].sum()
            if spec.kind == bb.NO_FLEX:
                assert np.array_equal(
                    out.loads[r],
                    np.bincount(arrivals.preferred[:ran], minlength=N))
