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
    """A policy, (N, q, stop) and a few rows of drawn arrivals; N = 1 only
    with a stop level (the single-product opaque cycle)."""
    stop = draw(st.none() | st.integers(1, 60))
    N = draw(st.integers(1 if stop is not None else 2, 8))
    q = draw(st.floats(0.05, 1.0))
    T = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**20))
    spec = bb.PolicySpec(kind=draw(st.sampled_from(bb.POLICY_KINDS)),
                         a_s=draw(st.floats(0.0, 3.0)),
                         a_d=draw(st.floats(0.0, 3.0)),
                         latched=draw(st.booleans()))
    rows = [bb.draw_raw_arrays(seed, N, q, T, "prop", row)
            for row in range(draw(st.integers(1, 4)))]
    return spec, N, q, stop, rows


@pytest.mark.parametrize("chunk", [be._CHUNK, 7])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=kernel_cases())
def test_kernel_matches_oracle_and_invariants(chunk, case):
    spec, N, q, stop, rows = case
    T = len(rows[0])
    with pytest.MonkeyPatch.context() as mp:
        # a narrow chunk puts events and stops across chunk boundaries
        mp.setattr(be, "_CHUNK", chunk)
        # the uniforms of exert_u, and the bool decisions of a block
        outs = [be.lockstep(spec, N, q, oracle.stack_arrivals(rows), stop),
                be.run_blocks([spec], N, q, T, len(rows),
                              lambda row, exert: rows[row], stop)[0]]
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
