import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from inhomk.qmc import ball_points_weighted, ball_shell_points, direction_dims


@st.composite
def stratum_batches(draw):
    dim = draw(st.integers(1, 3))
    vdims = 1 + direction_dims(dim)
    offset = draw(st.integers(0, 20 - vdims))
    strata = np.array(draw(st.lists(st.integers(0, 7 * 4096 - 1), min_size=1, max_size=6)))
    radii = np.array(
        draw(st.lists(
            st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(sorted),
            min_size=len(strata), max_size=len(strata),
        ))
    )
    count = draw(st.integers(1, 40))
    return dim, offset, strata, radii[:, 0], radii[:, 1], count


@settings(max_examples=60, deadline=None)
@given(stratum_batches())
def test_stacked_draws_equal_concatenated_single_strata(batch):
    # Batching must not move any point: seeded covariance blocks rely on it.
    dim, offset, strata, r_in, r_out, count = batch
    shells = ball_shell_points(count, dim, r_in, r_out, strata, dim_offset=offset)
    assert shells.shape == (len(strata) * count, dim)
    single = [
        ball_shell_points(count, dim, r_in[s : s + 1], r_out[s : s + 1], strata[s : s + 1],
                          dim_offset=offset)
        for s in range(len(strata))
    ]
    np.testing.assert_array_equal(shells, np.concatenate(single))

    points, weights = ball_points_weighted(count, dim, 1.5, strata, dim_offset=offset)
    assert points.shape == (len(strata) * count, dim) and weights.shape == (len(points),)
    single = [
        ball_points_weighted(count, dim, 1.5, strata[s : s + 1], dim_offset=offset)
        for s in range(len(strata))
    ]
    np.testing.assert_array_equal(points, np.concatenate([p for p, _ in single]))
    np.testing.assert_array_equal(weights, np.concatenate([w for _, w in single]))


def test_shell_points_stay_in_their_shells():
    strata = np.array([3, 4096 + 7, 5 * 4096])
    r_in, r_out = np.array([0.0, 0.5, 1.0]), np.array([0.5, 1.0, 1.5])
    for dim in (1, 2, 3):
        pts = ball_shell_points(64, dim, r_in, r_out, strata)
        norms = np.linalg.norm(pts, axis=1).reshape(3, 64)
        assert np.all(norms > r_in[:, None] - 1e-12) and np.all(norms <= r_out[:, None] + 1e-12)
