import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from inhomk.asymcov import (
    POISSON_DENSITIES,
    QuadratureConfig,
    poisson_blocks,
    poisson_cov_matrix,
    sigma_blocks_constant,
)
from inhomk.geometry import (
    PointPattern,
    Window,
    _cells_per_axis,
    close_pairs,
    overlap_volume,
    scan_rows,
)
from inhomk.gof import GofConfig, PoissonNullTables
from inhomk.intensity import ConstantIntensity
from inhomk.kstat import RadiusGrid, k_hat
from inhomk.limitlaw import simulate_sup
from inhomk.simulate import MaternParams, simulate_poisson, simulate_poisson_inhom
from inhomk.study import StudyConfig


def brute_force_pairs(points, rmax):
    """O(n^2) oracle: all ordered pairs with 0 < dist <= rmax, where dist is the
    float distance ``sqrt(dist2)`` and dist2 the einsum norm, as the scan computes them."""
    n, dim = points.shape
    diff = (points[:, None, :] - points[None, :, :]).reshape(-1, dim)
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff)).reshape(n, n)
    i, j = np.nonzero((dist > 0.0) & (dist <= rmax))
    return set(zip(i.tolist(), j.tolist()))


def assert_pair_arithmetic(pairs, points):
    """``disp`` and ``dist`` are bitwise the difference and einsum norm of the stored ends."""
    disp = points[pairs.i] - points[pairs.j]
    np.testing.assert_array_equal(pairs.disp, disp, strict=True)
    np.testing.assert_array_equal(
        pairs.dist, np.sqrt(np.einsum("ij,ij->i", disp, disp)), strict=True
    )


def mirrored(pairs):
    """Both orders of every stored pair; no unordered pair may be stored twice."""
    stored = list(zip(pairs.i.tolist(), pairs.j.tolist()))
    assert len({frozenset(pair) for pair in stored}) == len(stored)
    return set(stored) | {(j, i) for i, j in stored}


def reference_scan(batch, rmax):
    """``close_pairs`` with the range step it had before the segment index.

    The cell keys are built as ``close_pairs`` builds them; then each range
    start is clipped to the point's sorted position plus one, negative counts
    are clipped to zero, and two ``np.repeat`` expand the ranges. Returns
    ``(i, j, disp, dist)`` in that scan's order.
    """
    pts = np.concatenate([p.points for p in batch])
    (n, d), side, groups = pts.shape, batch[0].window.side, len(batch)
    ncells = _cells_per_axis(side, rmax, d, n, groups)
    span = ncells + 2
    nkeys = groups * span**d
    width = side / ncells * (1.0 + 2.0**-44 * (ncells + 1))
    keys = np.repeat(np.arange(groups, dtype=np.min_scalar_type(nkeys)), [len(p) for p in batch])
    for col in pts.T:
        cell = ((col + side / 2.0) / width).astype(keys.dtype)
        keys = keys * span + np.minimum(cell, ncells - 1) + 1
    order = np.argsort(keys, kind="stable")
    keys = keys[order].astype(np.int64)
    starts = np.zeros(nkeys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=nkeys), out=starts[1:])
    if ncells > 1:
        lead = np.array(list(product((-1, 0, 1), repeat=d - 1))[-scan_rows(d) :], dtype=np.int64)
    else:
        lead = np.zeros((1, d - 1), dtype=np.int64)
    rows = keys[:, None] + lead @ span ** np.arange(d - 1, 0, -1, dtype=np.int64)
    lo = np.maximum(starts[rows - 1], np.arange(1, n + 1)[:, None])
    counts = np.maximum(starts[rows + 2] - lo, 0).ravel()
    first = np.repeat(lo.ravel() - (np.cumsum(counts) - counts), counts)
    pos_a = np.repeat(np.arange(n).repeat(len(lead)), counts)
    pos_b = first + np.arange(len(first))
    i, j = order[pos_a], order[pos_b]
    disp = pts[i] - pts[j]
    dist2 = np.einsum("ij,ij->i", disp, disp)
    keep = (dist2 > 0.0) & (dist2 <= rmax * rmax)
    return i[keep], j[keep], disp[keep], np.sqrt(dist2[keep])


def assert_reference_order(batch, rmax):
    """``close_pairs`` returns bitwise the reference scan's pairs, in its order."""
    pairs = close_pairs(batch, rmax)
    for got, want in zip((pairs.i, pairs.j, pairs.disp, pairs.dist), reference_scan(batch, rmax)):
        np.testing.assert_array_equal(got, want, strict=True)
    return pairs


def test_window_volume():
    assert Window(2, 1.0).volume == 1.0
    assert Window(3, 2.0).volume == 8.0
    with pytest.raises(ValueError):
        Window(2, 0.0)
    with pytest.raises(ValueError):
        Window(0, 1.0)


W1 = Window(2, 1.0)
GRID5 = RadiusGrid.uniform(0.05, 5)
TABLES = PoissonNullTables(GRID5, 100, 1)

# (parameter name, call taking the value): every entry point that takes an
# intensity, a window side or a radius.
POSITIVE_PARAMETERS = {
    "Window.side": ("side", lambda v: Window(2, v)),
    "RadiusGrid.uniform": ("rmax", lambda v: RadiusGrid.uniform(v, 5)),
    "RadiusGrid": ("rmax", lambda v: RadiusGrid([0.01, v])),
    "ConstantIntensity": ("beta", lambda v: ConstantIntensity(v)),
    "MaternParams.kappa": ("kappa", lambda v: MaternParams(v, 8.0, 0.2)),
    "MaternParams.mu": ("mu", lambda v: MaternParams(25.0, v, 0.2)),
    "MaternParams.rdisp": ("rdisp", lambda v: MaternParams(25.0, 8.0, v)),
    "simulate_poisson": ("rho", lambda v: simulate_poisson(v, W1, 0)),
    "simulate_poisson_inhom": (
        "rho_max", lambda v: simulate_poisson_inhom(ConstantIntensity(1.0), v, W1, 0)
    ),
    "QuadratureConfig": ("r_trunc", lambda v: QuadratureConfig(r_trunc=v)),
    "poisson_cov_matrix": ("rho", lambda v: poisson_cov_matrix(GRID5, v, "known")),
    "poisson_blocks": ("beta", lambda v: poisson_blocks(v, GRID5)),
    "estimated_draws": ("rho", lambda v: TABLES.estimated_draws(v)),
    "known_draws": ("rho", lambda v: TABLES.known_draws(v)),
    "sigma_blocks_constant": (
        "beta", lambda v: sigma_blocks_constant(POISSON_DENSITIES, v, GRID5)
    ),
    "GofConfig.R": ("R", lambda v: GofConfig(R=v)),
    "StudyConfig.rho": ("rho", lambda v: StudyConfig(rho=v)),
    "StudyConfig.R": ("R", lambda v: StudyConfig(R=v)),
    "StudyConfig.sides": ("side", lambda v: StudyConfig(sides=(1.0, v))),
}


# (parameter name, call taking the value): counts, sizes, dimensions and seeds.
INTEGER_PARAMETERS = {
    "Window.dim": ("dim", lambda v: Window(v, 1.0)),
    "GofConfig.grid_size": ("grid_size", lambda v: GofConfig(grid_size=v)),
    "GofConfig.sample_size": ("sample_size", lambda v: GofConfig(sample_size=v)),
    "GofConfig.seed": ("seed", lambda v: GofConfig(seed=v)),
    "QuadratureConfig.samples": ("samples", lambda v: QuadratureConfig(samples=v)),
    "StudyConfig.grid_size": ("grid_size", lambda v: StudyConfig(grid_size=v)),
    "StudyConfig.sample_size": ("sample_size", lambda v: StudyConfig(sample_size=v)),
    "RadiusGrid.uniform": ("grid_size", lambda v: RadiusGrid.uniform(0.05, v)),
    "simulate_sup": ("count", lambda v: simulate_sup(np.eye(2), v, 0)),
}


@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("site", list(POSITIVE_PARAMETERS))
def test_positive_parameters_must_be_finite(site, value):
    name, call = POSITIVE_PARAMETERS[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got "):
            call(value)


# A JSON true is a Python int, and a numeric string is no number.
@pytest.mark.parametrize("value", [True, False, "1"])
@pytest.mark.parametrize("site", list(POSITIVE_PARAMETERS))
def test_positive_parameters_must_be_numbers(site, value):
    name, call = POSITIVE_PARAMETERS[site]
    with pytest.raises(ValueError, match=f"^{name} must be a number$"):
        call(value)


# Python integers are unbounded; one beyond the float range is an input error,
# not the OverflowError of its first conversion to float.
@pytest.mark.parametrize("value", [10**400, -(10**400)])
@pytest.mark.parametrize("site", list(POSITIVE_PARAMETERS))
def test_positive_parameters_beyond_float_range(site, value):
    name, call = POSITIVE_PARAMETERS[site]
    with pytest.raises(ValueError, match=f"^{name} is outside the float range$"):
        call(value)


@pytest.mark.parametrize("value", [True, 2.0, 500.5, "2", None])
@pytest.mark.parametrize("site", list(INTEGER_PARAMETERS))
def test_integer_parameters_refuse_booleans_and_fractions(site, value):
    name, call = INTEGER_PARAMETERS[site]
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        call(value)


# The float-range rule of check_positive holds for counts too: a huge count
# would otherwise reach an OverflowError or numpy's unnamed size error.
@pytest.mark.parametrize("value", [10**400, -(10**400)])
@pytest.mark.parametrize("site", list(INTEGER_PARAMETERS))
def test_integer_parameters_beyond_float_range(site, value):
    name, call = INTEGER_PARAMETERS[site]
    with pytest.raises(ValueError, match=f"^{name} is outside the float range$"):
        call(value)


def test_pattern_rejects_outside_points():
    with pytest.raises(ValueError, match="outside"):
        PointPattern(Window(2, 1.0), [[0.6, 0.0]])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("side", [1.0, 0.7, 2.0 / 3.0, 5e-3])
def test_pattern_accepts_window_faces_and_refuses_one_ulp_beyond(dim, side):
    # Every corner lies on a face of each axis: side / 2 is in, one ulp out is not.
    window, half = Window(dim, side), side / 2.0
    corners = np.array(list(product((-half, half), repeat=dim)))
    np.testing.assert_array_equal(PointPattern(window, corners).points, corners)
    for corner in corners:
        for axis in range(dim):
            beyond = corner.copy()
            beyond[axis] = np.nextafter(corner[axis], np.copysign(np.inf, corner[axis]))
            with pytest.raises(ValueError, match="outside"):
                PointPattern(window, [beyond])


def test_pattern_rejects_non_finite_points():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            PointPattern(Window(2, 1.0), [[0.1, 0.1], [bad, 0.0]])
    # two NaN rows used to pass the duplicate check too
    with pytest.raises(ValueError, match="finite"):
        PointPattern(Window(2, 1.0), [[np.nan, 0.0], [np.nan, 0.0]])


def test_pattern_rejects_duplicates():
    with pytest.raises(ValueError, match="simple"):
        PointPattern(Window(2, 1.0), [[0.1, 0.1], [0.1, 0.1]])
    # near-duplicates are fine
    PointPattern(Window(2, 1.0), [[0.1, 0.1], [0.1, 0.1 + 1e-12]])


def test_duplicate_check_on_tied_first_coordinates():
    # Tied first coordinates send the check on to whole rows.
    plane = Window(2, 1.0)
    PointPattern(plane, [[0.1, 0.0], [0.1, 0.2], [0.1, -0.2]])
    with pytest.raises(ValueError, match="simple"):
        PointPattern(plane, [[0.1, 0.0], [0.1, 0.2], [0.1, -0.0]])
    with pytest.raises(ValueError, match="simple"):
        PointPattern(Window(3, 1.0), [[-0.0, 0.1, 0.0], [0.0, 0.2, 0.0], [0.0, 0.1, -0.0]])
    with pytest.raises(ValueError, match="finite"):
        PointPattern(plane, [[0.1, np.nan], [0.1, np.nan]])
    # In one dimension the first coordinate is the whole point.
    line = Window(1, 1.0)
    PointPattern(line, [[0.0], [0.3], [-0.3]])
    with pytest.raises(ValueError, match="simple"):
        PointPattern(line, [[0.0], [0.3], [-0.0]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 3),
    n=st.integers(2, 30),
    levels=st.integers(1, 4),
    first=st.sampled_from([0.0, 0.25]),
    seed=st.integers(0, 2**16),
)
def test_duplicate_verdict_with_all_first_coordinates_tied(dim, n, levels, first, seed):
    # Every first coordinate ties, so the whole-row comparison decides; -0.0
    # and 0.0 mix in every coordinate, the first one included when it is zero.
    rng = np.random.default_rng(seed)
    pts = rng.integers(-levels, levels + 1, size=(n, dim)) / (2.0 * levels + 1)
    pts[:, 0] = first
    flip = rng.random(pts.shape) < 0.5
    flip[:, 0] &= first == 0.0
    pts[flip] *= -1.0
    simple = len(np.unique(pts, axis=0)) == n
    try:
        PointPattern(Window(dim, 1.0), pts)
    except ValueError as err:
        assert "simple" in str(err) and not simple
    else:
        assert simple


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 3),
    n=st.integers(0, 40),
    levels=st.integers(1, 4),
    signed_zero=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_duplicate_verdict_matches_unique(dim, n, levels, signed_zero, seed):
    # Points on a coarse lattice collide often; -0.0 must count as 0.0.
    rng = np.random.default_rng(seed)
    pts = rng.integers(-levels, levels + 1, size=(n, dim)) / (2.0 * levels + 1)
    if signed_zero:
        pts[rng.random(pts.shape) < 0.5] *= -1.0
    simple = len(np.unique(pts, axis=0)) == n
    try:
        PointPattern(Window(dim, 1.0), pts)
    except ValueError as err:
        assert "simple" in str(err) and not simple
    else:
        assert simple


def test_overlap_volume_examples():
    assert overlap_volume(Window(2, 1.0), (0.0, 0.0)) == 1.0
    assert overlap_volume(Window(2, 1.0), (0.05, 0.0)) == pytest.approx(0.95)
    assert overlap_volume(Window(2, 2.0), (2.5, 0.0)) == 0.0


def test_overlap_volume_vectorized():
    w = Window(2, 1.0)
    h = np.array([[0.0, 0.0], [0.5, 0.5], [1.2, 0.0]])
    np.testing.assert_allclose(overlap_volume(w, h), [1.0, 0.25, 0.0])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_overlap_volume_matches_row_product(dim):
    # Axis by axis, left to right, as prod(axis=-1): the same bits.
    w = Window(dim, 1.5)
    h = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(400, dim))
    h[::7, -1] = 1.5  # a component at the side: zero overlap
    h[::5, 0] = -0.0
    want = np.prod(np.maximum(w.side - np.abs(h), 0.0), axis=-1)
    got = overlap_volume(w, h)
    assert got.tobytes() == want.tobytes() and (got == 0.0).any() and (got > 0.0).any()
    stacked = overlap_volume(w, h.reshape(4, 100, dim))
    assert stacked.shape == (4, 100) and stacked.tobytes() == want.tobytes()
    for row, value in zip(h[:40], want[:40]):
        one = overlap_volume(w, row)
        assert type(one) is float and one == value


@given(
    side=st.floats(0.1, 10.0),
    h1=st.floats(-12.0, 12.0),
    h2=st.floats(-12.0, 12.0),
)
def test_overlap_symmetry(side, h1, h2):
    w = Window(2, side)
    h = np.array([h1, h2])
    assert overlap_volume(w, h) == overlap_volume(w, -h)


def test_close_pairs_two_points():
    pat = PointPattern(Window(2, 1.0), [[0.0, 0.0], [0.03, 0.0]])
    pairs = close_pairs(pat, 0.05)
    assert mirrored(pairs) == {(0, 1), (1, 0)}
    np.testing.assert_allclose(pairs.dist, [0.03])


def test_close_pairs_out_of_range():
    pat = PointPattern(Window(2, 1.0), [[0.0, 0.0], [0.3, 0.0]])
    assert len(close_pairs(pat, 0.05)) == 0


def test_close_pairs_rmax_larger_than_window():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.5, 0.5, (40, 2))
    pat = PointPattern(Window(2, 1.0), pts)
    assert mirrored(close_pairs(pat, 5.0)) == brute_force_pairs(pts, 5.0)
    # an infinite search radius is the one non-finite radius allowed: all pairs
    assert mirrored(close_pairs(pat, np.inf)) == brute_force_pairs(pts, 5.0)


def test_close_pairs_sorted_and_symmetric():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.5, 0.5, (150, 2))
    pairs = close_pairs(PointPattern(Window(2, 1.0), pts), 0.1)
    # disp and dist belong to the stored orientation of each pair
    assert mirrored(pairs) == brute_force_pairs(pts, 0.1)
    np.testing.assert_array_equal(pairs.disp, pts[pairs.i] - pts[pairs.j])
    np.testing.assert_allclose(pairs.dist, np.linalg.norm(pairs.disp, axis=1), rtol=1e-15)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_close_pairs_matches_brute_force(data):
    # Dimension and size come from the seed: hypothesis would favor dim 1.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    dim = int(rng.integers(1, 4))
    n = int(rng.integers(2, 121))
    side = data.draw(st.floats(0.2, 4.0))
    frac = data.draw(
        st.one_of(st.floats(0.02, 1.5), st.integers(1, 8).map(lambda k: 1.0 / k))
    )
    rmax = frac * side
    pts = rng.uniform(-side / 2, side / 2, (n, dim))
    if data.draw(st.booleans()):
        # Lattice of spacing rmax from a window corner: points on cell and
        # window faces, and neighbors exactly rmax apart.
        steps = np.round((pts + side / 2) / rmax)
        pts = np.unique(np.minimum(steps * rmax - side / 2, side / 2), axis=0)
    pat = PointPattern(Window(dim, side), pts)
    pairs = close_pairs(pat, rmax)
    assert mirrored(pairs) == brute_force_pairs(pts, rmax)
    # Bitwise, not to a tolerance: a hand-written sum over three axes rounds
    # differently from einsum's, and seeded results would move.
    assert_pair_arithmetic(pairs, pat.points)


def test_close_pairs_three_dimensions():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.5, 0.5, (120, 3))
    pat = PointPattern(Window(3, 1.0), pts)
    assert mirrored(close_pairs(pat, 0.25)) == brute_force_pairs(pts, 0.25)


def test_close_pairs_empty_and_singleton():
    assert len(close_pairs(PointPattern(Window(2, 1.0), np.empty((0, 2))), 0.1)) == 0
    assert len(close_pairs(PointPattern(Window(2, 1.0), [[0.1, 0.2]]), 0.1)) == 0


def test_close_pairs_huge_cell_count():
    # floor(side / rmax) cells per axis would overflow the flat cell index.
    for window, pts in (
        (Window(2, 1e10), [[0.0, 0.0], [0.5, 0.0], [3e9, 1.0]]),
        (Window(3, 1e7), [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
    ):
        pairs = close_pairs(PointPattern(window, pts), 1.0)
        assert mirrored(pairs) == {(0, 1), (1, 0)}


def test_close_pairs_cell_table_stays_linear():
    # floor(side / rmax)**3 = 1e21 cells: the cell-start table must still hold
    # O(n) entries, and the one close pair must be found.
    rng = np.random.default_rng(5)
    pair = [[0.1, 0.2, 0.3], [0.1 + 5e-8, 0.2, 0.3]]
    pts = np.vstack([rng.uniform(-0.5, 0.5, (50, 3)), pair])
    pat = PointPattern(Window(3, 1.0), pts)
    tracemalloc.start()
    try:
        pairs = close_pairs(pat, 1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _cells_per_axis(1.0, 1e-7, 3, len(pts), 1) ** 3 <= 4 * len(pts)
    assert peak < 64 * 1024
    assert mirrored(pairs) == brute_force_pairs(pts, 1e-7) == {(50, 51), (51, 50)}


@pytest.mark.parametrize("dim, rmax", [(1, 0.01), (2, 0.2), (3, 0.4)])
def test_batch_keys_wider_than_16_bits(dim, rmax):
    # Thousands of small patterns need more than 2**16 cell keys, so the keys
    # take a 32-bit dtype; the pairs are still the union of each pattern's own.
    rng = np.random.default_rng(17 + dim)
    window = Window(dim, 1.0)
    batch = [PointPattern(window, rng.uniform(-0.5, 0.5, (k, dim)))
             for k in rng.integers(0, 9, 8000)]
    offsets = np.cumsum([0] + [len(p) for p in batch])
    span = _cells_per_axis(1.0, rmax, dim, offsets[-1], len(batch)) + 2
    assert len(batch) * span**dim > 2**16

    pairs = assert_reference_order(batch, rmax)
    want = set()
    for pattern, first in zip(batch, offsets):
        want |= {(i + first, j + first) for i, j in brute_force_pairs(pattern.points, rmax)}
    assert mirrored(pairs) == want
    assert_pair_arithmetic(pairs, np.concatenate([p.points for p in batch]))


def test_close_pairs_dimension_limit():
    # 3^39 neighbor rows per point: refused before the offset table is built,
    # so the call allocates next to nothing.
    pat = PointPattern(Window(40, 1.0), np.eye(2, 40) / 4)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dimension at most 12, got 40"):
            close_pairs(pat, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    # The limit is the dimension's alone: a single point in d = 13 refuses,
    # and d = 12 still scans.
    with pytest.raises(ValueError, match="got 13"):
        close_pairs(PointPattern(Window(13, 1.0), np.zeros((1, 13))), 0.1)
    pts = np.zeros((3, 12))
    pts[1, 0], pts[2, 11] = 0.05, 0.3
    pairs = close_pairs(PointPattern(Window(12, 1.0), pts), 0.1)
    assert mirrored(pairs) == brute_force_pairs(pts, 0.1) == {(0, 1), (1, 0)}


def test_close_pairs_high_dimension_batch():
    # Dimension 8: 3^7 neighbor rows per point, over many small patterns.
    rng = np.random.default_rng(8)
    window = Window(8, 1.0)
    batch = [PointPattern(window, rng.uniform(-0.5, 0.5, (k, 8)))
             for k in rng.integers(0, 12, 40)]
    offsets = np.cumsum([0] + [len(p) for p in batch])
    pairs = close_pairs(batch, 0.6)
    want = set()
    for pattern, first in zip(batch, offsets):
        want |= {(i + first, j + first) for i, j in brute_force_pairs(pattern.points, 0.6)}
    assert want and mirrored(pairs) == want
    assert_pair_arithmetic(pairs, np.concatenate([p.points for p in batch]))


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 12])
@pytest.mark.parametrize("points, groups", [(1, 1), (50, 1), (2000, 1), (8192, 41), (3000, 3000)])
def test_cell_table_bounded_with_borders(dim, points, groups):
    # The table holds groups * (ncells + 2)**d entries, borders included: at
    # most four per point, unless one cell per axis (3**d per pattern) is more.
    ncells = _cells_per_axis(1.0, 0.05, dim, points, groups)
    assert groups * (ncells + 2) ** dim <= max(4 * points, groups * 3**dim)


@pytest.mark.parametrize("dim", [8, 9, 10, 11, 12])
def test_one_cell_scans_match_brute_force(dim):
    # Few points for the dimension: one cell per axis, so each point reads
    # only its own row. Half the points sit near another, so pairs exist.
    rng = np.random.default_rng(100 + dim)
    window, rmax = Window(dim, 1.0), 0.25
    batch = []
    for k in (0, 1, 40, 120, 7):
        pts = rng.uniform(-0.5, 0.5, (k, dim))
        pts[1::2] = np.clip(pts[: k // 2 * 2 : 2] + rng.normal(0.0, 0.05, (k // 2, dim)), -0.5, 0.5)
        batch.append(PointPattern(window, pts))
    offsets = np.cumsum([0] + [len(p) for p in batch])
    assert _cells_per_axis(1.0, rmax, dim, offsets[-1], len(batch)) == 1
    pairs = assert_reference_order(batch, rmax)
    want = set()
    for pattern, first in zip(batch, offsets):
        want |= {(i + first, j + first) for i, j in brute_force_pairs(pattern.points, rmax)}
    assert want and mirrored(pairs) == want
    assert_pair_arithmetic(pairs, np.concatenate([p.points for p in batch]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_pair_order_matches_reference_scan(data):
    # Dimension and sizes come from the seed: hypothesis would favor dim 1.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    dim = int(rng.integers(1, 5))
    side = data.draw(st.floats(0.2, 4.0))
    frac = data.draw(
        st.one_of(st.floats(0.02, 1.5), st.integers(1, 8).map(lambda k: 1.0 / k))
    )
    rmax = frac * side
    window = Window(dim, side)
    kinds = st.sampled_from(("random", "lattice", "empty", "singleton"))
    batch = []
    for kind in data.draw(st.lists(kinds, min_size=1, max_size=6)):
        n = {"empty": 0, "singleton": 1}.get(kind, int(rng.integers(2, 81)))
        pts = rng.uniform(-side / 2, side / 2, (n, dim))
        if kind == "lattice":
            # neighbors exactly rmax apart, points on cell and window faces
            steps = np.round((pts + side / 2) / rmax)
            pts = np.unique(np.minimum(steps * rmax - side / 2, side / 2), axis=0)
        batch.append(PointPattern(window, pts))
    assert_reference_order(batch, rmax)


def farthest_partner(a, rmax):
    """The largest float ``b`` at float distance ``sqrt((b - a)**2) <= rmax`` from ``a``."""
    lo, hi = a, a + 2.0 * rmax
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            return lo
        if np.sqrt((mid - a) ** 2) <= rmax:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("dim, fillers", [(1, 400), (2, 800), (3, 2700)])
def test_pair_across_a_cell_face_at_rmax_is_found(dim, fillers):
    # The float distance of the two points is at most rmax, and the cells are
    # rmax wide to the last bit: unwidened, rounding put them in cells 6 and 8
    # of 20, and no scanned row reached two cells over.
    rng = np.random.default_rng(0)
    pts = np.zeros((2 + fillers, dim))
    pts[0, 0], pts[1, 0] = -0.15, -0.09999999999999999
    pts[2:] = rng.uniform(-0.5, 0.5, (fillers, dim))
    pts[2:, 0] = rng.uniform(0.2, 0.5, fillers)
    assert (pts[1, 0] - pts[0, 0]) ** 2 <= 0.05 * 0.05
    assert _cells_per_axis(1.0, 0.05, dim, len(pts), 1) == 20
    pairs = close_pairs(PointPattern(Window(dim, 1.0), pts), 0.05)
    assert (0, 1) in mirrored(pairs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_pairs_straddling_cell_faces_match_brute_force(data):
    # A point a few ulps below a cell face of width side / ncells, its partner
    # at the largest float distance <= rmax along one axis, and enough other
    # points that the scan keeps ncells cells per axis.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    dim = int(rng.integers(1, 4))
    ncells = int(rng.integers(2, {1: 40, 2: 12, 3: 5}[dim] + 1))
    side = data.draw(st.floats(0.1, 10.0))
    rmax = side / ncells
    step = data.draw(st.sampled_from((0, 0, -1, 1)))
    if step:
        rmax = float(np.nextafter(rmax, step * np.inf))
    a = -side / 2 + data.draw(st.integers(1, ncells - 1)) * (side / ncells)
    for _ in range(data.draw(st.integers(0, 3))):
        a = float(np.nextafter(a, -np.inf))
    b = farthest_partner(a, rmax)
    assume(b <= side / 2)
    axis = int(rng.integers(dim))
    pts = rng.uniform(-side / 2, side / 2, (2 + -(-((ncells + 2) ** dim) // 4), dim))
    pts[1] = pts[0]
    pts[0, axis], pts[1, axis] = a, b
    pairs = close_pairs(PointPattern(Window(dim, side), pts), rmax)
    assert mirrored(pairs) == brute_force_pairs(pts, rmax)
    assert (0, 1) in mirrored(pairs)


def test_pair_at_float_distance_rmax_counts_on_every_grid():
    # dist2 = 0.0004000000000000001 is an ulp above fl(0.02**2), yet its sqrt
    # is 0.02: the pair is within 0.02, whichever radius the grid ends at.
    pat = PointPattern(Window(2, 1.0), [[0.013, 0.05], [0.025, 0.066]])
    pairs = close_pairs(pat, 0.02)
    assert pairs.dist.tolist() == [0.02] and (pairs.disp**2).sum() > 0.02 * 0.02
    unit = ConstantIntensity(1.0)
    short = k_hat(pat, unit, RadiusGrid.uniform(0.02, 4)).values
    long = k_hat(pat, unit, RadiusGrid.uniform(0.04, 8)).values
    assert short[3] == long[3] > 2.0


# Integer vectors with integer norms (scaled Pythagorean triples), per dimension.
INTEGER_NORMS = {
    1: [((1,), 1)],
    2: [((3, 4), 5), ((5, 12), 13), ((8, 15), 17), ((7, 24), 25), ((20, 21), 29),
        ((12, 35), 37), ((9, 40), 41)],
    3: [((1, 2, 2), 3), ((2, 3, 6), 7), ((1, 4, 8), 9), ((4, 4, 7), 9), ((2, 6, 9), 11),
        ((6, 6, 7), 11)],
}


def pairs_at_rmax(rng, dim, side, rmax, count, nudge):
    """``count`` pairs whose displacement is an integer-norm vector scaled to
    length ``rmax``, in random orientation, each partner coordinate then moved
    by up to ``nudge`` ulps: their dist2 lands on and around fl(rmax**2)."""
    pts = []
    for _ in range(count):
        vector, norm = INTEGER_NORMS[dim][rng.integers(len(INTEGER_NORMS[dim]))]
        step = rng.permutation(vector) * rng.choice((-1.0, 1.0), dim) * (rmax / norm)
        a = rng.uniform(-side / 2 + rmax, side / 2 - rmax, dim)
        b = a + step
        for _ in range(nudge):
            b = np.nextafter(b, b + rng.choice((-1.0, 0.0, 1.0), dim))
        pts += [a, b]
    return np.unique(np.array(pts), axis=0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_pairs_at_rmax_follow_the_float_distance_rule(data):
    # Dimension and sizes come from the seed: hypothesis would favor dim 1.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    dim = int(rng.integers(1, 4))
    side = data.draw(st.floats(0.5, 4.0))
    rmax = data.draw(st.floats(0.001, 0.4)) * side / 2
    pts = pairs_at_rmax(rng, dim, side, rmax, int(rng.integers(1, 40)), int(rng.integers(0, 3)))
    pairs = close_pairs(PointPattern(Window(dim, side), pts), rmax)
    assert mirrored(pairs) == brute_force_pairs(pts, rmax)
    assert_pair_arithmetic(pairs, pts)


@pytest.mark.parametrize("dim", [2, 3])
def test_pairs_above_rounded_rmax_squared_are_kept(dim):
    # dist2 one ulp above fl(rmax**2) whose sqrt is rmax: the rule's edge, which
    # the construction above reaches from two dimensions on (in one, fl(d**2) is
    # monotone in |d|, so dist2 <= fl(rmax**2) is already dist <= rmax).
    rng = np.random.default_rng(dim)
    found = 0
    for rmax in rng.uniform(0.001, 0.2, 150):
        pts = pairs_at_rmax(rng, dim, 1.0, rmax, 20, 1)
        pairs = close_pairs(PointPattern(Window(dim, 1.0), pts), rmax)
        diff = (pts[:, None, :] - pts[None, :, :]).reshape(-1, dim)
        dist2 = np.einsum("ij,ij->i", diff, diff)
        edge = (dist2 > rmax * rmax) & (np.sqrt(dist2) <= rmax)
        found += int(edge.sum())
        assert (pairs.dist <= rmax).all()
        assert mirrored(pairs) == brute_force_pairs(pts, rmax)
    assert found > 0


class Ramp:
    """Intensity ``1.5 + x_1 / side``: distinct per point, computed elementwise."""

    def __init__(self, side):
        self.side = side

    def value(self, points):
        return 1.5 + points[:, 0] / self.side


def brute_force_k(points, window, model, grid):
    """O(n^2) K: per grid radius r, the translation weights over intensity products
    summed over ordered pairs with ``0 < sqrt(dist2) <= r``, dist2 the einsum norm."""
    diff = (points[:, None, :] - points[None, :, :]).reshape(-1, points.shape[1])
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    near = (dist > 0.0) & (dist <= grid.rmax)
    rho = model.value(points)
    weight = 1.0 / (overlap_volume(window, diff[near]) * np.outer(rho, rho).ravel()[near])
    return np.array([weight[dist[near] <= r].sum() for r in grid.values])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_k_counts_pairs_at_every_grid_radius(data):
    # Pairs at float distance on and around an interior grid radius r_k, which
    # the uniform grid computes as rmax * k / m: each counts from r_k on iff its
    # float distance is at most r_k. Dimension and sizes come from the seed.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    dim = int(rng.integers(1, 4))
    side = data.draw(st.floats(0.5, 4.0))
    grid = RadiusGrid.uniform(data.draw(st.floats(0.001, 0.4)) * side / 2, int(rng.integers(2, 60)))
    radius = float(grid.values[rng.integers(grid.m - 1)])
    pts = pairs_at_rmax(rng, dim, side, radius, int(rng.integers(1, 40)), int(rng.integers(0, 3)))
    window, model = Window(dim, side), Ramp(side)
    np.testing.assert_allclose(k_hat(PointPattern(window, pts), model, grid).values,
                               brute_force_k(pts, window, model, grid), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("side", [1.0, 0.7])
@pytest.mark.parametrize("dim, cells", [(1, 40), (2, 12), (3, 6)])
def test_k_hat_on_a_lattice_with_points_on_every_face(dim, cells, side):
    # linspace puts the end nodes exactly on the faces; lattice distances
    # (step times the root of an integer) meet grid radii within ulps.
    half = side / 2.0
    pts = np.array(list(product(np.linspace(-half, half, cells + 1), repeat=dim)))
    assert (pts == -half).any(axis=0).all() and (pts == half).any(axis=0).all()
    window, model = Window(dim, side), Ramp(side)
    grid = RadiusGrid.uniform(3.0 * side / cells, 6)
    np.testing.assert_allclose(k_hat(PointPattern(window, pts), model, grid).values,
                               brute_force_k(pts, window, model, grid), rtol=1e-12, atol=0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_batch_scans_like_each_pattern_alone(data):
    # Dimension and sizes come from the seed: hypothesis would favor dim 1.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    dim = int(rng.integers(1, 4))
    side = data.draw(st.floats(0.2, 4.0))
    frac = data.draw(
        st.one_of(st.floats(0.02, 0.9), st.integers(2, 8).map(lambda k: 1.0 / k))
    )
    rmax = frac * side
    window = Window(dim, side)
    kinds = st.sampled_from(("random", "lattice", "empty", "singleton"))
    batch = []
    for kind in data.draw(st.lists(kinds, min_size=1, max_size=6)):
        n = {"empty": 0, "singleton": 1}.get(kind, int(rng.integers(2, 61)))
        pts = rng.uniform(-side / 2, side / 2, (n, dim))
        if kind == "lattice":
            # neighbors exactly rmax apart, points on cell and window faces
            steps = np.round((pts + side / 2) / rmax)
            pts = np.unique(np.minimum(steps * rmax - side / 2, side / 2), axis=0)
        batch.append(PointPattern(window, pts))
    offsets = np.cumsum([0] + [len(p) for p in batch])

    # The batch's pairs are the union of each pattern's own, none across two.
    want = set()
    for pattern, first in zip(batch, offsets):
        want |= {(i + first, j + first) for i, j in brute_force_pairs(pattern.points, rmax)}
    assert mirrored(close_pairs(batch, rmax)) == want

    # Each batched curve is the pattern's own curve, bitwise when the batch
    # keeps the cell layout the pattern gets alone.
    grid = RadiusGrid.uniform(rmax, data.draw(st.integers(2, 20)))
    model = Ramp(side)
    curves = k_hat(batch, model, grid)
    assert len(curves) == len(batch)
    batch_cells = _cells_per_axis(side, rmax, dim, offsets[-1], len(batch))
    for pattern, curve in zip(batch, curves):
        alone = k_hat(pattern, model, grid).values
        if _cells_per_axis(side, rmax, dim, len(pattern), 1) == batch_cells:
            np.testing.assert_array_equal(curve.values, alone)
        else:
            np.testing.assert_allclose(curve.values, alone, rtol=1e-13, atol=0.0)


def test_batch_needs_one_window():
    a = PointPattern(Window(2, 1.0), [[0.0, 0.0]])
    b = PointPattern(Window(2, 2.0), [[0.0, 0.0]])
    for batch in ([], [a, b]):
        with pytest.raises(ValueError, match="one window"):
            close_pairs(batch, 0.1)
