import numpy as np
import pytest

from cipm.constellation import detect, get_constellation
from cipm.solver import SinrTargets, make_problem
from oracles import free_axes, nearest_point_oracle

ALL_NAMES = ("qpsk", "8qam", "16qam", "32qam", "64qam")


@pytest.mark.parametrize("name,order,rate", [
    ("qpsk", 4, 2.0), ("8qam", 8, 3.0), ("16qam", 16, 4.0),
    ("32qam", 32, 5.0), ("64qam", 64, 6.0),
])
def test_orders_and_rates(name, order, rate):
    spec = get_constellation(name)
    assert spec.order == order
    assert len(spec.points) == order
    assert spec.rate == rate
    assert spec.bits_per_symbol == int(rate)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_unit_average_power(name):
    spec = get_constellation(name)
    assert abs(np.mean(np.abs(spec.points) ** 2) - 1.0) < 1e-12


def test_aliases_and_unknown_names():
    assert np.allclose(get_constellation("4qam").points,
                       get_constellation("qpsk").points)
    with pytest.raises(ValueError):
        get_constellation("128qam")


def test_8qam_point_set():
    # rectangular 8QAM: I in {+-1, +-3}, Q in {+-1}, divided by sqrt(6)
    spec = get_constellation("8qam")
    key = lambda p: (round(p.real, 12), round(p.imag, 12))
    expected = sorted(((a + 1j * b) / np.sqrt(6.0)
                       for a in (-3, -1, 1, 3) for b in (-1, 1)), key=key)
    got = sorted(spec.points, key=key)
    assert np.allclose(got, expected, atol=1e-15)


def test_32qam_is_cross_shaped():
    spec = get_constellation("32qam")
    assert spec.order == 32
    # 6x6 grid minus the four corners
    assert not any(abs(a) == 5 and abs(b) == 5 for a, b in spec.lattice)
    assert sum(1 for a, b in spec.lattice if abs(a) == 5) == 8


@pytest.mark.parametrize("name,inner,single,outermost", [
    ("qpsk", 0, 0, 4),
    ("8qam", 0, 4, 4),       # two Q rows: every point is Q-extreme
    ("16qam", 4, 8, 4),
    ("32qam", 16, 8, 8),     # cross: 16 inner, 8 single-axis, 8 both-axis
    ("64qam", 36, 24, 4),
])
def test_point_class_census(name, inner, single, outermost):
    n_free = get_constellation(name).free.sum(axis=1)
    assert np.count_nonzero(n_free == 0) == inner
    assert np.count_nonzero(n_free == 1) == single
    assert np.count_nonzero(n_free == 2) == outermost


@pytest.mark.parametrize("name", ALL_NAMES)
def test_free_mask_matches_lattice_search(name):
    spec = get_constellation(name)
    assert np.array_equal(spec.free, [free_axes(spec, i) for i in range(spec.order)])


def test_constraints_inner_point_pins_both_axes():
    spec = get_constellation("16qam")
    inner = ~spec.free.any(axis=1)
    assert np.array_equal(np.flatnonzero(inner), [5, 6, 9, 10])
    assert np.array_equal(spec.coeffs, np.column_stack([spec.points.real, spec.points.imag]))


def test_constraints_outermost_point_frees_both_axes():
    assert get_constellation("qpsk").free.all()


def test_constraints_edge_point_frees_only_extreme_axis():
    spec = get_constellation("16qam")
    single = spec.free.sum(axis=1) == 1
    assert np.array_equal(spec.free[single], np.abs(spec.lattice[single]) == 3)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_strict_mode_pins_everything(name):
    spec = get_constellation(name)
    h = np.ones((spec.order, 2), dtype=complex)
    targets = SinrTargets(zeta=np.ones(spec.order), sigma_z=1.0)
    prob = make_problem(h, [spec] * spec.order, range(spec.order), targets, "strict")
    assert prob.is_eq.all()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_detect_returns_own_index_on_clean_points(name):
    spec = get_constellation(name)
    got = detect(spec, np.asarray(spec.points))
    assert np.array_equal(got, np.arange(spec.order))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_detect_matches_nearest_point_oracle(name):
    spec = get_constellation(name)
    rng = np.random.default_rng(42)
    samples = 2.5 * (rng.standard_normal(20_000)
                     + 1j * rng.standard_normal(20_000))
    assert np.array_equal(detect(spec, samples),
                          nearest_point_oracle(spec, samples))


def test_detect_scalar_input_returns_int():
    spec = get_constellation("16qam")
    out = detect(spec, spec.points[5])
    assert isinstance(out, int) and out == 5


def test_detect_clips_far_outside_samples():
    spec = get_constellation("qpsk")
    far = np.array([100.0 + 100.0j, -100.0 - 100.0j])
    got = detect(spec, far)
    assert np.array_equal(got, nearest_point_oracle(spec, far))
