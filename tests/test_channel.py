import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from cipm.channel import (REFERENCE_SYMBOL, ChannelMatrix, FadingConfig,
                          effective_channel, eq_power_cdf, eq_power_mean,
                          eq_power_pdf, sample_rayleigh, symbol_stats)
from cipm.constellation import gather, get_constellation
from cipm.simulator import FrameConfig, fixed_channel_experiment
from cipm.solver import SinrTargets, solve_strict_equivalent


def test_reference_symbol_is_unit_modulus_diagonal():
    assert abs(REFERENCE_SYMBOL - (1 + 1j) / np.sqrt(2)) < 1e-15
    assert abs(abs(REFERENCE_SYMBOL) - 1.0) < 1e-15


def test_reference_symbol_is_qpsk_point_3_bit_for_bit():
    # solve_strict_equivalent puts every user at QPSK's point 3 to target REFERENCE_SYMBOL
    qpsk = get_constellation("qpsk")
    assert qpsk.points[3] == REFERENCE_SYMBOL
    assert qpsk.coeffs[3].tolist() == [REFERENCE_SYMBOL.real, REFERENCE_SYMBOL.imag]


def test_fading_config_validation():
    with pytest.raises(ValueError):
        FadingConfig(beta=0.0, n_antennas=2)
    with pytest.raises(ValueError, match="n_antennas must be >= 1"):
        FadingConfig(beta=1.0, n_antennas=0)
    for beta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            FadingConfig(beta=beta, n_antennas=2)


def test_channel_matrix_shape_properties():
    m = ChannelMatrix(np.ones((3, 5), dtype=complex))
    assert m.k_users == 3 and m.n_antennas == 5
    with pytest.raises(ValueError):
        ChannelMatrix(np.ones(4, dtype=complex))


def test_channel_matrix_is_read_only():
    m = ChannelMatrix(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 0.0


def test_channel_matrix_leaves_the_callers_array_writeable():
    # wrapping a complex array copies it: the wrapper is read-only, the
    # caller's array is not frozen and later writes to it do not reach the wrapper
    h = np.array([[1 + 1j, 0.5], [0.2j, 1.0]])
    m = ChannelMatrix(h)
    targets = SinrTargets(zeta=np.full(2, 2.0), sigma_z=1.0)
    solve_strict_equivalent(h, [get_constellation("qpsk")] * 2, np.array([1, 2]), targets)
    fixed_channel_experiment(h, FrameConfig())
    assert h.flags.writeable and not m.entries.flags.writeable
    h[0, 0] = 7.0
    assert m.entries[0, 0] == 1 + 1j
    with pytest.raises(ValueError):
        m.entries[0, 0] = 0.0


def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    m = ChannelMatrix(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
    path = tmp_path / "chan.txt"
    m.save_text(path)
    back = ChannelMatrix.load_text(path)
    assert np.array_equal(back.entries, m.entries)


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n")
    with pytest.raises(ValueError):
        ChannelMatrix.load_text(path)
    path.write_text("2 2\n1.0,0.0\n1.0,0.0 2.0,0.0\n")
    with pytest.raises(ValueError):
        ChannelMatrix.load_text(path)
    # an entry without its imaginary part, and a non-finite entry
    for row in ("1.0 0.5,0.2", "nan,0 1.0,0.0", "1.0,0.0 inf,1.0"):
        path.write_text(f"2 2\n1.0,0.0 0.0,1.0\n{row}\n")
        with pytest.raises(ValueError, match="channel row 1"):
            ChannelMatrix.load_text(path)
    # rows beyond the header's K are an error, trailing blank lines are not
    path.write_text("1 1\n1.0,0.5\n2.0,0.0\n")
    with pytest.raises(ValueError, match="beyond the K=1"):
        ChannelMatrix.load_text(path)
    path.write_text("1 1\n1.0,0.5\n\n  \n")
    assert np.array_equal(ChannelMatrix.load_text(path).entries, [[1.0 + 0.5j]])


def test_sample_rayleigh_statistics():
    cfg = FadingConfig(beta=4.0, n_antennas=3)
    rng = np.random.default_rng(0)
    draws = np.stack([sample_rayleigh(cfg, 2, rng=rng) for _ in range(20_000)])
    assert draws.shape == (20_000, 2, 3) and draws.dtype == complex
    # per-entry power 1/beta, zero mean, circular symmetry
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0 / cfg.beta, rel=0.02)
    assert abs(np.mean(draws)) < 0.01
    assert np.mean(draws.real ** 2) == pytest.approx(np.mean(draws.imag ** 2),
                                                     rel=0.05)


def test_sample_rayleigh_seed_determinism():
    cfg = FadingConfig(beta=1.0, n_antennas=2)
    a = sample_rayleigh(cfg, 2, np.random.default_rng(7))
    b = sample_rayleigh(cfg, 2, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_effective_channel_rows_share_reference_target():
    rng = np.random.default_rng(3)
    chan = ChannelMatrix(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    spec = get_constellation("16qam")
    symbols = [5, 14]
    eq = effective_channel(chan, [spec, spec], symbols)
    d = gather([spec, spec], symbols)
    # row j is h_j a_j, a_j = exp(i(angle(ref) - angle(d_j))) / |d_j|, so a_j * d_j
    # lands on the reference direction with unit modulus
    a = eq[:, 0] / chan.entries[:, 0]
    assert np.allclose(a * d, REFERENCE_SYMBOL)
    assert np.allclose(eq, a[:, None] * chan.entries)


def test_effective_channel_stack_is_bitwise_per_row():
    # a (C, K) stack of symbol rows gives each row's channel bit for bit
    rng = np.random.default_rng(4)
    chan = ChannelMatrix(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    specs = [get_constellation(m) for m in ("qpsk", "8qam", "16qam")]
    combos = np.column_stack([rng.integers(0, s.order, size=12) for s in specs])
    stack = effective_channel(chan, specs, combos)
    assert stack.shape == (12, 3, 2)
    # and a stack of one channel per row (C, K, Nt) gives each row's as well
    hs = rng.standard_normal((12, 3, 2)) + 1j * rng.standard_normal((12, 3, 2))
    per_row = effective_channel(hs, specs, combos)
    d = gather(specs, combos)
    for c, row in enumerate(combos):
        one = effective_channel(chan, specs, row)
        assert np.array_equal(stack[c], one)
        # each row's rotation takes its own symbols onto the reference point
        assert np.allclose(stack[c, :, 0] / chan.entries[:, 0] * d[c], REFERENCE_SYMBOL)
        assert np.array_equal(per_row[c], effective_channel(hs[c], specs, row))


def test_symbol_stats_16qam_levels():
    stats = symbol_stats(get_constellation("16qam"))
    assert np.allclose(stats.gamma, [0.2, 1.0, 1.8])
    assert np.allclose(stats.gamma_probs, [0.25, 0.5, 0.25])
    assert stats.gamma_probs.sum() == pytest.approx(1.0)


def test_symbol_stats_qpsk_single_level():
    stats = symbol_stats(get_constellation("qpsk"))
    assert np.allclose(stats.gamma, [1.0])
    assert np.allclose(stats.gamma_probs, [1.0])


@pytest.mark.parametrize("name", ["qpsk", "16qam", "64qam"])
def test_eq_power_pdf_integrates_to_one(name):
    cfg = FadingConfig(beta=1.0, n_antennas=2)
    stats = symbol_stats(get_constellation(name))
    total, _ = quad(lambda z: float(eq_power_pdf(z, cfg, stats)), 0, np.inf,
                    limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_eq_power_cdf_matches_pdf_integral():
    cfg = FadingConfig(beta=2.0, n_antennas=3)
    stats = symbol_stats(get_constellation("16qam"))
    for z in (0.3, 1.0, 2.5, 6.0):
        num, _ = quad(lambda t: float(eq_power_pdf(t, cfg, stats)), 0, z,
                      limit=200)
        assert float(eq_power_cdf(z, cfg, stats)) == pytest.approx(num, abs=1e-9)


def test_eq_power_mean_matches_quadrature():
    cfg = FadingConfig(beta=1.5, n_antennas=2)
    stats = symbol_stats(get_constellation("16qam"))
    num, _ = quad(lambda z: z * float(eq_power_pdf(z, cfg, stats)), 0, np.inf,
                  limit=300)
    assert eq_power_mean(cfg, stats) == pytest.approx(num, rel=1e-8)
    # closed form: (Nt/beta) * sum(p/gamma) with the 16QAM levels
    assert eq_power_mean(cfg, stats) == pytest.approx(
        cfg.n_antennas / cfg.beta * 1.8888888888888888, rel=1e-12)


def test_qpsk_power_collapses_to_plain_gamma():
    cfg = FadingConfig(beta=2.0, n_antennas=3)
    stats = symbol_stats(get_constellation("qpsk"))
    z = np.linspace(0.01, 8.0, 50)
    expected = gamma_dist.pdf(z, a=cfg.n_antennas, scale=1.0 / cfg.beta)
    assert np.allclose(eq_power_pdf(z, cfg, stats), expected, atol=1e-12)


def test_eq_power_pdf_matches_monte_carlo_histogram():
    cfg = FadingConfig(beta=1.0, n_antennas=2)
    spec = get_constellation("16qam")
    stats = symbol_stats(spec)
    rng = np.random.default_rng(11)
    n = 40_000
    h = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / np.sqrt(2)
    d = np.asarray(spec.points)[rng.integers(0, 16, size=n)]
    z = np.sum(np.abs(h) ** 2, axis=1) / np.abs(d) ** 2
    # wide range so the out-of-range tail mass is negligible (density=True
    # renormalizes over the covered range)
    edges = np.linspace(0.0, 50.0, 201)
    emp, _ = np.histogram(z, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    ana = eq_power_pdf(centers, cfg, stats)
    width = edges[1] - edges[0]
    assert np.sum(np.abs(emp - ana)) * width < 0.05

