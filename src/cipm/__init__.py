"""Constructive-interference symbol-level precoding for MISO downlinks."""

from .constellation import ConstellationSpec, build_qam, detect, get_constellation
from .channel import (
    ChannelMatrix, EquivalentChannel, FadingConfig, SymbolStats,
    effective_channel, eq_power_cdf, eq_power_mean, eq_power_pdf,
    sample_rayleigh, symbol_stats, REFERENCE_SYMBOL,
)
from .solver import (
    ActiveSetLimitError, InfeasibleConstraintsError, KktReport,
    PrecodeProblem, PrecodedSignal, SinrTargets, SolverError,
    kkt_residual, make_problem, solve_cipm, solve_strict_equivalent,
)
from .baselines import (
    BeamformerSet, BeamformingConvergenceError, MulticastSolution,
    achieved_sinrs, solve_multicast_bound, solve_ob,
)
from .linkadapt import (
    AnalyticBackend, EmpiricalBackend, LinkAllocation, ModulationEntry,
    ModulationTable, SerCurve, allocate, build_ser_curve, effective_goodput,
    energy_efficiency, load_table, select_modulation, ser_from_goodput,
    ser_from_sinr, sinr_from_ser,
)
from .simulator import (
    CombinationTable, DistributionReport, FrameConfig, FrameResult,
    RegionPoint, SweepRow, draw_channel, enumerate_combinations,
    fixed_channel_experiment, region_maps, run_frame, run_frames, run_sweep,
    validate_distribution,
)

__version__ = "0.1.0"
