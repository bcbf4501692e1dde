"""Outage probabilities and eps-outage capacities of RIS-assisted links
under phase hopping, quantized hopping, static and perfect phase schemes,
with a deterministic two-timescale Monte-Carlo cross-check."""

from .analytic import (
    CapacityMethod,
    EmpiricalCdf,
    eps_capacity,
    erg_capacity_los,
    erg_capacity_nlos,
    min_outage,
    outage,
    outage_general_fading,
    outage_hopping,
    outage_perfect,
    outage_static,
    outage_static_fixed,
)
from .hankel import PhasorSumDistribution
from .model import Scenario, Scheme, symbol_capacity
from .montecarlo import McConfig, McResult, quantized_sum_moments, run
from .report import FigureDataset, FigureId, build_figure, write_csv, write_json
from .specfun import (
    DiscreteDistribution,
    binomial,
    cal_e,
    cal_e_inverse,
    marcum_q1,
    poisson_binomial,
    quantile,
)

__version__ = "0.1.0"
