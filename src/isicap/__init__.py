"""Capacity bounds, decoding experiments, and numerical certification for
Gaussian ISI channels whose taps drift inside known intervals."""

from .errors import (
    BoundInapplicable,
    CodebookTooLarge,
    ConfigError,
    DimensionMismatch,
    IsicapError,
    SpectrumSingular,
)
from .spectrum import (
    BandedChannelMatrix,
    ChannelSpec,
    HalfBasis,
    SpectrumProfile,
    build_Hc,
    compute_profile,
    gram_eigenvalues,
    gram_eigh,
)
from .waterfill import (
    BoundReport,
    FiniteNBound,
    ThresholdReport,
    bound_report,
    capacity_C0,
    dbw_to_watts,
    finite_n_bound,
    pillow_terms,
    solve_theta1,
    solve_theta2,
    thresholds,
    watts_to_dbw,
)
from .channel_sim import (
    ChannelLaw,
    Codebook,
    CovarianceSpec,
    build_sigma,
    gen_codebook,
    rng_stream,
    sample_H,
    transmit,
)
from .decoder import (
    DecodeFailure,
    ExperimentResult,
    JointCovariance,
    TypicalParams,
    build_joint,
    decode,
    default_params,
    run_error_experiment,
    wilson_interval,
)
from .verify import (
    SUITE_NAMES,
    ConverseReport,
    LemmaReport,
    converse_rate_bound,
    run_all_suites,
    run_suite,
    verify_report,
)

__version__ = "0.1.0"
