"""Rate regions and finite-blocklength bounds for broadcast channels with
confidential messages under a dummy-randomness budget.

The package covers four layers: exact finite-alphabet information measures
(:mod:`~bccrates.probability`, :mod:`~bccrates.chain`), rate-region
membership and frontiers (:mod:`~bccrates.regions`,
:mod:`~bccrates.frontier`), exponent functions with divergence/error bounds
(:mod:`~bccrates.exponents`), and exact small-blocklength simulation of the
random coding constructions (:mod:`~bccrates.simulate`).  All rates are in
nats.
"""

from .chain import (
    BccChain,
    ChainInformations,
    chain_v_equals_x,
    informations,
    single_chain,
)
from .channels import ChannelSpec, bec, bsc, load_channel_file, parse_channel, parse_pmf
from .exponents import (
    BoundReport,
    DecoderBoundReport,
    ThetaSearch,
    decoder_error_bounds,
    decoding_thresholds,
    iid_sum_tail,
    leakage_bound,
    minimize_leakage_bound,
    minimize_superposition_bound,
    optimize_theta,
    resolvability_bound,
    resolvability_exponent,
    resolvability_exponent_slope,
    superposition_exponent,
    superposition_exponent_slope,
    superposition_resolvability_bound,
    theta_grid_default,
)
from .frontier import (
    Frontier,
    GridSpec,
    secrecy_capacity,
    secrecy_frontier,
    secrecy_frontier_sim,
    supporting_line_value,
    upper_concave_hull,
)
from .probability import (
    Dmc,
    GuardExceeded,
    Pmf,
    binary_entropy,
    entropy,
    kl_divergence,
    mutual_information,
)
from .regions import (
    INFEASIBLE,
    DegradednessVerdict,
    Infeasible,
    RateQuad,
    RateSplit,
    RegionVerdict,
    check_deterministic_encoder,
    check_inner_bound,
    check_rate_quad,
    check_unlimited_randomness,
    is_degraded,
    is_more_capable,
    min_dummy_rate,
    split_rates,
)
from .simulate import (
    BccCodebook,
    BccSimReport,
    SimResult,
    SuperCodebook,
    decode_bob,
    decode_eve,
    exact_bob_error,
    exact_eve_error,
    exact_leakage,
    exact_output_divergence,
    generate_bcc_codebook,
    generate_super_codebook,
    mc_resolvability,
    output_distribution,
    simulate_bcc,
    trial_seed,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
