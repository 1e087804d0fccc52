"""Exact stochastic calculus on finite probability spaces with progressive
enlargement by a random time, LP-based certification of
No-Unbounded-Profit-with-Bounded-Risk for stopped price processes, and a
Monte Carlo companion for continuous-path models."""

from .space import (
    INF,
    AdaptedProcess,
    FiniteSpace,
    Filtration,
    RandomTime,
    check_stopping_time,
    condexp,
    stop,
)
from .projections import (
    angle_bracket,
    doob,
    dual_optional,
    dual_predictable,
    is_martingale,
    predictable_projection,
    quadratic_covariation,
)
from .enlargement import (
    AzemaBundle,
    azema,
    compensator_of_rescaled,
    compensator_of_stopped,
    enlarge,
    g_martingale_part,
    jump_time_measures,
    projection_transfer_identities,
    reduce_g_predictable,
)
from .deflator import (
    DeflatorBundle,
    build_deflator,
    optional_integral,
    stoch_exp,
    supermartingale_deflator,
    verify_deflator,
)
from .nupbr import (
    CertResult,
    certify_nupbr,
    collapse_witness,
    masked_increment_criterion,
    masked_increment_criterion_all,
    preservation_report,
    single_jump_equivalences,
    single_jump_martingale_transfer,
    thin_set_empty,
    thin_set_empty_at,
    witness_martingale,
)

__version__ = "0.1.0"
