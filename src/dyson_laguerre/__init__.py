"""Simulation and analysis toolkit for Dyson-Laguerre interacting particle systems."""

__version__ = "0.12.0"

from .errors import (
    CollisionError,
    DomainError,
    DysonLaguerreError,
    EigenFailure,
    EmptySample,
    NumericError,
    ParseError,
    SerializationError,
    SizeMismatch,
    StepRejected,
    UnsupportedRegime,
    ValidationError,
)
from .model import (
    ModelParams,
    ObservableResult,
    Polynomial,
    apply_generator,
    check_states,
    dl_drift,
    edl_drift,
    observable_phi,
    phi_polynomial,
)
from .simulate import (
    MatrixParams,
    RngStream,
    cir_exact_transition,
    default_dt,
    dl_paths_batch,
    matrix_dl_path,
    rect_ou_transition,
    spectral_projection,
)
from .equilibrium import (
    build_x0,
    gibbs_energy,
    gibbs_gradient,
    log_density_unnormalized,
    sample_equilibrium_batch,
)
from .geometry import (
    CurvatureReport,
    carre_du_champ,
    carre_du_champ2,
    cd_certificate,
    edl_gamma2,
    gamma2_definitional,
    gamma2_explicit,
    geodesic_point,
    riemannian_distance,
)
from .transport import (
    DistanceEstimate,
    EmpiricalMeasure,
    ou_closed_form_distances,
    wasserstein_intrinsic,
)
from .cutoff import (
    CutoffPrediction,
    CutoffProfile,
    cutoff_predict,
    duhamel_variance,
    kl_upper_bound_chain,
    lb_l2_witness,
    lift_matrix_bounds,
    mixing_time_ou,
    phi_law_distances,
    run_cutoff_profile,
    tv_lower_bound_formula,
    zero_start_chi2,
    zero_start_kl,
    zero_start_tv,
)
from .coupling import (
    WgDecayCurve,
    run_coupled_batch,
    wg_decay_estimate,
)
from .cli import RunManifest, parse_config, run, serialize_config
