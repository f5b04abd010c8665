"""Variational calculus of convexly generated spectral max functions."""

from .cpoly import (
    Poly,
    RootCluster,
    active_set,
    elementary,
    lex_leq,
    poly_from_json,
    poly_root_max,
    poly_to_json,
    roots,
    taylor_coeff,
)
from .factorspace import (
    F_apply,
    F_deriv0,
    F_deriv0_inv,
    FactorSpaceElem,
    T_apply,
    T_inverse,
    pn_inner,
    sp_inner,
)
from .generators import (
    ConvexSet2D,
    Generator,
    UnsupportedGenerator,
    builtin,
    condition_check,
    make_generator,
    q_set,
)
from .jordan import (
    DerogatoryEigenvalue,
    DomainError,
    JordanSpec,
    char_poly,
    char_poly_deriv_action,
    det_expansion_residual,
    matrix_from_json,
    matrix_to_json,
    spec_from_json,
    spec_to_json,
    synth,
)
from .oracles import FDReport, fd_phi_quotient, fd_poly_quotient, subgradient_inequality_suite
from .polysub import (
    Dp_horizon_membership,
    Dp_membership,
    Dp_sample,
    rsd_f_horizon_membership,
    rsd_f_membership,
    subderivative_f,
    subderivative_radius,
)
from .specsub import (
    MembershipReport,
    ToeplitzParams,
    Violation,
    W_extract,
    chain_rule_membership,
    derogatory_witness,
    radius_rsd_membership,
    radius_rsd_zero,
    regularity_verdict,
    rsd_membership,
    rsd_recession_membership,
    rsd_sample,
    spectral_active,
    spectral_max,
)
from .stabilize import spectral_subgradient, stabilize

__version__ = "0.1.0"
