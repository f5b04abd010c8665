"""Variational calculus of convexly generated spectral max functions."""

from .cpoly import (
    Poly,
    RootCluster,
    active_set,
    elementary,
    poly_from_json,
    poly_root_max,
    roots,
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
    matrix_from_json,
    matrix_to_json,
    spec_from_json,
    spec_to_json,
)
from .oracles import FDReport, fd_phi_quotient, fd_poly_quotient, subgradient_inequality_suite
from .polysub import (
    Dp_horizon_membership,
    Dp_membership,
    Dp_sample,
    rsd_f_membership,
    subderivative_f,
)
from .specsub import (
    MembershipReport,
    ToeplitzParams,
    Violation,
    W_extract,
    chain_rule_membership,
    derogatory_witness,
    radius_rsd_membership,
    regularity_verdict,
    rsd_membership,
    rsd_recession_membership,
    rsd_sample,
    spectral_active,
    spectral_max,
    subderivative,
)

__version__ = "0.1.0"
