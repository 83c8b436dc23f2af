"""Hardy constants of non-convex planar sectors and domains built from them.

Layers: specfun (Gamma, 2F1 on [0, 1/2]), hardycore (closed-form constants and
the angular eigenfunction), odeengine (independent shooting oracle and the
comparison families), angles (critical adjacent angles), certify (domain
checks and boundary-form certificates), rayleigh (grid-based
variational validator), cli (command-line surface).
"""

from .angles import CriticalAngles, gamma_star, gamma_star_star
from .certify import (
    CertificateReport,
    Dbeta,
    DomainSpec,
    Ebg,
    OneReflexPolygon,
    Sector,
    SectorCapConvex,
    ShapeError,
    boundary_form_samples,
    certify_domain,
    check_dbeta,
    check_ebg,
    check_one_reflex_polygon,
    check_sector_cap,
)
from .hardycore import (
    EigenProfile,
    HardySolution,
    beta_critical,
    beta_for_constant,
    dpsi,
    eigen_profile,
    f_func,
    g_func,
    potential_v,
    psi,
    series_coefficients,
    solve_c_beta,
)
from .odeengine import (
    BracketError,
    HProfile,
    IntegrationError,
    ShootingResult,
    g_upper_bound,
    h_family_half,
    shoot_c,
    solve_h,
)
from .rayleigh import (
    GridProblem,
    NumericalError,
    RayleighEstimate,
    build_grid,
    estimate_constant,
    strip_proxy,
)
from .specfun import NonConvergenceError, gamma, hyp2f1

__version__ = "0.1.0"

__all__ = [
    "CriticalAngles",
    "CertificateReport",
    "Dbeta",
    "DomainSpec",
    "Ebg",
    "EigenProfile",
    "GridProblem",
    "HProfile",
    "HardySolution",
    "OneReflexPolygon",
    "RayleighEstimate",
    "Sector",
    "SectorCapConvex",
    "ShootingResult",
    "BracketError",
    "IntegrationError",
    "NonConvergenceError",
    "NumericalError",
    "ShapeError",
    "beta_critical",
    "beta_for_constant",
    "boundary_form_samples",
    "build_grid",
    "certify_domain",
    "check_dbeta",
    "check_ebg",
    "check_one_reflex_polygon",
    "check_sector_cap",
    "dpsi",
    "eigen_profile",
    "estimate_constant",
    "f_func",
    "g_func",
    "g_upper_bound",
    "gamma",
    "gamma_star",
    "gamma_star_star",
    "h_family_half",
    "hyp2f1",
    "potential_v",
    "psi",
    "series_coefficients",
    "shoot_c",
    "solve_c_beta",
    "solve_h",
    "strip_proxy",
    "__version__",
]
