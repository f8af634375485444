"""Exact basket calculus for minimal 3-folds of general type.

Everything is exact rational arithmetic: plurigenus formula evaluation,
the per-basket inequality functionals with replayable certificates, basket
and candidate enumeration, and the derived geography constants.
"""

from .baskets import (
    Basket,
    BasketError,
    EMPTY_BASKET,
    LocalIndexError,
    NonCoprimeError,
    OrbifoldPoint,
    SlopeError,
    delta,
    l_correction,
    m_lin,
    mbar,
    sigma,
    sigma12,
)
from .certificates import Certificate, CertificateNode, proof_replay, verify_certificate
from .enumeration import (
    Candidate,
    EnumConstraints,
    ExplicitK3,
    M0Report,
    MinimalK3Search,
    NoCandidatesError,
    attach_invariants,
    enumerate_baskets,
    enumerate_candidates,
    find_m0,
)
from .functionals import (
    Functional,
    INEQ1,
    INEQ2,
    check_lemmas_exhaustive,
    verify_plurigenus_form,
    xi_bar,
)
from .geography import (
    ConstantChain,
    PUBLISHED_C_PRIME,
    PUBLISHED_M1,
    ThresholdError,
    check_chi_bound,
    check_pm_bound,
    derive_constants,
    growth_diagnostics,
)
from .rationals import AtomError, mediant_parents
from .riemann_roch import (
    InconsistentInvariantsError,
    PlurigenusReport,
    ThreefoldInvariants,
    chi_mk,
    k3_from_p2,
    plurigenus,
    sigma_identity_check,
)

__version__ = "0.1.0"
