"""hipm: exact height-interleaving distances for persistence modules over finite posets.

A height-difference function on a finite poset induces a scale-indexed adjoint
family of latching/matching endofunctors on persistence modules; interleavings
through that family define a distance computed here exactly (no floats), via
critical-value stratification and exhaustive certificate search over prime
fields.
"""

from .erosion import d_en, en_enumerate
from .exactlin import GF2, QQ, FieldSpec, Mat
from .fixtures import bipath_example, chain_example, grid_example
from .functors import (
    apply_L,
    apply_R,
    apply_T,
    e_r,
    erosion_E,
    eta,
    im_r,
    kappa,
    ker_r,
    mu,
    sharp,
    sigma,
    tau,
    theta,
    xi_pullback,
)
from .height import (
    INF,
    HeightDiff,
    HeightFunction,
    c_rho,
    check_cip,
    check_ivc,
    critical_values,
    distortion,
    from_phi,
    pullback_rho,
    rho_diag,
    strata,
    validate_rho,
)
from .interleave import (
    Certificate,
    check_certificate,
    distance,
    find_interleaving,
    shift_oracle_distance,
    stratified_report,
    stratified_search,
)
from .kan import colim_over, lim_over
from .pmod import (
    ModuleMorphism,
    MorphismStack,
    PersistenceModule,
    direct_sum,
    hom_basis,
    interval_module,
    is_isomorphic,
    pullback_module,
    validate_module,
    zero_module,
)
from .poset import (
    FinitePoset,
    OrderMap,
    check_galois_insertion,
    check_order_map,
    is_diamond_free,
)

__version__ = "0.1.0"
