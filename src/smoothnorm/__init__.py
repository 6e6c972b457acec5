"""smoothnorm: smooth equivalent norms built from boundaries of dual balls.

Submodules
----------
orlicz    smooth Orlicz functions, generalized Luxemburg norms
spaces    finite model spaces, norming supports, basis projections
boundary  piecewise boundary decompositions, psi weights, separated nets
tensor    injective tensor products of finite model spaces
renorm    the phi-norm construction, active sets, claim-2d excess per net point
verify    the approx window, claim-2d sweep and margin checks, written once
equiv     relative boundary chains and equivalent-norm pipelines
cli       config-driven verification suites and reports
"""

from .boundary import (
    Decomposition,
    NetB,
    build_net,
    check_boundary,
    check_lrc_criterion,
    epsilon_n,
    net_property_report,
)
from .equiv import (
    BoundaryNorm,
    RelativeBoundaryChain,
    build_F,
    compute_bn,
    compute_cn,
    corollary_b_pipeline,
    support_ball,
)
from .errors import ConstructionError, NumericError, ParameterError
from .orlicz import (
    OrliczFamily,
    OrliczFunction,
    check_lemma1_bounds,
    luxemburg_norm,
    luxemburg_norm_batch,
    make_orlicz,
)
from .renorm import (
    PhiNormSpec,
    active_set,
    build_renorm,
    phi_norm,
    phi_norm_batch,
    phi_unit_pool,
    pi_coords,
    smoothness_check,
    verify_claim2d,
)
from .spaces import (
    ModelSpace,
    euclidean_space,
    find_norming_support,
    lap_space,
    lorentz_predual_space,
    lorentz_space,
    orlicz_space,
    proj,
    sup_space,
    support,
)
from .tensor import (
    TensorElement,
    apply_fY,
    apply_gX,
    boundary_product_check,
    injective_norm,
    tensor_apply,
)

__version__ = "0.1.0"
