"""Order types of finite set systems and quasi-orders, traces, and checks."""

from .atoms import Atom, atom_from_json, atom_to_json, finset, leaf, pair, tagged, word
from .kernels import BACKEND
from .lang import (
    ElasticityChain,
    LanguageFragment,
    LazyFamily,
    canonical_family,
    closure_bounded,
    concat,
    elasticity_chain,
    family_transform,
    half,
    mk_fragment,
    power,
    shuffle_product,
    shuffle_words,
    to_set_system,
    validate_chain,
)
from .orders import (
    QuasiOrder,
    Simulation,
    compose_simulations,
    identity_simulation,
    intersect_qo,
    is_bad_sequence,
    is_coatomic_lattice,
    is_simulation,
    linearizations,
    mk_qo,
    mk_simulation,
    otp,
    qo_of,
    ss,
    upset,
)
from .production import (
    ProductionSequence,
    dim,
    is_production_sequence,
    longest_production_sequence,
)
from .ramsey import (
    BoundReport,
    check_image_bound,
    check_union_bound,
    check_wqo_intersection_bound,
    ram_exact,
    ram_exact_entry,
    ram_upper,
    ram_verify,
)
from .sdr import SdrProblem, find_sdr, mk_sdr_problem
from .systems import (
    SetSystem,
    bang,
    ew_disjoint,
    ew_intersect,
    ew_product,
    ew_union,
    mk_system,
    perp,
    tagged_union,
)
from .traces import (
    Trace,
    apply,
    bang_trace,
    branching_degree,
    canonicalize,
    compose,
    coproduct,
    direct_image,
    discoloration_trace,
    empty_trace,
    equalizer,
    identity_trace,
    intersection_trace,
    inverse_image_rel,
    is_linear,
    is_sequential,
    mediating_cocone,
    mediating_cone,
    mk_trace,
    product,
    qo_functor,
    ss_functor,
)

__version__ = "0.1.0"
