"""Torsion-free subgroups of Coxeter groups through Weyl root lattices
over F2, with exact hyperbolic volumes in dimensions 4, 6 and 8.
"""

from .symbols import (
    INF,
    CoxeterSymbol,
    FiniteType,
    SymbolError,
    bilinear_gram,
    classify_finite_type,
    connected_components,
    euler_characteristic,
    finite_order,
    induced_subsymbol,
    parse_symbol,
    serialize_symbol,
    signature,
)
from .weyl import (
    WeylData,
    WeylError,
    coxeter_element,
    longest_word,
    reflection_matrix,
    weyl_data,
    word_to_matrix,
)
from .modtwo import (
    F2Subspace,
    ModTwoError,
    WeightVector,
    admissible_nodes,
    alpha_map,
    dpsi,
    find_target,
    involution_ker_im,
    lambda_dim,
    orbit_span,
    weight_vector,
)
from .involutions import (
    EquivalenceClass,
    InvolutionError,
    elementary_moves,
    equivalence_classes,
    is_minus_one_type,
    maximal_rank_class,
)
from .torsionfree import (
    Certificate,
    CyclicExtension,
    DaggerError,
    DaggerSymbol,
    SemidirectElement,
    build_dagger,
    certify_torsion_free,
    cyclic_extension,
    enumerate_image,
    kernel_index,
    phi,
    replay_certificate,
    verify_relations,
)
from .geometry import (
    GeometryError,
    PiMonomial,
    bernoulli,
    covolume_gauss_bonnet,
    covolume_siegel,
    kappa,
    manifold_volume,
    vinberg_symbol,
)

__version__ = "0.1.0"
