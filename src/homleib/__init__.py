"""homleib: symbolic verification of twisted Leibniz conformal algebras.

Exact lambda-bracket calculus over the rationals, axiom checkers for
algebras, operators and representations, the three coboundary operators
of the combined cohomology, order-by-order deformation checks, and the
three-product (NS) structures induced by Nijenhuis and Rota-Baxter
operators.
"""

__version__ = "0.1.0"

KERNEL_BACKEND = "pure"  # the one polynomial kernel, homleib._kernel._polypure

from .poly import MultiPoly, parse_poly, print_poly
from .structure import (
    ConformalAlgebra,
    ConformalElement,
    PdModuleMap,
    current_algebra,
    eval_bracket,
    verify_hom_leibniz,
    verify_multiplicativity,
    verify_skew_symmetry,
    virasoro,
)
from .operators import (
    OperatorKind,
    check_morphism,
    deformed_bracket,
    nijenhuis_rb_correspondence,
    verify_operator,
)
from .representation import (
    Representation,
    adjoint_rep,
    induced_representation,
    verify_nijenhuis_representation,
    verify_representation,
)
from .cohomology import (
    Cochain,
    HNLAPair,
    coboundary_HN,
    coboundary_HNLA,
    coboundary_homL,
    eval_cochain,
    is_cocycle,
    phi_map,
    random_cochain,
)
from .deformation import (
    DeformationData,
    equivalence_order1_check,
    infinitesimal_cocycle_check,
    make_deformation,
    verify_deformation_order,
)
from .ns import (
    NSAlgebra,
    TwistedRBData,
    adjacent_algebra,
    ns_from_nijenhuis,
    ns_from_rb,
    ns_from_twisted_rb,
    verify_ns_axioms,
    verify_o_operator,
    verify_twisted_rb,
)
from .report import Report, Violation

__all__ = [name for name in dir() if not name.startswith("_")]
