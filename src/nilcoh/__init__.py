"""Exact cohomology computations for nilpotent radicals of parabolic
subgroups, their first Frobenius kernels, and quantum analogs at a root of
unity: decomposition theorems, graded characters, explicit ring structure,
and independent brute-force verification, all in exact arithmetic."""

__version__ = "1.0.0"  # set before the submodules import it

from .alcoves import (AdmissibilityProfile, LinkageDatum, PreconditionError,
                      RegimeError, admissibility, in_alcove, j_restricted,
                      require_admissible, require_regime, weak_linkage)
from .characters import (FormalCharacter, GradedCharacter, euler_induction,
                         format_poincare, frobenius_twist,
                         levi_simple_character, symmetric_character,
                         weyl_dimension_levi)
from .kostant import (BigradedCharacter, KostantDecomposition,
                      frobenius_kernel_character, kostant_decomposition,
                      parabolic_character, t1_invariants)
from .koszul import (CEComplex, OracleBudgetError, chevalley_constants,
                     cochain_cup, oracle_cohomology)
from .restricted import (BudgetError, MinimalResolution, RestrictedAlgebra,
                         build_algebra, ext_dims, find_class_by_weight,
                         square_certificate, yoneda_product)
from .ring import (BasisClass, CohomologyRing, CycScalar, RingElement,
                   check_ring_laws, nil_product, quantum_nil_product,
                   quantum_straighten, square_free_basis)
from .rootsystem import RootSystem, build
from .verify import (Violation, consistency_suite, search_dot_collisions,
                     search_levi_weights, search_sum_dot)
from .weyl import GroupTooLargeError, WeylElement, WeylGroup, enumerate_group

__all__ = [name for name in dir() if not name.startswith("_")]
