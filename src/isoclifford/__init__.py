"""Clifford algebras Cl(p,q), their isotopic liftings, and applications:
octonions on Cl(0,7) paravectors, su(n) generators inside Cl(2n,0) and
Cl(1,3;C), a 4x4 spacetime-algebra representation, and the diagonal
isounits that make the quark flavor symmetry exact in isospace."""

from .dirac import (
    DiracRep,
    NotInSpanError,
    build_dirac_rep,
    iso_spin_plus_check,
    regular_representation,
    spin_plus_check,
)
from .isotopy import (
    ConvergenceError,
    IsoComplex,
    IsoContext,
    clifford_exp,
    geno_commutator,
    iso_add,
    iso_commutator,
    iso_contraction,
    iso_exp,
    iso_exp_series,
    iso_metric,
    iso_mul,
    iso_product,
    iso_wedge,
    isotope_left_product,
    isotope_right_product,
    lift,
    x_product,
    zeta_apply,
)
from .lie_su import (
    ClosureViolationError,
    GeneratorSet,
    StructureConstants,
    span_rank,
    structure_constants,
    su3_case1_generators,
    su3_case2_generators,
    su_n_generators,
)
from .multivector import (
    AlgebraError,
    Multivector,
    NonInvertibleError,
    Signature,
    SignatureMismatchError,
    conjugation,
    geometric_product,
    grade_involution,
    grade_project,
    grade_select,
    inverse,
    left_contraction,
    random_multivector,
    random_vector,
    reversion,
    right_contraction,
    wedge,
)
from .octonion import (
    oct_inverse,
    oct_isotope_left,
    oct_isotope_right,
    oct_norm,
    oct_product,
    oct_unit,
    oct_x_product,
    structure_trivector,
)

__version__ = "0.1.0"
