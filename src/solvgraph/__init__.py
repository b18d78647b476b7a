"""Solvable graphs and solvabilizers of finite-dimensional Lie algebras over F_p."""

from .ffalg import PrimeField, Subspace, full_space, kernel, rref, zero_space
from .formulas import (
    SpectralClass,
    gl2_expected,
    sl2_expected,
    spectral_class_sl2,
    spectral_counts,
    verify,
)
from .graph import (
    SolvGraph,
    build,
    complement_components,
    components,
    degree_sequence,
    export_degrees_csv,
    export_dot,
    export_json,
)
from .liealg import (
    CapExceeded,
    LieAlgebra,
    LinearMap,
    SeriesReport,
    ValidationError,
    center,
    centralizer,
    conjugation_automorphism,
    derived_series,
    from_file,
    ideal_closure,
    is_ideal,
    is_lie_automorphism,
    is_solvable,
    make_gl,
    make_sl,
    make_so,
    make_t,
    make_w3,
    quotient,
    radical,
    subalgebra_closure,
    to_file,
)
from .solv import (
    conjecture_sum,
    divisibility_report,
    elements,
    equivariance_check,
    is_s_lie,
    pair_solvable,
    plane_table,
    row_size,
    row_sizes,
    s_lie_witness,
    sol_of_algebra,
    solvabilizer,
    solvabilizer_set,
)

__version__ = "0.1.0"
