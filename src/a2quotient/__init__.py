"""Computing with the non-uniform arithmetic quotient of the rank-2 affine
building for PGL(3) over F_q((1/t)): exact normal forms, the weighted
quotient complex, its colored adjacency operators, closed-form
eigenfunctions, and the spectrum sets with the non-Ramanujan witness."""

from .algebra import Poly, RatFunc, parse_poly, parse_ratfunc
from .eigen import (
    Eisenstein, SpectralParam, Stratum, damped_grid, eigenfunction_grid,
    eigenfunction_value, eigenvalue_pair, params_from_eigenvalue,
    recurrence_residual,
)
from .operator import GridFunction, L2Space, apply_exact, inner_exact
from .quotient import (
    QuotientComplex, Vertex, coeffs, color,
    edge_coeff_from_stabilizers, is_adjacent, stabilizer_order, vertex_weight,
)
from .reduction import (
    ProjMat, ReductionResult, in_maximal_compact, in_modular_group,
    reduce_matrix, verify_witness,
)
from .spectra import (
    classify_point, non_ramanujan_witness, norm_divergence, render_spectra,
    residual_sweep, sigma0, sigma1_distance, sigma1_point, sigma2_contains,
)

__version__ = "0.1.0"
