"""Named tolerances used by constructors, checks and tests.

Single source of truth: code and tests import these rather than repeating
literals.
"""

# coefficient bijections (alpha <-> gamma) round-trip agreement
ROUNDTRIP_TOL = 1e-12

# factorization identities, unitarity residuals, weight sums
STRUCTURAL_TOL = 1e-10

# measure <-> coefficients round trip
MEASURE_ROUNDTRIP_TOL = 1e-8

# | |last coefficient| - 1 | at construction
UNIT_MODULUS_TOL = 1e-12

# eigenpair residuals and |eigenvalue| - 1
EIGEN_RESIDUAL_TOL = 1e-9

# minimal admissible spectral weight (cyclicity floor)
WEIGHT_FLOOR = 1e-14

# |Phi_k(z)| below this counts as a pole of the coefficient functions
POLE_TOL = 1e-14

# moment (Gram) matrix conditioning limit for measure -> coefficients
GRAM_COND_LIMIT = 1e12

# |1 - gamma_j| below this makes the phase factor numerically meaningless
DEGENERATE_PHASE_TOL = 1e-14

# minimal circular gap between atoms of a spectral measure
ATOM_GAP_TOL = 1e-10

# quadrature identity checks
QUAD_REL_TOL = 1e-6

# relative error of det(Id - U) = prod(1 - gamma_k)
CHAR_POLY_REL_TOL = 1e-8

# pointwise residual of the Szego recursion on the circle
RECURSION_TOL = 1e-11

# |entries| off the five-diagonal band of a CMV matrix
CMV_BAND_TOL = 1e-14

# closed-form limit parameters at a worked example
CLOSED_FORM_TOL = 1e-12

# angular partition function against quadrature, relative
PARTITION_REL_TOL = 1e-5

# |I(mu_d)| of the rate function at its minimizer (grid discretization)
RATE_AT_MINIMIZER_TOL = 1e-3

# |B(d) - finite-n B(d)| between the two routes to the free-energy constant
B_CONST_TWO_ROUTE_TOL = 0.02

# per-test significance level of the goodness-of-fit checks
SIGNIFICANCE = 1e-3

# moment and correlation deviations, in standard errors
SE_BOUND = 3.0

# median KS distance of sampled spectra at n = 50 to the arc limit law
ESD_KS_SMOKE_MAX = 0.25
