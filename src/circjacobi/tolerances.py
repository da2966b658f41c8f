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

# minimal weight of `spectral_measure` (cyclicity floor); coefficient rows need none
WEIGHT_FLOOR = 1e-14

# |Phi_k(z)| below this counts as a pole of the coefficient functions
POLE_TOL = 1e-14

# |1 - gamma_j| below this makes the phase factor numerically meaningless
DEGENERATE_PHASE_TOL = 1e-14

# minimal circular gap between atoms of a spectral measure
ATOM_GAP_TOL = 1e-10

# fixed-rule quadrature oracles (disk integral, partition function) vs closed forms, relative
QUAD_REL_TOL = 1e-9

# relative error of det(Id - U) = prod(1 - gamma_k)
CHAR_POLY_REL_TOL = 1e-8

# pointwise residual of the Szego recursion on the circle
RECURSION_TOL = 1e-11

# |entries| off the five-diagonal band of a CMV matrix
CMV_BAND_TOL = 1e-14

# tail estimate of the entropy series above which `sigma_energy` warns
ENTROPY_TAIL_TOL = 1e-4

# closed-form limit parameters at a worked example
CLOSED_FORM_TOL = 1e-12

# slack of |xi_d| <= theta_d on computed limit parameters
LIMIT_RANGE_TOL = 1e-12

# distance of a log Gamma argument from a nonpositive integer that raises `PoleError`
GAMMA_POLE_TOL = 1e-12

# |1 - z| below which `gamma_k_density` warns of its pole at z = 1 (Re(delta) < 0)
DENSITY_POLE_RADIUS = 1e-6

# |I(mu_d)| of the rate function at its minimizer (grid discretization)
RATE_AT_MINIMIZER_TOL = 1e-3

# |B(d) - (B_400(d) - B_400(0))| between the closed form and the finite-n route
# at n = 400, beta = 2; it read at most 8.3e-6 on d from 0 to 10 + 0.1i and 1e-9 + 4i
B_CONST_TWO_ROUTE_TOL = 5e-5

# per-test significance level of the goodness-of-fit checks
SIGNIFICANCE = 1e-3

# moment and correlation deviations, in standard errors
SE_BOUND = 3.0

# median KS distance of sampled spectra at n = 50 to the arc limit law
ESD_KS_SMOKE_MAX = 0.25
