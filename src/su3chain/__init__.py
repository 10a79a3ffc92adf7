"""Zero-temperature short-range correlation functions of the SU(3) spin chain.

The package computes nearest-neighbour and next-nearest-neighbour correlators
of the integrable SU(3)-invariant spin chain H = sum_j P_{j,j+1} by solving
discrete functional equations, and machine-verifies the algebraic identities
(Yang-Baxter relations, unitarity, fusion, singlet-basis matrices) that the
construction rests on.  Results are cross-validated against exact
diagonalization of finite periodic chains.

Modules
-------
tensors    the structural tensors (P, I, E, epsilon) as plain arrays
rmatrix    rational R-matrices and identity checks batched over parameters
specfun    one kernel for digamma and its first two derivatives, Hurwitz zeta,
           and the scalar/array rule the evaluators share
twosite    closed-form two-site functions: sigma, omega33, alpha33, zeta expansion
basis      singlet bases for two and three sites, Gram matrices, their exact
           inverses and the A matrices
threesite  functional-equation solver for <P12 P23> and the three-site density matrix
ed         exact diagonalization (dense + Lanczos) of finite chains
cli        command-line interface
"""

__version__ = "0.1.0"
