"""Zero-temperature short-range correlation functions of the SU(3) spin chain.

The package computes nearest-neighbour and next-nearest-neighbour correlators
of the integrable SU(3)-invariant spin chain H = sum_j P_{j,j+1} by solving
discrete functional equations, and machine-verifies the algebraic identities
(Yang-Baxter relations, unitarity, fusion, singlet-basis matrices) that the
construction rests on.  Results are cross-validated against exact
diagonalization of finite periodic chains.

Modules
-------
tensors    the local dimension N (3), the structural tensors (P, I, E, epsilon)
           as plain arrays, and an invariant operator on 2 or 3 sites to and
           from its permutation expectations
rmatrix    rational R-matrices from one table of parts, the seeded point
           stream, and identity checks batched over parameters
specfun    one polygamma kernel of any order, with Hurwitz zeta as its order
           s - 1, and the scalar/array rule the evaluators share
twosite    closed-form two-site functions (sigma, omega33, omega_bar33, alpha33,
           G and its zeta expansion) and their difference-equation residuals
basis      singlet bases for two and three sites, Gram matrices, their exact
           inverses, the A matrices of lam, or of x and y, over arrays, and
           the suite that checks them
threesite  comb-built G1 and <P12 P23>, the convolution transform that
           checks it, and the two- and three-site density matrices
ed         exact diagonalization (Lanczos) of finite chains in the SU(3)
           singlet sector, in Young's orthogonal form
cli        command-line interface; it sets no numerical parameter
"""

__version__ = "0.1.0"
