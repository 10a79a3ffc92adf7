"""30-digit mpmath values of <P12 P23>, F2 and F3, for the tests.

``G1 = K + P3`` is rebuilt here from closed forms, with nothing taken from
``su3chain``:

* ``K(z) = sum_{j>=0} phi_c(z + 3j) - (z/3) tau(z)``, the one-sided comb
  with ``phi_c = phi - tau``.  ``phi`` is ``solve_g_reference.phi_mp`` and
  ``tau(z) = -4 pi [cot(pi z/3) - cot(pi(z-1)/3)]``.
* The comb is a head of ``J`` terms plus its tail summed in closed form.
  Write ``phi_c = A + tau B + tau' C`` with ``B(l) = l/(3(l^2-1)^2)`` and
  ``C(l) = 1/(6(l^2-1))``.  ``tau`` and ``tau'`` are 3-periodic, so

      sum_{j>J} B(z+3j) = [psi'((z-1)/3+J+1) - psi'((z+1)/3+J+1)]/108,
      sum_{j>J} C(z+3j) = [psi((z+1)/3+J+1) - psi((z-1)/3+J+1)]/36,
      sum_{j>J} A(z+3j) = sum_k a_k 3^-k zeta(k, z/3+J+1),

  where ``A ~ sum_k a_k l^-k`` is expanded from the asymptotic series
  ``psi(x + h) ~ log x + sum_n (-1)^(n+1) B_n(h)/(n x^n)`` (DLMF 5.15.8,
  Bernoulli numbers from ``mp.bernfrac``) in exact fractions.
* ``P3`` is spanned by ``1, cot(pi z/3), cot(pi(z-1)/3)`` and their squares.
  Its five coefficients cancel the Laurent orders -3..1 of ``G1`` at 0 and
  -3..-1 at -2.  The Laurent coefficients are taken by an ``n``-point
  trapezoid rule on circles of radius ``r``, and the eight complex equations
  are solved by normal equations (``mp.qr_solve`` reports the complex
  system as singular); the printed defect is the largest residual.

Outputs: ``p12p23 = Re c2 / 2`` for the ``z^2`` coefficient ``c2`` of ``G1``
at 0, ``F2 = 4 G1(1)`` as the mean over a circle around 1 (``G1`` is
regular there while ``K`` and ``P3`` are not), and ``F3 = G1(2)``.

Run ``python tests/correlator_reference.py`` (about 90 s) to print the
constants that ``tests/test_threesite.py`` holds as
``CORRELATOR_REFERENCE``.  It also prints the comb against the two ``nsum``
values held in ``NSUM_COMB``, at the same float arguments.
"""

from fractions import Fraction
from math import comb

import mpmath as mp

from solve_g_reference import phi_mp

mp.mp.dps = 32

#: order of the series of A: its last term is below 1e-35 at J = 20
SERIES_ORDER = 40

#: comb sums from mp.nsum at dps 30, at float arguments
NSUM_COMB = {
    complex(0.45): mp.mpc("0.85685680317715818478"),
    complex(-2, 0.45): mp.mpc("-4.2852537932853530803", "-8.344620901403956828"),
}


def tau_mp(z):
    return -4 * mp.pi * (mp.cot(mp.pi * z / 3) - mp.cot(mp.pi * (z - 1) / 3))


def tau_slope_mp(z):
    return 4 * mp.pi**2 / 3 * (mp.cot(mp.pi * z / 3) ** 2 - mp.cot(mp.pi * (z - 1) / 3) ** 2)


def _bernoulli_poly(n, h):
    return sum(comb(n, j) * Fraction(*mp.bernfrac(j)) * h ** (n - j) for j in range(n + 1))


def a_series(order=SERIES_ORDER):
    """Coefficients ``a_0..a_order`` of ``A(l) ~ sum_k a_k l^-k``, as mpf.

    ``A`` is ``phi_c`` with ``tau = tau' = 0``:

        A = -12 s - 4 l s/(l^2-1)^2 - 2 s'/(l^2-1) + 4 l omega/(l^2-1)^2
            + 2 (4 l^4 + 6 l^3 - l^2 - 6 l - 1) / (l^2 (l^2-1)^2),
        s = D/3 + 1/l - 1/(l^2-1),  D = 2 psi(l/3) - psi(l/3 - 1/3) - psi(l/3 + 4/3),

    all expanded in ``u = 1/l``; ``omega = 1 - pi/(3 sqrt 3) - log 3``.
    """
    n = order + 1

    def mul(p, q):
        return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(n)]

    def lin(*terms):
        return [sum(c * p[k] for c, p in terms) for k in range(n)]

    def derivative(p):  # d/dl of sum p_k u^k
        return [0] + [-(k - 1) * p[k - 1] for k in range(1, n)]

    def shift(p, m):  # u^m p
        return ([0] * m + list(p) + [0] * n)[:n]

    digamma = [0] * n
    for m in range(1, n):
        e = 2 * _bernoulli_poly(m, 0) - _bernoulli_poly(m, Fraction(-1, 3))
        e -= _bernoulli_poly(m, Fraction(4, 3))
        digamma[m] = (-1) ** (m + 1) * e * 3**m / m
    geo = [1 - k % 2 for k in range(n)]  # 1/(1 - u^2)
    geo2 = mul(geo, geo)
    inv = shift(geo, 2)  # 1/(l^2 - 1)
    l_inv2 = shift(geo2, 3)  # l/(l^2 - 1)^2
    s = lin((Fraction(1, 3), digamma), (1, shift([1], 1)), (-1, inv))
    rational = lin(
        (-12, s),
        (-4, mul(l_inv2, s)),
        (-2, mul(inv, derivative(s))),
        (2, mul(shift([4, 6, -1, -6, -1], 2), geo2)),
    )
    omega = 1 - mp.pi / (3 * mp.sqrt(3)) - mp.log(3)
    return [
        mp.mpf(a.numerator) / a.denominator + 4 * omega * b
        for a, b in zip(rational, l_inv2)
    ]


def comb_mp(z, head, series):
    """``sum_{j>=1} phi_c(z + 3j)``: ``head`` terms plus the closed-form tail."""
    t, tp = tau_mp(z), tau_slope_mp(z)
    total = mp.fsum(phi_mp(z + 3 * j) for j in range(1, head + 1)) - head * t
    x = z / 3 + head + 1
    b = (mp.psi(1, x - mp.mpf(1) / 3) - mp.psi(1, x + mp.mpf(1) / 3)) / 108
    c = (mp.psi(0, x + mp.mpf(1) / 3) - mp.psi(0, x - mp.mpf(1) / 3)) / 36
    a = mp.fsum(series[k] * mp.zeta(k, x) / 3**k for k in range(2, len(series)))
    return total + a + t * b + tp * c


def k_mp(z, head, series):
    """The one-sided particular solution ``K(z)``."""
    return phi_mp(z) - (1 + z / 3) * tau_mp(z) + comb_mp(z, head, series)


def cot_basis(z):
    ca = mp.cot(mp.pi * z / 3)
    cb = mp.cot(mp.pi * (z - 1) / 3)
    return [mp.mpf(1), ca, cb, ca**2, cb**2]


def circle(center, n, r):
    return [center + r * mp.expjpi(2 * mp.mpf(m) / n) for m in range(n)]


def laurent(values, n, r, orders):
    """Trapezoid-rule Laurent coefficients of samples on ``circle``."""
    return {
        k: mp.fsum(v * mp.expjpi(-2 * mp.mpf(k * m) / n) for m, v in enumerate(values))
        / (n * r**k)
        for k in orders
    }


def correlator_reference(n=64, r=mp.mpf("0.45"), head=20):
    """(p12p23, F2, F3, fit defect) at the working precision."""
    series = a_series()
    vanishing = {0: range(-3, 2), -2: range(-3, 0)}
    k_coef, b_coef = {}, {}
    for center, orders in vanishing.items():
        zs = circle(center, n, r)
        wanted = list(orders) + ([2] if center == 0 else [])
        k_coef[center] = laurent([k_mp(z, head, series) for z in zs], n, r, wanted)
        basis = [cot_basis(z) for z in zs]
        b_coef[center] = [laurent([row[i] for row in basis], n, r, wanted) for i in range(5)]
    rows = [(c, k) for c, orders in vanishing.items() for k in orders]
    mat = mp.matrix([[b_coef[c][i][k] for i in range(5)] for c, k in rows])
    rhs = mp.matrix([-k_coef[c][k] for c, k in rows])
    adjoint = mat.transpose_conj()
    x = mp.lu_solve(adjoint * mat, adjoint * rhs)
    defect = max(abs(v) for v in mat * x - rhs)

    def g1(z):
        return k_mp(z, head, series) + mp.fsum(c * b for c, b in zip(x, cot_basis(z)))

    c2 = k_coef[0][2] + mp.fsum(x[i] * b_coef[0][i][2] for i in range(5))
    f2 = 4 * mp.fsum(g1(z) for z in circle(mp.mpf(1), n, r)) / n
    f3 = g1(mp.mpf(2))
    return c2.real / 2, f2.real, f3.real, defect


def main():
    p12p23, f2, f3, defect = correlator_reference()
    print("CORRELATOR_REFERENCE = {")
    for name, value in (("p12p23", p12p23), ("f2", f2), ("f3", f3)):
        print(f'    "{name}": "{mp.nstr(value, 20)}",')
    print("}")
    print(f"# fit defect {mp.nstr(defect, 3)}")
    series = a_series()
    for z, ref in NSUM_COMB.items():
        delta = abs(comb_mp(mp.mpc(z), 20, series) - ref)
        print(f"# comb at {z}: |head + tail - nsum| = {mp.nstr(delta, 3)}")


if __name__ == "__main__":
    main()
