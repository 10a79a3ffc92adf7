"""30-digit mpmath values of the convolution transform g_l, for the tests.

``g_l(lam) = (1/2 pi) int h_l(-i(lam - mu)) phi(mu) d nu`` over the vertical
line ``mu = Re(lam) - 1/2 + i nu``, by tanh-sinh quadrature at 30 digits.
Below ``nu = 50`` the line is split at the kernel peak and at the points
where the contour passes the real axis; above it the substitution
``nu = 50/t`` maps the slowly decaying ``l = 0`` tail onto ``t in (0, 1]``.
``phi`` and the kernels ``h_l`` are written here from their closed forms with
mpmath's polygamma functions, so nothing is shared with ``su3chain``.

Run ``python tests/solve_g_reference.py`` (96 s on one core of a 2-vCPU
Xeon VM, Python 3.11.7, mpmath 1.3.0) to print the table that
``tests/test_threesite.py`` holds as ``SOLVE_G_REFERENCE``.
"""

import mpmath as mp

mp.mp.dps = 30

#: (l, lam) cases of test_solve_g_window_matches_full_grid
CASES = [(l, lam) for lam in (1.6 + 0.1j, 2.3 + 0.45j) for l in (0, 1, -1)]


def phi_mp(lam):
    """phi at 30 digits, from sigma's digamma closed form.

    The digammas grow like ``log |lam|`` while phi falls like ``|lam|^-2``,
    so the working precision grows with ``2 log10 |lam|``.
    """
    with mp.extradps(10 + 2 * int(mp.log10(1 + abs(lam)))):
        return +_phi_closed_form(mp.mpc(lam))


def _phi_closed_form(l):
    third = mp.mpf(1) / 3
    dig = (
        mp.psi(0, 1 - l * third)
        + mp.psi(0, 1 + l * third)
        - mp.psi(0, 4 * third + l * third)
        - mp.psi(0, 4 * third - l * third)
    ) / 3
    dig_prime = (
        -mp.psi(1, 1 - l * third)
        + mp.psi(1, 1 + l * third)
        - mp.psi(1, 4 * third + l * third)
        + mp.psi(1, 4 * third - l * third)
    ) / 9
    q = l**2 - 1
    s = dig - 1 / q
    sp = dig_prime + 2 * l / q**2
    omega = 1 - mp.pi / (3 * mp.sqrt(3)) - mp.log(3)
    return (
        -12 * s
        - 4 * l * s / q**2
        - 2 * sp / q
        + 4 * l * omega / q**2
        + 2 * (4 * l**4 + 6 * l**3 - l**2 - 6 * l - 1) / (l**2 * q**2)
    )


def h_mp(l, z):
    """h_l(z) = -2 pi i e^(a z) / (e^(2 pi z) - 1), a = 2 pi (l mod 3) / 3."""
    a = 2 * mp.pi * (l % 3) / 3
    return -2j * mp.pi * mp.exp(a * z) / mp.expm1(2 * mp.pi * z)


def g_reference(l, lam):
    lam = mp.mpc(lam)
    c = lam.real - mp.mpf(1) / 2

    def integrand(nu):
        mu = c + 1j * nu
        return h_mp(l, -1j * (lam - mu)) * phi_mp(mu) / (2 * mp.pi)

    y = lam.imag
    points = [-mp.inf, y - 20, y - 5, y - 1, min(y, 0), max(y, 0), y + 1, y + 5, y + 20, 50]
    body = mp.quad(integrand, points)
    tail = mp.quad(lambda t: integrand(50 / t) * 50 / t**2, [0, mp.mpf(1) / 4, 1])
    return body + tail


def main():
    print("SOLVE_G_REFERENCE = {")
    for l, lam in CASES:
        g = g_reference(l, lam)
        print(f"    ({l}, {lam!r}): complex({mp.nstr(g.real, 20)}, {mp.nstr(g.imag, 20)}),")
    print("}")


if __name__ == "__main__":
    main()
