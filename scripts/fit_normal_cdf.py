#!/usr/bin/env python3
"""Fit the coefficient tables of the normal CDF that the GELU uses.

``arn.tensor._gelu_cdf`` evaluates Phi(z) as two polynomials, split at
|z| = 1 (``tensor._CDF_SPLIT``):

- near zero, Phi(s) = 1/2 + s P(s^2), s = z clipped to [-1, 1];
- in the tails, with w = |z| clipped to [1, 8.6] (``tensor._CDF_TAIL``)
  minus 1, Q(1 + w) = Q(1) exp(w D(w)), where Q(u) = Phi(-u) is the upper
  tail. Below 8.6, Q is under 4e-18, so the clip costs nothing in float64.

This script fits P and D for float32 and float64, minimising the largest
weighted error over Chebyshev nodes by Lawson's iteration, in 50-digit
arithmetic (mpmath, not a dependency of the package). P's error is
weighted by s, so it bounds Phi's absolute error; D's by Q(1 + w) w, which
bounds the absolute error of Q. It prints the tables as they stand in
``tensor.py``, constant term first, with each fit's largest weighted error.
A run takes a few minutes:

    python scripts/fit_normal_cdf.py
"""

import mpmath as mp

mp.mp.dps = 50
SPLIT, TAIL = mp.mpf(1), mp.mpf("8.6")
# coefficients of P and of D per precision: the fewest that keep float32
# within 1e-7 of Phi and float64 within one ulp of max(Phi, 1/2)
DEGREES = {"float32": (5, 6), "float64": (10, 19)}


def chebyshev_nodes(lo, hi, count):
    return [(lo + hi) / 2 + (hi - lo) / 2 * mp.cos(mp.pi * (k + mp.mpf(1) / 2) / count)
            for k in range(count)]


def lawson(terms: int, target, weight, nodes, iterations: int = 60):
    """Coefficients of the polynomial of ``terms`` coefficients that
    minimises max weight(x) |target(x) - p(x)| over ``nodes``, by
    reweighted least squares, and that largest error."""
    values = [target(x) for x in nodes]
    weights = [weight(x) for x in nodes]
    rho = [mp.mpf(1) / len(nodes)] * len(nodes)
    best = None
    for _ in range(iterations):
        a = mp.matrix(len(nodes), terms)
        b = mp.matrix(len(nodes), 1)
        for i, x in enumerate(nodes):
            scale = mp.sqrt(rho[i]) * weights[i]
            for j in range(terms):
                a[i, j] = scale * x ** j
            b[i] = scale * values[i]
        coeffs = mp.qr_solve(a, b)[0]
        errors = [weights[i] * abs(values[i] - mp.polyval(coeffs[::-1], x))
                  for i, x in enumerate(nodes)]
        if best is None or max(errors) < best[1]:
            best = ([coeffs[j] for j in range(terms)], max(errors))
        total = sum(r * e for r, e in zip(rho, errors))
        rho = [r * e / total for r, e in zip(rho, errors)]
    return best


def near_zero(v):
    """P(v) = (Phi(sqrt v) - 1/2) / sqrt v, its limit 1/sqrt(2 pi) at 0."""
    if v == 0:
        return 1 / mp.sqrt(2 * mp.pi)
    s = mp.sqrt(v)
    return (mp.ncdf(s) - mp.mpf(1) / 2) / s


def tail(w):
    """D(w) = log(Q(1 + w) / Q(1)) / w, its limit -phi(1) / Q(1) at 0."""
    if w == 0:
        return -mp.npdf(SPLIT) / mp.ncdf(-SPLIT)
    return mp.log(mp.ncdf(-(SPLIT + w)) / mp.ncdf(-SPLIT)) / w


def main():
    print(f"_CDF_TAIL_MASS = {float(mp.ncdf(-SPLIT))!r}")
    for name, (n_near, n_tail) in DEGREES.items():
        near, near_err = lawson(n_near, near_zero, lambda v: mp.sqrt(v) + mp.mpf("1e-3"),
                                chebyshev_nodes(0, SPLIT ** 2, 4 * n_near))
        far, far_err = lawson(n_tail, tail, lambda w: mp.ncdf(-(SPLIT + w)) * (w + mp.mpf("1e-3")),
                              chebyshev_nodes(0, TAIL - SPLIT, 4 * n_tail))
        print(f"# {name}: near zero {mp.nstr(near_err, 3)}, tails {mp.nstr(far_err, 3)}")
        for label, coeffs in (("near", near), ("tail", far)):
            print(f"{name} {label} = ({', '.join(repr(float(c)) for c in coeffs)})")


if __name__ == "__main__":
    main()
