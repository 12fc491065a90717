"""Independent recomputation of campaign rows.

Inputs are replayed from the campaign's documented draws: a campaign run
with seed ``s`` gives each instance the sampler
``PermutationSampler(s).spawn(key)`` (``key = n * 10000 + k`` for instance
``k`` of dimension ``n``, or ``key = n`` for one instance per dimension),
draws the instance from it, then draws its vectors one by one.

Values are then recomputed without the library's kernels:

* permutation averages by brute force over ``itertools`` enumerations;
* Luxemburg norms by plain bisection of the modular sum, with each Orlicz
  function evaluated from its closed form: ``q^(1-p)/p t^p`` for the power
  family, and for a conjugate built from knots ``(v_l, l/N)`` the maximum
  ``max_l (t v_l - l/N)``, +inf past the last slope ``(1/N)/(v_N - v_{N-1})``;
* power-family matrices from the closed-form integral of the profile
  ``f(t) = (1 - r) + beta r (t^(beta-1) - 1)/(1 - beta)``, ``r = sqrt(1 - 2 beta)``;
* round trips by refitting the same PCHIP ``H`` through the knot values and
  integrating its profile with fixed Gauss-Legendre nodes instead of
  adaptive quadrature (see ``roundtrip_constants``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.interpolate import PchipInterpolator

# bisection stops when the bracket is this small relative to its top
BISECT_RTOL = 1e-13
# agreement required of the program: exact averages and sums
RTOL_EXACT = 1e-9
# Luxemburg norms, which the program solves to 1e-10 relative
RTOL_NORM = 1e-8
# averages over a matrix built by quadrature (4e-7 off closed form at the seed)
RTOL_QUADRATURE = 1e-5
# round-trip constants: 4e-8 off at the seed; a profile cutoff t_min of 1e-5
# instead of 1e-6 / n puts every row 1.6e-6 to 4.2e-6 off
RTOL_ROUNDTRIP = 1e-6
# Gauss-Legendre nodes per PCHIP segment; 16 and 64 give the same constants
GAUSS_NODES = 32


def close(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * abs(reference)


# ---------------------------------------------------------------------------
# Orlicz functions in closed form


def power_function(p: float):
    q = p / (p - 1.0)
    scale = q ** (1.0 - p) / p
    return lambda t: scale * t**p


def knot_conjugate(knots, count: int):
    """Conjugate of the piecewise-affine function through (knots[l], l/count)."""
    v = [float(k) for k in knots]
    edge = (1.0 / count) / (v[-1] - v[-2])
    return lambda t: max(t * vl - l / count for l, vl in enumerate(v)) if t <= edge else math.inf


def knot_values(entries):
    """Per row the conjugate-inverse knot values v_l, l = 0..n."""
    n = len(entries)
    out = []
    for row in entries:
        row = [float(x) for x in row]
        knots = []
        for l in range(n + 1):
            head = sum(row[:l]) / n
            tail = sum(x * x for x in row[l:]) / n
            knots.append(math.sqrt(head * head + (l / n) * tail))
        out.append(knots)
    return out


def matrix_functions(entries):
    """Functions built from the matrix's conjugate-inverse knot values."""
    return [knot_conjugate(knots, len(entries)) for knots in knot_values(entries)]


def prefix_functions(entries):
    """Functions of the prefix-sum system of lemma 2.2."""
    out = []
    for row in entries:
        prefix = list(itertools.accumulate((float(x) for x in row), initial=0.0))
        out.append(knot_conjugate(prefix, len(row)))
    return out


def luxemburg(functions, x) -> float:
    """inf{rho > 0 : sum_i M_i(|x_i| / rho) <= 1} by plain bisection."""
    absx = [abs(float(xi)) for xi in x]
    if not all(math.isfinite(v) for v in absx):
        raise ValueError("vector has a non-finite entry")
    if not any(absx):
        return 0.0

    def modular(rho):
        return sum(m(xi / rho) for m, xi in zip(functions, absx) if xi)

    hi = max(absx)
    for _ in range(2100):
        if modular(hi) <= 1.0:
            break
        hi *= 2.0
    lo = hi
    for _ in range(2100):
        if modular(lo) > 1.0:
            break
        lo *= 0.5
    else:
        raise ValueError("no bracket for the Luxemburg norm")
    while hi - lo > BISECT_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# brute-force averages


def ave_l2(entries, x) -> float:
    n = len(x)
    w = [[(float(x[i]) * float(a)) ** 2 for a in entries[i]] for i in range(n)]
    total, count = 0.0, 0
    for pi in itertools.permutations(range(n)):
        total += math.sqrt(sum(w[i][pi[i]] for i in range(n)))
        count += 1
    return total / count


def ave_max_two(a3) -> float:
    n = len(a3)
    absa = [[[abs(float(v)) for v in col] for col in plane] for plane in a3]
    perms = list(itertools.permutations(range(n)))
    total = 0.0
    for pi in perms:
        for sigma in perms:
            total += max(absa[i][pi[i]][sigma[i]] for i in range(n))
    return total / len(perms) ** 2


def dra_sum_bound(a3) -> float:
    n = len(a3)
    flat = sorted((abs(float(v)) for plane in a3 for col in plane for v in col), reverse=True)
    return sum(flat[: n * n]) / (n * n)


def matrix_norm(entries, x) -> float:
    """max over budgets sum l_i <= N of sum_i (sum_{j < l_i} a_ij) |x_i|."""
    n, N = len(entries), len(entries[0])
    prefix = [list(itertools.accumulate((float(a) for a in row), initial=0.0)) for row in entries]
    absx = [abs(float(v)) for v in x]
    best = 0.0
    for budget in itertools.product(range(N + 1), repeat=n):
        if sum(budget) <= N:
            best = max(best, sum(prefix[i][budget[i]] * absx[i] for i in range(n)))
    return best


def psi_norm(entries, x) -> float:
    """(1 / (2^n n!)) sum over signs and permutations of |sum_i x_i eps_i a_{i,pi(i)}|."""
    n = len(x)
    total, count = 0.0, 0
    for pi in itertools.permutations(range(n)):
        terms = [float(x[i]) * float(entries[i][pi[i]]) for i in range(n)]
        for eps in itertools.product((1.0, -1.0), repeat=n):
            total += abs(sum(e * t for e, t in zip(eps, terms)))
            count += 1
    return total / count


def power_matrix(exponents, n: int):
    """Rows a_ij = n * int_{(j-1)/n}^{j/n} f_i of the power-family profiles."""
    rows = []
    for i in range(n):
        p = exponents[i % len(exponents)]
        beta = (p - 1.0) / p  # alpha / 2 with alpha = 2 / q
        r = math.sqrt(1.0 - 2.0 * beta)
        row = []
        for j in range(n):
            lo, hi = j / n, (j + 1) / n
            integral = (1.0 - r) * (hi - lo) + beta * r / (1.0 - beta) * (
                (hi**beta - lo**beta) / beta - (hi - lo)
            )
            row.append(n * integral)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# round trip


def refit_row(knots):
    """Row n * int_{(j-1)/n}^{j/n} f of the profile f of the PCHIP fit of H = v^2.

    With g = H''/sqrt(H - s H') and f(t) = f(1) - (1/2) int_t^1 g, swapping
    the order of integration gives
        int_a^b f = (b - a) f(1) - (1/2) int_a^1 g(s) (min(s, b) - a) ds,
    whose integrand is smooth on every PCHIP segment, the first included
    (there g(s) s stays bounded), so fixed Gauss-Legendre nodes need no cutoff.
    """
    n = len(knots) - 1
    h = np.asarray(knots, dtype=float) ** 2
    fit = PchipInterpolator(np.arange(n + 1) / n, h / h[-1])
    d1, d2 = fit.derivative(), fit.derivative(2)
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
    s = (((nodes + 1.0) / 2.0)[None, :] + np.arange(n)[:, None]).ravel() / n
    w = np.tile(weights / (2.0 * n), n)
    gw = w * d2(s) / np.sqrt(fit(s) - s * d1(s))
    f1 = 1.0 - math.sqrt(1.0 - float(d1(1.0)))
    row = []
    for j in range(n):
        a, b = j / n, (j + 1) / n
        part = float(np.sum(gw * np.clip(np.minimum(s, b) - a, 0.0, None)))
        row.append(math.sqrt(h[-1]) * n * ((b - a) * f1 - 0.5 * part))
    return row


def roundtrip_constants(exponents, n: int):
    """(min, max) over rows i and l >= 1 of rebuilt over original knot values."""
    knots = knot_values(power_matrix(exponents, n))
    rebuilt = knot_values([refit_row(v) for v in knots])
    ratios = [rebuilt[i][l] / knots[i][l] for i in range(n) for l in range(1, n + 1)]
    return min(ratios), max(ratios)
