"""Lower bounds for the Nehari constants of the polytorus.

C_d is the smallest constant such that every symbol with a bounded Hankel
operator admits a bounded completion psi (analytic projection equal to
the symbol) with ||psi||_inf <= C_d ||H_phi||. Testing the pairing of an
H^1 function f against a symbol phi gives the computable lower bound

    C_d >= |<f, phi>| / (||H_phi|| * ||f||_{H^1}),

with the pairing taken as the coefficient sum, which is exact for
polynomials. Two closed-form witness families are provided for even d,
together with the tuned test function for the quadratic witness: its one
parameter c solves theta = a cos(theta) in closed form (search_c2), and
only the bound at that c is computed.

The same pairing bound drives the divergence diagnostics: the unit-norm
symbol assembled from growing blocks of normalized pair sums in fresh
variables (cex_truncation) has dual ratios against its own blocks that
blow up for every q < 2, which rules out any completion in L^p for p > 2.

For the basic symbol z1 + z2 the optimal completion is the bilateral
series with coefficients (-1)^k/(1-2k) on the frequencies (1-k, k); its
modulus is pi/2 almost everywhere, which psi_sup_estimate corroborates on
grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    MAX_1D_GRID_POINTS,
    MAX_CEX_TRUNC,
    MAX_GRID_POINTS,
    MAX_PSI_MB,
    MAX_PSI_TRUNC,
    DomainError,
    check_budget,
)
from .hankel import NormEstimate, operator_norm
from .quadrature import QuadratureSpec, _grid_values, default_spec, hp_norm, hq_norm_basic
from .symbols import Symbol


@dataclass(frozen=True)
class BoundWitness:
    """Everything needed to recompute a dual-pairing bound."""

    f: Symbol
    phi: Symbol
    pairing: complex
    h1: NormEstimate
    hankel_norm: NormEstimate


@dataclass(frozen=True)
class BoundReport:
    """A lower bound for the Nehari constant in dimension d.

    method is one of "dual-pairing", "quadratic-witness", "pairsum-witness"
    or "search"; dual-pairing and search reports carry their witness.
    """

    d: int
    bound_value: float
    method: str
    witness: BoundWitness | None = None


def pairing(f: Symbol, phi: Symbol) -> complex:
    """Coefficient pairing sum_alpha fhat(alpha) * conj(phihat(alpha))."""
    if f.dim != phi.dim:
        raise DomainError(f"dimension mismatch: {f.dim} vs {phi.dim}")
    return sum(c * phi.coeff(a).conjugate() for a, c in f.terms())


def dual_bound(f: Symbol, phi: Symbol, spec: QuadratureSpec | None = None) -> BoundReport:
    """Lower bound |<f, phi>| / (||H_phi|| * ||f||_{H^1}).

    The Hankel norm is computed from the matrix, not assumed minimal, so
    the bound is valid for arbitrary polynomial phi. A pairing beyond the
    double range is refused (DomainError).
    """
    if f.is_zero or phi.is_zero:
        raise DomainError("dual_bound requires nonzero symbols")
    pair = pairing(f, phi)
    try:
        magnitude = abs(pair)
    except OverflowError:  # finite parts, modulus past the double range
        magnitude = math.inf
    if not math.isfinite(magnitude):
        raise DomainError(f"the pairing <f, phi> exceeds the double range ({pair})")
    hankel = operator_norm(phi)
    h1 = hp_norm(f, 1, spec if spec is not None else default_spec(f.dim))
    denominator = hankel.value * h1.value
    # one norm at a time where their product is past the double range
    value = magnitude / denominator if math.isfinite(denominator) else magnitude / h1.value / hankel.value
    witness = BoundWitness(f, phi, pair, h1, hankel)
    return BoundReport(f.dim, value, "dual-pairing", witness)


def _require_even(d):
    if not isinstance(d, int) or isinstance(d, bool) or d < 2 or d % 2:
        raise DomainError(f"bound is stated for even d >= 2, got {d!r}")


def _power_bound(d, base, exponent, method) -> BoundReport:
    """The bound base ** exponent in dimension d; DomainError past the double range."""
    try:
        value = base**exponent
    except OverflowError:
        raise DomainError(f"the {method} lower bound for d={d} exceeds the double range") from None
    return BoundReport(d, value, method)


def quadratic_witness_lower(d: int) -> BoundReport:
    """C_d >= (5 pi / (pi + 6 sqrt(3)))^(d/2) for even d.

    The base case is the dual bound with f = z1^2 + z1 z2 + z2^2 and
    phi = z1^2 + z1 z2 / 2 + z2^2; products of translated copies multiply
    the bound across pairs of variables. From d = 9530 on the value exceeds
    the double range and is refused (DomainError).
    """
    _require_even(d)
    return _power_bound(d, 5.0 * math.pi / (math.pi + 6.0 * math.sqrt(3.0)), d / 2, "quadratic-witness")


def pairsum_witness_lower(d: int) -> BoundReport:
    """C_d >= (pi^2 / 8)^(d/4) for even d, from the symbol z1 + z2.

    From d = 13520 on the value exceeds the double range and is refused
    (DomainError).
    """
    _require_even(d)
    return _power_bound(d, math.pi**2 / 8.0, d / 4, "pairsum-witness")


# -- tuned quadratic search --------------------------------------------------


# Newton from theta = a converges quadratically: a handful of steps reach the
# doubles' spacing, and the cap only bounds the loop
_NEWTON_STEPS = 64


def _quadratic_symbol(t: float) -> Symbol:
    return Symbol(2, [((2, 0), 1.0), ((1, 1), t), ((0, 2), 1.0)])


def search_c2(a: float):
    """Maximize the dual bound for phi = z1^2 + a z1 z2 + z2^2 over test
    functions f = z1^2 + c z1 z2 + z2^2, in closed form.

    Requires 0 <= a <= 1/2 so the Hankel norm equals the H^2 norm
    sqrt(2 + a^2), the same for every c.
    On the torus |f| = |c + 2 cos t|, so ||f||_1 = (2/pi)(c asin(c/2) +
    sqrt(4 - c^2)) for |c| <= 2 and |c| beyond, and d||f||_1/dc =
    (2/pi) asin(c/2). The score (2 + a c) / ||f||_1 is then stationary only
    at c = 2 sin(theta) with theta = a cos(theta), where it equals
    pi / (2 cos(theta)), its global maximum. theta is found by Newton from
    theta = a: g(theta) = theta - a cos(theta) is increasing and convex on
    [0, pi/2] with g(a) >= 0, so the iterates fall monotonically to the
    only root; they stop when a step no longer falls. For 0 <= a <= 1/2
    that c lies in [0, 0.8702617]. Returns (c; 4 ulp of c, a rounding
    bound; the dual_bound report at c, with method "search").
    """
    if not 0.0 <= a <= 0.5:
        raise DomainError(
            f"search requires 0 <= a <= 1/2 (minimal-norm regime), got {a}"
        )
    theta = a
    for _ in range(_NEWTON_STEPS):
        below = theta - (theta - a * math.cos(theta)) / (1.0 + a * math.sin(theta))
        if not below < theta:
            break
        theta = below
    best_c = 2.0 * math.sin(theta)
    report = dual_bound(_quadratic_symbol(best_c), _quadratic_symbol(a))
    return best_c, 4.0 * math.ulp(best_c), replace(report, method="search")


# -- divergent dual family ----------------------------------------------------

_SQRT6_OVER_PI = math.sqrt(6.0) / math.pi


def cex_truncation(K: int) -> Symbol:
    """First K blocks of the unit-norm divergent-dual symbol.

    Block k is (1/k) times the product of k normalized pair sums
    (z_{2j-1} + z_{2j})/sqrt(2) in fresh variables, and the whole sum is
    scaled by sqrt(6)/pi so the full series has H^2 norm 1. The
    truncation lives in dimension K(K+1) and has H^2 norm
    sqrt(6)/pi * sqrt(sum_{k<=K} k^-2). K above MAX_CEX_TRUNC is refused.
    """
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise DomainError(f"truncation order must be an integer >= 1, got {K!r}")
    check_budget(K, MAX_CEX_TRUNC, "cex truncation (MAX_CEX_TRUNC)", "blocks")
    dim = K * (K + 1)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    total = Symbol.zero(dim)
    for k in range(1, K + 1):
        block = Symbol.one(dim)
        for j in range((k - 1) * k // 2 + 1, k * (k + 1) // 2 + 1):
            pair = Symbol.variable(dim, 2 * j - 2) + Symbol.variable(dim, 2 * j - 1)
            block = block * (pair * inv_sqrt2)
        total = total + block * (1.0 / k)
    return total * _SQRT6_OVER_PI


def cex_ratio(k: int, q: float) -> float:
    """Dual ratio of block k against the full symbol, in closed form.

    Equals sqrt(6)/pi * (1/k) * r(q)^(-k) with r(q) = hq_norm_basic(q),
    because the H^q norm of a product in separate variables factors.
    Unbounded in k for every q < 2. At q = 2 the ratio degenerates to
    sqrt(6)/pi * (1/k), which tends to 0, so q = 2 is rejected along with
    everything above it.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise DomainError(f"block index must be an integer >= 1, got {k!r}")
    if not 1.0 <= q < 2.0:
        raise DomainError(f"the dual ratio is defined for 1 <= q < 2, got {q}")
    r = hq_norm_basic(q).value
    return _SQRT6_OVER_PI * (1.0 / k) * r ** (-k)


# -- the optimal completion of z1 + z2 ---------------------------------------


@dataclass(frozen=True)
class PsiSeries:
    """Symmetric truncation of the bilateral completion series.

    Keeps the terms (-1)^k/(1-2k) * z1^(1-k) * z2^k for |k| <= truncation.
    The k=0 and k=1 coefficients are both 1, so the analytic projection
    is z1 + z2 for every truncation.
    """

    truncation: int

    def __post_init__(self):
        if self.truncation < 1:
            raise DomainError("truncation must be >= 1")

    @staticmethod
    def coefficient(k):
        """(-1)^k / (1 - 2k), elementwise for an integer array k."""
        return (-1.0) ** k / (1.0 - 2.0 * k)


def psi_evaluate(ps: PsiSeries, theta1: float, theta2: float) -> complex:
    """Value of the truncated series at (e^{i theta1}, e^{i theta2})."""
    ks = np.arange(-ps.truncation, ps.truncation + 1)
    return complex(np.sum(PsiSeries.coefficient(ks) * np.exp(1j * ((1 - ks) * theta1 + ks * theta2))))


def psi_projection(ps: PsiSeries) -> Symbol:
    """Analytic part of the truncated series (both exponents >= 0)."""
    return Symbol(2, [((1 - k, k), PsiSeries.coefficient(k)) for k in (0, 1)])


def psi_sup_estimate(K: int, grid_n: int = 512) -> NormEstimate:
    """Grid maximum of the truncated completion series modulus.

    The series is 1-homogeneous, so its modulus depends only on the angle
    difference and the max over the full grid_n x grid_n torus grid equals
    the max over the grid_n difference angles, which is what gets
    evaluated. The value is a lower estimate of the sup of the truncated
    series, not of the limit: the Gibbs overshoot next to the phase jump
    at u = pi puts that sup near 1.852 at K = 10^4, between grid points.
    The error bound instead measures the distance of the grid max to
    pi/2, the modulus of the limit. The partial sums converge slowly: at
    the grid points next to the jump, at half-angle pi / grid_n from it,
    the deviation has an empirical envelope of about grid_n / (2 pi K),
    which is reported as the error bound (an observed scale, not a
    certified bound).
    """
    if K < 1:
        raise DomainError("truncation must be >= 1")
    if grid_n < 16:
        raise DomainError("grid must have at least 16 points")
    check_budget(grid_n, MAX_GRID_POINTS, "tensor grid (MAX_GRID_POINTS)", "points")
    check_budget(grid_n, MAX_1D_GRID_POINTS, "one-dimensional grid (MAX_1D_GRID_POINTS)", "points")
    check_budget(K, MAX_PSI_TRUNC, "completion series truncation (MAX_PSI_TRUNC)", "terms per side")
    check_budget((66 * K + 58 * grid_n) / 2**20, MAX_PSI_MB, "completion series memory (MAX_PSI_MB)", "MB")
    ks = np.arange(-K, K + 1)
    (values,) = _grid_values(ks[:, None], PsiSeries.coefficient(ks), grid_n)
    envelope = grid_n / (2.0 * math.pi * K)
    return NormEstimate(
        float(np.abs(values).max()),
        "grid-quadrature",
        envelope,
        f"symmetric partial sum K={K} on the {grid_n}-point difference grid "
        f"(equals the {grid_n}x{grid_n} torus grid max); lower estimate, "
        "error bound is the empirical near-jump envelope N/(2 pi K)",
    )
