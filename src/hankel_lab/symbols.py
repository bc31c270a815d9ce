"""Sparse analytic polynomials on the d-torus.

A symbol is a finite sum  sum_alpha c_alpha z^alpha  with multi-indices
alpha in N_0^d stored as exponent tuples. Coefficients are complex doubles
and exact zeros are dropped, so the stored support is canonical. Symbols
are immutable after construction and all operations return new objects,
which makes concurrent reads safe.

The canonical ordering of multi-indices is graded lexicographic: lower
total degree first, and within a degree the earlier variables carry the
higher powers first, so for d=2 the degree-2 indices come as
(2,0), (1,1), (0,2). A symbol keeps its terms in that order from
construction on, so equal symbols list them alike whatever order they
were given in, and every computation that walks them does too.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

from .errors import DomainError, ParseError


def degree(alpha) -> int:
    """Total degree of an exponent tuple."""
    return sum(alpha)


def dominated_by(beta, alpha) -> bool:
    """Componentwise comparison beta <= alpha."""
    return all(b <= a for b, a in zip(beta, alpha))


def grlex_key(alpha):
    """Sort key realising the graded lexicographic order."""
    return (sum(alpha), tuple(-e for e in alpha))


def _root_sum_squares(pairs) -> float:
    """sqrt(sum_k w_k |c_k|^2) over (w_k, c_k) pairs with weights w_k >= 0.

    Summed as given (math.fsum) when that is finite. A modulus beyond
    about 1.34e154 has a square that overflows a double; the sum is then
    taken of w_k (|c_k| / M)^2, M the largest modulus, and multiplied by
    M after the square root. DomainError if the result itself exceeds the
    double range.
    """
    pairs = [(w, abs(c)) for w, c in pairs]
    try:
        total = math.fsum(w * m**2 for w, m in pairs)
    except OverflowError:
        total = math.inf
    if math.isfinite(total):
        return math.sqrt(total)
    top = max(m for _, m in pairs)
    value = top * math.sqrt(math.fsum(w * (m / top) ** 2 for w, m in pairs))
    if not math.isfinite(value):
        raise DomainError(f"the root sum of squares exceeds the double range (largest modulus {top:.3g})")
    return value


def _validated_index(alpha, dim):
    alpha = tuple(alpha)
    if len(alpha) != dim:
        raise DomainError(
            f"multi-index {alpha} has length {len(alpha)}, expected dimension {dim}"
        )
    for e in alpha:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise DomainError(f"multi-index {alpha}: exponents must be integers >= 0")
    return alpha


class Symbol:
    """Polynomial symbol with finitely many nonzero Fourier coefficients."""

    __slots__ = ("dim", "_coeffs")

    def __init__(self, dim, terms=()):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise DomainError(f"dimension must be a positive integer, got {dim!r}")
        coeffs = {}
        for alpha, c in terms:
            alpha = _validated_index(alpha, dim)
            coeffs[alpha] = coeffs.get(alpha, 0j) + complex(c)
        for alpha, c in coeffs.items():  # also catches sums and products that overflow
            if not cmath.isfinite(c):
                raise DomainError(f"coefficient {c} of multi-index {alpha} is not finite")
        self.dim = dim
        self._coeffs = {a: coeffs[a] for a in sorted(coeffs, key=grlex_key) if coeffs[a] != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim) -> "Symbol":
        return cls(dim)

    @classmethod
    def one(cls, dim) -> "Symbol":
        return cls(dim, [((0,) * dim, 1.0)])

    @classmethod
    def monomial(cls, dim, alpha, coeff=1.0) -> "Symbol":
        return cls(dim, [(alpha, coeff)])

    @classmethod
    def variable(cls, dim, j) -> "Symbol":
        """The coordinate symbol z_j (0-based j)."""
        if not 0 <= j < dim:
            raise DomainError(f"variable index {j} outside 0..{dim - 1}")
        alpha = tuple(1 if i == j else 0 for i in range(dim))
        return cls(dim, [(alpha, 1.0)])

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def support(self):
        """Multi-indices with nonzero coefficient, in graded lex order."""
        return tuple(self._coeffs)

    def terms(self):
        """(alpha, coefficient) pairs in graded lex order."""
        return list(self._coeffs.items())

    def coeff(self, alpha) -> complex:
        return self._coeffs.get(tuple(alpha), 0j)

    def degree(self) -> int:
        """Largest total degree in the support (0 for the zero symbol)."""
        return max((degree(a) for a in self._coeffs), default=0)

    def variable_support(self) -> frozenset:
        """Indices j such that some supported monomial contains z_j."""
        active = set()
        for a in self._coeffs:
            active.update(j for j, e in enumerate(a) if e > 0)
        return frozenset(active)

    def is_homogeneous(self):
        """The common total degree m, or None. The zero symbol reports 0."""
        degrees = {degree(a) for a in self._coeffs}
        if not degrees:
            return 0
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def homogeneous_part(self, m) -> "Symbol":
        """Restriction to the terms of total degree m."""
        return Symbol(self.dim, [(a, c) for a, c in self._coeffs.items() if degree(a) == m])

    # -- algebra -----------------------------------------------------------

    def _require_same_dim(self, other):
        if self.dim != other.dim:
            raise DomainError(
                f"dimension mismatch: {self.dim} vs {other.dim} "
                "(embed one symbol first)"
            )

    def __add__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        self._require_same_dim(other)
        terms = list(self._coeffs.items()) + list(other._coeffs.items())
        return Symbol(self.dim, terms)

    def __neg__(self):
        return Symbol(self.dim, [(a, -c) for a, c in self._coeffs.items()])

    def __sub__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Symbol):
            self._require_same_dim(other)
            terms = []
            for a, ca in self._coeffs.items():
                for b, cb in other._coeffs.items():
                    terms.append((tuple(x + y for x, y in zip(a, b)), ca * cb))
            return Symbol(self.dim, terms)
        if isinstance(other, (int, float, complex)):
            return Symbol(self.dim, [(a, c * other) for a, c in self._coeffs.items()])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return self.dim == other.dim and self._coeffs == other._coeffs

    __hash__ = None

    # -- analysis ----------------------------------------------------------

    def h2_norm(self) -> float:
        """sqrt of the sum of squared coefficient moduli (Parseval)."""
        return _root_sum_squares((1, c) for c in self._coeffs.values())

    def reflect(self) -> "Symbol":
        """Conjugate every coefficient; the support is unchanged.

        On the torus this realises z -> conj(phi(conj(z))).
        """
        return Symbol(self.dim, [(a, c.conjugate()) for a, c in self._coeffs.items()])

    def evaluate(self, angles) -> complex:
        """Value at the torus point (e^{i t_1}, ..., e^{i t_d})."""
        angles = tuple(angles)
        if len(angles) != self.dim:
            raise DomainError(
                f"got {len(angles)} angles for a symbol in dimension {self.dim}"
            )
        total = 0j
        for a, c in self._coeffs.items():
            total += c * cmath.exp(1j * sum(e * t for e, t in zip(a, angles)))
        return total

    def embed(self, new_dim) -> "Symbol":
        """Reinterpret in a larger dimension by appending zero exponents."""
        if new_dim < self.dim:
            raise DomainError(f"cannot embed dimension {self.dim} into {new_dim}")
        pad = (0,) * (new_dim - self.dim)
        return Symbol(new_dim, [(a + pad, c) for a, c in self._coeffs.items()])

    # -- rendering ---------------------------------------------------------

    def __repr__(self):
        return f"Symbol(dim={self.dim}, terms={len(self._coeffs)})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for a, c in self.terms():
            factors = [f"z{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(a) if e > 0]
            mono = "*".join(factors) if factors else "1"
            if c.imag == 0:
                cs = f"{c.real:g}"
            else:
                cs = f"({c.real:g}{c.imag:+g}j)"
            parts.append(f"{cs}*{mono}")
        return " + ".join(parts)


def make_symbol(dim, terms) -> Symbol:
    """Build a Symbol from (multi-index, coefficient) pairs.

    Duplicate indices are summed and exact-zero coefficients dropped.
    """
    return Symbol(dim, terms)


def separate_variables(a: Symbol, b: Symbol) -> bool:
    """True when the two symbols involve disjoint sets of variables."""
    if a.dim != b.dim:
        raise DomainError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return not (a.variable_support() & b.variable_support())


# A caller computes a norm from the factors of split_factors only when the
# fit residual's bound is at most this share of the value.
FACTOR_RTOL = 1e-12


def split_factors(s: Symbol):
    """The finest factors of s in disjoint variables, and the fit residual.

    Returns (factors, delta). factors is a list of (variables, factor)
    pairs: the variable groups partition range(s.dim), each a sorted
    tuple, and each factor is a Symbol in len(variables) dimensions. delta
    is s minus the product of the factors, on the support of s, to the
    rounding of that product. One factor, s itself with delta zero, means
    that no split was found.

    Detection is polynomial in d and the support size. Variables i and j
    are joined when the support's projection on (i, j) is not the product
    of its projections on i and on j, which never happens for variables of
    different true factors; the connected components are the candidate
    groups. The groups that do not split off the rest on their own are
    merged into one, and the split stands only if the support is the
    product of the groups' projections. Variables on which the support
    takes one exponent join the first group. The coefficients are then
    fitted as a rank-1 product through the largest one. A split can be
    missed (two parity supports in disjoint variables), but never wrongly
    claimed: what the fit leaves is delta, which callers bound.
    """
    d = s.dim
    support = list(s._coeffs)
    whole = ([(tuple(range(d)), s)], Symbol.zero(d))
    if len(support) < 2:
        return whole
    columns = list(zip(*support))
    sizes = [len(set(column)) for column in columns]
    moving = [j for j in range(d) if sizes[j] > 1]
    parent = {j: j for j in moving}

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for i, j in itertools.combinations(moving, 2):
        ri, rj = root(i), root(j)
        if ri != rj and len(set(zip(columns[i], columns[j]))) != sizes[i] * sizes[j]:
            parent[ri] = rj
    components = {}
    for j in moving:
        components.setdefault(root(j), []).append(j)

    @functools.cache
    def projected(group):
        """How many distinct projections the support has on group, a tuple."""
        return len(set(zip(*(columns[j] for j in group))))

    n = len(support)
    groups, merged = [], []
    for group in components.values():
        rest = tuple(j for j in moving if j not in group)
        if projected(tuple(group)) * projected(rest) == n:
            groups.append(group)
        else:
            merged += group
    if merged:
        groups.append(sorted(merged))
    groups.sort()
    if len(groups) < 2 or math.prod(projected(tuple(g)) for g in groups) != n:
        return whole
    groups[0] = sorted(groups[0] + [j for j in range(d) if sizes[j] == 1])

    import numpy as np

    coeffs = s._coeffs
    values = list(coeffs.values())
    moduli = list(map(abs, values))
    top = support[max(range(n), key=moduli.__getitem__)]
    # exponents from 2^63 up do not fit int64 and stay exact Python ints
    exponents = np.array(support, dtype=np.int64 if max(map(max, support)) < 1 << 63 else object)
    fits, positions, factors = [], [], []
    for i, group in enumerate(groups):
        scale = 1.0 if i == 0 else coeffs[top]
        # the distinct projections on group, and each term's among them
        block = exponents[:, group]
        order = np.lexsort(block.T)
        first = np.ones(n, dtype=bool)
        first[1:] = (block[order[1:]] != block[order[:-1]]).any(axis=1)
        position = np.empty(n, dtype=np.int64)
        position[order] = np.cumsum(first) - 1
        keys = [tuple(a) for a in block[order[first]].tolist()]
        fit = []
        for a in keys:
            alpha = list(top)
            for j, e in zip(group, a):
                alpha[j] = e
            fit.append(coeffs[tuple(alpha)] / scale)
        fits.append(np.array(fit))
        positions.append(position)
        factors.append((tuple(group), Symbol(len(group), zip(keys, fit))))
    # The support is the product of the projections, so a term's fitted value
    # is the product of one coefficient from each factor, gathered per factor.
    # The products are Python's complex products, written out in real
    # arithmetic: numpy's complex multiply may fuse and round differently.
    re, im = fits[0].real[positions[0]], fits[0].imag[positions[0]]
    for fit, position in zip(fits[1:], positions[1:]):
        fit_re, fit_im = fit.real[position], fit.imag[position]
        re, im = re * fit_re - im * fit_im, re * fit_im + im * fit_re
    residual = np.array(values) - (re + 1j * im)
    if np.isfinite(residual).all():  # the indices are s's, so nothing is left to check
        delta = Symbol.__new__(Symbol)
        delta.dim = d
        delta._coeffs = {a: c for a, c in zip(support, residual.tolist()) if c != 0}
    else:  # refused, naming the coefficient that overflowed
        delta = Symbol(d, zip(support, residual.tolist()))
    return factors, delta


# -- text format -----------------------------------------------------------
#
# Line oriented, UTF-8:
#   dim <d>
#   <re> <im> : <e1> <e2> ... <ed>
# '#' starts a comment line; blank lines are ignored. Floats are written
# with repr() so the writer/parser round-trip is bit-identical. A term line
# is also the body of a recipe leaf (mono <re> <im> : <e1> ... <ed>), so
# parse_term and format_term serve both formats.


def format_term(alpha, c) -> str:
    c = complex(c)
    return f"{c.real!r} {c.imag!r} : " + " ".join(str(e) for e in alpha)


def parse_term(text, line=None, dim=None):
    """(alpha, c) from '<re> <im> : <e1> ... <ed>'; dim, when given, fixes d."""
    if ":" not in text:
        raise ParseError("expected '<re> <im> : <exponents>'", line=line)
    left, _, right = text.partition(":")
    coeff_parts = left.split()
    if len(coeff_parts) != 2:
        raise ParseError(f"expected two reals before ':', got {len(coeff_parts)}", line=line)
    try:
        c = complex(float(coeff_parts[0]), float(coeff_parts[1]))
    except ValueError:
        raise ParseError(f"bad coefficient {left.strip()!r}", line=line) from None
    if not cmath.isfinite(c):
        raise ParseError(f"coefficient {left.strip()!r} is not finite", line=line)
    exp_parts = right.split()
    if dim is not None and len(exp_parts) != dim:
        raise ParseError(f"expected {dim} exponents, got {len(exp_parts)}", line=line)
    if not exp_parts:
        raise ParseError("expected at least one exponent after ':'", line=line)
    try:
        alpha = tuple(int(p) for p in exp_parts)
    except ValueError:
        raise ParseError(f"bad exponent list {right.strip()!r}", line=line) from None
    if any(e < 0 for e in alpha):
        raise ParseError(f"negative exponent in {alpha}", line=line)
    return alpha, c


def format_symbol(s: Symbol) -> str:
    return "\n".join([f"dim {s.dim}"] + [format_term(a, c) for a, c in s.terms()]) + "\n"


def parse_symbol(text: str) -> Symbol:
    dim = None
    terms = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if dim is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise ParseError(f"expected 'dim <d>', got {line!r}", line=lineno)
            try:
                dim = int(parts[1])
            except ValueError:
                raise ParseError(f"bad dimension {parts[1]!r}", line=lineno) from None
            if dim < 1:
                raise ParseError(f"dimension must be >= 1, got {dim}", line=lineno)
            continue
        terms.append(parse_term(line, lineno, dim))
    if dim is None:
        raise ParseError("missing 'dim <d>' header")
    return Symbol(dim, terms)
