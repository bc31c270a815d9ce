"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own evaluation and
basis-enumeration code paths: direct exponential sums, brute-force
simplex matrices, and plain trapezoid loops.
"""

import cmath
import itertools
import math

import numpy as np

from hankel_lab import Symbol, grlex_key, make_symbol


def z(dim, j):
    return Symbol.variable(dim, j)


def phi2(a):
    return make_symbol(2, [((2, 0), 1.0), ((1, 1), a), ((0, 2), 1.0)])


def phi3(b):
    return make_symbol(2, [((3, 0), 1.0), ((2, 1), b), ((1, 2), b), ((0, 3), 1.0)])


def pair_product(d):
    """Product of d pair sums (z1+z2)(z3+z4)... in dimension 2d."""
    dim = 2 * d
    out = Symbol.one(dim)
    for j in range(d):
        out = out * (z(dim, 2 * j) + z(dim, 2 * j + 1))
    return out


# (z1^2 + 0.5 z2^2)(z3^3 - 2 z4 z5^2): a recipe prod of two sums
RECIPE_PRODUCT = """(prod
  (sum (mono 1.0 0.0 : 2 0 0 0 0) (mono 0.5 0.0 : 0 2 0 0 0))
  (sum (mono 1.0 0.0 : 0 0 3 0 0) (mono -2.0 0.0 : 0 0 0 1 2)))
"""


def embedded_product(dim, factors):
    """Product of (variables, Symbol) factors, each Symbol on len(variables) dimensions."""
    out = Symbol.one(dim)
    for variables, f in factors:
        terms = []
        for a, c in f.terms():
            alpha = [0] * dim
            for j, e in zip(variables, a):
                alpha[j] = e
            terms.append((tuple(alpha), c))
        out = out * make_symbol(dim, terms)
    return out


def circle_factor(rng, m):
    """c * prod (w - r_k) on one variable, every root at modulus 0.4-0.75 or 1.33-2.5."""
    coeffs = np.array([complex(*rng.normal(size=2))])
    for _ in range(m):
        modulus = rng.uniform(0.4, 0.75) if rng.random() < 0.5 else rng.uniform(1.33, 2.5)
        root = modulus * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        coeffs = np.concatenate([[0], coeffs]) - root * np.concatenate([coeffs, [0]])
    return make_symbol(1, [((e,), complex(c)) for e, c in enumerate(coeffs)])


def one_variable_product(rng, degrees):
    """Product of circle_factor polynomials of these degrees, one variable each."""
    return embedded_product(len(degrees), [((j,), circle_factor(rng, m)) for j, m in enumerate(degrees)])


def permuted_product():
    """(a_i b_j) on {0,1,2} x {0,1}, unit coefficients, from a term list and from its reverse."""
    a = [cmath.exp(1j * x) for x in (0.3, 1.1, 2.0)]
    b = [cmath.exp(1j * x) for x in (0.7, 2.9)]
    terms = [((i, j), a[i] * b[j]) for i in range(3) for j in range(2)]
    return Symbol(2, terms), Symbol(2, terms[::-1])


def hom2_product(rng, degrees):
    """Product of two-variable homogeneous polynomials with nonzero coefficients, on (z1, z2), (z3, z4), ..."""
    factors = []
    for i, m in enumerate(degrees):
        coeffs = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
        factors.append(((2 * i, 2 * i + 1), make_symbol(2, [((j, m - j), complex(c)) for j, c in enumerate(coeffs)])))
    return embedded_product(2 * len(degrees), factors)


def component_block_norms(s):
    """(k, norm) for k = 1 .. m/2 of an m-homogeneous s: the largest over hankel.components with column degree k.

    Not an oracle: the component path as it assembles every component, to
    compare the restricted and factored paths with bit for bit.
    """
    from hankel_lab import components, degree, spectral_norm

    norms = dict.fromkeys(range(1, s.is_homogeneous() // 2 + 1), 0.0)
    for block in components(s):
        k = degree(block.column_basis[0])
        if k in norms:
            norms[k] = max(norms[k], spectral_norm(block).value)
    return list(norms.items())


def perturbed(rng, s, eps):
    """s with every coefficient moved by a relative eps, on the same support."""
    return make_symbol(s.dim, [(a, c * (1 + eps * complex(*rng.normal(size=2)))) for a, c in s.terms()])


def downward_closure(support):
    """Brute-force closure: the union of the boxes {gamma <= alpha}, sorted by grlex_key."""
    closed = set()
    for alpha in support:
        closed.update(itertools.product(*(range(e + 1) for e in alpha)))
    return tuple(sorted(closed, key=grlex_key))


def random_symbol(rng, dim, max_degree=3, n_terms=4, complex_coeffs=True,
                  homogeneous=None, variables=None, no_constant=False):
    """Random nonzero symbol with bounded degree on a variable subset."""
    variables = list(range(dim)) if variables is None else list(variables)
    while True:
        terms = []
        for _ in range(n_terms):
            target = homogeneous if homogeneous is not None else int(rng.integers(0, max_degree + 1))
            if no_constant and homogeneous is None:
                target = max(target, 1)
            alpha = [0] * dim
            for _ in range(target):
                alpha[variables[rng.integers(0, len(variables))]] += 1
            c = rng.uniform(-2, 2)
            if complex_coeffs:
                c = complex(c, rng.uniform(-2, 2))
            terms.append((tuple(alpha), c))
        s = make_symbol(dim, terms)
        if not s.is_zero:
            return s


def eval_direct(s, angles):
    """Independent pointwise evaluation (plain Python exp sum)."""
    total = 0j
    for alpha, c in s.terms():
        total += c * cmath.exp(1j * sum(e * t for e, t in zip(alpha, angles)))
    return total


def grid_mean_abs_pow(s, n, p):
    """Plain trapezoid mean of |phi|^p over the n^d uniform grid."""
    points = [2 * math.pi * t / n for t in range(n)]
    total = 0.0
    for angles in itertools.product(points, repeat=s.dim):
        total += abs(eval_direct(s, angles)) ** p
    return total / n**s.dim


def grid_max_abs(s, n):
    """Plain max of |phi| over the n^d uniform grid."""
    points = [2 * math.pi * t / n for t in range(n)]
    return max(abs(eval_direct(s, angles)) for angles in itertools.product(points, repeat=s.dim))


def brute_matrix(s, max_degree=None):
    """Operator matrix over the full simplex of indices of degree <= D.

    Independent of the library's active-basis enumeration; only the entry
    rule  entry[gamma, beta] = conj(coeff(beta + gamma))  is shared.
    """
    if max_degree is None:
        max_degree = s.degree()
    basis = [
        alpha
        for alpha in itertools.product(range(max_degree + 1), repeat=s.dim)
        if sum(alpha) <= max_degree
    ]
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for i, gamma in enumerate(basis):
        for j, beta in enumerate(basis):
            out[i, j] = s.coeff(tuple(x + y for x, y in zip(beta, gamma))).conjugate()
    return out


def brute_norm(s, max_degree=None):
    mat = brute_matrix(s, max_degree)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[0])
