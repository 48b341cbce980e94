"""Exact algebra of polynomial differential k-forms on one simplex.

Forms are stored over Cartesian coordinates (axes numbered 0..n-1) as a map
from (monomial exponent vector, strictly increasing axis tuple) to a float
coefficient.  The exterior derivative, Hodge star, codifferential, Koszul
contraction and traces are all closed-form operations on that map; integration
converts per term to barycentric monomials where the factorial formula

    integral over T of lambda^a  =  a_0! ... a_n! n! / (|a| + n)! * |T|

is exact for every polynomial degree.

The same forms are also vectors over a fixed coordinate basis: every pair
(exponent of degree <= MAX_COEFF_DEGREE, multi-index), multi-index major.
On coefficient vectors d is a constant matrix per (n, k), built once from
`exterior_derivative`, and the L2 product over a cell is the cell's mass
matrix: one block of monomial moments of degree <= 2 MAX_COEFF_DEGREE per
multi-index (`product_positions`), which the mesh's moment table holds for
every cell (`spaces.MeshGeometry`).  `PolyForm` and `l2_inner` stay the
definition and the oracle of both.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    DegreeUnderflow,
    InvalidParameter,
)

MAX_COEFF_DEGREE = 3


@lru_cache(maxsize=None)
def multiindices(k, n):
    """All strictly increasing k-tuples with entries in 0..n-1 (lexicographic)."""
    if k < 0 or k > n:
        return ()
    return tuple(itertools.combinations(range(n), k))


def _merge_sign(alpha, beta):
    """Sign of sorting the concatenation (alpha, beta); 0 if they intersect."""
    if set(alpha) & set(beta):
        return 0, ()
    combined = list(alpha) + list(beta)
    sign = 1
    # insertion sort keeps the permutation parity explicit
    for i in range(1, len(combined)):
        j = i
        while j > 0 and combined[j - 1] > combined[j]:
            combined[j - 1], combined[j] = combined[j], combined[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(combined)


def star_sign(alpha, n):
    """Sign s with star(dx^alpha) = s * dx^complement, from dx^a ^ star dx^a = vol."""
    comp = tuple(i for i in range(n) if i not in alpha)
    sign, _ = _merge_sign(alpha, comp)
    return sign, comp


def codifferential_sign(j, n):
    """Sign making delta_j = sign * star d^(n-j) star the L2 adjoint of d^(j-1)."""
    return (-1) ** (j + (j - 1) * (n - j + 1))


class PolyForm:
    """A polynomial differential k-form on R^n with coefficient degree <= 3."""

    __slots__ = ("n", "k", "terms")

    def __init__(self, n, k, terms=None):
        # degrees above n are allowed and denote the zero space Lambda^k = {0}
        if k < 0:
            raise InvalidParameter("form degree %d is negative" % k)
        self.n = n
        self.k = k
        self.terms = {}
        if terms:
            for (expo, midx), c in terms.items():
                self._accumulate(tuple(expo), tuple(midx), float(c))

    def _accumulate(self, expo, midx, coeff):
        if coeff == 0.0:
            return
        if len(expo) != self.n or sum(expo) > MAX_COEFF_DEGREE:
            raise InvalidParameter("monomial %s exceeds degree cap" % (expo,))
        if len(midx) != self.k or any(
            midx[i] >= midx[i + 1] for i in range(len(midx) - 1)
        ):
            raise InvalidParameter("bad multi-index %s for degree %d" % (midx, self.k))
        key = (expo, midx)
        new = self.terms.get(key, 0.0) + coeff
        if new == 0.0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n, k):
        return cls(n, k)

    @classmethod
    def monomial(cls, n, k, expo, midx, coeff=1.0):
        return cls(n, k, {(tuple(expo), tuple(midx)): coeff})

    @classmethod
    def one(cls, n):
        return cls.monomial(n, 0, (0,) * n, ())

    @classmethod
    def coordinate(cls, n, axis):
        expo = tuple(1 if i == axis else 0 for i in range(n))
        return cls.monomial(n, 0, expo, ())

    @classmethod
    def basis_form(cls, n, midx):
        return cls.monomial(n, len(midx), (0,) * n, tuple(midx))

    # -- ring / module structure -------------------------------------------

    def __add__(self, other):
        if (self.n, self.k) != (other.n, other.k):
            raise DegreeMismatch("cannot add forms of different type")
        out = PolyForm(self.n, self.k, self.terms)
        for key, c in other.terms.items():
            out._accumulate(key[0], key[1], c)
        return out

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __rmul__(self, scalar):
        out = PolyForm(self.n, self.k)
        for (expo, midx), c in self.terms.items():
            out._accumulate(expo, midx, scalar * c)
        return out

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def scale_by_polynomial(self, poly):
        """Multiply by a 0-form."""
        if poly.k != 0:
            raise DegreeMismatch("multiplier must be a 0-form")
        out = PolyForm(self.n, self.k)
        for (ea, _), ca in poly.terms.items():
            for (eb, midx), cb in self.terms.items():
                expo = tuple(a + b for a, b in zip(ea, eb))
                out._accumulate(expo, midx, ca * cb)
        return out

    def wedge(self, other):
        if self.n != other.n:
            raise DegreeMismatch("ambient dimensions differ")
        if self.k + other.k > self.n:
            raise DegreeOverflow("wedge degree exceeds ambient dimension")
        out = PolyForm(self.n, self.k + other.k)
        for (ea, ma), ca in self.terms.items():
            for (eb, mb), cb in other.terms.items():
                sign, merged = _merge_sign(ma, mb)
                if sign == 0:
                    continue
                expo = tuple(a + b for a, b in zip(ea, eb))
                out._accumulate(expo, merged, sign * ca * cb)
        return out

    # -- queries -------------------------------------------------------------

    def is_zero(self, tol=0.0):
        if tol == 0.0:
            return not self.terms
        return all(abs(c) <= tol for c in self.terms.values())

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def poly_degree(self):
        return max((sum(e) for (e, _) in self.terms), default=0)

    def coefficient(self, midx):
        """The scalar polynomial multiplying dx^midx, as a 0-form."""
        out = PolyForm(self.n, 0)
        for (expo, m), c in self.terms.items():
            if m == tuple(midx):
                out._accumulate(expo, (), c)
        return out

    def coefficients_at(self, x):
        """Array of coefficient values at point x, ordered by multiindices(k, n)."""
        x = np.asarray(x, dtype=float)
        vals = {}
        for (expo, midx), c in self.terms.items():
            mono = 1.0
            for xi, e in zip(x, expo):
                mono *= xi**e
            vals[midx] = vals.get(midx, 0.0) + c * mono
        return np.array([vals.get(m, 0.0) for m in multiindices(self.k, self.n)])

    def coefficient_vector(self):
        """The form as a vector over the coordinate basis of k-forms (`coefficient_basis`)."""
        positions = _basis_positions(self.n, self.k)
        out = np.zeros(len(positions))
        for key, c in self.terms.items():
            out[positions[key]] = c
        return out

    @classmethod
    def from_coefficient_vector(cls, n, k, vec):
        """The k-form whose `coefficient_vector` is ``vec``."""
        basis = coefficient_basis(n, k)
        return cls(n, k, {basis[i]: vec[i] for i in np.flatnonzero(vec)})

    def __repr__(self):
        if not self.terms:
            return "PolyForm(n=%d, k=%d, 0)" % (self.n, self.k)
        bits = []
        for (expo, midx), c in sorted(self.terms.items()):
            mono = "".join(
                "x%d^%d" % (i, e) if e > 1 else ("x%d" % i if e else "")
                for i, e in enumerate(expo)
            )
            dx = "^".join("dx%d" % i for i in midx)
            bits.append("%+g %s %s" % (c, mono or "1", dx or ""))
        return "PolyForm(n=%d, k=%d, %s)" % (self.n, self.k, " ".join(bits))


# -- calculus operators -------------------------------------------------------


def exterior_derivative(form: PolyForm) -> PolyForm:
    """d: degree k -> k+1, coefficient-wise partials with antisymmetrization."""
    if form.k >= form.n:
        raise DegreeOverflow("d undefined on top-degree forms")
    out = PolyForm(form.n, form.k + 1)
    for (expo, midx), c in form.terms.items():
        for axis in range(form.n):
            e = expo[axis]
            if e == 0 or axis in midx:
                continue
            sign, merged = _merge_sign((axis,), midx)
            new_expo = tuple(
                v - 1 if i == axis else v for i, v in enumerate(expo)
            )
            out._accumulate(new_expo, merged, sign * c * e)
    return out


def hodge_star(form: PolyForm) -> PolyForm:
    """Euclidean star with orientation dx0 ^ ... ^ dx(n-1)."""
    if form.k > form.n:
        raise DegreeOverflow("star undefined above the top degree")
    out = PolyForm(form.n, form.n - form.k)
    for (expo, midx), c in form.terms.items():
        sign, comp = star_sign(midx, form.n)
        out._accumulate(expo, comp, sign * c)
    return out


def codifferential(form: PolyForm) -> PolyForm:
    """delta: degree k -> k-1, the formal L2 adjoint of d (star-d-star with sign)."""
    if form.k == 0:
        raise DegreeUnderflow("delta undefined on 0-forms")
    sign = codifferential_sign(form.k, form.n)
    return sign * hodge_star(exterior_derivative(hodge_star(form)))


def koszul(form: PolyForm, center=None) -> PolyForm:
    """Contraction with the (centered) position field; degree k -> k-1.

    ``center`` is None for the origin-based operator or a point (the simplex
    centroid) so that each coordinate is shifted to have zero cell average.
    """
    if form.k == 0:
        raise DegreeUnderflow("koszul undefined on 0-forms")
    c0 = np.zeros(form.n) if center is None else np.asarray(center, dtype=float)
    out = PolyForm(form.n, form.k - 1)
    for (expo, midx), c in form.terms.items():
        for j, axis in enumerate(midx):
            rest = midx[:j] + midx[j + 1 :]
            sign = (-1) ** j
            new_expo = tuple(v + 1 if i == axis else v for i, v in enumerate(expo))
            out._accumulate(new_expo, rest, sign * c)
            if c0[axis] != 0.0:
                out._accumulate(expo, rest, -sign * c * c0[axis])
    return out


# -- cell geometry ------------------------------------------------------------


class CellGeometry:
    """One n-simplex: coordinates, barycentric maps, exact monomial integrals."""

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1] + 1:
            raise InvalidParameter("need n+1 vertices of dimension n")
        self.vertices = V
        self.n = V.shape[1]
        E = (V[1:] - V[0]).T
        det = np.linalg.det(E)
        if det == 0.0:
            raise InvalidParameter("degenerate simplex")
        self.orientation = 1.0 if det > 0 else -1.0
        self.volume = abs(det) / math.factorial(self.n)
        self.centroid = V.mean(axis=0)
        # barycentric coordinates: lambda_j(x) = affine_j + grad_j . x
        A = np.vstack([np.ones(self.n + 1), V.T])
        Ainv = np.linalg.inv(A)
        self.bary_affine = Ainv[:, 0].copy()
        self.bary_gradients = Ainv[:, 1:].copy()
        self._monomial_cache = {}
        self.diameter = max(
            np.linalg.norm(V[i] - V[j])
            for i in range(self.n + 1)
            for j in range(i + 1, self.n + 1)
        )

    def barycentric(self, j):
        """lambda_j as a degree-1 PolyForm (0-form)."""
        form = PolyForm.one(self.n) * self.bary_affine[j]
        for axis in range(self.n):
            g = self.bary_gradients[j, axis]
            if g != 0.0:
                form = form + g * PolyForm.coordinate(self.n, axis)
        return form

    def barycentric_differential(self, j):
        """d(lambda_j) as a constant 1-form."""
        out = PolyForm(self.n, 1)
        for axis in range(self.n):
            g = self.bary_gradients[j, axis]
            if g != 0.0:
                out._accumulate((0,) * self.n, (axis,), g)
        return out

    def monomial_integral(self, expo):
        """Exact integral over the cell of x^expo."""
        expo = tuple(expo)
        cached = self._monomial_cache.get(expo)
        if cached is not None:
            return cached
        n = self.n
        # expand prod_i (sum_j V[j,i] lambda_j)^{expo_i} into barycentric monomials
        poly = {(0,) * (n + 1): 1.0}
        for axis, power in enumerate(expo):
            for _ in range(power):
                updated = {}
                for bexp, coeff in poly.items():
                    for j in range(n + 1):
                        v = self.vertices[j, axis]
                        if v == 0.0:
                            continue
                        key = tuple(
                            b + 1 if i == j else b for i, b in enumerate(bexp)
                        )
                        updated[key] = updated.get(key, 0.0) + coeff * v
                poly = updated
        total = 0.0
        nfact = math.factorial(n)
        for bexp, coeff in poly.items():
            num = nfact
            for b in bexp:
                num *= math.factorial(b)
            total += coeff * num / math.factorial(sum(bexp) + n)
        value = total * self.volume
        self._monomial_cache[expo] = value
        return value


def l2_inner(a: PolyForm, b: PolyForm, cell: CellGeometry) -> float:
    """Exact L2 inner product of two same-degree forms over the cell."""
    if a.k != b.k or a.n != b.n:
        raise DegreeMismatch("forms must share ambient dimension and degree")
    by_midx = {}
    for (expo, midx), c in b.terms.items():
        by_midx.setdefault(midx, []).append((expo, c))
    total = 0.0
    for (ea, midx), ca in a.terms.items():
        for eb, cb in by_midx.get(midx, ()):
            expo = tuple(x + y for x, y in zip(ea, eb))
            total += ca * cb * cell.monomial_integral(expo)
    return total


def inner_matrix(basis_a, basis_b, cell):
    """Matrix of exact L2 inner products between two lists of forms."""
    M = np.empty((len(basis_a), len(basis_b)))
    for i, a in enumerate(basis_a):
        for j, b in enumerate(basis_b):
            M[i, j] = l2_inner(a, b, cell)
    return M


# -- coefficient arrays -------------------------------------------------------


@lru_cache(maxsize=None)
def monomial_exponents(n, degree=MAX_COEFF_DEGREE):
    """Exponent vectors of total degree <= degree in n variables, as rows."""
    rows = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree]
    out = np.array(rows, dtype=int).reshape(len(rows), n)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def coefficient_basis(n, k):
    """The coordinate basis of k-forms: (exponent, multi-index) pairs, multi-index major."""
    monomials = [tuple(e) for e in monomial_exponents(n).tolist()]
    return tuple((e, m) for m in multiindices(k, n) for e in monomials)


@lru_cache(maxsize=None)
def _basis_positions(n, k):
    return {key: i for i, key in enumerate(coefficient_basis(n, k))}


@lru_cache(maxsize=None)
def derivative_matrix(n, k):
    """d on coefficient vectors of k-forms; it has no rows at the top degree."""
    basis = coefficient_basis(n, k)
    D = np.zeros((len(coefficient_basis(n, k + 1)), len(basis)))
    if k < n:
        for j, (expo, midx) in enumerate(basis):
            D[:, j] = exterior_derivative(PolyForm.monomial(n, k, expo, midx)).coefficient_vector()
    D.flags.writeable = False
    return D


def monomial_values(points, degree=MAX_COEFF_DEGREE):
    """Every monomial of degree <= degree at each point: a (points, monomials) array."""
    points = np.asarray(points, dtype=float)
    out = np.ones((points.shape[0], len(monomial_exponents(points.shape[1], degree))))
    for axis, powers in enumerate(monomial_exponents(points.shape[1], degree).T):
        out *= points[:, axis, None] ** powers
    return out


@lru_cache(maxsize=None)
def product_positions(n):
    """Position of e_i + e_j among the exponents of degree <= 2 MAX_COEFF_DEGREE."""
    high = {
        tuple(e): i for i, e in enumerate(monomial_exponents(n, 2 * MAX_COEFF_DEGREE).tolist())
    }
    low = monomial_exponents(n).tolist()
    return np.array([[high[tuple(a + b for a, b in zip(ea, eb))] for eb in low] for ea in low])


# -- traces -------------------------------------------------------------------


def trace_on(form: PolyForm, sub_vertices) -> PolyForm:
    """Pullback of the form under the affine inclusion of a sub-simplex.

    ``sub_vertices`` is an (m+1, n) array; the result is a k-form in the m
    parameters of the standard m-simplex.
    """
    W = np.asarray(sub_vertices, dtype=float)
    m = W.shape[0] - 1
    if m < form.k:
        # the pullback of a k-form to a lower-dimensional simplex vanishes
        return PolyForm(m, form.k)
    T = (W[1:] - W[0]).T  # (n, m): dx^i = sum_j T[i, j] dt^j
    w0 = W[0]
    out = PolyForm(m, form.k)
    # affine substitution x_axis = w0[axis] + sum_j T[axis, j] t_j per monomial
    for (expo, midx), c in form.terms.items():
        poly = {(0,) * m: c}
        for axis, power in enumerate(expo):
            for _ in range(power):
                updated = {}
                for texp, coeff in poly.items():
                    if w0[axis] != 0.0:
                        updated[texp] = updated.get(texp, 0.0) + coeff * w0[axis]
                    for j in range(m):
                        if T[axis, j] == 0.0:
                            continue
                        key = tuple(
                            t + 1 if i == j else t for i, t in enumerate(texp)
                        )
                        updated[key] = updated.get(key, 0.0) + coeff * T[axis, j]
                poly = updated
        for beta in multiindices(form.k, m):
            minor = T[np.ix_(midx, beta)] if form.k else np.ones((0, 0))
            det = np.linalg.det(minor) if form.k else 1.0
            if det == 0.0:
                continue
            for texp, coeff in poly.items():
                out._accumulate(texp, beta, coeff * det)
    return out


@lru_cache(maxsize=8)
def reference_simplex(m):
    """Standard m-simplex with vertices 0, e_1, ..., e_m."""
    V = np.vstack([np.zeros(m), np.eye(m)])
    return CellGeometry(V)


def integral_over_subsimplex(form: PolyForm, sub_vertices) -> float:
    """Integral of the trace of a k-form over a k-dimensional sub-simplex.

    The sub-simplex is oriented by the order of ``sub_vertices``.
    """
    W = np.asarray(sub_vertices, dtype=float)
    m = W.shape[0] - 1
    if m != form.k:
        raise DegreeMismatch("sub-simplex dimension must equal the form degree")
    tr = trace_on(form, W)
    if m == 0:
        return sum(tr.terms.values())
    ref = reference_simplex(m)
    total = 0.0
    for (expo, _), c in tr.terms.items():
        total += c * ref.monomial_integral(expo)
    return total


def stokes_boundary_integral(form: PolyForm, cell: CellGeometry) -> float:
    """Integral of the trace of an (n-1)-form over the oriented cell boundary.

    Equals the cell integral of d(form) by Stokes' theorem; serves as the
    independent boundary oracle for integration-by-parts checks.
    """
    if form.k != cell.n - 1:
        raise DegreeMismatch("boundary integration needs an (n-1)-form")
    total = 0.0
    for j in range(cell.n + 1):
        facet = np.delete(cell.vertices, j, axis=0)
        total += (-1) ** j * integral_over_subsimplex(form, facet)
    return total * cell.orientation


# -- quadrature ---------------------------------------------------------------


@lru_cache(maxsize=16)
def simplex_quadrature(n, degree=7):
    """Grundmann-Moeller rule on the standard n-simplex, exact to ``degree``.

    Returns (points, weights) in barycentric-free Cartesian coordinates of the
    standard simplex; weights sum to the simplex volume 1/n!.
    """
    s = max((degree - 1) // 2, 0)
    d = 2 * s + 1
    points = []
    weights = []
    for i in range(s + 1):
        w = (
            (-1) ** i
            * 2.0 ** (-2 * s)
            * (d + n - 2 * i) ** d
            / math.factorial(i)
            / math.factorial(d + n - i)
        )
        denom = d + n - 2 * i
        for combo in itertools.combinations_with_replacement(range(n + 1), s - i):
            counts = [0] * (n + 1)
            for c in combo:
                counts[c] += 1
            bary = [(2 * counts[j] + 1) / denom for j in range(n + 1)]
            points.append(bary[1:])
            weights.append(w)
    return np.asarray(points, dtype=float), np.asarray(weights, dtype=float)


def cell_quadrature(cell: CellGeometry, degree=7):
    """Quadrature points (in R^n) and weights on a cell, exact to ``degree``."""
    ref_pts, ref_wts = simplex_quadrature(cell.n, degree)
    V = cell.vertices
    E = V[1:] - V[0]
    pts = V[0] + ref_pts @ E
    wts = ref_wts * cell.volume * math.factorial(cell.n)
    return pts, wts


def random_polyform(n, k, degree, rng, scale=1.0):
    """Random k-form with dense coefficients of total degree <= degree."""
    out = PolyForm(n, k)
    for midx in multiindices(k, n):
        for expo in itertools.product(range(degree + 1), repeat=n):
            if sum(expo) > degree:
                continue
            out._accumulate(expo, midx, scale * rng.standard_normal())
    return out
