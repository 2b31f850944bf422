"""Transvection families, commutators, and their exact identities.

For a subspace U the maps v -> v + (v+U)phi, phi a linear map V/U -> U,
form the abelian stability group of {0, U, V}.  The identities here are
checked on concrete matrices and raise IdentityError if they ever fail.
"""

from .errors import (
    HypothesisError,
    IdentityError,
    SingularMatrixError,
    TransvectionError,
)
from .linalg import Mat, QuotientMap, Subspace, image
from .series import Series, _minus_one, in_stabilizer
from .unipotent import unipotent_exponent

__all__ = [
    "TransvectionSpec",
    "make_transvection",
    "commutator",
    "iterated_commutator",
    "transvection_commutator_check",
    "fixed_line_engel_witness",
    "one_plus_eta_commutator",
]


class TransvectionSpec:
    """A linear map V/U -> U in fixed coset coordinates.

    `quotient_basis` lists the coset representatives, which must complete
    a basis of U to one of V (the deterministic complement of U by
    default), and `phi` is a (dim V/U) x (dim V) matrix whose rows are
    the images, which must lie in U.
    """

    __slots__ = ("u", "qmap", "phi")

    def __init__(self, u, phi, quotient_basis=None):
        full = Subspace.full(u.field, u.ambient_dim)
        self._set(QuotientMap(u, full, reps=quotient_basis), phi)

    @classmethod
    def _of(cls, qmap, phi):
        """Spec over qmap, an existing map of V onto V/U; checked as `__init__` is."""
        spec = object.__new__(cls)
        spec._set(qmap, phi)
        return spec

    def _set(self, qmap, phi):
        u = qmap.u
        if phi.nrows != qmap.dim or phi.ncols != u.ambient_dim:
            raise TransvectionError("phi has the wrong shape for V/U -> U")
        for row in phi.rows:
            if not u.contains_vec(row):
                raise TransvectionError("image of phi escapes U")
        self.u = u
        self.qmap = qmap
        self.phi = phi

    @property
    def field(self):
        return self.u.field

    @property
    def quotient_basis(self):
        return self.qmap.reps

    @classmethod
    def zero(cls, u):
        full_dim = u.ambient_dim
        q = full_dim - u.dim
        return cls(u, Mat.zero(u.field, q, full_dim))

    def displacement(self):
        """The square-zero matrix eta with x_phi = 1 + eta."""
        return self.qmap.projection_matrix() @ self.phi

    def add(self, other):
        if self.u != other.u or self.qmap.reps != other.qmap.reps:
            raise TransvectionError("specs live over different data")
        return TransvectionSpec._of(self.qmap, self.phi + other.phi)


def _annihilating_spec(u, t, targets):
    """Map V/U -> U vanishing on ([V,t]+U)/U, for U = u: in quotient coordinates the
    projection to the k coordinates of a complement, times the k rows targets(k),
    called only when U and that complement are nonzero (else the map is zero)."""
    field, n = u.field, u.ambient_dim
    qm = QuotientMap(u, Subspace.full(field, n))
    bad = qm.project_subspace(image(t - Mat.identity(field, n)).sum(u))
    inner = QuotientMap(bad, Subspace.full(field, qm.dim))
    if not inner.dim or not u.dim:
        return TransvectionSpec._of(qm, Mat.zero(field, qm.dim, n))
    phi = inner.projection_matrix() @ Mat(field, targets(inner.dim), ncols=n)
    return TransvectionSpec._of(qm, phi)


def make_transvection(spec):
    """Matrix of v -> v + (v+U)phi; always in the stabilizer of {0,U,V}."""
    return _transvection(spec, spec.displacement())


def _transvection(spec, eta):
    """`make_transvection(spec)`, given eta = spec.displacement()."""
    n = spec.u.ambient_dim
    x = Mat.identity(spec.field, n) + eta
    if not (eta @ eta).is_zero():
        raise TransvectionError("displacement does not square to zero")
    full = Subspace.full(spec.field, n)
    zero = Subspace.zero(spec.field, n)
    members = [full]
    if 0 < spec.u.dim < n:
        members.append(spec.u)
    members.append(zero)
    mini = Series(spec.field, n, members)
    if not in_stabilizer(x, mini):
        raise TransvectionError("transvection escapes the stabilizer of {0, U, V}")
    return x


def commutator(x, g):
    """Group commutator x^-1 g^-1 x g."""
    return iterated_commutator(x, g, 1)


def iterated_commutator(x, g, n):
    """[x, g, g, ..., g] with n copies of g; n = 0 returns x."""
    try:
        return _iterated_commutator(x, g, g.inverse() if n > 0 else None, n)
    except SingularMatrixError:
        raise SingularMatrixError("commutator of a singular matrix") from None


def _iterated_commutator(x, g, g_inv, n):
    """`iterated_commutator`, given g^-1 (read only when n > 0)."""
    if n < 0:
        raise ValueError("negative commutator depth")
    for _ in range(n):
        x = x.inverse() @ g_inv @ x @ g
    return x


def _check_commutator_hypothesis(spec, t):
    """t must be unipotent, normalize U, and phi must kill [V,t] + U / U.
    Returns t - 1 and eta, the displacement of spec, for the identity check."""
    if not t.is_square() or t.nrows != spec.u.ambient_dim:
        raise TransvectionError("shape mismatch between t and the transvection data")
    if unipotent_exponent(t) is None:
        raise HypothesisError("t is not unipotent")
    # t is unipotent, hence invertible, so U t <= U means U t = U
    if not spec.u._is_invariant(t):
        raise HypothesisError("t does not normalize U")
    nil, eta = _minus_one(t), spec.displacement()
    # v eta = (v + U) phi, so phi kills ([V,t] + U)/U when (t - 1) eta = 0
    if not (nil @ eta).is_zero():
        raise HypothesisError("phi does not kill [V,t] + U / U")
    return nil, eta


def transvection_commutator_check(spec, t, k):
    """Verify v [x_phi, j t] = v + (v+U) phi (t-1)^j for 1 <= j <= k.

    Returns None when every exponent checks out; otherwise the first
    failing (basis vector index, exponent), which the hypothesis rules
    out.  Hypothesis violations raise HypothesisError instead.
    """
    nil, eta = _check_commutator_hypothesis(spec, t)
    x = _transvection(spec, eta)
    n = spec.u.ambient_dim
    ident = Mat.identity(spec.field, n)
    t_inv = t.inverse()  # t is unipotent, hence invertible
    z = x
    power = ident
    for j in range(1, k + 1):
        z = _iterated_commutator(z, t, t_inv, 1)
        power = power @ nil
        expected = ident + eta @ power
        if z != expected:
            for i in range(n):
                if z.rows[i] != expected.rows[i]:
                    return (i, j)
    return None


def fixed_line_engel_witness(g, u_line, spec, n):
    """Iterated commutator z_n = [x_phi, n g] over a g-fixed line U.

    Requires U = u_line one-dimensional and fixed pointwise by g; then
    z_n = 1 + (g^-1 - 1)^n eta exactly, which is asserted.
    """
    if u_line.dim != 1:
        raise TransvectionError("the bottom member must be a line")
    if spec.u != u_line:
        raise TransvectionError("transvection data is not built over the given line")
    try:
        g_inv = g.inverse()
    except SingularMatrixError:
        raise SingularMatrixError("g must be invertible") from None
    dim = u_line.ambient_dim
    ident = Mat.identity(g.field, dim)
    gm1 = g - ident
    for v in u_line.basis_vecs():
        if not (v @ gm1).is_zero():
            raise HypothesisError("g does not fix the line pointwise")
    eta = spec.displacement()
    z = _iterated_commutator(_transvection(spec, eta), g, g_inv, n)
    expected = ident + (g_inv - ident).pow(n) @ eta
    if z != expected:
        raise IdentityError("iterated commutator drifted from 1 + (g^-1-1)^n eta")
    return z


def one_plus_eta_commutator(eta, g, n):
    """[1 + eta, n g] computed by group arithmetic; equals 1 + eta (g-1)^n.

    Checked preconditions: eta^2 = 0, (g-1) eta = 0, and the vanishing
    of every square (eta (g-1)^j)^2 for j < n.  Without (g-1) eta = 0
    the identity genuinely fails, so it is part of the contract.
    """
    if not g.is_square() or g.nrows != eta.nrows or not eta.is_square():
        raise TransvectionError("shape mismatch")
    ident = Mat.identity(g.field, g.nrows)
    if not (eta @ eta).is_zero():
        raise HypothesisError("eta^2 != 0")
    gm1 = g - ident
    if not (gm1 @ eta).is_zero():
        raise HypothesisError("(g-1) eta != 0")
    power = ident
    for _ in range(n):
        staged = eta @ power
        if not (staged @ staged).is_zero():
            raise HypothesisError("(eta (g-1)^j)^2 != 0")
        power = power @ gm1
    try:
        g_inv = g.inverse()
    except SingularMatrixError:
        raise SingularMatrixError("g must be invertible") from None
    z = _iterated_commutator(ident + eta, g, g_inv, n)
    expected = ident + eta @ gm1.pow(n)
    if z != expected:
        raise IdentityError("[1+eta, n g] drifted from 1 + eta (g-1)^n")
    return z
