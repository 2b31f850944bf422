"""Unipotency tests, kernel chains and Jordan block data.

All computations run the kernel-chain pullback, so they are exact over
any supported field and deterministic through pivot-order choices.

Kernel chains are taken in a basis, the rows of an invertible A: one
elimination of [A nil^h | I] gives the coefficient rows x, in reduced
echelon form, of the kernel {x A} of nil^h.  Its elements x A with x zero
before index t are then spanned by the rows x with pivot t or later: in a
basis adapted to a series (members spanned by tails of A, as the identity
is to V > 0), its meets with the members.
"""

import itertools

from .errors import ContainmentError, NotUnipotentError, ShapeError
from .linalg import Mat, Subspace, _images, _tagged
from .series import _minus_one

__all__ = [
    "unipotent_exponent",
    "kernel_chain",
    "jordan_blocks",
    "KernelChain",
    "JordanData",
    "jordan_matrix",
]


def unipotent_exponent(g):
    """Minimal n with (g-1)^n = 0, or None when g is not unipotent."""
    if not g.is_square():
        raise ShapeError("exponent of a non-square matrix")
    power = nil = _minus_one(g)
    for e in range(1, g.nrows + 1):
        if power.is_zero():
            return e
        power = power @ nil
    return 0 if g.nrows == 0 else None


class KernelChain:
    """Ascending chain ker(g-1) < ker(g-1)^2 < ... = V."""

    __slots__ = ("g", "chain")

    def __init__(self, g, chain):
        self.g = g
        self.chain = tuple(chain)

    @property
    def exponent(self):
        return len(self.chain)

    def dims(self):
        return tuple(x.dim for x in self.chain)

    def __repr__(self):
        return f"KernelChain{self.dims()}"


def kernel_chain(g):
    """Full chain of kernels of powers of g-1 for unipotent g."""
    if not g.is_square():
        raise ShapeError("exponent of a non-square matrix")
    nil, n = _minus_one(g), g.nrows
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    return KernelChain(g, _kernel_chain(nil, ident, nil._forms())[0])


def _kernel_chain(nil, basis, forms):
    """Kernels of nil, nil^2, ... up to the first that is everything (by
    the n-th for nilpotent nil); its length is the exponent of 1 + nil.

    Taken in the basis of rows `basis` in kernel form (module docstring),
    given forms = the basis rows times nil as (numerators, denominator).
    Returns (kernels, rows): rows[h - 1] lists (pivot of x, x A) for the
    echelon coefficient rows x of the h-th kernel, or is None when that
    kernel is everything.
    """
    field, n = nil.field, nil.nrows
    in_basis = field._ops._row_map(basis, n)
    kernels, rows = [], []
    for _ in range(n):
        if not any(any(nums) for nums, _ in forms):
            kernels.append(Subspace.full(field, n))
            rows.append(None)
            break
        reduced, pivots = _tagged(field, forms, range(n))
        rows.append([(c - n, in_basis(r[n:]))
                     for r, c in zip(reduced, pivots) if c >= n])
        kernels.append(Subspace._of_rows(field, n, [y for _, y in rows[-1]]))
        forms = _images(forms, nil)
    if kernels and not kernels[-1].is_full():
        raise NotUnipotentError("matrix is not unipotent")
    if any(not (b.contains(a) and a.dim < b.dim) for a, b in zip(kernels, kernels[1:])):
        raise NotUnipotentError("kernel chain does not strictly ascend")
    return kernels, rows


class JordanData:
    """Jordan chains of a unipotent element.

    Each block is a tuple of vectors v_1, ..., v_d with v_j (g-1) =
    v_{j+1} and v_d (g-1) = 0; the change-of-basis matrix stacks all
    chain vectors and conjugates g to the standard unitriangular form.
    """

    __slots__ = ("blocks", "change_of_basis")

    def __init__(self, blocks, change_of_basis):
        self.blocks = tuple(tuple(chain) for chain in blocks)
        self.change_of_basis = change_of_basis

    @property
    def sizes(self):
        return tuple(len(chain) for chain in self.blocks)

    @property
    def num_blocks(self):
        return len(self.blocks)

    def vectors(self):
        return [v for chain in self.blocks for v in chain]

    def __repr__(self):
        return f"JordanData(sizes={self.sizes})"


def jordan_matrix(field, sizes):
    """Block diagonal unitriangular matrix with the given chain sizes."""
    n = sum(sizes)
    one, z = field.one, field.zero
    rows = [[z] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = one
    offset = 0
    for d in sizes:
        for j in range(d - 1):
            rows[offset + j][offset + j + 1] = one
        offset += d
    return Mat(field, rows)


def jordan_chains(g, candidate_order=None):
    """Jordan chains via kernel-chain pullback.

    New chain heads at each height complete the span of the lower kernel
    and the already-mapped vectors; `candidate_order(height, kernel)` may
    supply the candidate vectors to prefer, falling back to the canonical
    kernel basis.  Candidates outside the kernel are skipped.
    """
    kc = kernel_chain(g)
    order = candidate_order or (lambda height, target: target.basis_vecs())
    nil = _minus_one(g)
    return _jordan_chains(nil, kc.chain, lambda h, t: (c for c in order(h, t) if t.contains_vec(c)))


def _jordan_chains(nil, kc, candidates):
    """`jordan_chains` of g = 1 + nil from the kernels kc of its chain, taking
    each height's candidates(height, kernel), all inside that kernel.  The
    longer chains' elements, independent modulo the kernel below, come first."""
    field = nil.field
    n = nil.nrows
    chains = []
    for height in range(len(kc), 0, -1):
        below = kc[height - 2] if height >= 2 else Subspace.zero(field, n)
        # element of each longer chain with the current height
        shifted = [chain[len(chain) - height] for chain in chains]
        target = kc[height - 1]
        new = below._extend(itertools.chain(shifted, candidates(height, target)), target.dim)
        if new[:len(shifted)] != shifted or below.dim + len(new) != target.dim:
            raise ContainmentError(f"candidates do not complete the kernel at height {height}")
        for head in new[len(shifted):]:
            chain = [head]
            for _ in range(height - 1):
                chain.append(chain[-1] @ nil)
            chains.append(chain)
    if sum(len(c) for c in chains) != n:
        raise ContainmentError("Jordan chains do not span the space")
    chains.sort(key=lambda c: -len(c))
    return chains


def jordan_blocks(g):
    """JordanData of a unipotent g; raises NotUnipotentError otherwise."""
    chains = jordan_chains(g)
    field = g.field
    n = g.nrows
    form = field._ops._form
    basis = Mat._of(field, None, n, [form(v) for chain in chains for v in chain])
    standard = basis @ g @ basis.inverse()
    sizes = [len(c) for c in chains]
    if standard != jordan_matrix(field, sizes) or len(chains) < n // max(sizes):
        raise NotUnipotentError("chain relations broken")
    return JordanData(chains, basis)
