"""The literal quotient ker N / I_G L, kept as the oracle of ``tate_h_minus1``.

``galpairs.exact_linalg.tate_h_minus1`` reads H^-1(G, L) as the torsion of the
coinvariants L / I_G L, from one Smith normal form.  This computes the group
as it is defined: take the kernel of the norm N = sum of the group elements
from a Smith normal form of N, write every (g - 1) image in a basis of that
kernel, and take the cokernel.  It is slower and only the tests call it.
"""

from __future__ import annotations

from galpairs import linalg
from galpairs.exact_linalg import (
    TRIVIAL_GROUP,
    FiniteAbelianGroup,
    LatticeWithAction,
    _integer_coordinate_matrix,
    cokernel_structure,
    diagonal_of,
    smith_normal_form,
)


def tate_h_minus1(x: LatticeWithAction) -> FiniteAbelianGroup:
    """ker(sum of group elements) modulo the span of all (g - 1) images.

    Both are computed inside lattice-basis coordinates; the numerator kernel
    is taken saturated, so the quotient is finite (it is killed by the group
    order) and is returned by invariant factors.
    """
    mats = x.in_basis_matrices()
    r = x.lattice.rank
    if r == 0:
        return TRIVIAL_GROUP
    norm = [[sum(g[i][j] for g in mats) for j in range(r)] for i in range(r)]
    _, d, v = smith_normal_form(norm)
    diag = diagonal_of(d)
    kernel_basis = []
    for j in range(r):
        if j >= len(diag) or diag[j] == 0:
            kernel_basis.append([v[i][j] for i in range(r)])
    k = len(kernel_basis)
    if k == 0:
        return TRIVIAL_GROUP
    # augmentation sublattice: integer span of (g - 1) columns, expressed in
    # the kernel basis (they land in the kernel since the norm kills them)
    eye = linalg.identity(r)
    images = ([g[i][j] - eye[i][j] for i in range(r)] for g in mats for j in range(r))
    error = "augmentation image is not integral in the norm kernel"
    m = _integer_coordinate_matrix(kernel_basis, images, error)
    return cokernel_structure(m, k)
