"""Discretized variational problems on the conforming/nonconforming ladder.

Source problems (coercive nonconforming primal form and conforming mixed
dual form), the eigenvalue pair, and four Hodge-Laplace schemes sharing one
right-hand side; every announced equivalence between them is verified as a
relative residual.  All mass terms use the projection onto piecewise
constants exactly as the schemes are written; only the constant moments of
the load enter any right-hand side.  The source and Hodge schemes and the
eigenvalue pencils run on the ladder's unit-scaled compact bases
(`abc_basis`, `star_basis`).  The source and Hodge systems are factored by
sparse LU where those bases are sparse (on meshes of `spaces.SPARSE_CELLS`
cells or more); the one-field scheme runs on the broken full family,
bordered by its constraint rows, and takes the format of those bases.  The
pencils' nonzero spectra come from one dense generalized `eigh` each.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .adjoint import harmonic_space, require_constant_kernel
from .errors import AssemblyError, DegreeMismatch, InvalidParameter, SolverFailure
from .forms import cell_quadrature, product_positions, random_polyform
from .linalg import abs_max, pencil_nonzero_eigs, solve_symmetric
from .spaces import d_pairing, ladder


@dataclass
class SchemeSolution:
    scheme: str
    components: dict
    residual: float
    condition: float
    meta: dict = field(default_factory=dict)


@dataclass
class EquivalenceReport:
    residuals: dict
    verdict: str

    @property
    def passed(self):
        return self.verdict == "pass"


def _solve(K, rhs, label):
    """Solve a system whose symmetry the caller has checked."""
    x, rel, cond = solve_symmetric(K, rhs)
    if rel > 1e-10:
        raise SolverFailure(
            "%s solve stalled at relative residual %.2e (condition %.2e)"
            % (label, rel, cond)
        )
    return x, rel, cond


def _check_symmetric(K, label):
    """Raise unless |K - K^T| <= 1e-13 times K's largest entry."""
    if abs_max(K - K.T) > 1e-13 * max(abs_max(K), 1e-300):
        raise AssemblyError("%s system lost symmetry" % label)
    return K


def _block_system(sizes, blocks, rhs_blocks, label):
    """Symmetric block matrix and right-hand side, with the block slices.

    ``blocks`` maps (i, j) with i <= j to the upper block, dense or
    `scipy.sparse`; it is mirrored to (j, i) transposed.  ``rhs_blocks`` maps
    i to that block of the right-hand side.  Every block not given is zero.
    A system with a dense diagonal block (a small mesh's, on the ladder's
    dense bases) is assembled dense; any other is a CSC array, written from
    every block's triplets in one pass.  The mirrored blocks cancel exactly
    in K - K^T, so the symmetry check of the whole system is that of its
    diagonal blocks, against the largest entry of the whole system.
    """
    ends = np.cumsum(sizes)
    slices = [slice(int(e - n), int(e)) for n, e in zip(sizes, ends)]
    dim = int(ends[-1])
    if any(not scipy.sparse.issparse(B) for (i, j), B in blocks.items() if i == j):
        K = np.zeros((dim, dim))
        for (i, j), B in blocks.items():
            B = B.toarray() if scipy.sparse.issparse(B) else B
            K[slices[i], slices[j]] = B
            if i != j:
                K[slices[j], slices[i]] = B.T
    else:
        rows, cols, vals = [], [], []
        for (i, j), B in blocks.items():
            B = scipy.sparse.coo_array(B)
            r, c = B.row + slices[i].start, B.col + slices[j].start
            rows += [r, c] if i != j else [r]
            cols += [c, r] if i != j else [c]
            vals += [B.data, B.data] if i != j else [B.data]
        K = scipy.sparse.csc_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
        )
    _check_symmetric(K, label)
    rhs = np.zeros(dim)
    for i, b in rhs_blocks.items():
        rhs[slices[i]] = b
    return K, rhs, slices


def p0_moments(mesh, k, load):
    """Vector of integrals of the load components over every cell.

    ``load`` is a per-cell list of PolyForm (exact: each distinct form's
    coefficient vector times the mesh's monomial moments) or a callable
    point -> component array (fixed-degree quadrature).
    """
    lad = ladder(mesh)
    p0 = lad.p0(k)
    if callable(load):
        F = np.zeros(p0.dim)
        for ci in range(mesh.num_cells):
            pts, wts = cell_quadrature(mesh.cell_geometry(ci), degree=7)
            acc = np.zeros(p0.ncomp)
            for p, w in zip(pts, wts):
                acc += w * np.asarray(load(p), dtype=float)
            F[p0.cell_slice(ci)] = acc
        return F
    cells_of = {}
    for ci, form in enumerate(load):
        cells_of.setdefault(id(form), (form, []))[1].append(ci)
    # every monomial's integral: the constant's row of the scalar mass matrix
    moments = lad.geometry.moments()[:, product_positions(mesh.dim)[0]]
    F = np.zeros((mesh.num_cells, p0.ncomp))
    for form, cells in cells_of.values():
        if (form.n, form.k) != (mesh.dim, k):
            raise DegreeMismatch(
                "load of %d-forms on R^%d for %d-form moments" % (form.k, form.n, k)
            )
        F[cells] = moments[cells] @ form.coefficient_vector().reshape(p0.ncomp, -1).T
    return F.ravel()


def _p0_coords_of_moments(lad, k, F):
    p0 = lad.p0(k)
    return F / np.repeat(p0.volumes, p0.ncomp)


def solve_source_primal(mesh, k, load, bc="none"):
    """Coercive nonconforming scheme with the projected mass term."""
    lad = ladder(mesh)
    A = lad.abc_basis(k, bc)
    P = lad.p0_projection(k) @ A
    K = P.T @ (lad.p0(k).gram @ P)
    if k < mesh.dim:
        DA = lad.d_matrix(k) @ A
        K = K + DA.T @ (lad.p0(k + 1).gram @ DA)
    F = load if isinstance(load, np.ndarray) else p0_moments(mesh, k, load)
    rhs = P.T @ F
    x, rel, cond = _solve(_check_symmetric(K, "source-primal"), rhs, "source-primal")
    return SchemeSolution(
        scheme="source-primal",
        components={"omega": x, "omega_broken": A @ x},
        residual=rel,
        condition=cond,
        meta={"k": k, "bc": bc, "moments": F},
    )


def solve_source_dual(mesh, k, load, bc="none"):
    """Conforming mixed scheme: flux in the star space, state in constants."""
    lad = ladder(mesh)
    Az = lad.star_basis(k + 1, lad.partner_bc(bc))
    Pz = lad.p0_projection(k + 1, "dual") @ Az
    Mp = Pz.T @ (lad.p0(k + 1).gram @ Pz)
    C = lad.p0(k).gram @ (lad.delta_matrix(k + 1) @ Az)  # moments of delta zeta
    M0 = lad.p0(k).gram
    F = load if isinstance(load, np.ndarray) else p0_moments(mesh, k, load)
    K, rhs, (sl_z, sl_o) = _block_system(
        (Az.shape[1], lad.p0(k).dim), {(0, 0): Mp, (0, 1): -C.T, (1, 1): -M0}, {1: -F},
        "source-dual",
    )
    x, rel, cond = _solve(K, rhs, "source-dual")
    return SchemeSolution(
        scheme="source-dual",
        components={"zeta": x[sl_z], "omega_bar": x[sl_o]},
        residual=rel,
        condition=cond,
        meta={"k": k, "bc": bc, "moments": F},
    )


def _rel(x, y, gram, floor):
    num = x - y
    nn = float(np.sqrt(max(num @ (gram @ num), 0.0)))
    scale = max(
        float(np.sqrt(max(x @ (gram @ x), 0.0))),
        float(np.sqrt(max(y @ (gram @ y), 0.0))),
        floor,
    )
    if nn == 0.0:
        return 0.0
    return nn / scale


def verify_source_equivalence(mesh, primal_sol, dual_sol):
    """The three cell-by-cell identities linking the two source schemes."""
    k = primal_sol.meta["k"]
    lad = ladder(mesh)
    omega_b = primal_sol.components["omega_broken"]
    zeta_b = lad.star_basis(k + 1, lad.partner_bc(primal_sol.meta["bc"])) @ dual_sol.components["zeta"]
    F = primal_sol.meta["moments"]
    floor = max(float(np.linalg.norm(F)), 1e-14)
    P_omega = lad.p0_projection(k) @ omega_b
    g0 = lad.p0(k).gram
    g1 = lad.p0(k + 1).gram
    res = {}
    res["state_projection"] = _rel(dual_sol.components["omega_bar"], P_omega, g0, floor)
    delta_zeta = lad.delta_matrix(k + 1) @ zeta_b
    Pf = _p0_coords_of_moments(lad, k, F)
    res["state_plus_coflux"] = _rel(P_omega + delta_zeta, Pf, g0, floor)
    d_omega = lad.d_matrix(k) @ omega_b
    P_zeta = lad.p0_projection(k + 1, "dual") @ zeta_b
    res["flux_projection"] = _rel(d_omega, P_zeta, g1, floor)
    verdict = "pass" if all(v < 1e-9 for v in res.values()) else "fail"
    return EquivalenceReport(res, verdict)


def solve_eigen_pair(mesh, k, bc="none", rel_tol=1e-9):
    """Nonzero spectra of the primal and dual eigenvalue schemes.

    The pencils are assembled on the compact nonconforming basis and on the
    partner's starred atlas.  Both carry the projected mass, so infinite
    eigenvalues (modes invisible to the projection) are removed symmetrically
    before comparing.  d (delta) vanishes exactly on the constants, checked
    on the reference block, where the projection is the identity, so K + M
    is positive definite: the pencils share no kernel.
    """
    lad = ladder(mesh)
    require_constant_kernel(lad, lad.primal(k), lad.d_matrix(k))
    require_constant_kernel(lad, lad.dual(k + 1), lad.delta_matrix(k + 1))
    spectra = []
    for A, T, P, lo, hi in (
        (lad.abc_basis(k, bc), lad.d_matrix(k), lad.p0_projection(k), k, k + 1),
        (lad.star_basis(k + 1, lad.partner_bc(bc)), lad.delta_matrix(k + 1),
         lad.p0_projection(k + 1, "dual"), k + 1, k),
    ):
        TA, PA = T @ A, P @ A
        K = TA.T @ (lad.p0(hi).gram @ TA)
        M = PA.T @ (lad.p0(lo).gram @ PA)
        spectra.append(pencil_nonzero_eigs(K, M, rel_tol))
    (primal_vals, primal_zero), (dual_vals, dual_zero) = spectra
    m = min(primal_vals.size, dual_vals.size)
    if primal_vals.size != dual_vals.size:
        gap = np.inf
    elif m == 0:
        gap = 0.0
    else:
        gap = float(
            np.max(np.abs(primal_vals - dual_vals) / np.maximum(np.abs(dual_vals), 1e-300))
        )
    report = EquivalenceReport(
        {"nonzero_spectrum_gap": gap, "count_primal": primal_vals.size, "count_dual": dual_vals.size},
        "pass" if gap < rel_tol * 100 else "fail",
    )
    return primal_vals, dual_vals, report, {"primal_zero_multiplicity": primal_zero, "dual_zero_multiplicity": dual_zero}


# -- Hodge-Laplace schemes ---------------------------------------------------------


def _mixed_constraints(lad, k):
    """Rows constraining the broken full k-forms to the one-field space."""
    full = lad.full(k)
    B_up = d_pairing(full, lad.dual(k + 1))
    As = lad.abc_basis(k - 1, "none")
    term1 = lad.delta_matrix(k, "full").T @ (
        lad.p0(k - 1).gram @ (lad.p0_projection(k - 1) @ As)
    )
    term2 = full.gram() @ (lad.p0_injection(k, "full") @ (lad.d_matrix(k - 1) @ As))
    rows = [(B_up @ lad.star_basis(k + 1, "homogeneous")).T, (term1 - term2).T]
    return scipy.sparse.vstack(rows, format="csr") if scipy.sparse.issparse(As) else np.vstack(rows)


def solve_hodge(mesh, k, load, scheme="complete"):
    """One of the four Hodge-Laplace discretizations at level 1 <= k <= n-1.

    The nonconforming and starred unknowns are coefficients in the ladder's
    unit-scaled compact bases; the one-field unknown is a broken full k-form.
    """
    if not 1 <= k <= mesh.dim - 1:
        raise InvalidParameter("Hodge-Laplace schemes live at 1 <= k <= n-1")
    lad = ladder(mesh)
    F = load if isinstance(load, np.ndarray) else p0_moments(mesh, k, load)
    g0 = lad.p0(k).gram
    if scheme == "complete":
        H = harmonic_space(mesh, k, "abc").basis
        Az, As = lad.star_basis(k + 1, "homogeneous"), lad.abc_basis(k - 1, "none")
        Pz = lad.p0_projection(k + 1, "dual") @ Az
        Mpz = Pz.T @ (lad.p0(k + 1).gram @ Pz)
        Cz = g0 @ (lad.delta_matrix(k + 1) @ Az)
        Ps = lad.p0_projection(k - 1) @ As
        Mps = Ps.T @ (lad.p0(k - 1).gram @ Ps)
        Cs = g0 @ (lad.d_matrix(k - 1) @ As)
        MH = g0 @ H
        K, rhs, (sl_o, sl_z, sl_s, sl_h) = _block_system(
            (lad.p0(k).dim, Az.shape[1], As.shape[1], H.shape[1]),
            {(0, 1): Cz, (0, 2): Cs, (0, 3): MH, (1, 1): -Mpz, (2, 2): -Mps},
            {0: F},
            "hodge-complete",
        )
        x, rel, cond = _solve(K, rhs, "hodge-complete")
        comps = {
            "omega": x[sl_o],
            "zeta": x[sl_z],
            "sigma": x[sl_s],
            "theta": x[sl_h],
            "zeta_broken": Az @ x[sl_z],
            "sigma_broken": As @ x[sl_s],
            "theta_p0": H @ x[sl_h],
        }
        return SchemeSolution("hodge-complete", comps, rel, cond, {"k": k, "moments": F})
    if scheme == "mixed_primal":
        H = harmonic_space(mesh, k, "abc").basis
        A, As = lad.abc_basis(k, "none"), lad.abc_basis(k - 1, "none")
        Pk = lad.p0_projection(k) @ A
        DA = lad.d_matrix(k) @ A
        Sk = DA.T @ (lad.p0(k + 1).gram @ DA)
        Ps = lad.p0_projection(k - 1) @ As
        Mps = Ps.T @ (lad.p0(k - 1).gram @ Ps)
        Cs = Pk.T @ (g0 @ (lad.d_matrix(k - 1) @ As))
        MH = Pk.T @ (g0 @ H)
        K, rhs, (sl_o, sl_s, sl_h) = _block_system(
            (A.shape[1], As.shape[1], H.shape[1]),
            {(0, 0): Sk, (0, 1): Cs, (0, 2): MH, (1, 1): -Mps},
            {0: Pk.T @ F},
            "hodge-mixed-primal",
        )
        x, rel, cond = _solve(K, rhs, "hodge-mixed-primal")
        comps = {
            "omega": x[sl_o],
            "sigma": x[sl_s],
            "theta": x[sl_h],
            "omega_broken": A @ x[sl_o],
            "sigma_broken": As @ x[sl_s],
            "theta_p0": H @ x[sl_h],
        }
        return SchemeSolution("hodge-mixed-primal", comps, rel, cond, {"k": k, "moments": F})
    if scheme == "mixed_dual":
        H = harmonic_space(mesh, k, "star0").basis
        A, Az = lad.star_basis(k, "homogeneous"), lad.star_basis(k + 1, "homogeneous")
        Pk = lad.p0_projection(k, "dual") @ A
        DeltaA = lad.delta_matrix(k) @ A
        Sk = DeltaA.T @ (lad.p0(k - 1).gram @ DeltaA)
        Pz = lad.p0_projection(k + 1, "dual") @ Az
        Mpz = Pz.T @ (lad.p0(k + 1).gram @ Pz)
        Cz = Pk.T @ (g0 @ (lad.delta_matrix(k + 1) @ Az))
        MH = Pk.T @ (g0 @ H)
        K, rhs, (sl_o, sl_z, sl_h) = _block_system(
            (A.shape[1], Az.shape[1], H.shape[1]),
            {(0, 0): Sk, (0, 1): Cz, (0, 2): MH, (1, 1): -Mpz},
            {0: Pk.T @ F},
            "hodge-mixed-dual",
        )
        x, rel, cond = _solve(K, rhs, "hodge-mixed-dual")
        comps = {
            "omega": x[sl_o],
            "zeta": x[sl_z],
            "theta": x[sl_h],
            "omega_broken": A @ x[sl_o],
            "zeta_broken": Az @ x[sl_z],
            "theta_p0": H @ x[sl_h],
        }
        return SchemeSolution("hodge-mixed-dual", comps, rel, cond, {"k": k, "moments": F})
    if scheme == "lowest_primal":
        # the one-field space is the kernel of the constraint rows C in the
        # broken full k-forms: it is solved for bordered by C, one multiplier
        # per row, with C scaled once so that its largest entry is the
        # stiffness's.  The multiplier space is cut out by the two pairing
        # conditions, which the discrete Hodge decomposition identifies with
        # the harmonic space of the nonconforming ladder
        H = harmonic_space(mesh, k, "abc").basis
        D, Delta = lad.d_matrix(k, "full"), lad.delta_matrix(k, "full")
        S = D.T @ (lad.p0(k + 1).gram @ D) + Delta.T @ (lad.p0(k - 1).gram @ Delta)
        C = _mixed_constraints(lad, k)
        if not scipy.sparse.issparse(C):
            S = S.toarray()  # a small mesh's system is dense, as its bases are
        C = C * (abs_max(S) / max(abs_max(C), 1e-300))
        P = lad.p0_projection(k, "full")
        # harmonic part of the load
        if H.shape[1]:
            c = np.linalg.solve(H.T @ g0 @ H, H.T @ F)
            F_eff = F - g0 @ (H @ c)
        else:
            F_eff = F
        K, rhs, (sl_o, _, sl_h) = _block_system(
            (S.shape[0], C.shape[0], H.shape[1]),
            {(0, 0): S, (0, 1): C.T, (0, 2): P.T @ (g0 @ H)},
            {0: P.T @ F_eff},
            "hodge-one-field",
        )
        x, rel, cond = _solve(K, rhs, "hodge-one-field")
        comps = {"omega_broken": x[sl_o], "multiplier": x[sl_h]}
        return SchemeSolution("hodge-lowest-primal", comps, rel, cond, {"k": k, "moments": F})
    raise InvalidParameter("unknown scheme %r" % (scheme,))


def verify_hodge_equivalences(mesh, k, sols):
    """Every cross-scheme identity as a relative residual.

    ``sols`` maps scheme tags ('complete', 'mixed_primal', 'mixed_dual',
    'lowest_primal') to their solutions for one common load.
    """
    lad = ladder(mesh)
    g0, g_lo, g_hi = lad.p0(k).gram, lad.p0(k - 1).gram, lad.p0(k + 1).gram
    c, d, p = (sols[tag].components for tag in ("complete", "mixed_dual", "mixed_primal"))
    F = sols["complete"].meta["moments"]
    floor = max(float(np.linalg.norm(F)), 1e-14)
    Pf = _p0_coords_of_moments(lad, k, F)
    P_lo, P_k = lad.p0_projection(k - 1), lad.p0_projection(k)
    P_k_dual, P_hi_dual = lad.p0_projection(k, "dual"), lad.p0_projection(k + 1, "dual")
    D_lo, D_k = lad.d_matrix(k - 1), lad.d_matrix(k)
    Delta_k, Delta_hi = lad.delta_matrix(k), lad.delta_matrix(k + 1)

    def rel(x, y, gram):
        return _rel(x, y, gram, floor)

    res = {
        # dual vs complete
        "dual_theta": rel(d["theta_p0"], c["theta_p0"], g0),
        "dual_zeta": rel(P_hi_dual @ d["zeta_broken"], P_hi_dual @ c["zeta_broken"], g_hi),
        "dual_zeta_full": rel(d["zeta_broken"], c["zeta_broken"], lad.dual(k + 1).gram()),
        "dual_state": rel(P_k_dual @ d["omega_broken"], c["omega"], g0),
        "dual_costate": rel(Delta_k @ d["omega_broken"], P_lo @ c["sigma_broken"], g_lo),
        "dual_balance": rel(
            Delta_hi @ d["zeta_broken"], Pf - D_lo @ c["sigma_broken"] - c["theta_p0"], g0
        ),
        # primal vs complete
        "primal_theta": rel(p["theta_p0"], c["theta_p0"], g0),
        "primal_sigma": rel(p["sigma_broken"], c["sigma_broken"], lad.primal(k - 1).gram()),
        "primal_state": rel(P_k @ p["omega_broken"], c["omega"], g0),
        "primal_flux": rel(D_k @ p["omega_broken"], P_hi_dual @ c["zeta_broken"], g_hi),
        "primal_balance": rel(
            D_lo @ p["sigma_broken"], Pf - Delta_hi @ c["zeta_broken"] - c["theta_p0"], g0
        ),
        # primal vs dual
        "cross_theta": rel(d["theta_p0"], p["theta_p0"], g0),
        "cross_flux": rel(P_hi_dual @ d["zeta_broken"], D_k @ p["omega_broken"], g_hi),
        "cross_state": rel(P_k_dual @ d["omega_broken"], P_k @ p["omega_broken"], g0),
        "cross_costate": rel(Delta_k @ d["omega_broken"], P_lo @ p["sigma_broken"], g_lo),
        "cross_balance": rel(
            Delta_hi @ d["zeta_broken"] + D_lo @ p["sigma_broken"], Pf - c["theta_p0"], g0
        ),
    }
    # one-field scheme vs complete, cell by cell
    if "lowest_primal" in sols:
        vec = sols["lowest_primal"].components["omega_broken"]
        D_full, Delta_full = lad.d_matrix(k, "full"), lad.delta_matrix(k, "full")
        res["onefield_flux"] = rel(D_full @ vec, P_hi_dual @ c["zeta_broken"], g_hi)
        res["onefield_costate"] = rel(Delta_full @ vec, P_lo @ c["sigma_broken"], g_lo)
        res["onefield_state"] = rel(lad.p0_projection(k, "full") @ vec, c["omega"], g0)
    verdict = "pass" if all(v < 1e-9 for v in res.values()) else "fail"
    return EquivalenceReport(res, verdict)


def random_polynomial_load(mesh, k, degree=2, seed=0):
    """A global random polynomial k-form restricted to every cell."""
    rng = np.random.default_rng(seed)
    form = random_polyform(mesh.dim, k, degree, rng)
    return [form for _ in range(mesh.num_cells)]


def primal_energy_error(mesh, sol: SchemeSolution, exact_value_fn, exact_d_fn, degree=7):
    """Quadrature graph-norm error of a primal source solution vs a smooth field."""
    lad = ladder(mesh)
    k = sol.meta["k"]
    broken = lad.primal(k)
    vec = sol.components["omega_broken"]
    D = lad.d_matrix(k)
    dvec = D @ vec
    p0_hi = lad.p0(k + 1)
    err2 = 0.0
    for ci in range(mesh.num_cells):
        cell = mesh.cell_geometry(ci)
        pts, wts = cell_quadrature(cell, degree)
        form = broken.form_on_cell(vec, ci)
        dconst = dvec[p0_hi.cell_slice(ci)]
        for p, w in zip(pts, wts):
            ev = form.coefficients_at(p) - np.asarray(exact_value_fn(p))
            ed = dconst - np.asarray(exact_d_fn(p))
            err2 += w * (float(ev @ ev) + float(ed @ ed))
    return float(np.sqrt(err2))
