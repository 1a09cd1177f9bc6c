"""Galerkin steady-state solver for A v + alpha B(v, v) = g with continuation.

The truncated system is solved by damped Newton iteration on the real
divergence-free degrees of freedom: one complex amplitude per conjugate-pair
representative, in the key order of the fields, so an iterate is the upper
half of a field's rows (``_dof_maps``). B(u, v) has its modes at sums p + q
of the modes of u and v, so A and B map fields on any lattice L of wavevectors
to fields on L. Newton started on L therefore stays on L: with g and the
iterate on L, the linearization keeps fields on L and fields off it apart,
and the off-lattice part of every right-hand side is zero. So the unknowns
are the representatives on the lattice generated by the modes of g and of the
initial guess (``_lattice_mask``), all of them when those modes generate the
whole integer plane. The README forcing, on (+-2, 0) and (+-2, +-1), generates
2Z x Z: 152 of the 288 unknowns at N = 8. Linearizations are assembled densely,
a block of columns at a time, and factored directly, which is exact and cheap
at desk truncations (N <= 16). B is bilinear, so the linearization J(v) at an
iterate x satisfies J(v) x = A x + 2 alpha B(v, v): each residual is read off
the Jacobian the next step needs anyway, as (J x + A x) / 2 - g, and only the
reported residual of a solution goes through the exact convolution. A sweep
over increasing alpha warm-starts each solve from the previous solution and
records the 2D enstrophy bound |Av| <= |g| per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from . import spectral as sp

MAX_HALVINGS = 20  # step halvings in one Newton line search before it stalls


class ContinuationError(RuntimeError):
    """A sweep step failed to converge; carries the break index and reports."""

    def __init__(self, index, reports):
        super().__init__(f"continuation broke at sweep index {index}")
        self.index = index
        self.reports = reports


@dataclass(frozen=True)
class SteadyProblem:
    """Forcing g, nonlinearity weight alpha and Galerkin radius N.

    The actual Grashof number of the problem is alpha * |g|.
    """

    g: "sp.SpectralField"
    alpha: float
    trunc: int

    def __post_init__(self):
        if sp.norm_ds(self.g, 0) == 0.0:
            raise ValueError("forcing g must be nonzero")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.trunc < self.g.trunc or np.max(np.abs(self.g.keys), initial=0) > self.trunc:
            raise ValueError("truncation radius must cover the forcing modes")


@dataclass
class SolveReport:
    solution: "sp.SpectralField"
    residual_h: float
    newton_iters: int
    bound_check: float          # |Av| / |g|
    converged: bool
    message: str = ""
    condition: float | None = None
    residual_history: list = field(default_factory=list)
    dofs: int = 0               # real unknowns Newton solved for


def residual(v, p):
    """Galerkin residual P_N(A v + alpha B(v, v) - g) at radius p.trunc."""
    av = sp.apply_fractional(v, 1.0)
    bvv = sp.bilinear_b(v, v, retruncate=p.trunc)
    return sp.project_trunc(sp.lin_comb([1.0, p.alpha, -1.0], [av, bvv, p.g]), p.trunc)


def manufactured_force(v, alpha):
    """g = A v + alpha B(v, v); residual(v, (g, alpha, N >= 2*v.trunc)) = 0 exactly."""
    return sp.lin_comb([1.0, float(alpha)], [sp.apply_fractional(v, 1.0), sp.bilinear_b(v, v)])


# --- real degree-of-freedom mapping -----------------------------------------


def _dof_maps(n):
    """Representatives of every mode of radius n in key order, the upper half
    of the (2n+1) x (2n+1) key grid, and their polarizations."""
    side = 2 * n + 1
    cells = np.arange(side * side // 2 + 1, side * side)
    reps = np.stack(np.divmod(cells, side), axis=1) - n
    return reps, sp.sigma(reps)


def _lattice_mask(reps, key_sets):
    """Which rows of ``reps`` lie on the lattice generated by ``key_sets``.

    The lattice is kept in Hermite form, spanned by (a, b) and (0, c) with
    a, c >= 0: (kx, ky) is on it when a divides kx (kx = 0 if a = 0) and c
    divides ky - (kx / a) b (ky = (kx / a) b if c = 0). Starting from {0}, a
    key off the current lattice is added until every key is on it; each
    addition raises the rank or divides the index by at least 2, so there are
    a handful of them.
    """
    keys = np.concatenate(key_sets)
    basis = (0, 0, 0)
    while True:
        off = ~_on_lattice(keys, basis)
        if not off.any():
            return _on_lattice(reps, basis)
        basis = _extend_lattice(basis, *keys[np.argmax(off)].tolist())


def _on_lattice(keys, basis):
    a, b, c = basis
    kx, ky = keys[:, 0], keys[:, 1]
    on, t = (kx == 0, 0) if a == 0 else (kx % a == 0, kx // a)
    r = ky - t * b
    return on & (r == 0 if c == 0 else r % c == 0)


def _extend_lattice(basis, x, y):
    """Hermite basis (a, b, c) of the lattice spanned by ``basis`` and (x, y).

    Euclid's steps on the rows (a, b), (x, y) are unimodular, so they keep the
    span; they end in (+-gcd(a, x), b') and (0, y'), and (0, y') joins (0, c).
    """
    a, b, c = basis
    while x:
        q = a // x
        a, b, x, y = x, y, a - q * x, b - q * y
    if a < 0:
        a, b = -a, -b
    c = math.gcd(c, y)
    return a, (b % c if c else b), c


def _field_to_vec(v, reps, sigmas):
    c = sp.gather(v.keys, v.coeffs, reps)
    amps = sigmas[:, 0] * c[:, 0] + sigmas[:, 1] * c[:, 1]
    return np.concatenate([amps.real, amps.imag])


def _vec_to_field(x, reps, sigmas, n):
    m = len(reps)
    amps = x[:m] + 1j * x[m:]
    return sp.SpectralField.from_arrays(n, *sp.conj_closure(reps, amps[:, None] * sigmas))


def solve_steady(p, initial=None, tol=None, max_iters=50):
    """Damped Newton iteration for the steady problem.

    Deterministic on a fixed BLAS thread count: identical inputs give
    bit-identical reports (the LU may round differently on another count).
    After the residual passes the tolerance one extra full step is taken
    (quadratic convergence makes it nearly free), so converged solutions sit
    at the roundoff floor rather than just below ``tol``; nothing is
    linearized there, and its ``residual_history`` entry is ``residual_h``.

    Each line-search trial costs one Jacobian and one matvec, which give its
    residual norm for ``residual_history``; an accepted trial's Jacobian is the
    next step's. ``residual_h``, which alone decides ``converged``, is one
    exact ``residual`` of the returned solution.

    The unknowns are the representatives on the lattice of the modes of g and
    of the projected ``initial``; ``dofs`` counts them, two reals each.

    Returns a SolveReport; ``converged`` is False after ``max_iters`` Newton
    steps or a singular linearization (condition estimate attached).
    """
    gnorm = sp.norm_ds(p.g, 0)
    tol = tol if tol is not None else 1e-12 * max(1.0, gnorm)
    v = sp.project_trunc(initial if initial is not None else sp.zero_field(p.trunc), p.trunc)
    reps, sigmas = _dof_maps(p.trunc)
    on = _lattice_mask(reps, [p.g.keys, v.keys])
    reps, sigmas = reps[on], sigmas[on]
    stokes = np.tile(np.sum(reps * reps, axis=1), 2)  # A on the DOFs
    gvec = _field_to_vec(p.g, reps, sigmas)
    x = _field_to_vec(v, reps, sigmas)

    def linearize(xv):
        fld = _vec_to_field(xv, reps, sigmas, p.trunc)
        jac = kernels.assemble_linearized(fld.keys, fld.coeffs, reps, p.alpha, p.trunc)
        fx = 0.5 * (jac @ xv + stokes * xv) - gvec
        return jac, fx, sp.TWO_PI * np.sqrt(2.0) * float(np.linalg.norm(fx)), fld

    def report(vfld, iters, message=None, condition=None, polished=False):
        rh = sp.norm_ds(residual(vfld, p), 0)
        if polished:
            history.append(rh)
        if message is None:
            after = "the polish step" if polished else f"{max_iters} iterations"
            message = "" if rh <= tol else f"no convergence after {after}"
        return SolveReport(
            solution=vfld, residual_h=rh, newton_iters=iters,
            bound_check=_bound_check(vfld, gnorm), converged=not message,
            message=message, condition=condition, residual_history=history,
            dofs=len(gvec),
        )

    jac, fx, rnorm, vfld = linearize(x)
    history = [rnorm]
    for it in range(1, max_iters + 1):
        if rnorm == 0.0:
            break
        try:
            step = np.linalg.solve(jac, fx)
        except np.linalg.LinAlgError:
            return report(vfld, it - 1, "singular Newton system", float(np.linalg.cond(jac)))
        if rnorm <= tol:
            # The polish step: nothing is linearized at its result.
            return report(_vec_to_field(x - step, reps, sigmas, p.trunc), it, polished=True)
        damp = 1.0
        for _ in range(MAX_HALVINGS + 1):
            xt = x - damp * step
            jt, ft, rt, vt = linearize(xt)
            if rt < rnorm:
                break
            damp *= 0.5
        else:
            return report(vfld, it, "Newton stalled (no residual decrease)")
        x, jac, fx, rnorm, vfld = xt, jt, ft, rt, vt
        history.append(rnorm)
    return report(vfld, len(history) - 1)


def _bound_check(v, gnorm):
    return sp.norm_ds(sp.apply_fractional(v, 1.0), 0) / gnorm


def sweep(alphas, forces, trunc, tol=None, initial=None):
    """Continuation sweep over strictly increasing alphas.

    ``forces`` is either one field (fixed g) or a list g_n matching ``alphas``.
    The solution at alpha_n seeds Newton at alpha_{n+1}; the first solve seeds
    from the Stokes solution A^{-1} g unless ``initial`` is given.

    Raises:
      ContinuationError: a step failed; carries the break index and the
        reports collected so far.
    """
    alphas = [float(a) for a in alphas]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    if isinstance(forces, sp.SpectralField):
        forces = [forces] * len(alphas)
    if len(forces) != len(alphas):
        raise ValueError("need one force per alpha")

    reports = []
    guess = initial
    for i, (a, g) in enumerate(zip(alphas, forces)):
        p = SteadyProblem(g=g, alpha=a, trunc=trunc)
        if guess is None:
            guess = sp.project_trunc(sp.apply_fractional(g, -1.0), trunc)
        rep = solve_steady(p, initial=guess, tol=tol)
        if not rep.converged:
            reports.append(rep)
            raise ContinuationError(i, reports)
        reports.append(rep)
        guess = rep.solution
    return reports
