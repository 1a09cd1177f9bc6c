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
initial guess (``_lattice``), all of them when those modes generate the
whole integer plane. The README forcing, on (+-2, 0) and (+-2, +-1), generates
2Z x Z: 152 of the 288 unknowns at N = 8.

The same argument holds for every symmetry of the torus. The 2D Navier-Stokes
equations on it are equivariant under the semidirect product of D4, the
rotations and reflections of the square, and the translations T^2
(Crawford & Knobloch, Annu. Rev. Fluid Mech. 23, 1991; Golubitsky, Stewart
& Schaeffer, Singularities and Groups in Bifurcation Theory II, 1988), and
so is their Galerkin truncation. If an element fixes g and the iterate, A
and B commute with it, so the Newton step is fixed too: Newton started in
the subspace that g's and the guess's isotropy group fixes stays there and
finds the solution the full solve finds. An element (R, tau), R in D4 and
tau in (pi/2) Z^2, maps the amplitude a(k) of v_k = a(k) sigma_k to
a(R k) = det(R) e^{-i R k.tau} a(k), and a(-k) = -conj a(k). Its phases are
powers of i, so it permutes the real unknowns with signs. ``_isotropy`` finds
the elements that fix g once per forcing (``_frame``), and each solve keeps
those that fix the projected guess too, by exact comparison of unknowns with
no tolerance: roundoff breaks a symmetry only to keep more unknowns. Newton
then solves for the first unknown of each orbit (``kernels.Subspace``). An
orbit that some element maps to its own negative is zero. The residual norm
weights each orbit by the root of its size, so it is the full norm, and the
line search decides as the full solve would, to roundoff. The README forcing
is fixed by the point reflection u(x) -> -u(-x) and by the glide "y -> -y,
then translate by (pi/2, pi)", a group of order 4 that leaves 38 unknowns at
N = 8 (140 of 560 at N = 16). A generic g has the trivial group and keeps
every unknown on its lattice.

Linearizations are assembled densely on the rows of the first unknowns,
straight from the iterate's unknowns through the gather plan that the
``kernels.Subspace`` of a symmetry group builds once for every solve that keeps
it, and factored directly, which is exact and cheap at desk truncations. B is
bilinear, so the linearization J(v) at an iterate x satisfies
J(v) x = A x + 2 alpha B(v, v): each residual is read off the Jacobian the next
step needs anyway, as (J x + A x) / 2 - g. Only a solution becomes a field, and
only its reported residual goes through the exact convolution, batched over
a sweep's steps. A sweep over increasing alpha warm-starts each solve from
the previous solution and records the 2D enstrophy bound |Av| <= |g| per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import kernels
from . import spectral as sp

RESIDUAL_TOL = 1e-12  # a solve converges once |F| <= RESIDUAL_TOL max(1, |g|)
MAX_ITERS = 50  # Newton steps before a solve reports no convergence
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
        nonzero_forcing(self.g)
        if not 0.0 <= self.alpha < np.inf:  # NaN fails too
            raise ValueError(f"alpha {self.alpha!r} must be finite and nonnegative")
        if self.trunc < self.g.trunc or np.max(np.abs(self.g.keys), initial=0) > self.trunc:
            raise ValueError(f"truncation radius {self.trunc} must cover the forcing modes")


def nonzero_forcing(g):
    """A ValueError where the forcing ``g`` is zero: it sets the Grashof scale."""
    if sp.norm_ds(g, 0) == 0.0:
        raise ValueError("forcing g must be nonzero")


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
    group_order: int = 1        # signed permutations of the unknowns that fix g and the guess


def residual(fields, problems):
    """H norms |P_N(A v + alpha B(v, v) - g)| of ``fields``, each v with its
    problem (g, alpha, N = p.trunc), one batched ``kernels.advect_convolve`` per
    run of fields on one key set and one N. Each is ``norm_ds`` of the residual
    field to the bit: each cell of the radius-N grid adds -0.0, A v, alpha B(v, v)
    and -g in ``lin_comb``'s order (a term a field lacks adds a signed zero,
    which moves no magnitude), and the nonzero cells are summed in key order.
    """
    norms, runs = [], groupby(zip(fields, problems), lambda vp: (vp[0].keys.tobytes(), vp[1].trunc))
    for (_, n), run in runs:
        vs, ps = zip(*run)
        keys, rows = vs[0].keys, np.stack([v.coeffs for v in vs])
        acc = np.full((len(rows), 2 * n + 1, 2 * n + 1, 2), complex(-0.0, -0.0))
        inside = np.max(np.abs(keys), axis=1, initial=0) <= n
        x, y = keys[inside].T + n
        acc[:, x, y] += 1.0 * (np.sum(keys * keys, axis=1)[:, None] * rows)[:, inside]
        alphas = np.array([p.alpha for p in ps])[:, None, None]
        for c, b in enumerate(sp.leray_grid(kernels.advect_convolve(keys, rows, keys, rows, n), n)):
            acc[..., c] += alphas * b
        for cells, p in zip(acc, ps):
            x, y = p.g.keys.T + n
            cells[x, y] += -1.0 * p.g.coeffs
        acc[:, n, n] = 0.0  # B's mean, which the field drops
        sq, live = np.sum(np.abs(acc) ** 2, axis=-1), np.any(acc != 0, axis=-1)
        norms += [sp.TWO_PI * float(np.sqrt(float(np.sum(s[m])))) for s, m in zip(sq, live)]
    return norms


# --- real degree-of-freedom mapping -----------------------------------------


def _dof_maps(n):
    """Representatives of every mode of radius n in key order, the upper half
    of the (2n+1) x (2n+1) key grid, and their polarizations."""
    side = 2 * n + 1
    cells = np.arange(side * side // 2 + 1, side * side)
    reps = np.stack(np.divmod(cells, side), axis=1) - n
    return reps, sp.sigma(reps)


def _lattice(keys, basis=(0, 0, 0)):
    """Hermite basis (a, b, c) of the lattice generated by ``keys`` and by the
    lattice of ``basis``, spanned by (a, b) and (0, c) with a, c >= 0.

    (kx, ky) is on it when a divides kx (kx = 0 if a = 0) and c divides
    ky - (kx / a) b (ky = (kx / a) b if c = 0), and b is reduced mod c, so
    each lattice has one basis. A key off the current lattice is added until
    every key is on it; each addition raises the rank or divides the index by
    at least 2, so there are a handful of them.
    """
    while True:
        off = ~_on_lattice(keys, basis)
        if not off.any():
            return basis
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


# The elements (R, tau) of D4 x (pi/2) Z^2 (mod 2 pi): R runs over D4, the
# symmetries of the square as integer matrices (four rotations, then four
# reflections), and tau = (pi / 2) t over t in {0..3}^2. Element e maps
# amplitude a(k) to a(R k) = det(R) e^{-i R k.tau} a(k) = (-i)^q a(k), with
# q = k.(R^T t) + 2 [det R < 0] mod 4; rows _RX, _RY give R k.
_D4 = np.array([[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
                [[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1], [-1, 0]]])
_R = np.repeat(_D4, 16, axis=0)
_T = np.tile(np.stack(np.divmod(np.arange(16), 4), axis=1), (8, 1))
_RX, _RY = _R[:, 0], _R[:, 1]
_TURN = np.einsum("eji,ej->ei", _R, _T)  # R^T t
_FLIPPED = np.repeat([0, 0, 0, 0, 2, 2, 2, 2], 16)  # det R = -1 = (-i)^2 on reflections
_SIGN = np.array([1.0, -1.0, -1.0, 1.0])  # (-i)^p is +-1 (p even) or +-i (p odd)


def _moves(reps, lookup, side, elements, src):
    """Where the ``elements`` send the real and imaginary unknowns of the
    representatives ``src``: (dst, sgn), each (len(elements), 2 len(src)), with
    dst >= 2m where R k is off ``reps`` (``lookup`` maps the key
    side kx + ky of a representative to its index, and any other to 2m). The
    image of a real (imaginary) unit amplitude is (-i)^p with p = q (q + 3);
    on a representative -R k it is -conj of that, (-i)^(2 - p). Its real
    (p even) or imaginary part receives the sign of (-i)^p.
    """
    k = reps[src].T
    key = side * (_RX[elements] @ k) + _RY[elements] @ k  # > 0 on representatives
    q = _TURN[elements] @ k + _FLIPPED[elements, None]
    p = np.concatenate([q, q + 3], axis=1)
    p = np.where(np.concatenate([key, key], axis=1) < 0, 2 - p, p) % 4
    to = lookup[np.abs(key)]
    return np.concatenate([to, to], axis=1) + len(reps) * (p % 2), _SIGN[p]


def _isotropy(reps, lookup, side, x):
    """The elements (R, tau) of D4 x (pi/2) Z^2 that map ``reps`` onto itself
    and fix the vector x (2m real unknowns) exactly, as their moves (dst, sgn).

    Each element permutes the unknowns with signs (``_moves``). All 128 are
    tested on four modes where x is nonzero, where most fail, and the rest
    on every unknown."""
    m = len(reps)
    off = np.concatenate([x, np.full(m + 1, np.nan)])  # past 2m: never equal
    elements = np.arange(len(_R))
    support = np.flatnonzero((x[:m] != 0) | (x[m:] != 0))
    for src in (support[:4], slice(None)):
        dst, sgn = _moves(reps, lookup, side, elements, src)
        fixes = np.all(off[dst] == sgn * np.concatenate([x[:m][src], x[m:][src]]), axis=1)
        elements, dst, sgn = elements[fixes], dst[fixes], sgn[fixes]
    return dst, sgn


class _Frame:
    """The forcing's part of the reduced space at radius n: the lattice's
    representatives and polarizations, each one's index at its key's code
    side kx + ky (``lookup``, 2m at any other code), g's unknowns, and the moves
    of the elements that fix g (``_isotropy``). ``restrict`` cuts that group to a
    guess's stabilizer, which is the joint test exactly, and returns the
    survivors' ``kernels.Subspace``, built once per set of survivors, and their
    number of distinct signed permutations. ``_frame`` adds the lattice's
    Hermite basis ``basis`` and whether it is g's own (``own``)."""

    def __init__(self, reps, sigmas, n, gvec):
        self.reps, self.sigmas, self.n, self.gvec, side = reps, sigmas, n, gvec, 2 * n + 1
        self.lookup = np.full(n * side + n + 1, 2 * len(reps))
        self.lookup[reps[:, 0] * side + reps[:, 1]] = np.arange(len(reps))
        self.dst, self.sgn, self.subspaces = *_isotropy(reps, self.lookup, side, gvec), {}

    def restrict(self, x):
        fixes = np.all(x[self.dst] == self.sgn * x, axis=1)
        key = fixes.tobytes()
        if key not in self.subspaces:
            dst, sgn = self.dst[fixes], self.sgn[fixes]
            # The elements that act as the identity form a normal subgroup; its
            # cosets are the distinct signed permutations.
            trivial = int(np.sum(np.all((dst == np.arange(len(x))) & (sgn > 0), axis=1)))
            self.subspaces[key] = kernels.Subspace(self.reps, self.n, dst, sgn), len(dst) // trivial
        return self.subspaces[key]


_FRAME = {}  # the latest frame only, keyed on its radius and its forcing's content


def _frame(g, n, v):
    """The ``_Frame`` of forcing g at radius n on the lattice of the modes of g
    and v. A guess on g's own lattice finds a frame built on it by its basis,
    with no gather; any other reuses the frame only on the lattice of g and v."""
    key = (n, g.keys.tobytes(), g.coeffs.tobytes())
    frame = _FRAME.get(key)
    if frame is not None and frame.own and _on_lattice(v.keys, frame.basis).all():
        return frame
    own = _lattice(g.keys)
    basis = _lattice(v.keys, own)  # the steps of _lattice on g's keys, then v's
    if frame is None or frame.basis != basis:
        reps, sigmas = _dof_maps(n)
        on = _on_lattice(reps, basis)
        reps, sigmas = reps[on], sigmas[on]
        _FRAME.clear()
        frame = _FRAME[key] = _Frame(reps, sigmas, n, _field_to_vec(g, reps, sigmas))
        frame.basis, frame.own = basis, basis == own
    return frame


def _field_to_vec(v, reps, sigmas, c=None):
    """v's 2m unknowns on ``reps``; ``c``, v's coefficients there, spares the gather."""
    c = sp.gather(v.keys, v.coeffs, reps) if c is None else c
    amps = sigmas[:, 0] * c[:, 0] + sigmas[:, 1] * c[:, 1]
    return np.concatenate([amps.real, amps.imag])


def _vec_to_field(x, reps, sigmas, n):
    """The field whose amplitudes a on ``reps`` are x: coefficients a sigma."""
    a = x[:len(reps)] + 1j * x[len(reps):]
    return sp.SpectralField.from_arrays(n, *sp.conj_closure(reps, a[:, None] * sigmas))


def solve_steady(p, initial=None):
    """Damped Newton iteration for the steady problem.

    Deterministic on a fixed BLAS thread count: identical inputs give
    bit-identical reports (the LU may round differently on another count).
    After the residual passes the tolerance one extra full step is taken
    (quadratic convergence makes it nearly free), so converged solutions sit
    at the roundoff floor rather than just below the tolerance; nothing is
    linearized there, and its ``residual_history`` entry is ``residual_h``.

    Each line-search trial costs one Jacobian and one matvec, which give its
    residual norm for ``residual_history``; an accepted trial's Jacobian is the
    next step's. ``residual_h``, which decides ``converged`` unless Newton
    failed, is the exact ``residual`` of the solution (``_certify``).

    The unknowns are the first unknowns of the orbits, on the lattice of the
    modes of g and of the projected ``initial``, of the group of symmetries
    that fix both; ``dofs`` counts them and ``group_order`` the group's
    distinct signed permutations of the lattice's unknowns.

    Returns a SolveReport; ``converged`` is False after ``MAX_ITERS`` Newton
    steps or a singular linearization (condition estimate attached).
    """
    step = _newton(p, initial)
    _certify([step], [p])
    return step[0]


def _newton(p, initial):
    """The Newton half of ``solve_steady``: the uncertified report (``residual_h``
    NaN, ``message`` None unless Newton failed) and whether it ended polished."""
    gnorm = sp.norm_ds(p.g, 0)
    tol = RESIDUAL_TOL * max(1.0, gnorm)
    v = sp.project_trunc(initial if initial is not None else sp.zero_field(p.trunc), p.trunc)
    frame = _frame(p.g, p.trunc, v)
    reps, sigmas = frame.reps, frame.sigmas
    code = v.keys[:, 0] * (2 * p.trunc + 1) + v.keys[:, 1]  # v is on the frame's lattice
    c = np.zeros((len(reps), 2), dtype=np.complex128)
    c[frame.lookup[code[code > 0]]] = v.coeffs[code > 0]  # the representatives' half
    xvec = _field_to_vec(v, reps, sigmas, c)
    sub, order = frame.restrict(xvec)
    weight = np.sqrt(sub.sizes)  # |F| is the weighted norm of F on the first unknowns
    gvec, x = frame.gvec[sub.first], xvec[sub.first]

    def linearize(xv):
        jac = kernels.assemble_linearized(xv, sigmas, reps, p.alpha, sub)
        fx = 0.5 * (jac @ xv + sub.stokes * xv) - gvec
        return jac, fx, sp.TWO_PI * np.sqrt(2.0) * float(np.linalg.norm(weight * fx))

    def report(xv, iters, message=None, condition=None, polished=False):
        vfld = _vec_to_field(sub.expand(xv), reps, sigmas, p.trunc)
        return SolveReport(
            solution=vfld, residual_h=math.nan, newton_iters=iters,
            bound_check=sp.norm_ds(sp.apply_fractional(vfld, 1.0), 0) / gnorm,
            converged=False, message=message, condition=condition,
            residual_history=history, dofs=len(gvec), group_order=order,
        ), polished

    jac, fx, rnorm = linearize(x)
    history = [rnorm]
    for it in range(1, MAX_ITERS + 1):
        if rnorm == 0.0:
            break
        try:
            step = np.linalg.solve(jac, fx)
        except np.linalg.LinAlgError:
            return report(x, it - 1, "singular Newton system", float(np.linalg.cond(jac)))
        if rnorm <= tol:
            # The polish step: nothing is linearized at its result.
            return report(x - step, it, polished=True)
        damp = 1.0
        for _ in range(MAX_HALVINGS + 1):
            xt = x - damp * step
            jt, ft, rt = linearize(xt)
            if rt < rnorm:
                break
            damp *= 0.5
        else:
            return report(x, it, "Newton stalled (no residual decrease)")
        x, jac, fx, rnorm = xt, jt, ft, rt
        history.append(rnorm)
    return report(x, len(history) - 1)


def _certify(steps, problems):
    """The certification half of ``solve_steady`` for Newton halves ``steps``
    (report, polished) of ``problems``, in one ``residual`` call: each report
    gets its exact residual and, unless Newton failed, its verdict from it."""
    norms = residual([rep.solution for rep, _ in steps], problems)
    for (rep, polished), rh, p in zip(steps, norms, problems):
        rep.residual_h = rh
        if polished:
            rep.residual_history.append(rh)
        if rep.message is None:
            after = "the polish step" if polished else f"{MAX_ITERS} iterations"
            tol = RESIDUAL_TOL * max(1.0, sp.norm_ds(p.g, 0))
            rep.message = "" if rh <= tol else f"no convergence after {after}"
        rep.converged = not rep.message


def sweep_problems(alphas, forces, trunc):
    """The SteadyProblem of each sweep step, one force g_n per alpha, all
    checked before any solve; a ValueError names the failing sweep index."""
    if len(forces) != len(alphas):
        raise ValueError("need one force per alpha")
    problems = []
    for i, (a, g) in enumerate(zip(alphas, forces)):
        try:
            problems.append(SteadyProblem(g=g, alpha=float(a), trunc=trunc))
            if i and not problems[i].alpha > problems[i - 1].alpha:
                raise ValueError("alphas must be strictly increasing")
        except ValueError as exc:
            raise ValueError(f"sweep index {i}: {exc}") from exc
    return problems


def sweep(alphas, forces, trunc, initial=None):
    """Continuation sweep over strictly increasing alphas, one force g_n per alpha.

    The solution at alpha_n seeds Newton at alpha_{n+1}; the first solve seeds
    from the Stokes solution A^{-1} g unless ``initial`` is given. The steps
    wait for their certificates, one ``_certify`` call, until a step ends
    without its polish step (it may have failed) or the last step ends; the
    sweep then breaks at the first failed step, as solving step by step does.

    Raises:
      ValueError: ``sweep_problems`` rejects a step; nothing is solved.
      ContinuationError: a step failed; carries the break index and the
        reports collected so far.
    """
    problems = sweep_problems(alphas, forces, trunc)
    reports, waiting, guess = [], [], initial
    for i, p in enumerate(problems):
        if guess is None:
            guess = sp.apply_fractional(p.g, -1.0)  # _newton projects every guess
        rep, polished = step = _newton(p, guess)
        reports.append(rep)
        waiting.append(step)
        if not polished or i == len(problems) - 1:
            _certify(waiting, problems[i + 1 - len(waiting):i + 1])
            waiting = []
            failed = next((j for j, r in enumerate(reports) if not r.converged), None)
            if failed is not None:
                raise ContinuationError(failed, reports[:failed + 1])
        guess = rep.solution
    return reports
