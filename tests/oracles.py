"""Independent reference implementations used to freeze expected values.

Everything here deliberately avoids the package's own numerics: ordinary
differential equations are integrated with scipy's adaptive Runge-Kutta on
the matrix system, special-function values come from closed forms or mpmath
high-precision quadrature; convolutions come from ``scipy.signal``.  Tests
freeze these outputs as literals; rerun the functions to regenerate them.
There are exceptions, helpers built on the package's own tables or
primitives.
:func:`decomposed_three_terms` is the decomposed wave operator written term
by term from the package's public primitives, against which the fused route
is checked.  :func:`s_zero_richardson` extrapolates ``S(0)`` from the exact
cellwise Jost solver (itself checked against :func:`ode_jost`), because the
ODE oracle's error would be amplified by ``1/h``.
:func:`kernel_synthesis` is the Marchenko kernel built from the Faddeev
table, independently of the package's Goursat recursion: its first Born
part in closed form plus the Fourier synthesis of ``m - I -``
:func:`born_term`, where :func:`born_term` is the first Born term integrated
by parts over the cells.  :func:`born_term_cells` is the same term summed
cell by cell and :func:`born_term_mpmath` by mpmath quadrature.
:func:`goursat_kernel` restates the package's diamond recursion row by row
with a three-row buffer, so that a step of ``dx/16`` fits in memory.
:func:`faddeev_m`, :func:`mprime_nodes` and :func:`near_field_psi`
rebuild, for the checks that read them, the tables the package does not
keep: ``m`` in the ``[k, x, a, b]`` layout from the solver's cell factors,
``m'`` at every node and the physical solution on the near field.
:func:`reference_near_field` is the reference near field: the exact
cellwise propagation with ``f(k, x) - e^{ikx} I`` formed node by node in
the ``[k, b, a, x]`` layout, against which the package's cell factors,
``m`` on read and the products on the factors are checked.
:func:`near_matrix_from_m` is the near-field matrix built the way the maps
once built it, from ``m`` by a transposing copy and two phase passes,
against which the maps' products on the factors are checked.
:func:`map_kernel_near_sums` forms the generalized Fourier maps' near-field
sums from whole tables of the reference near field, against which the sums
the package forms on the factors, and interpolates off the table grid, are
checked.
:func:`jost_representation_check` tests the paper's representation
``f = e^{ikx} + integral K e^{iky}`` on the package's kernel.
:func:`circle_field_two_transforms` is the evolution's field on its whole
FFT circle by one transform per sign, against which the overflow monitor's
single transform is checked.
:func:`f0_synthesis` inverts the package's cosine transform, and
:func:`free_jost_matrix` is the closed-form Jost matrix of the zero
potential.  :func:`imaginary_jost_matrix` gives ``J(i kappa)`` by a matrix
exponential per step cell, at whose zeros the package's bound states are
checked.

The finite-difference model of the operator lives here as well:
:func:`discrete_hamiltonian` builds it, :func:`discrete_bound_states` lists
its negative eigenvalues as a cross-check of the exact
``scatterkit.jost.bound_states``, and :func:`evolve_discrete` propagates
with it.

Imports beyond the top-level ones stay inside the functions, scipy's
``expm`` and ``eig_banded`` included: benchmark code loads this module into the process it
measures.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from scatterkit.jost import faddeev_solve
from scatterkit.waveop import FieldR, convolve, extend_even, hilbert, kernel_apply, restrict


# -- adaptive-RK Jost solution oracle -----------------------------------------


def ode_jost(potential, k: complex, x_eval=None, rtol=1e-11, atol=1e-12):
    """Jost solution by integrating ``-f'' + V f = k^2 f`` right to left from
    the support edge, where ``f = e^{ikx} I`` exactly.

    Parameters
    ----------
    potential
        Object with ``value_at`` and ``support_radius`` (step cells).
    k : complex
        Momentum.
    x_eval : array_like, optional
        Positions (ascending, within ``[0, X_V]``) where ``f`` and ``f'`` are
        reported; defaults to ``[0]``.

    Returns
    -------
    (f, fprime)
        Arrays of shape ``(len(x_eval), n, n)``.
    """
    n = potential.n
    xs = potential.support_radius
    if x_eval is None:
        x_eval = [0.0]
    x_eval = np.asarray(x_eval, dtype=float)

    def rhs(x, u):
        f = u[: n * n].reshape(n, n)
        fp = u[n * n :].reshape(n, n)
        v = potential.value_at(np.array([x]))[0]
        fpp = (v - k * k * np.eye(n)) @ f
        return np.concatenate([fp.ravel(), fpp.ravel()])

    f_end = np.exp(1j * k * xs) * np.eye(n, dtype=complex)
    fp_end = 1j * k * f_end
    u0 = np.concatenate([f_end.ravel(), fp_end.ravel()])
    sol = solve_ivp(
        rhs,
        (xs, 0.0),
        u0,
        t_eval=x_eval[::-1],
        rtol=rtol,
        atol=atol,
        max_step=abs(xs) / 64 if xs > 0 else np.inf,
        method="DOP853",
    )
    if not sol.success:
        raise RuntimeError(sol.message)
    us = sol.y.T[::-1]
    f = us[:, : n * n].reshape(-1, n, n)
    fp = us[:, n * n :].reshape(-1, n, n)
    return f, fp


def imaginary_jost_matrix(potential, bp, kappa):
    """``J(i kappa) = f(i kappa, 0)^dagger B - f'(i kappa, 0)^dagger A`` for
    each ``kappa``, shape ``(len(kappa), n, n)``.

    On a step cell ``(f, f')`` solves a constant first-order system, so it
    crosses the cell by one matrix exponential of
    ``[[0, I], [V + kappa^2, 0]]``, from ``f = e^{-kappa x_e} I``,
    ``f' = -kappa f`` at the support edge ``x_e``.
    """
    from scipy.linalg import expm

    n, edges = potential.n, np.append(0.0, potential.breaks)  # V = 0 below the first break
    cells = list(zip(edges[:-1], edges[1:], np.concatenate([np.zeros((1, n, n)), potential.values])))
    out = []
    for kap in np.atleast_1d(np.asarray(kappa, dtype=float)):
        y = np.vstack([np.eye(n), -kap * np.eye(n)]) * np.exp(-kap * edges[-1])
        for a, b, v in cells[::-1]:
            gen = np.block([[np.zeros((n, n)), np.eye(n)], [v + kap * kap * np.eye(n), np.zeros((n, n))]])
            y = expm(-(b - a) * gen) @ y
        out.append(y[:n].conj().T @ bp.B - y[n:].conj().T @ bp.A)
    return np.array(out).reshape(-1, n, n)


# -- Volterra (Neumann-iteration) Faddeev oracle ---------------------------------


class VolterraStall(RuntimeError):
    """The Volterra iteration failed to reach ``tol`` within ``max_sweeps``."""

    def __init__(self, k: float, delta: float, sweeps: int):
        self.k = float(k)
        self.delta = float(delta)
        self.sweeps = int(sweeps)
        super().__init__(
            f"Volterra iteration stalled at k={k}: residual {delta:.3e} after {sweeps} sweeps"
        )


def _reverse_cumsum(seg):
    """Node values ``A_j = sum_{s >= j} seg_s`` with a trailing zero node."""
    out = np.zeros(seg.shape[:1] + (seg.shape[1] + 1,) + seg.shape[2:], dtype=seg.dtype)
    out[:, :-1] = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
    return out


def volterra_faddeev(potential, k, x_out, refine=8, tol=1e-12, max_sweeps=60):
    """Faddeev function by Neumann iteration of the Volterra equation

        m(k, x) = I + integral_x^inf D_k(y - x) V(y) m(k, y) dy,
        D_k(s)  = (e^{2iks} - 1) / (2ik),      D_0(s) = s,

    on ``x_out`` refined ``refine``-fold plus all cell edges, so every
    integration segment lies inside one cell and the oscillatory factor
    integrates exactly; ``m`` is averaged over each segment (second order in
    the segment width).  An integral-equation method, independent of the
    package's cellwise ODE propagation.

    Returns
    -------
    (m, mprime)
        Arrays of shape ``(len(k), len(x_out), n, n)``.

    Raises
    ------
    VolterraStall
        If some momentum does not converge within ``max_sweeps``; reports the
        worst one.
    """
    k = np.asarray(k, dtype=float)
    x_out = np.asarray(x_out, dtype=float)
    n = potential.n
    eye = np.eye(n, dtype=complex)

    xs_end = x_out[-1]
    fine = np.linspace(x_out[0], xs_end, refine * (x_out.size - 1) + 1)
    inner = potential.breaks[(potential.breaks > x_out[0]) & (potential.breaks < xs_end)]
    nodes = np.unique(np.concatenate([fine, inner]))
    out_idx = np.abs(nodes[None, :] - x_out[:, None]).argmin(axis=1)

    vseg = potential.segment_values(nodes)  # (S, n, n)
    a, b = nodes[:-1], nodes[1:]
    w0 = b - a
    wy = 0.5 * (b * b - a * a)
    zero = k == 0.0
    twoik = 2j * k
    with np.errstate(divide="ignore", invalid="ignore"):
        w1 = (np.exp(2j * np.outer(k, b)) - np.exp(2j * np.outer(k, a))) / twoik[:, None]
    w1[zero] = w0[None, :]
    phase = np.exp(-2j * np.outer(k, nodes))  # e^{-2ikx_j}

    m = np.broadcast_to(eye, (k.size, nodes.size, n, n)).copy()
    for _ in range(max_sweeps):
        p = vseg[None] @ (0.5 * (m[:, :-1] + m[:, 1:]))  # (nk, S, n, n)
        anode = _reverse_cumsum(p * w1[:, :, None, None])
        bnode = _reverse_cumsum(p * w0[None, :, None, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            m_new = (
                eye
                + (phase / twoik[:, None])[:, :, None, None] * anode
                - bnode / twoik[:, None, None, None]
            )
        if zero.any():
            cnode = _reverse_cumsum((p * wy[None, :, None, None])[zero])
            m_new[zero] = eye + cnode - nodes[None, :, None, None] * bnode[zero]
        deltas = np.abs(m_new - m).reshape(k.size, -1).max(axis=1)
        m = m_new
        if deltas.max() < tol:
            break
    else:
        bad = int(np.argmax(deltas))
        raise VolterraStall(k[bad], float(deltas[bad]), max_sweeps)

    # m' = -e^{-2ikx} integral_x^inf e^{2iky} V m dy, from the converged m
    p = vseg[None] @ (0.5 * (m[:, :-1] + m[:, 1:]))
    mprime = -phase[:, :, None, None] * _reverse_cumsum(p * w1[:, :, None, None])
    if zero.any():
        mprime[zero] = -_reverse_cumsum((p * w0[None, :, None, None])[zero])
    return m[:, out_idx], mprime[:, out_idx]


# -- closed form for the unit-step scalar potential ----------------------------


def step_jost_closed(k, height=1.0, width=1.0):
    """``f(k,0)`` and ``f'(k,0)`` for the scalar potential ``height`` on
    ``(0, width)``: inside the barrier the solution is a combination of
    ``e^{+-i gamma x}`` with ``gamma = sqrt(k^2 - height)``, matched to
    ``e^{ikx}`` at the edge."""
    import mpmath as mp

    k = mp.mpmathify(k)
    h, w = mp.mpmathify(height), mp.mpmathify(width)
    g = mp.sqrt(k * k - h)
    if abs(g) < mp.mpf("1e-12"):
        c, s = mp.mpf(1), w  # cos(g w) -> 1, sin(g w)/g -> w
    else:
        c, s = mp.cos(g * w), mp.sin(g * w) / g
    f0 = mp.e ** (1j * k * w) * (c - 1j * k * s)
    fp0 = mp.e ** (1j * k * w) * (g * g * s + 1j * k * c)
    return complex(f0), complex(fp0)


def remark_theta():
    """Mixed-boundary angle that makes the unit-step potential exceptional."""
    return float(np.arctan(1.0 / np.tanh(1.0)))


def step_smatrix_closed(k, theta, height=1.0, width=1.0):
    """Scalar scattering matrix for the step potential with the boundary
    condition ``cos(theta) y(0) + sin(theta) y'(0) = 0``."""
    fp, fpp = step_jost_closed(k, height, width)
    fm, fmp = step_jost_closed(-k, height, width)
    jp = fp * np.cos(theta) + fpp * np.sin(theta)
    jm = fm * np.cos(theta) + fmp * np.sin(theta)
    return -jm / jp


# -- zero-energy limit of S by extrapolation ------------------------------------


def s_zero_richardson(potential, bp, h=1e-4):
    """``S(0)`` from ``S(k) = -J(-k) J(k)^{-1}`` at ``k = +-h, +-2h``.

    The even parts ``E(h) = (S(h) + S(-h))/2`` equal ``S(0) + O(h^2)``, and
    one Richardson step ``(4 E(h) - E(2h))/3`` cancels the ``h^2`` term.
    ``J(0)`` is never inverted, so the exceptional case takes the same
    formula; the error is about ``eps/h`` there, from ``J(h) = O(h)``.
    """
    ks = np.array([h, 2 * h, -h, -2 * h])
    m, mp = faddeev_m(potential, ks, np.array([0.0, potential.breaks[-1]]))
    f = m[:, 0]
    fp = 1j * ks[:, None, None] * f + mp
    # J at k_i reads f(-k_i), f'(-k_i): index (i + 2) % 4
    J = [
        f[j].conj().T @ bp.B - fp[j].conj().T @ bp.A
        for j in (2, 3, 0, 1)
    ]
    S = [-J[(i + 2) % 4] @ np.linalg.inv(J[i]) for i in range(4)]
    even_h = 0.5 * (S[0] + S[2])
    even_2h = 0.5 * (S[1] + S[3])
    return (4.0 * even_h - even_2h) / 3.0


# -- high-precision half-line Fourier symbols ----------------------------------


def rational_p_minus(x, dps=30):
    """``(1/2pi) integral_0^inf e^{ikx} / (1 + ik) dk`` by oscillatory-aware
    mpmath quadrature (cos/sin decomposition).  The real part has the closed
    form ``e^{-x}/2`` for x > 0, which doubles as a sanity check."""
    import mpmath as mp

    mp.mp.dps = dps
    x = mp.mpmathify(x)
    period = 2 * mp.pi / x

    re = mp.quadosc(
        lambda k: (mp.cos(k * x) + k * mp.sin(k * x)) / (1 + k * k), [0, mp.inf], period=period
    )
    im = mp.quadosc(
        lambda k: (mp.sin(k * x) - k * mp.cos(k * x)) / (1 + k * k), [0, mp.inf], period=period
    )
    return complex((re + 1j * im) / (2 * mp.pi))


def free_robin_fs(y, theta):
    """Closed-form Fourier symbol of the zero potential with a mixed boundary
    condition: ``S(k) - 1 = 2i a /(k - i a)`` with ``a = cot(theta)`` gives
    ``F_s(y) = -2 a e^{-a y}`` for ``y > 0`` (and 0 for ``y < 0``) when a > 0."""
    a = 1.0 / np.tan(theta)
    y = np.asarray(y, dtype=float)
    return np.where(y > 0, -2.0 * a * np.exp(-a * np.clip(y, 0, None)), 0.0)


# -- bound states of the scalar well by shooting --------------------------------


def box_well_bound_states(depth=5.0, width=1.0, tol=1e-12):
    """Negative eigenvalues of ``-y'' - depth * 1_{(0,width)} y`` with a
    Neumann condition at the origin, by bisection on the matching condition
    ``beta tan(beta w) = kappa``, ``beta^2 + kappa^2 = depth``."""
    roots = []
    d = depth

    def match(beta):
        kappa = np.sqrt(max(d - beta * beta, 0.0))
        return beta * np.tan(beta * width) - kappa

    # scan between the poles of tan on (0, sqrt(d))
    edges = [0.0]
    m = 1
    while (m - 0.5) * np.pi / width < np.sqrt(d):
        edges.append((m - 0.5) * np.pi / width)
        m += 1
    edges.append(np.sqrt(d))
    for lo, hi in zip(edges[:-1], edges[1:]):
        a, b = lo + 1e-9, hi - 1e-9
        if a >= b or match(a) * match(b) > 0:
            continue
        while b - a > tol:
            mid = 0.5 * (a + b)
            if match(a) * match(mid) <= 0:
                b = mid
            else:
                a = mid
        beta = 0.5 * (a + b)
        roots.append(beta * beta - d)  # E = -kappa^2 = beta^2 - d
    return sorted(roots)


# -- principal-value Hilbert transform ------------------------------------------


def hilbert_pv(x, values):
    """Hilbert transform ``(1/pi) PV integral f(y)/(x - y) dy`` by direct
    quadrature: odd-symmetric sampling around each singularity cancels the
    principal value exactly on a uniform grid (zero weight at the singular
    node)."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values)
    h = x[1] - x[0]
    npts = x.size
    idx = np.arange(npts)
    diff = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore"):
        kernel = np.where(diff == 0, 0.0, 1.0 / diff)
    return (kernel @ values) / np.pi


def delta_line_smatrix(k, lam):
    """Closed-form full-line scattering for a point interaction of strength
    ``lam`` and zero potential: transmission ``2ik/(2ik - lam)``, reflection
    ``lam/(2ik - lam)``."""
    t = 2j * k / (2j * k - lam)
    r = lam / (2j * k - lam)
    return t, r


def free_gaussian_evolution(x, t, x0=0.0, sigma=1.0):
    """Free-line Schrodinger evolution of ``exp(-(x - x0)^2 / (2 sigma^2))``:
    the Gaussian stays Gaussian with complex width ``sigma^2 + 2it``."""
    x = np.asarray(x, dtype=float)
    s = sigma**2 + 2j * t
    return sigma / np.sqrt(s) * np.exp(-((x - x0) ** 2) / (2.0 * s))


def free_neumann_evolution(x, t, x0=0.0, sigma=1.0):
    """Half-line evolution of the same Gaussian with a Neumann wall at 0:
    method of images (even reflection of the initial data)."""
    return free_gaussian_evolution(x, t, x0, sigma) + free_gaussian_evolution(
        x, t, -x0, sigma
    )


def free_dirichlet_evolution(x, t, x0=0.0, sigma=1.0):
    """Half-line evolution with a Dirichlet wall at 0: odd reflection."""
    return free_gaussian_evolution(x, t, x0, sigma) - free_gaussian_evolution(
        x, t, -x0, sigma
    )


# -- uniform-grid Fourier sums ------------------------------------------------


def direct_fourier_sum(g, k0, dk, y, sign=+1):
    """``sum_j g[j] e^{i sign (k0 + j dk) y_l}`` term by term, with the
    phases, their cosines and sines and the sums all in ``np.longdouble``;
    returns complex128 of shape ``(len(y),) + g.shape[1:]``."""
    g = np.asarray(g, dtype=complex)
    cols = g.reshape(g.shape[0], -1)
    gr, gi = cols.real.astype(np.longdouble), cols.imag.astype(np.longdouble)
    kj = np.longdouble(k0) + np.arange(g.shape[0], dtype=np.longdouble) * np.longdouble(dk)
    y = np.asarray(y, dtype=float)
    out = np.empty((y.size, cols.shape[1]), dtype=complex)
    for row, yl in enumerate(y.astype(np.longdouble)):
        phase = sign * kj * yl
        c, s = np.cos(phase), np.sin(phase)
        out[row] = (c @ gr - s @ gi).astype(float) + 1j * (s @ gr + c @ gi).astype(float)
    return out.reshape((y.size,) + g.shape[1:])


def circle_field_two_transforms(nfft, plus, minus):
    """The field ``sum_k plus[k] e^{2 pi i k j / nfft} + minus[k] e^{-2 pi i
    k j / nfft}`` at every node ``j`` of the ``nfft``-point circle, as one
    inverse and one forward FFT of the zero-padded coefficients (axis -2,
    momenta from 0 up); the evolution's overflow monitor once formed it so."""
    c = np.zeros(plus.shape[:-2] + (nfft, plus.shape[-1]), dtype=complex)
    c[..., : plus.shape[-2], :] = plus
    field = nfft * np.fft.ifft(c, axis=-2)
    c[..., : minus.shape[-2], :] = minus
    return field + np.fft.fft(c, axis=-2)


# -- the decomposed wave operator, term by term --------------------------------


def decomposed_three_terms(st, kt, f, sign=+1):
    """``(I + K) R [P_+- E f + P_-+ S_inf E f + P_-+ (F_s * E f)]`` with
    ``P_+- = (1 +- i sign H) / 2``, as printed: each of the three terms gets
    its own Hilbert transform and its own ``(I + K) R`` pass."""
    g = extend_even(f)
    terms = (
        (g, +1),
        (g.replace_values(g.values @ st.S_infinity.T), -1),
        (convolve(FieldR(st.grid.x_sym, st.Fs), g), -1),
    )
    total = np.zeros_like(f.values)
    for field, branch in terms:
        projected = field.values / 2 + branch * 0.5j * sign * hilbert(field).values
        u = restrict(field.replace_values(projected))
        total += u.values + kernel_apply(kt, u).values
    return f.replace_values(total)


# -- channel convolution and the kernel window check ---------------------------


def channel_convolve_loop(g, values):
    """``sum_l g[:, i, l] * values[:, l]`` with one ``fftconvolve(mode="same")``
    per channel pair, cropped to the centred ``len(values)`` nodes."""
    from scipy.signal import fftconvolve  # perfbench loads this module: keep its import lean

    out = np.zeros(values.shape, dtype=np.result_type(g, values))
    for i in range(values.shape[1]):
        for l in range(values.shape[1]):
            out[:, i] += fftconvolve(values[:, l], g[:, i, l], mode="same")
    return out


def born_term_cells(potential, k, x):
    """The first Born term ``integral_x^inf D_k(y-x) V(y) dy``, with ``D_k(s)
    = (e^{2iks} - 1)/(2ik)``, summed cell by cell: for each cell clipped to
    ``[x, inf)``, the integral of ``D_k`` in closed form from two
    exponentials, and ``integral (y - x) dy`` at ``k = 0``; shape ``(len(k),
    len(x), n, n)``.  It has no cancellation as ``k -> 0`` beyond the one in
    its own difference of exponentials."""
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    n = potential.n
    out = np.zeros((k.size, x.size, n, n), dtype=complex)
    twoik = 2j * k[:, None]
    for a, b, v in zip(potential.breaks[:-1], potential.breaks[1:], potential.values):
        if not np.any(v):
            continue
        lo = np.maximum(a, x)[None, :]
        hi = np.maximum(b, x)[None, :]
        length = np.clip(hi - lo, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            osc = (np.exp(twoik * (hi - x[None, :])) - np.exp(twoik * (lo - x[None, :]))) / twoik
            weight = (osc - length) / twoik
        zero = k == 0.0
        if zero.any():
            # D_0(s) = s: integral of (y - x) over the clipped cell
            deg = 0.5 * ((hi - x[None, :]) ** 2 - (lo - x[None, :]) ** 2)
            weight[zero] = deg[0]
        out += weight[:, :, None, None] * v[None, None]
    return out


def born_term_mpmath(potential, k, x, dps=30):
    """One entry table of the first Born term at a single ``(k, x)``, shape
    ``(n, n)``: mpmath quadrature of ``D_k(y - x)`` over each cell clipped to
    ``[x, inf)``, at ``dps`` digits."""
    import mpmath as mp

    with mp.workdps(dps):
        k, x = mp.mpf(float(k)), mp.mpf(float(x))

        def kernel(y):
            s = y - x
            return s if k == 0 else (mp.expj(2 * k * s) - 1) / (2j * k)

        out = np.zeros((potential.n, potential.n), dtype=complex)
        for a, b, v in zip(potential.breaks[:-1], potential.breaks[1:], potential.values):
            lo, hi = max(mp.mpf(float(a)), x), max(mp.mpf(float(b)), x)
            if hi > lo:
                out += complex(mp.quad(kernel, [lo, hi])) * v
    return out


def born_term(potential, k, x):
    """First Born approximation ``integral_x^inf D_k(y-x) V(y) dy``, with
    ``D_k(s) = (e^{2iks} - 1)/(2ik)``; shape ``(len(k), len(x), n, n)``.

    It is the momentum transform of the first Born kernel
    ``K_1(x, y) = (1/2) integral_{(x+y)/2}^inf V`` and carries the entire
    ``O(1/k)`` tail of ``m - I``.  Integrated by parts over the step cells it
    is ``-T(x)/(2ik) - [e^{-2ikx} A(k, x) - V(x-)] / (4k^2)``, with ``T`` the
    tail integral and ``A(k, x) = sum_{breaks e >= x} e^{2ike} (V(e-) -
    V(e+))``, constant on each run of nodes between two breaks.  The two
    parts cancel as ``k -> 0``, which costs up to ``eps |V| / (4k^2)`` in
    absolute error; ``k = 0`` takes its own closed form ``integral_x^inf (y -
    x) V(y) dy``.  A zero potential returns zeros."""
    from scatterkit.grids import _phases
    from scatterkit.potentials import tail_integral

    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    n = potential.n
    breaks, values = potential.breaks, potential.values
    if not values.any():
        return np.zeros((k.size, x.size, n, n), dtype=complex)
    # left[i] is V just left of break i, and 0 past the last break
    left = np.concatenate([np.zeros((1, n, n)), values, np.zeros((1, n, n))])
    jumps = _phases(2.0 * k, breaks)[..., None, None] * (left[:-1] - left[1:])
    A = np.zeros((k.size,) + left.shape, dtype=complex)
    A[:, :-1] = np.cumsum(jumps[:, ::-1], axis=1)[:, ::-1]
    zero = k == 0.0
    kk = np.where(zero, 1.0, k)  # k = 0 rows are set below
    c1, c2 = (0.5j / kk)[:, None, None, None], (0.25 / (kk * kk))[:, None, None, None]
    tail = tail_integral(potential, x)
    phase = _phases(-2.0 * k, x)[..., None, None]
    out = np.empty((k.size, x.size, n, n), dtype=complex)
    seg = np.searchsorted(breaks, x)  # the first break at or after each node
    bounds = np.flatnonzero(np.diff(seg)) + 1
    for lo, hi in zip(np.append(0, bounds), np.append(bounds, x.size)):
        part = out[:, lo:hi]
        np.multiply(c1, tail[lo:hi], out=part)
        part += c2 * left[seg[lo]]
        part -= phase[:, lo:hi] * (c2 * A[:, None, seg[lo]])
    if zero.any():
        # D_0(s) = s: integral_x^inf (y - x) V(y) dy over the clipped cells
        lo, hi = (np.maximum(e, x[:, None]) - x[:, None] for e in (breaks[:-1], breaks[1:]))
        out[zero] = np.tensordot(0.5 * (hi * hi - lo * lo), values, axes=1)
    return out


def kernel_synthesis(jt):
    """The Marchenko kernel on the nodes of ``marchenko_kernel(jt)``, from the
    Faddeev table: ``K = K_1 + (1/2pi) integral e^{-ik(y-x)} R(k, x) dk`` on
    ``y >= x``, with ``K_1(x, y) = (1/2) integral_{(x+y)/2}^inf V`` exact and
    ``R = m - I -`` :func:`born_term` summed untapered over the momentum
    grid; shape ``(len(xv), ny, n, n)``, with the package's diagonal share
    (half the jump off the wall row).  Its error is the truncation of ``R``
    at ``k_max``, at the kinks along ``x + y = 2 break``."""
    from scatterkit.grids import fourier_sum
    from scatterkit.potentials import tail_integral

    grid, nx, n = jt.grid, jt.xv.size, jt.n
    ny = min(grid.x.size, max(2, 2 * nx - 1))
    remainder = jt.m - np.eye(n) - born_term(jt.potential, jt.k, jt.xv)
    # k1[m] is K_1 at (x + y)/2 = m dx/2; synth[d, i] is R's kernel at (x_i, x_i + y_d)
    k1 = 0.5 * tail_integral(jt.potential, 0.5 * grid.dx * np.arange(nx + ny - 1))
    synth = (grid.dk / (2.0 * np.pi)) * fourier_sum(remainder, jt.k[0], grid.dk, grid.x[:ny], -1)
    rows, cols = np.triu_indices(nx, 0, ny)
    values = np.zeros((nx, ny, n, n), dtype=complex)
    values[rows, cols] = k1[rows + cols] + synth[cols - rows, rows]
    inner = np.arange(1, nx)
    values[inner, inner] -= 0.5 * k1[2 * inner]
    return values


def goursat_kernel(potential, h, rows, keep=1):
    """The kernel by the diamond recursion at step ``h`` on ``rows`` row nodes
    (``x_{rows-1}`` reaching the support), kept on the nodes ``i h``, ``j h``
    with ``i`` and ``j`` multiples of ``keep``: shape ``(ceil(rows/keep),
    ceil((2 rows - 1)/keep), n, n)``, the whole jump ``K(x, x+)`` on the
    diagonal.  Rows are solved from the support edge down in a three-row
    buffer, each diamond's ``V`` weight the second difference of ``S(x) =
    integral_x^inf (t - x) V(t) dt`` summed cell by cell, and the half strip
    ``j = i + 1`` with ``K`` at its centroid interpolated linearly."""
    n, cols = potential.n, 2 * rows - 1

    def tails(s):
        T = np.zeros((s.size, n, n), dtype=complex)
        S = np.zeros_like(T)
        for a, b, v in zip(potential.breaks[:-1], potential.breaks[1:], potential.values):
            lo, hi = np.maximum(a, s), np.maximum(b, s)
            T += (hi - lo)[:, None, None] * v
            S += (0.5 * ((hi - s) ** 2 - (lo - s) ** 2))[:, None, None] * v
        return T, S

    T, S = tails(0.5 * h * np.arange(2 * rows + 3))
    kept = np.zeros((-(-rows // keep), -(-cols // keep), n, n), dtype=complex)
    # rows i + 1 and i + 2, with a zero column past the last
    below, below2 = (np.zeros((cols + 1, n, n), dtype=complex) for _ in range(2))
    for i in range(rows - 1, -1, -1):
        row = np.zeros_like(below)
        row[i] = 0.5 * T[2 * i]
        if i + 1 < cols:
            strip = S[2 * i] - S[2 * i + 1] - S[2 * i + 2] + S[2 * i + 3]
            # K(i, i+1) = P + (strip/4) P, the centroid's own share taken at the predictor P
            pred = below[i + 2] + 0.5 * (T[2 * i + 1] - T[2 * i + 3])
            pred = pred + strip @ (0.5 * below[i + 1] + 0.25 * below[i + 2])
            row[i + 1] = pred + 0.25 * strip @ pred
        diamond = S[2 * i] - 2.0 * S[2 * i + 2] + S[2 * i + 4]
        row[i + 2 : cols] = below[i + 3 :] + below[i + 1 : -2] - below2[i + 2 : -1]
        for c in range(n):
            row[i + 2 : cols] += diamond[:, c, None] * below[i + 2 : -1, None, c]
        if i % keep == 0:
            kept[i // keep] = row[:cols:keep]
        below2, below = below, row
    return kept


# -- tables the package does not keep -------------------------------------------


def reference_near_field(potential, k, x_out):
    """The Jost solution's scattered part ``f(k, x) - e^{ikx} I`` on the
    nodes ``x_out``, entry ``[a, b]`` at ``[k, b, a, x]``, shape ``(len(k),
    n, n, len(x_out))``, and ``m'`` at ``x_out[0]``: the exact cellwise
    propagation with ``f`` formed node by node, where the package keeps its
    cell factors.

    Each cell ``[a, b]``, walked right to left in the eigenbasis ``U`` of
    its matrix, maps the state at ``b`` to the nodes by one product of the
    basis ``U[a, l] (U^dagger f(b), U^dagger f'(b))`` with ``[cos(qs);
    -sin(qs)/q]`` at ``s = b - x``, and to ``a`` by the same factors at ``s
    = b - a``; ``e^{ikx}`` comes off the diagonal at the end.  The factors
    are the package's own (:func:`~scatterkit.jost._cell_factors`).
    """
    from scatterkit.grids import _phases
    from scatterkit.jost import JostOverflow, _cell_factors

    k = np.asarray(k, dtype=float)
    x_out = np.asarray(x_out, dtype=float)
    n = potential.n
    nk, nx = k.size, x_out.size
    if nx == 1 or potential.support_radius <= x_out[0]:
        return np.zeros((nk, n, n, nx), dtype=complex), np.zeros((nk, n, n), dtype=complex)
    xe = x_out[-1]
    inner = potential.breaks[(potential.breaks > x_out[0]) & (potential.breaks < xe)]
    edges = np.concatenate([[x_out[0]], inner, [xe]])
    cells = potential.segment_values(edges)
    owner = np.clip(np.searchsorted(edges, x_out, side="right") - 1, 0, cells.shape[0] - 1)
    absk, pair = np.unique(np.abs(k), return_inverse=True)
    f = np.exp(1j * k * xe)[:, None, None] * np.eye(n)
    fp = 1j * k[:, None, None] * f
    out = np.empty((nk, n * n, nx), dtype=complex)  # rows (b, a)
    for c in range(cells.shape[0] - 1, -1, -1):
        a, b = edges[c], edges[c + 1]
        lam, u = np.linalg.eigh(cells[c])
        lo, hi = np.searchsorted(owner, (c, c + 1))
        q2 = (absk * absk)[:, None] - lam
        cos, sinc = _cell_factors(q2, b - x_out[lo:hi][::-1])
        nodes = np.concatenate([cos, -sinc], axis=1, dtype=complex)[..., ::-1]
        cos, sinc = (v[..., 0] for v in _cell_factors(q2, np.array([b - a])))
        edge = np.stack([np.concatenate([cos, -sinc], 1), np.concatenate([q2 * sinc, cos], 1)], axis=2)
        cd = (u.conj().T @ np.stack([f, fp], axis=1)).transpose(0, 3, 1, 2)  # [k, b, s, l]
        basis = (u[:, None, :] * cd[:, :, None]).reshape(nk, n * n, 2 * n)
        with np.errstate(invalid="ignore", over="ignore"):
            np.matmul(basis, nodes[pair], out=out[..., lo:hi])
            state = (basis @ edge[pair]).reshape(nk, n, n, 2)
        f, fp = state[..., 0].swapaxes(1, 2), state[..., 1].swapaxes(1, 2)
        finite = np.isfinite(out[..., lo:hi]).all(axis=(1, 2)) & np.isfinite(state).all(axis=(1, 2, 3))
        if not finite.all():
            raise JostOverflow.at(edges, cells, c, k[np.argmin(finite)])
    wave = _phases(k, x_out)
    for i in range(n):
        out[:, i * (n + 1)] -= wave
    mprime = np.exp(-1j * k * x_out[0])[:, None, None] * (fp - 1j * k[:, None, None] * f)
    return out.reshape(nk, n, n, nx), mprime


def faddeev_m(potential, k, x):
    """``m(k, x) = e^{-ikx} f(k, x)`` on the nodes ``x``, shape ``(len(k),
    len(x), n, n)``, from the cell factors :func:`faddeev_solve` returns,
    with one complex exponential per phase; and ``m'(k, x[0])``."""
    x = np.asarray(x, dtype=float)
    near, mprime = faddeev_solve(potential, k, x)
    return np.exp(-1j * np.outer(k, x))[..., None, None] * near.f(), mprime


def mprime_nodes(potential, k, x):
    """``m'(k, x_j)`` at every node of ``x``: the wall value of
    :func:`faddeev_solve` on ``x[j:]``; shape ``(len(k), len(x), n, n)``."""
    x = np.asarray(x, dtype=float)
    return np.stack([faddeev_solve(potential, k, x[j:])[1] for j in range(x.size)], axis=1)


def near_field_psi(pt):
    """``Psi(k, x) = f(-k, x) + f(k, x) S(k)`` on the near field ``pt.xv``,
    with ``f`` formed from the Jost table's cell factors and ``k[::-1] ==
    -k``; shape ``(len(k), len(xv), n, n)``."""
    f = pt.near.f()
    return f[::-1] + f @ pt.S[:, None]


def near_matrix_from_m(k, xv, m):
    """``G[(x, a), (q, b)] = e^{iqx} (m(q, x) - I)[a, b]`` from ``m[q, x, a,
    b]`` on a grid with ``k[::-1] == -k``: the transposing copy, the
    identity taken off the diagonal, and the phases of the positive momenta,
    conjugated for the negative ones; shape ``(len(xv) n, len(k) n)``."""
    nk, nxv, n = m.shape[:3]
    npos = nk // 2
    G = m.transpose(1, 2, 0, 3).copy()  # [x, a, q, b]
    for a in range(n):
        G[:, a, :, a] -= 1.0
    phases = np.exp(1j * np.outer(k[npos:], xv)).T[:, None, :, None]
    G[:, :, npos:] *= phases
    G[:, :, :npos] *= phases[:, :, ::-1].conj()
    return G.reshape(nxv * n, nk * n)


def map_kernel_near_sums(pt, k, sign, S, Yc, Zw, potential):
    """The near-field sums of the generalized Fourier map kernel
    ``Psi(-sign*k, x)^dagger`` on positive momenta ``k``, over the
    near-field nodes before the last, from whole tables of ``f(+-sign*k,
    x) - e^{+-i sign k x} I`` of ``potential`` by the reference propagation
    :func:`reference_near_field`, laid out ``[k, b, a, x]``.  When ``k``
    are the table's positive nodes the sums are those of ``f`` itself, as
    the table-grid maps read it (their plane sums start at ``xv[-1]``);
    elsewhere those of ``f - e^{ikx} I``.  Each sum is one ``einsum`` per
    factor.  ``S`` holds ``S(-sign*k)`` and ``Yc`` the conjugate weighted
    field on ``xv[:-1]``.  Returns, unscaled, the analysis part ``(len(k),
    n)`` and, for each row of ``Zw``, the synthesis part on ``xv[:-1]``."""
    g = reference_near_field(potential, np.concatenate([k, -k]), pt.xv)[0][..., :-1]
    if np.array_equal(k, pt.grid.kpos):
        kk = np.concatenate([k, -k])
        for a in range(pt.n):
            g[:, a, a] += np.exp(1j * np.outer(kk, pt.xv[:-1]))
    g_pos, g_neg = g[: k.size], g[k.size :]
    g_s, g_ms = (g_pos, g_neg) if sign == +1 else (g_neg, g_pos)

    def near_t(g, Y):  # sum_x (g(k, x) as [a, b])^T Y(x)
        return np.einsum("kbax,xa->kb", g, Y)

    def near(g, Z):  # sum_k (g(k, x) as [a, b]) Z(k)
        return np.einsum("kbax,kb->xa", g, Z)

    mirror = np.einsum("kji,kj->ki", S, near_t(g_ms, Yc))
    analysis = (near_t(g_s, Yc) + mirror).conj()
    SZ = np.einsum("kij,tkj->tki", S, Zw)
    synthesis = [near(g_s, Z) + near(g_ms, SZi) for Z, SZi in zip(Zw, SZ)]
    return analysis, synthesis


# -- helpers on the package's own tables and models ------------------------------


def jost_representation_check(jt, kt, k_samples=48):
    """Residual of ``f(k,x) = e^{ikx} I + integral_x K(x,y) e^{iky} dy``, the
    integral taken by the trapezoid rule over the kernel's columns on
    ``kt.values`` (zero below the diagonal, half the jump on the diagonal
    node).

    Momenta are sampled inside ``0.45 k_max``.  The defect is the kernel's
    own node error plus the trapezoid rule's over the kernel's kinks, which
    grows as ``(k dy)^2`` times ``|K|``.

    Returns
    -------
    dict
        ``{"max_defect", "k", "defects"}``.
    """
    from scatterkit.grids import fourier_sum

    k = jt.k
    kmax = float(np.abs(k).max())
    inner = np.flatnonzero(np.abs(k) <= 0.45 * kmax)
    sel = inner[np.linspace(0, inner.size - 1, min(k_samples, inner.size)).astype(int)]
    weighted = (kt.values * kt.wy[None, :, None, None]).swapaxes(0, 1)  # (Ny, Nx, n, n)
    integ = fourier_sum(weighted, kt.y[0], kt.y[1] - kt.y[0], k[sel])
    # both sides less e^{ikx} I: the integral against the table's scattered part
    scattered = jt.near.f(sel) - np.exp(1j * np.outer(k[sel], jt.xv))[..., None, None] * np.eye(jt.n)
    defects = np.abs(integ - scattered).reshape(sel.size, -1).max(axis=1)
    return {
        "max_defect": float(defects.max()),
        "k": k[sel],
        "defects": defects,
    }


def f0_synthesis(grid, Z, x=None):
    """Inverse of the cosine transform: midpoint sum over the positive
    momentum nodes (the transform is self-inverse in exact arithmetic).

    The discrete momentum sum periodizes in position with period ``2 pi/dk``
    and mirrors the field about it, so the synthesis is only faithful for
    ``x`` well inside that alias window."""
    from scatterkit.spectral import _as_field, _cosine_sum

    xq = grid.x if x is None else np.asarray(x, dtype=float)
    Zw = _as_field(Z) * grid.dk
    return np.sqrt(2.0 / np.pi) * _cosine_sum(Zw, grid.kpos[0], grid.dk, xq)


# -- finite-difference model --------------------------------------------------


class DiscreteHamiltonian:
    """Banded second-order finite-difference model of the operator, with its
    boundary condition imposed channel-wise in the frame that diagonalizes
    the pair.  Its eigenvalues are off by O(dx) where the potential steps
    between nodes, and by O(dx^2) elsewhere.

    The boundary row uses a ghost-point elimination and is symmetrized by a
    diagonal similarity (weight 1/sqrt(2) on the boundary node), so the band
    is exactly Hermitian; Dirichlet channels simply drop their boundary node.
    ``band`` is the lower band, shape ``(n + 1, N)``; ``index`` holds the
    ``(nx, n)`` variable numbers, -1 where eliminated; ``mixer`` is the
    unitary channel frame and ``boundary_scale`` the per-variable similarity.
    """

    def __init__(self, band, index, mixer, x, n, boundary_scale):
        self.band, self.index, self.mixer = band, index, mixer
        self.x, self.n, self.boundary_scale = x, n, boundary_scale
        self._eigenpairs = None

    @property
    def eigenpairs(self):
        if self._eigenpairs is None:
            # numpy has no banded eigensolver, and the dense one would cost O(N^3)
            from scipy.linalg import eig_banded

            band = self.band.real if not self.band.imag.any() else self.band
            self._eigenpairs = eig_banded(band, lower=True)
        return self._eigenpairs

    @property
    def size(self):
        return self.band.shape[1]


def discrete_hamiltonian(potential, bp, x):
    """Second-order finite-difference matrix for the operator on the given
    uniform grid (homogeneous Dirichlet truncation at the right edge).

    Robin channels eliminate the ghost node through the boundary derivative,
    which makes the boundary row lopsided (``-2/dx^2`` out, ``-1/dx^2`` back);
    conjugating by ``diag(1/sqrt(2))`` on the boundary node restores a
    Hermitian band with off-diagonal ``-sqrt(2)/dx^2`` there.
    """
    from scatterkit.boundary import diagonalize_boundary

    x = np.asarray(x, dtype=float)
    dx = float(x[1] - x[0])
    if np.abs(np.diff(x) - dx).max() > 1e-12 * max(1.0, dx):
        raise ValueError("the discrete model needs a uniform grid")
    form = diagonalize_boundary(bp)
    M = form.M
    thetas = form.thetas
    n = M.shape[0]

    nx = x.size
    index = -np.ones((nx, n), dtype=int)
    count = 0
    for j in range(nx - 1):  # right wall eliminated
        for c in range(n):
            if j == 0 and form.dirichlet[c]:
                continue
            index[j, c] = count
            count += 1
    scale = np.ones(count)
    scale[index[0][~form.dirichlet]] = 1.0 / np.sqrt(2.0)

    vrot = np.einsum("ij,xjl,lm->xim", M.conj().T, potential.value_at(x), M)
    band = np.zeros((n + 1, count), dtype=complex)
    inv2 = 1.0 / dx**2
    for j in range(nx - 1):
        for c in range(n):
            i = index[j, c]
            if i < 0:
                continue
            if j == 0:
                band[0, i] = 2.0 * inv2 * (1.0 - dx / np.tan(thetas[c])) + vrot[j, c, c].real
            else:
                band[0, i] = 2.0 * inv2 + vrot[j, c, c].real
            for c2 in range(c + 1, n):
                i2 = index[j, c2]
                if i2 >= 0:
                    band[i2 - i, i] = vrot[j, c2, c]
            if j + 1 < nx - 1:
                i2 = index[j + 1, c]
                band[i2 - i, i] = -inv2 / scale[i]
    return DiscreteHamiltonian(band=band, index=index, mixer=M, x=x, n=n, boundary_scale=scale)


def discrete_bound_states(dh):
    """Eigenvalues of the discrete model below ``-1e-8``, ascending; no
    eigenvectors are formed."""
    from scipy.linalg import eig_banded

    band = dh.band.real if not dh.band.imag.any() else dh.band
    return eig_banded(band, lower=True, eigvals_only=True, select="v", select_range=(-np.inf, -1e-8))


def evolve_discrete(dh, Y, t):
    """Propagate a field with the discrete model's eigen-decomposition;
    returns samples on the model's grid (zeros on eliminated nodes)."""
    from scatterkit.spectral import _as_field

    Y = _as_field(Y)
    if Y.shape != (dh.x.size, dh.n):
        raise ValueError("field samples must match the model grid")
    rot = Y @ dh.mixer.conj()  # channel frame of the band matrix
    mask = dh.index >= 0
    vec = np.zeros(dh.size, dtype=complex)
    vec[dh.index[mask]] = rot[mask]
    vec *= dh.boundary_scale  # similarity weight on the boundary node
    w, v = dh.eigenpairs
    vec_t = v @ (np.exp(-1j * t * w) * (v.conj().T @ vec))
    vec_t /= dh.boundary_scale
    out_rot = np.zeros((dh.x.size, dh.n), dtype=complex)
    out_rot[mask] = vec_t[dh.index[mask]]
    return out_rot @ dh.mixer.T


def free_jost_matrix(k, bp):
    """Closed form ``J(k) = B - ikA`` of the zero potential."""
    k = np.asarray(k, dtype=float)
    return bp.B[None] - 1j * k[:, None, None] * bp.A[None]
