"""Numeric hot paths: reservoir-integral quadrature and dephasing multipliers.

Everything here is vectorized numpy.  Panels get the 15-point Gauss-Kronrod
rule with the embedded 7-point Gauss value as the error estimate, and the
worst panels are bisected until the summed estimate meets the relative
tolerance.  Ohmic densities are integrated along the ray w = r e^{i pi/4},
where nothing oscillates (numerical steepest descent; Huybrechs and
Vandewalle, SIAM J. Numer. Anal. 44, 1026 (2006)), on fixed-width panels in
ln r, so their cost grows like ln(omega_c t) and t has no limit.  Below the
first panel the integrand is a power law in ln r, added in closed form, and
the first panel sits where the bound on that head's remainder meets 1e-3
rtol (initial_panels), so the count stays within 2x of the s = 1 count as
s goes to 0.  The panels of every time lie on one lattice in ln r, so a
grid of times shares its nodes and the t-independent part of the integrand
(quad_ohmic_grid), q1 and q2 of a grid share expm1(i w t) as well, and a
single time is a grid of one.  With u = t Re w, only about 11 panels of a
time, those with 0.1 <= u <= 40, need that time's nodes: below, in the
head, the integrand is a power series in u, and above, in the dead tail,
e^{iwt} is below rounding and it is a series in 1/u.  There a panel is a
sum of t-independent node moments times powers of u, one matrix product
for a block of times; in the head the series also avoids the cancelling
difference h - expm1(i w t) of the kind-2 integrand.  Tabulated densities are
piecewise linear, not analytic, and keep real-axis panels of at most half
an oscillation period, at most PANEL_CAP of them.  Zero
temperature is beta = inf, the one encoding of T = 0 here: there the
coth(beta w / 2) of the kind-2 integrand is 1.

quad_ohmic and dephasing_multipliers have no caller in the package: bath
takes every integral from quad_ohmic_grid, and dynamics writes every
element through its own element law.  They stay because the traced runs
of the benchmark wrap them by name, and dephasing_multipliers is the
independent reference that the tests hold that law against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, NumericsError

__all__ = ["active_backend", "quad_ohmic", "quad_ohmic_grid", "quad_tabulated",
           "dephasing_multipliers", "initial_panels", "PANEL_CAP"]


def active_backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


# 15-point Kronrod nodes/weights with the embedded 7-point Gauss weights,
# ascending order on [-1, 1] (standard QUADPACK dqk15 table).
_X15 = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_W15 = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_W7 = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])
# quad_ohmic_grid: the GK15 nodes and then the lower edge of a panel, as
# fractions of its width from that edge, and on them the weights (columns)
# of the Kronrod value and of its error estimate, per unit width, and of the
# lower edge's integrand, which the closed-form head reads
_U16 = np.append(0.5 * (_X15 + 1.0), 0.0)
_W_GK = np.stack([np.append(0.5 * _W15, 0.0), np.append(0.5 * (_W15 - _W7), 0.0),
                  np.eye(16)[15]], axis=1)
for _arr in (_X15, _W15, _W7, _U16, _W_GK):
    _arr.flags.writeable = False

PANEL_CAP = 16384  # real-axis panels of a tabulated density; see quad_tabulated

_ROT = complex(math.sqrt(0.5), math.sqrt(0.5))  # e^{i pi/4}, the integration ray
_RAY_WIDTH = 0.6  # width of the initial ray panels in x = ln r
_X_MIN = math.log(np.finfo(float).tiny)  # below this r = e^x is no longer a normal float
_EPS = float(np.finfo(float).eps)
# With u = t Re w, z = i w t = u (i - 1).  Below _U_LO, expm1(z) and
# h - expm1(z) are their power series sum_n c_n z^n, c_n = 1/n! and
# [n odd] - 1/n!, cut after n = 20.  Above _U_HI, |e^z| = e^-u is below
# rounding, so expm1(z) = -1 and h - expm1(z) = 1 - sum_k z^-(2k+1), cut
# after k = 4.  _SERIES[kind] holds the exponents n and the coefficients
# c_n (i - 1)^n of u^n in the head and in the tail.  ln(_U_HI / _U_LO) is
# just below 10 panel widths, so a time's live band, the panels between,
# has at most 11.
_U_LO, _U_HI = 0.1, 40.0
_LIVE = 11
# grids of fewer times evaluate every panel node by node: below 8 to 16
# times, by the grid's span, the moments cost more than the nodes they save
_FEW = 16
_HEAD_N = np.arange(1.0, 21.0)
_TAIL_N = np.array([0.0, -1.0, -3.0, -5.0, -7.0, -9.0])
_Z_HEAD, _Z_TAIL = (np.array([complex(-1.0, 1.0) ** int(n) for n in ns])
                    for ns in (_HEAD_N, _TAIL_N))
_INV_FACT = np.array([1.0 / math.factorial(int(n)) for n in _HEAD_N])
_SERIES = {1: ((_HEAD_N, _Z_HEAD * _INV_FACT), (_TAIL_N, np.where(_TAIL_N == 0.0, -1.0, 0.0) + 0j)),
           2: ((_HEAD_N, _Z_HEAD * (_HEAD_N % 2 - _INV_FACT)),
               (_TAIL_N, np.where(_TAIL_N == 0.0, 1.0, -_Z_TAIL)))}
# the exponents of quad_ohmic_grid's moments: the head's, then n = 21 of
# its truncation bound, then the tail's
_N = np.concatenate([_HEAD_N, [21.0], _TAIL_N])
_N_HEAD = _HEAD_N.size + 1
# a ray panel's nodes as offsets from its lower edge in x = ln r, and the
# weights on them of its columns: the Kronrod value, its error estimate,
# the lower edge's integrand, and (zero here) the series truncation bound
_D16 = _RAY_WIDTH * _U16
_W_RAY = np.append(_W_GK * np.array([_RAY_WIDTH, _RAY_WIDTH, 1.0]), np.zeros((16, 1)), axis=1)
_W_RAY.flags.writeable = False


def _moment_matrix(kind):
    """The matrix that takes a panel's row [Re F, Im F, |F|] of F = w g coth
    at its 16 nodes to its moments m[n, c]: in Re (kind 2) or Im (kind 1),
    sum_j W_jc F_j c_n rho_j^n over the exponents n of _N with the series
    coefficients c_n of _SERIES[kind], rho_j = e^{d_j} for the node offsets
    d_j of _D16 and the first three columns W of _W_RAY.  Column 3 is the
    bound on the series' truncation: sum_j W_j0 |F_j| times, in the head,
    |z|^21 / (1 - |z|) at |z| = sqrt(2) u <= sqrt(2) _U_LO (n = 21), and in
    the tail the dropped e^-u and |z|^-11 / (1 - |z|^-2) at u >= _U_HI
    (n = 0).  A panel's columns at u = t Re w of its lower edge are then
    sum_n u^n m[n]; shape (_N.size * 4, 48)."""
    (_, head), (_, tail) = _SERIES[kind]
    c = np.concatenate([head, [0.0], tail])
    m = np.zeros((3, 16, _N.size, 4), dtype=complex)
    m[0, :, :, :3] = c[:, None] * np.exp(np.outer(_D16, _N))[:, :, None] * _W_RAY[:, None, :3]
    m[1] = 1j * m[0]
    m = m.imag if kind == 1 else m.real
    z_lo, z_hi = math.sqrt(2.0) * _U_LO, math.sqrt(2.0) * _U_HI
    m[2, :, _N_HEAD - 1, 3] = (_W_RAY[:, 0] * np.exp(21.0 * _D16)
                               * (math.sqrt(2.0) ** 21 / (1.0 - z_lo)))
    m[2, :, _N_HEAD, 3] = _W_RAY[:, 0] * (math.exp(-_U_HI) + z_hi ** -11 / (1.0 - z_hi ** -2))
    m = np.ascontiguousarray(m.reshape(48, -1).T)
    m.flags.writeable = False
    return m


_MOMENTS = {kind: _moment_matrix(kind) for kind in (1, 2)}


def _panel_counts(t, omega_c: float, s: float, rtol: float,
                  beta: float) -> np.ndarray:
    """Numbers of initial ray panels of the times t > 0, an array (see
    initial_panels); one expression for a whole grid."""
    t = np.array(t, dtype=float, ndmin=1)
    if not t.min() > 0.0:
        raise NumericsError(f"the ray panels need t > 0, got {t[~(t > 0.0)][0]}")
    # x_lo = [ln(1e-3 rtol / 2) - s ln max(t, 1/omega_c) - ln C] / (s + 1)
    x_lo = np.log(np.maximum(t, 1.0 / omega_c))
    x_lo *= s
    x_lo += np.log(_head_c(t, omega_c, beta))
    x_lo -= math.log(0.5e-3 * rtol)
    x_lo /= -(s + 1.0)
    n = (_ray_top(omega_c, s) - np.maximum(x_lo, _X_MIN)) // _RAY_WIDTH
    return np.maximum(n.astype(np.int64), 1)


def _head_c(t, omega_c: float, beta: float):
    """C = t + 1/omega_c + beta of the head remainder bound (beta = 0 at
    T = 0); initial_panels places the cut by the bound quad_ohmic_grid adds."""
    return t + (1.0 / omega_c + (0.0 if math.isinf(beta) else beta))


def _ray_top(omega_c: float, s: float) -> float:
    """The top edge of every time's ray panels, Re w = (40 + 2 s) omega_c."""
    return math.log((40.0 + 2.0 * s) * omega_c / _ROT.real)


def initial_panels(t: float, omega_c: float, s: float, rtol: float,
                   beta: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Panel edges (a, b) in x = ln r along the ray w = r e^{i pi/4}.

    The panels have width _RAY_WIDTH and run down from Re w = (40 + 2 s)
    omega_c, where exp(-w/omega_c) ends the integrand, to the head cut
    x_lo; the last panel that fits above the cut is the first.  Below the
    cut quad_ohmic_grid adds the head in closed form and bounds its
    remainder by 2 |f(x_lo)| r_lo C / p, with C = t + 1/omega_c + beta
    (beta = 0 at T = 0) and f(x_lo) ~ f(r_s) (r_lo / r_s)^p below the
    scale r_s = min(1/t, omega_c).  The cut is where that bound is 1e-3 *
    rtol of the integrand's size at r_s:

        x_lo = [ln(1e-3 rtol) + p ln r_s - ln 2C] / (p + 1),

    clamped at the log of the smallest normal float, with p = s, the
    smallest head exponent of the two integrals, so it holds for both.  The
    count grows like ln(omega_c t), not like t; as s goes to 0 it stays
    within 2x of the count at s = 1 (51 against 29 at t = omega_c = 1 and
    rtol 1e-8), and a tighter rtol only adds panels at the head.  Every
    edge is hi - _RAY_WIDTH k with hi independent of t, so the panels of a
    time are, bit for bit, the top panels of those of any time with more
    of them; quad_ohmic_grid relies on that.
    """
    n = int(_panel_counts(t, omega_c, s, rtol, beta)[0])
    edges = _ray_top(omega_c, s) - _RAY_WIDTH * np.arange(n, -1, -1, dtype=float)
    return edges[:-1], edges[1:]


def _coth_half(beta, w):
    """coth(beta w / 2) as -1 - 2 / expm1(-beta w): exactly 1 at beta = inf
    for real w > 0."""
    return -1.0 - 2.0 / np.expm1(-beta * w)


def _gk15_batch(f, a, b):
    mid = 0.5 * (a + b)
    hw = 0.5 * (b - a)
    fv = f(mid[:, None] + hw[:, None] * _X15[None, :])
    vals = (fv * _W15).sum(axis=1) * hw
    errs = np.abs((fv * (_W15 - _W7)).sum(axis=1) * hw)
    return vals, errs


_MAX_ROUNDS = 60  # bisection rounds of _adaptive


def _adaptive(f, a, b, vals, errs, rtol, cap):
    """Bisect the worst of the panels (a, b), whose GK15 values and error
    estimates are vals and errs, until the summed estimate meets rtol."""
    for _ in range(_MAX_ROUNDS):
        total = float(vals.sum())
        err_total = float(errs.sum())
        floor = 30.0 * np.finfo(float).eps * float(np.abs(vals).sum())
        if err_total <= max(rtol * abs(total), floor) or a.size >= cap:
            break
        split = errs > max(rtol * abs(total), floor) / (2.0 * a.size)
        if not split.any():
            split = errs >= 0.5 * errs.max()
        if a.size + split.sum() > cap:
            keep_n = cap - a.size
            order = np.argsort(errs[split])[::-1][:keep_n]
            idx = np.flatnonzero(split)[order]
            split = np.zeros_like(split)
            split[idx] = True
            if not split.any():
                break
        am, bm = a[split], b[split]
        mids = 0.5 * (am + bm)
        new_vals, new_errs = _gk15_batch(f, np.concatenate([am, mids]),
                                         np.concatenate([mids, bm]))
        a = np.concatenate([a[~split], am, mids])
        b = np.concatenate([b[~split], mids, bm])
        vals = np.concatenate([vals[~split], new_vals])
        errs = np.concatenate([errs[~split], new_errs])
    return float(vals.sum()), float(errs.sum())


def _ray_factors(kinds, s, alpha, omega_c, beta, lo, offsets=0.0):
    """The factors of the ray integrand that do not depend on t, at nodes
    x = lo + offsets: Re w / 2 (= Im w / 2) with w = e^x e^{i pi/4}, then
    per kind of kinds Re and Im of F = w g(w), times coth(beta w / 2) for
    kind 2 at beta < inf.  Re w is e^lo e^offsets, so that a panel's nodes
    are its lower edge's times the factors _MOMENTS takes them as.  F
    overflows below r ~ 1e-154, which the panels reach only at t > 1e140."""
    x = lo + offsets
    rc = np.exp(lo) * _ROT.real  # Re w = Im w
    rc = rc * np.exp(offsets)
    # in x = ln r, dw = w dx: w g(w) = scale w^(s-1) exp(-w/omega_c),
    # with ln w = x + i pi/4
    decay = rc / omega_c
    mag = np.exp((s - 1.0) * x - decay)
    mag *= alpha * omega_c ** (1.0 - s)
    phase = (s - 1.0) * (math.pi / 4.0) - decay
    wg = [mag * np.cos(phase), mag * np.sin(phase)]
    factors = [0.5 * rc]
    for kind in kinds:
        # beta = inf would make coth nan on the ray (sin(inf)), so T = 0
        # drops it instead
        if kind == 1 or math.isinf(beta):
            factors += wg
            continue
        # coth(beta w / 2) = -1 - 2 / expm1(-beta w), and expm1(-beta w) is
        # the conjugate of expm1(i w beta)
        e_re, e_im = _expm1_iwt(beta * factors[0])
        f = (wg[0] + 1j * wg[1]) * (-1.0 - 2.0 / (e_re - 1j * e_im))
        factors += [f.real, f.imag]
    return factors


def _expm1_iwt(hu):
    """Re and Im of expm1(i w t) on the ray, from hu = t Re w / 2.

    With u = t Re w, i w t = u (i - 1), so in real arithmetic
    expm1(i w t) = expm1(-u) - 2 e^-u sin^2(u/2) + 2i e^-u sin(u/2) cos(u/2):
    a real sine, cosine, exp and expm1, where numpy's complex expm1 makes
    five scalar transcendental calls.
    """
    e_re = -2.0 * hu
    e_im = np.exp(e_re)
    np.expm1(e_re, out=e_re)
    s2 = np.sin(hu)
    e_im *= s2
    e_im += e_im  # 2 e^-u sin(u/2)
    s2 *= e_im
    e_re -= s2
    e_im *= np.cos(hu)
    return e_re, e_im


def _series_nodes(kind, tail, u, f_re, f_im):
    """The integrand of kind at nodes u = t Re w of the head (tail false)
    or of the dead tail, from the series of _SERIES and Re and Im of F
    (_ray_factors)."""
    n, c = _SERIES[kind][tail]
    v = (u[:, None] ** n) @ c
    v *= f_re + 1j * f_im
    return v.imag if kind == 1 else v.real


def _ray_kernel(kind, hu, e_re, e_im, f_re, f_im):
    """The integrand in x = ln r at hu = t Re w / 2, from Re and Im of
    expm1(i w t) (_expm1_iwt(hu)) and of the t-independent factor F of
    _ray_factors, all broadcast against each other.  Kind 2 only reads its
    inputs and kind 1 overwrites e_re and e_im, so both kinds take their
    integrand from one expm1 when kind 2 goes first."""
    if kind == 1:
        e_re *= f_im
        e_im *= f_re
        e_im += e_re
        return e_im
    # h = u ((q - 1) + i (q + 1)) / (1 + q^2) with u = 2 hu, q = 2 u^2:
    # u / (1 + q^2) first, so that no factor overflows before t ~ 1e150
    q = hu * hu
    q *= 8.0
    d = q * q
    d += 1.0
    np.divide(hu, d, out=d)
    d += d  # u / (1 + q^2)
    q *= d
    a_re = q - d
    a_re -= e_re  # Re(h - expm1(i w t))
    q += d
    q -= e_im  # Im(h - expm1(i w t))
    a_re *= f_re
    q *= f_im
    a_re -= q
    return a_re


# (time, node) pairs quad_ohmic_grid evaluates at once, a time's live band
# or, without moments, all its panels: blocks of about 46 or 14 times,
# which keeps its temporaries below 1 MB and out of the peak resident
# memory of a run
_GRID_BLOCK = 1 << 13


def quad_ohmic_grid(kinds: tuple[int, ...], s: float, alpha: float, omega_c: float,
                    beta: float, t, rtol: float) -> tuple[np.ndarray, np.ndarray]:
    """Reservoir integrals for the ohmic family at every time of a 1-d array t.

    kinds is (1,), (2,) or (1, 2), the integrals to compute:
    kind 1: integral of D(w)/w^2 * sin(w t)
    kind 2: integral of 2 D(w)/w^2 * sin^2(w t / 2) * coth(beta w / 2)
    with D(w) = alpha * w^s * omega_c^(1-s) * exp(-w / omega_c); beta = inf
    is zero temperature, where coth = 1, and kind 1 does not depend on it.

    g = D/w^2 is analytic in the open first quadrant and the poles of coth
    lie on the imaginary axis, so both are integrals along w = r e^{i pi/4}:
    kind 1: Im of the integral of g(w) expm1(i w t) dw,
    kind 2: Re of the integral of g(w) coth(beta w / 2) (h(w) - expm1(i w t)) dw
    with h = i w t / (1 + w^2 t^2).  On the real axis h is imaginary and
    drops out; on the ray it cancels the 2/(beta w) pole of coth at the
    origin, and it decays beyond w ~ 1/t, so no large cancelling term is
    left where the panels are wide.

    Each time's initial panels (initial_panels) are the top panels of those
    of the largest t, and kind 2's are those of kind 1 and, at beta < inf,
    a few more (C below grows with beta).  So w and F = w g(w) (times coth
    for kind 2) are evaluated once, on the GK15 nodes and the lower edge of
    each panel of the last kind's set.  With u = t Re w, a time's head
    panels have every node at u <= _U_LO, its dead-tail panels every node
    at u >= _U_HI, and its live band, the at most _LIVE panels between, is
    evaluated node by node, with expm1(i w t) shared by both kinds.  In the
    head and tail the integrand is F times a series in u (_SERIES), so a
    panel's GK15 value, error estimate and lower-edge integrand are
    sum_n u^n m_n, u at its lower edge, with moments m_n of its nodes
    (_MOMENTS) taken once per grid; a block of times gets them from one
    matrix product per kind.  Each panel's error estimate adds the
    truncation bound of its series and the dropped e^-u of the tail.  A
    grid of fewer than _FEW times evaluates all its panels node by node,
    where the moments would cost more than they save, unless the head
    needs its series: in the thermal kind 2 at s < 1 (below), and at a
    time whose panels all lie in the head, where the direct form of
    kind 2 loses digits to cancellation.  Each kind keeps its own panel
    counts: a time's sums run over its own panels, from its first one up
    to the top, and a time whose estimate misses rtol is bisected on its
    own (_adaptive), on nodes that take the series below _U_LO and above
    _U_HI.  A time's values agree with those of a call for that time alone
    to 1e-12 relative, not bit for bit: its live band and the stacked
    products round differently with the shape of its block.  The times go
    in blocks of at most _GRID_BLOCK (time, node) pairs, so memory does not
    grow with the grid, and of a span in t of at most _U_HI / _U_LO.

    Below the first panel, x < x_lo, the integrand in x = ln r is a power
    law f(x) ~ f(x_lo) e^{p (x - x_lo)}, with p = s, or s + 1 for kind 2 at
    zero temperature, up to a relative correction of order r C with
    r = e^x and C = t + 1/omega_c + beta (beta = 0 at T = 0 and for kind
    1).  So f(x_lo) / p is added to the value, and initial_panels puts the
    cut where the remainder bound 2 |f(x_lo)| r_lo C / p is 1e-3 rtol of
    the integrand's scale.  For small s the head holds much of the
    integral.  In the thermal kind 2 at s < 1 the direct h - expm1(i w t)
    cancels to a relative error of about eps / u at small u, and the head
    weighs the lowest nodes like (u / u_s)^s; there the head always comes
    from its series.
    Returns arrays (values, errors) of shape (len(kinds), t.size), one row
    per kind; an error includes the bound 2 |f(x_lo)| r_lo C / p on the
    head remainder and the rounding 4 eps |x_lo| |f(x_lo)| / p of the head
    itself.  Every t must be positive; callers handle t = 0 and the
    symmetry in t.
    """
    if kinds not in ((1,), (2,), (1, 2)):
        raise InvalidArgumentError(f"kinds must be (1,), (2,) or (1, 2), got {kinds!r}")
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise NumericsError("quad_ohmic_grid needs a 1-d array of times")
    values, errors, heads = np.empty((3, len(kinds), t.size))
    if t.size == 0:
        return values, errors
    zero_t = math.isinf(beta)
    beta_c = [beta if kind == 2 else math.inf for kind in kinds]  # the beta of C
    # one pass per distinct beta of C: at T = 0 both kinds share it
    counts = {bc: _panel_counts(t, omega_c, s, rtol, bc) for bc in set(beta_c)}
    n = [counts[bc] for bc in beta_c]
    a, b = initial_panels(float(t[np.argmax(n[-1])]), omega_c, s, rtol, beta_c[-1])
    top = a.size
    first = [top - nk for nk in n]  # each time's first panel, per kind
    # node 15 is the lower edge of the panel, where the head is taken
    half, *factors = _ray_factors(kinds, s, alpha, omega_c, beta, a[:, None], _D16)
    # per kind, the moments of every panel, in (n, column, panel)
    moments = []
    if (t.size >= _FEW or (kinds[-1] == 2 and not zero_t and s < 1.0)
            or t.min() * half[-1, 14] <= 0.5 * _U_LO):
        for row, kind in enumerate(kinds):
            re, im = factors[2 * row:2 * row + 2]
            m = _MOMENTS[kind] @ np.concatenate([re, im, np.hypot(re, im)], axis=1).T
            moments.append(m.reshape(_N.size, 4, top))
        rc_edge = 2.0 * half[:, 15]
        # a time's head panels, every node at u <= _U_LO, lie below ph, its
        # tail panels, every node at u >= _U_HI, from pt up
        ph = np.searchsorted(half[:, 14], 0.5 * _U_LO / t, "right")
        pt = np.searchsorted(half[:, 15], 0.5 * _U_HI / t, "left")
    step = max(1, _GRID_BLOCK // (16 * (_LIVE if moments else top)))
    i = 0
    while i < t.size:
        k = slice(i, min(i + step, t.size))
        if moments:
            # a block spans at most _U_HI / _U_LO in t, so that no panel is
            # in the head of one of its times and in the tail of another
            span = t[k]
            span = np.maximum.accumulate(span) / np.minimum.accumulate(span)
            k = slice(i, i + int(np.searchsorted(span, _U_HI / _U_LO, "right")))
        i = k.stop
        tk = t[k]
        rows = np.arange(tk.size)
        p0 = int(first[-1][k].min())  # the block's lowest panel
        live, idx = top - p0, slice(p0, top)
        if moments:
            # each time's live band [lo, pt), evaluated on the same number
            # of panels from start up
            lo = np.maximum(ph[k], first[-1][k])
            live = max(int((pt[k] - lo).max()), 0)
            idx = np.minimum(lo, top - live)[:, None] + np.arange(live)
            # the powers u^n = (t / tau)^n (tau Re w)^n at the lower edges
            # of the head and tail panels, with tau at the middle of the
            # block's span, so that neither factor leaves the range of floats
            tau = math.sqrt(float(tk.min()) * float(tk.max()))
            h1, t0 = max(p0, int(ph[k].max())), max(p0, int(pt[k].min()))
            powers = np.zeros((_N.size, 1, top - p0))
            powers[:_N_HEAD, 0, :h1 - p0] = (tau * rc_edge[p0:h1]) ** _N[:_N_HEAD, None]
            powers[_N_HEAD:, 0, t0 - p0:] = (tau * rc_edge[t0:]) ** _N[_N_HEAD:, None]
            scaled = (tk / tau)[:, None] ** _N
        if live:
            # kind 2 first: kind 1 forms its integrand in place of expm1
            hu = tk[:, None, None] * half[idx]
            shared = (hu, *_expm1_iwt(hu))
            band = [f[idx] for f in factors]
        for row in range(len(kinds) - 1, -1, -1):
            kind = kinds[row]
            # [value, error, lower edge, truncation bound] of each panel,
            # in (time, column, panel)
            if moments:
                tab = (scaled @ (moments[row][:, :, p0:] * powers).reshape(_N.size, -1)
                       ).reshape(tk.size, 4, -1)
            if live:
                fv = _ray_kernel(kind, *shared, *band[2 * row:2 * row + 2])
                if moments:
                    tab[rows[:, None], :, idx - p0] = fv @ _W_RAY
                else:
                    tab = (fv @ _W_RAY).transpose(0, 2, 1)
            heads[row, k] = tab[rows, 2, first[row][k] - p0]
            # a time's sums over its own panels, those from its first up:
            # [|value|, |error| + bound, value]
            own = (np.arange(p0, top) >= first[row][k][:, None]).astype(float)
            gk = np.abs(tab)
            gk[:, 2] = tab[:, 0]
            gk[:, 1] += gk[:, 3]
            mass, err_total, total = (gk[:, :3] @ own[:, :, None])[..., 0].T
            values[row, k], errors[row, k] = total, err_total
            for j, (tot, sz, err) in enumerate(zip(total.tolist(), mass.tolist(),
                                                   err_total.tolist())):
                if err <= max(rtol * abs(tot), 30.0 * _EPS * sz):
                    continue
                kj, pj = k.start + j, first[row][k.start + j]

                def f(x, kind=kind, tj=t[kj]):
                    half_x, *factors_x = _ray_factors((kind,), s, alpha, omega_c, beta, x)
                    hu_x = tj * half_x
                    fv = _ray_kernel(kind, hu_x, *_expm1_iwt(hu_x), *factors_x)
                    for tail, on in enumerate((hu_x <= 0.5 * _U_LO, hu_x >= 0.5 * _U_HI)):
                        if on.any():
                            fv[on] = _series_nodes(kind, tail, 2.0 * hu_x[on],
                                                   *(g[on] for g in factors_x))
                    return fv

                # six bisections of every panel: far more than the analytic
                # integrand needs
                values[row, kj], errors[row, kj] = _adaptive(
                    f, a[pj:], b[pj:], gk[j, 2, pj - p0:], gk[j, 1, pj - p0:],
                    rtol, cap=64 * n[row][kj])
    for row, kind in enumerate(kinds):
        heads[row] /= s + 1.0 if kind == 2 and zero_t else s
        # the remainder, plus the rounding of exponents of size |x_lo|, which
        # the exponential turns into a relative error of f
        x_lo = a[first[row]]
        rel = 2.0 * np.exp(x_lo) * _head_c(t, omega_c, beta_c[row]) + 4.0 * _EPS * np.abs(x_lo)
        values[row] += heads[row]
        errors[row] += np.abs(heads[row]) * rel
    return values, errors


def quad_ohmic(kind: int, s: float, alpha: float, omega_c: float, beta: float,
               t: float, rtol: float) -> tuple[float, float]:
    """Integral ``kind`` of quad_ohmic_grid at the one time t > 0, as floats
    (value, error).

    No caller in the package; kept because the benchmark's traced runs
    wrap it by name."""
    values, errors = quad_ohmic_grid((kind,), s, alpha, omega_c, beta,
                                     np.array([t], dtype=float), rtol)
    return float(values[0, 0]), float(errors[0, 0])


def quad_tabulated(kind: int, omega_s: np.ndarray, density_s: np.ndarray,
                   beta: float, t: float, rtol: float) -> tuple[float, float]:
    """Reservoir integral for a tabulated density.

    The integrands of quad_ohmic, on the real axis: kind 1 D(w)/w^2
    sin(w t), kind 2 2 D(w)/w^2 sin^2(w t / 2) coth(beta w / 2), with
    beta = inf for zero temperature.  The density is linearly interpolated
    between samples and taken as zero outside the tabulated range, so the
    integral runs over [omega_s[0], omega_s[-1]] with oscillation-resolved
    panels.
    """
    lo, hi = float(omega_s[0]), float(omega_s[-1])
    if t <= 0.0:
        raise NumericsError("quad_tabulated needs t > 0")
    width = min(math.pi / t, (hi - lo) / 8.0)
    n = int(math.ceil((hi - lo) / width))
    if n + 1 > PANEL_CAP // 2:
        raise NumericsError(f"t = {t:g} needs {n} panels over the tabulated range, beyond capacity")
    edges = np.linspace(lo, hi, n + 1)
    a, b = edges[:-1], edges[1:]

    def f(w):
        g = np.interp(w, omega_s, density_s) / w**2
        if kind == 1:
            return g * np.sin(w * t)
        return g * (2.0 * np.sin(0.5 * w * t) ** 2) * _coth_half(beta, w)

    return _adaptive(f, a, b, *_gk15_batch(f, a, b), rtol, cap=PANEL_CAP)


def dephasing_multipliers(energies: np.ndarray, t: float, q1t: float,
                          q2t: float) -> np.ndarray:
    """Matrix M[j, k] = exp(-i (E_j - E_k) t - i (E_j^2 - E_k^2) q1 - (E_j - E_k)^2 q2).

    One complex exponential per element.  No caller in the package:
    dynamics evaluates the same law in its own code, and the tests hold
    that against this matrix, an independent reference; the benchmark's
    traced runs also wrap it by name.  The damping exponent is clamped at
    -350, as in evolve_reduced: numpy's exp slows down below about -708,
    and a modulus below e^-350 ~ 1e-152 moves no observable.
    """
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    de = energies[:, None] - energies[None, :]
    sq = energies[:, None] ** 2 - energies[None, :] ** 2
    # the exponent is built in place in the result: the snapshot tensor
    # calls this once per time on the full matrix
    out = np.empty(de.shape, dtype=complex)
    np.multiply(de * de, -q2t, out=out.real)
    np.maximum(out.real, -350.0, out=out.real)
    np.multiply(de, -t, out=out.imag)
    out.imag -= sq * q1t
    return np.exp(out, out=out)
