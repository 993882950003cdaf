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
s goes to 0.  In the thermal q2 at s < 1 the lowest nodes weigh much, and
there the cancelling difference h - expm1(i w t) of its integrand is
summed as a series.  The panels of every time lie on one lattice in ln r,
so a grid of times shares its nodes and the t-independent part of the
integrand (quad_ohmic_grid), q1 and q2 of a grid share expm1(i w t) as
well, and a single time is a grid of one.  Tabulated densities are
piecewise linear, not analytic, and keep real-axis panels of at most half
an oscillation period, at most PANEL_CAP of them.  Zero
temperature is beta = inf, the one encoding of T = 0 here: there the
coth(beta w / 2) of the kind-2 integrand is 1.
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
# fractions of its width from that edge, and per unit width the weights of
# the Kronrod value and of its error estimate on them (columns)
_U16 = np.append(0.5 * (_X15 + 1.0), 0.0)
_W_GK = 0.5 * np.stack([np.append(_W15, 0.0), np.append(_W15 - _W7, 0.0)], axis=1)
for _arr in (_X15, _W15, _W7, _U16, _W_GK):
    _arr.flags.writeable = False

PANEL_CAP = 16384  # real-axis panels of a tabulated density; see quad_tabulated

_ROT = complex(math.sqrt(0.5), math.sqrt(0.5))  # e^{i pi/4}, the integration ray
_RAY_WIDTH = 0.6  # width of the initial ray panels in x = ln r
_X_MIN = math.log(np.finfo(float).tiny)  # below this r = e^x is no longer a normal float
_EPS = float(np.finfo(float).eps)
# h - expm1(z) with z = u (i - 1) is u^2 times a polynomial in u with the
# coefficients c_n (i - 1)^n, c_n = [n odd] - 1/n!, here from n = 16 down to
# 2 with Re and Im in two rows; that meets eps up to u = _U_SERIES
_U_SERIES = 0.05
_SERIES = np.array([((n % 2) - 1.0 / math.factorial(n)) * complex(-1.0, 1.0) ** n
                    for n in range(16, 1, -1)])
_SERIES = np.stack([_SERIES.real, _SERIES.imag])
_SERIES.flags.writeable = False


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


def _ray_factors(kind, s, alpha, omega_c, beta, x):
    """The factors of the ray integrand that do not depend on t, at nodes x:
    Re w / 2 (= Im w / 2) with w = e^x e^{i pi/4}, Re and Im of w g(w), and
    for kind 2 at beta < inf Re and Im of coth(beta w / 2)."""
    rc = np.exp(x) * _ROT.real  # Re w = Im w
    # in x = ln r, dw = w dx: w g(w) = scale w^(s-1) exp(-w/omega_c),
    # with ln w = x + i pi/4
    decay = rc / omega_c
    mag = np.exp((s - 1.0) * x - decay)
    mag *= alpha * omega_c ** (1.0 - s)
    phase = (s - 1.0) * (math.pi / 4.0) - decay
    factors = [0.5 * rc, mag * np.cos(phase), mag * np.sin(phase)]
    # beta = inf would make the factor nan on the ray (sin(inf)), so T = 0
    # drops it instead
    if kind == 2 and not math.isinf(beta):
        # coth(beta w / 2) = -1 - 2 / expm1(-beta w), and expm1(-beta w) is
        # the conjugate of expm1(i w beta)
        e_re, e_im = _expm1_iwt(beta * factors[0])
        coth = -1.0 - 2.0 / (e_re - 1j * e_im)
        factors += [coth.real, coth.imag]
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


def _series_bound(t, omega_c: float, s: float, rtol: float) -> np.ndarray:
    """Per time t, the u = t Re w below which the thermal kind-2 integrand
    takes h - expm1(i w t) from its series (s < 1 only).

    The direct difference cancels to a relative error of about eps / u,
    and below the scale u_s = t r_s Re e^{i pi/4} a node weighs about
    (u / u_s)^s of the integrand there, so it loses eps u^(s-1) u_s^-s.
    That exceeds 1e-3 rtol below u = (eps / (1e-3 rtol u_s^s))^(1/(1-s)),
    which is taken no higher than u_s and _U_SERIES.
    """
    u_s = np.minimum(omega_c * t, 1.0) * _ROT.real
    ln_u = np.log(u_s)
    ln_u *= -s
    ln_u += math.log(_EPS / (1e-3 * rtol))
    ln_u /= 1.0 - s
    return np.exp(np.minimum(ln_u, np.log(np.minimum(u_s, _U_SERIES))))


def _series_fill(hu, a_re, a_im, u_max):
    """Overwrite Re and Im of h - expm1(i w t), a_re and a_im, by their
    series in u = 2 hu wherever u < u_max."""
    on = hu < 0.5 * u_max
    if not on.any():
        return
    u = 2.0 * hu[on]
    acc = np.repeat(_SERIES[:, :1], u.size, axis=1)  # Horner, Re and Im rows
    for c in _SERIES[:, 1:].T:
        acc *= u
        acc += c[:, None]
    acc *= u * u
    a_re[on], a_im[on] = acc


def _ray_kernel(kind, hu, e_re, e_im, wg_re, wg_im, coth_re=None, coth_im=None, *,
                u_max=None, head=None):
    """The integrand in x = ln r at hu = t Re w / 2, from Re and Im of
    expm1(i w t) (_expm1_iwt(hu)) and the t-independent factors of
    _ray_factors, all broadcast against each other.  Kind 2 only reads its
    inputs and kind 1 overwrites e_re and e_im, so both kinds take their
    integrand from one expm1 when kind 2 goes first.  For kind 2 with
    u_max given (also broadcast), h - expm1(i w t) is taken from its series
    where u = t Re w < u_max, looked for in the first head panels (the next
    to last axis; all of them by default)."""
    if kind == 1:
        e_re *= wg_im
        e_im *= wg_re
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
    if u_max is not None:
        _series_fill(hu[..., :head, :], a_re[..., :head, :], q[..., :head, :], u_max)
    v_re = wg_re * a_re
    v_re -= wg_im * q
    # coth last: near the smallest normal r, w g(w) coth alone overflows
    if coth_re is None:
        return v_re
    v_re *= coth_re
    a_re *= wg_im
    q *= wg_re
    q += a_re
    q *= coth_im
    v_re -= q
    return v_re


# (time, node) pairs quad_ohmic_grid evaluates at once: blocks of about 8
# times at omega_c t ~ 400, which keeps its temporaries near 0.6 MB and out
# of the peak resident memory of a run
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
    a few more (C below grows with beta).  So w, w g(w) and coth are
    evaluated once, on the GK15 nodes and the lower edge of each panel of
    the last kind's set, and per time and node only expm1(i w t), shared by
    both kinds, and h are.  Each kind keeps its own panel counts: a time's
    sums run down from the top panel and stop at its own first one, and a
    time whose estimate misses rtol is bisected on its own (_adaptive).
    A time's values agree with those of a call for that time alone to
    1e-12 relative, not bit for bit: the stacked GK15 matmul rounds a row
    differently with the shape and offset of its block.  The times go in
    blocks of at most _GRID_BLOCK (time, node) pairs, so memory does not
    grow with the grid.

    Below the first panel, x < x_lo, the integrand in x = ln r is a power
    law f(x) ~ f(x_lo) e^{p (x - x_lo)}, with p = s, or s + 1 for kind 2 at
    zero temperature, up to a relative correction of order r C with
    r = e^x and C = t + 1/omega_c + beta (beta = 0 at T = 0 and for kind
    1).  So f(x_lo) / p is added to the value, and initial_panels puts the
    cut where the remainder bound 2 |f(x_lo)| r_lo C / p is 1e-3 rtol of
    the integrand's scale.  For small s the head holds much of the
    integral.  In the thermal kind 2 at s < 1, h - expm1(i w t) cancels to
    a relative error of about eps / u at small u = t Re w, and the head
    weighs the lowest nodes like (u / u_s)^s; there it is summed as its
    series sum_n c_n z^n, z = i w t = u (i - 1), c_n = [n odd] - 1/n!,
    on the nodes where the direct form would lose more than 1e-3 rtol
    (_series_bound).  Those nodes lie in the lowest panels only, so a
    block looks for them in the panels whose lower edge (node 15) is
    below the bound, and at p >= 1 no node needs the series.
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
    n = [_panel_counts(t, omega_c, s, rtol, bc) for bc in beta_c]
    a, b = initial_panels(float(t[np.argmax(n[-1])]), omega_c, s, rtol, beta_c[-1])
    first = [a.size - nk for nk in n]  # each time's first panel, per kind
    width = b - a
    # node 15 is the lower edge of the panel, where the head is taken
    half, *factors = _ray_factors(kinds[-1], s, alpha, omega_c, beta,
                                  a[:, None] + width[:, None] * _U16)
    u_max = (_series_bound(t, omega_c, s, rtol)
             if kinds[-1] == 2 and not zero_t and s < 1.0 else None)
    # neighbouring times of a sorted grid, as evolve_reduced requires,
    # share a block and most of its panels
    step = max(1, _GRID_BLOCK // half.size)
    for i in range(0, t.size, step):
        k = slice(i, i + step)
        p0 = int(first[-1][k].min())
        hu = t[k, None, None] * half[p0:]
        shared = (hu, *_expm1_iwt(hu))
        # kind 2 first: kind 1 forms its integrand in place of expm1
        for row in range(len(kinds) - 1, -1, -1):
            kind = kinds[row]
            pk = int(first[row][k].min())
            u_blk = head = None
            if kind == 2 and u_max is not None:
                # the panels whose lower edge is below some time's bound, and
                # one more against rounding: the series mask decides in them
                u_blk = u_max[k, None, None]
                head = 1 + int(np.searchsorted(half[pk:, -1],
                                               float((0.5 * u_max[k] / t[k]).max())))
            # kind 1 takes w g(w) and not coth
            fv = _ray_kernel(kind, *(x[:, pk - p0:] for x in shared),
                             *(x[pk:] for x in factors[:2 if kind == 1 else None]),
                             u_max=u_blk, head=head)
            rows, start = np.arange(fv.shape[0]), first[row][k] - pk
            heads[row, k] = fv[rows, start, -1]
            # [value, error] of each panel, then [|value|, |error|] beside them
            gk = (fv @ _W_GK) * width[pk:, None]
            gk = np.concatenate([gk, np.abs(gk)], axis=2)
            # in sequence down from the top panel: row n - 1 of the running sum
            # holds a time's own panels and none below them
            total, _, size, err_total = np.add.accumulate(
                gk[:, ::-1], axis=1)[rows, n[row][k] - 1].T
            values[row, k], errors[row, k] = total, err_total
            for j, (tot, sz, err) in enumerate(zip(total.tolist(), size.tolist(),
                                                   err_total.tolist())):
                if err <= max(rtol * abs(tot), 30.0 * _EPS * sz):
                    continue
                kj, pj = i + j, first[row][i + j]

                def f(x, kind=kind, tj=t[kj], um=None if u_blk is None else u_max[kj]):
                    half_x, *factors_x = _ray_factors(kind, s, alpha, omega_c, beta, x)
                    hu_x = tj * half_x
                    return _ray_kernel(kind, hu_x, *_expm1_iwt(hu_x), *factors_x,
                                       u_max=um)

                # six bisections of every panel: far more than the analytic
                # integrand needs
                values[row, kj], errors[row, kj] = _adaptive(
                    f, a[pj:], b[pj:], gk[j, start[j]:, 0], gk[j, start[j]:, 3],
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
    (value, error)."""
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

    One complex exponential per element: the element-wise law behind
    DephasingTrajectory.snapshots and the analytic side of the finite-bath
    oracle.  evolve_reduced uses the factored form instead.  The damping
    exponent is clamped at -350, as in evolve_reduced: numpy's exp slows
    down below about -708, and a modulus below e^-350 ~ 1e-152 moves no
    observable.
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
