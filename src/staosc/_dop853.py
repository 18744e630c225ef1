"""Adaptive DOP853 integration of y' = f(t, y), with numpy alone.

The explicit Runge-Kutta pair of order 8 of Dormand and Prince, with its
mixed fifth- and third-order error estimate (Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, 2nd ed., Sec. II.10).  The
step control is that of scipy's ``solve_ivp(method="DOP853")`` (scipy
1.17), operation for operation, so steps, ``nfev`` and every state are
bit-identical to scipy's; the tests hold it to scipy as the oracle.
Only what the reference solves use is kept: forward in time, with no
dense output, events, ``t_eval``, ``max_step`` or ``first_step``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SAFETY = 0.9  # multiplies the step predicted from the error's asymptotics
MIN_FACTOR = 0.2  # largest decrease of a step
MAX_FACTOR = 10  # largest increase of a step
#: -1 / (order of the error estimator + 1)
_EXPONENT = -1 / 8
_MIN_RTOL = 100 * np.finfo(float).eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
_FINISHED = "The solver successfully reached the end of the integration interval."

_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
_A_ROWS = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_A = np.array([row + (0.0,) * (12 - len(row)) for row in _A_ROWS])
_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])
# The error weights act on the 12 stages and f at the new point.
_E3 = np.append(_B, 0.0)
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0,
])


class Solution(NamedTuple):
    """The accepted step times ``t``, the states ``y[:, k]`` at them, and the solve's record."""

    t: np.ndarray
    y: np.ndarray
    nfev: int
    success: bool
    message: str


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """Hairer, Norsett & Wanner's first step guess (Sec. II.4), capped by the interval."""
    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One step of the 12-stage tableau; K holds the stages and f at the new point."""
    K[0] = f
    for s, (a, c) in enumerate(zip(_A[1:], _C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, _B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _error_norm(K, h, scale):
    """RMS error of the step: the fifth-order estimate damped by the third-order one."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _accepted_step(fun, t, y, f, h_abs, t_bound, rtol, atol, K):
    """(t, y, f, next |h|) after the first accepted trial step, or None below the minimum step."""
    min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
    h_abs = max(h_abs, min_step)
    rejected = False
    while True:
        if h_abs < min_step:
            return None
        t_new = min(t + h_abs, t_bound)
        h = t_new - t
        h_abs = np.abs(h)
        y_new, f_new = _rk_step(fun, t, y, f, h, K)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _error_norm(K, h, scale)
        if error_norm < 1:
            factor = MAX_FACTOR if error_norm == 0 else min(MAX_FACTOR, SAFETY * error_norm**_EXPONENT)
            if rejected:  # a step that was just rejected does not grow
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm**_EXPONENT)
        rejected = True


def solve_ivp(fun, t_span, y0, rtol, atol, args=()) -> Solution:
    """Integrate y' = fun(t, y, *args) over t_span = (t0, t_bound), t0 < t_bound.

    y0 is a non-empty 1-d real or complex array.  The error of each step
    is held below atol + rtol |y| per component, with a scalar or
    per-component atol.  A step shorter than ten spacings of floating-point
    numbers at t ends the solve with ``success`` False and the message
    :data:`TOO_SMALL_STEP`.  An rtol below 100 machine epsilons is a
    ValueError (scipy warns and raises it to that floor).
    """
    t0, t_bound = map(float, t_span)
    if not t0 < t_bound:
        raise ValueError(f"t_span must increase, got {t_span!r}")
    y0 = np.asarray(y0)
    dtype = complex if np.issubdtype(y0.dtype, np.complexfloating) else float
    y = y0.astype(dtype, copy=False)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"y0 must be a non-empty 1-d array, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("every component of y0 must be finite")
    if rtol < _MIN_RTOL:
        raise ValueError(f"rtol = {rtol!r} is below 100 machine epsilons ({_MIN_RTOL:.3e})")
    atol = np.asarray(atol)
    if atol.ndim > 0 and atol.shape != y.shape:
        raise ValueError(f"atol must be a scalar or of shape {y.shape}, got {atol.shape}")
    if np.any(atol < 0):
        raise ValueError("atol must be non-negative")

    nfev = 0

    def counted(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y, *args), dtype=dtype)

    f = counted(t0, y)
    h_abs = _initial_step(counted, t0, y, t_bound, f, rtol, atol)
    K = np.empty((13, y.size), dtype=dtype)
    t, ts, ys = t0, [t0], [y]
    message = _FINISHED
    while t < t_bound:
        step = _accepted_step(counted, t, y, f, h_abs, t_bound, rtol, atol, K)
        if step is None:
            message = TOO_SMALL_STEP
            break
        t, y, f, h_abs = step
        ts.append(t)
        ys.append(y)
    return Solution(np.array(ts), np.vstack(ys).T, nfev, message == _FINISHED, message)
