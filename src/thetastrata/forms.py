"""The three stratifying modular forms and the transformation-law residual.

With E the even characteristics of genus g and theta_m = theta_m(0, tau):

    F_T        = 2^g sum_E theta_m^16 - (sum_E theta_m^8)^2   (16 = 2^4 at g = 4)
    Theta_null = prod_E theta_m
    F_1        = sum_E prod_{n != m} theta_n^8

Under gamma = (A B; C D) in Sp(2g, Z), theta_{gamma.m}(0, gamma o tau)^8 =
det(C tau + D)^4 theta_m(0, tau)^8; the action permutes E and every term of
F_T has sixteen theta factors, so F_T has weight 8:

    |F_T(gamma o tau)| = |det(C tau + D)|^8 |F_T(tau)|

F_1 is evaluated as the sum of exclusion products, never by dividing
Theta_null^8 by theta_m^8, so it stays well defined on the vanishing loci
the stratification cares about.

All three are built by one rule from theta constants rescaled by their
root mean square s = sqrt(mean |theta_m|^2) > 0, which keeps the
arithmetic in range.  A form of theta degree d (16, |E| and 8(|E|-1)
respectively; its modular weight is d/2) is known on the rescaled
constants by its log-modulus, phase and log-normalizer; the raw-scale
log_abs and log_normalizer add d log s, and `value`, `normalizer` and
`relative_magnitude` are their exponentials.  The raw fields leave double
range for the high-degree forms (F_1 has degree 1080 at genus 4) and then
read inf or 0, never a clamped number; the log-scale companions carry the
exact magnitudes.  `relative_magnitude` is the stable vanishing
diagnostic:

    F_T:        |F_T| / (sum |theta|^16 + (sum |theta|^8)^2)
    Theta_null: |Theta_null| / s^|E|
    F_1:        |F_1| / (|E| s^{8(|E|-1)})
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .chars import Characteristic, even_count
from .symplectic import SymplecticInteger, affine_action
from .theta import SiegelPoint, _even_constants, siegel_action, theta_functions

__all__ = [
    "FormValue",
    "FORM_IDS",
    "evaluate_forms",
    "form_weight",
    "transformation_residual",
    "transformation_residuals",
]

FORM_IDS = ("FT", "THETANULL", "F1")
FORM_GENUS_CAP = 6
_RESIDUAL_FLOOR = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the largest x with a finite e^x


@dataclass(frozen=True)
class FormValue:
    """A form evaluation with its vanishing diagnostics.

    log_abs and log_normalizer are natural logs of |value| and normalizer;
    they remain finite (or -inf for an exact zero) where the raw floats
    under- or overflow to 0 or inf.
    """

    form_id: str
    value: complex
    normalizer: float
    relative_magnitude: float
    log_abs: float
    log_normalizer: float


def _degrees(g: int) -> dict[str, int]:
    """Theta factors in each term of each form at genus g."""
    n = even_count(g)
    return {"FT": 16, "THETANULL": n, "F1": 8 * (n - 1)}


def _form_value(form_id: str, log_abs_hat: float, arg: float, log_normalizer_hat: float,
                degree: int, log_s: float) -> FormValue:
    """The raw-scale form of the given theta degree from its log-modulus,
    phase angle and log-normalizer on the rescaled constants."""
    log_abs = log_abs_hat + degree * log_s
    log_normalizer = log_normalizer_hat + degree * log_s
    magnitude, normalizer = (
        math.exp(x) if x <= _LOG_FLOAT_MAX else math.inf for x in (log_abs, log_normalizer)
    )
    return FormValue(
        form_id,
        cmath.rect(magnitude, arg) if magnitude else 0j,
        normalizer,
        math.exp(log_abs_hat - log_normalizer_hat),
        log_abs,
        log_normalizer,
    )


def evaluate_forms(point: SiegelPoint, target: float = 1e-10) -> dict[str, FormValue]:
    """All three stratifying forms from one shared theta-constant pass."""
    g = point.genus
    if g > FORM_GENUS_CAP:
        raise ValueError(f"forms are capped at genus {FORM_GENUS_CAP}, got {g}")
    return _forms(_even_constants(point, target)[0], g)


def _forms(values: np.ndarray, g: int) -> dict[str, FormValue]:
    """The three forms from the even theta constants of genus g, in
    all_characteristics(g, "even") order."""
    s = math.sqrt(float((np.abs(values) ** 2).mean()))
    t = values / s
    n = len(t)
    t8 = t**8
    t16 = t8**2
    f_hat = complex((2**g) * t16.sum() - t8.sum() ** 2)
    ft_normalizer_hat = float(np.abs(t16).sum() + np.abs(t8).sum() ** 2)

    # Exclusion products prod_{n != m} t8_n without division.  Each one is
    # bounded by e^4 in modulus (AM-GM on the unit-RMS t), but partial
    # products are not, so exact zeros are split off and the rest runs in
    # log space.
    zero = t8 == 0
    n_zero = int(zero.sum())
    if n_zero >= 2:
        f1_hat = 0j
    elif n_zero == 1:
        f1_hat = complex(np.prod(t8[~zero]))
    else:
        logs = np.log(t8.astype(complex))
        f1_hat = complex(np.exp(logs.sum() - logs).sum())

    # Theta_null stays in log space: the product of |E| factors under- or
    # overflows long before its logarithm does, so its phase is the
    # product of the factors' unit phases (nan if some factor is 0, where
    # the value is 0j and the phase is never read).
    abs_t = np.abs(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        hats = {
            "FT": (float(np.log(abs(f_hat))), cmath.phase(f_hat), math.log(ft_normalizer_hat)),
            "THETANULL": (float(np.log(abs_t).sum()), cmath.phase(np.prod(t / abs_t)), 0.0),
            "F1": (float(np.log(abs(f1_hat))), cmath.phase(f1_hat), math.log(n)),
        }
    degrees = _degrees(g)
    log_s = math.log(s)
    return {fid: _form_value(fid, *hats[fid], degrees[fid], log_s) for fid in FORM_IDS}


def form_weight(form_id: str, g: int) -> int:
    """Modular weight: half the form's theta degree at genus g.  Raises
    ValueError where the degree is odd (Theta_null at genus 1)."""
    degree = _degrees(g)[form_id]
    if degree % 2:
        raise ValueError(f"{form_id} has odd theta degree {degree} at genus {g}: no integer weight")
    return degree // 2


def transformation_residuals(cases, target: float = 1e-10) -> list[float]:
    """Relative defect of the eighth-power transformation law

        theta_{gamma.m}(0, gamma o tau)^8 = det(C tau + D)^4 theta_m(0, tau)^8

    for each (gamma, m, tau) of cases, all of one genus, with every theta
    constant of the batch from one theta_functions call.  gamma.m is the
    calibrated affine action (the label rides with the transformed point;
    on the standard generators, each congruent to its own inverse mod 2,
    this coincides with placing the moved label on the untransformed
    side, but for general words only this orientation holds).  Each is
    |lhs - rhs| / (|lhs| + |rhs| + 1e-12).
    """
    chars, points, dets = [], [], []
    for gamma, m, point in cases:
        if gamma.genus != point.genus or m.genus != point.genus:
            raise ValueError("genus mismatch among gamma, m, tau")
        chars += [affine_action(gamma.mod_two(), m), m]
        points += [siegel_action(gamma, point), point]
        g, mat = gamma.genus, gamma.matrix.astype(complex)
        dets.append(complex(np.linalg.det(mat[g:, :g] @ point.tau + mat[g:, g:])))
    values = theta_functions(chars, [np.zeros(point.genus) for point in points], points, target)
    residuals = []
    for det, moved, fixed in zip(dets, values[::2], values[1::2]):
        lhs = moved.value**8
        rhs = det**4 * fixed.value**8
        residuals.append(abs(lhs - rhs) / (abs(lhs) + abs(rhs) + _RESIDUAL_FLOOR))
    return residuals


def transformation_residual(
    gamma: SymplecticInteger,
    m: Characteristic,
    point: SiegelPoint,
    target: float = 1e-10,
) -> float:
    """The residual of transformation_residuals for one case."""
    return transformation_residuals([(gamma, m, point)], target)[0]
