"""Bessel functions of the first and second kind, their zeros, and the
closed-form Dirichlet reference spectra of the disk and the annulus.

Everything in this module is self-contained (no external special-function
library): J_l is evaluated by the ascending power series for small argument
and by Miller's backward recurrence with sum normalization otherwise; Y_0 and
Y_1 use the logarithmic series for small argument and the Hankel asymptotic
expansion beyond x = 12, with stable upward recurrence supplying higher
orders.  Zeros are located by a counting scan (consecutive zeros of J_l are
separated by more than the scan step) followed by a bisection-safeguarded
Newton refinement down to |J_l| <= 1e-12; they are kept in memory only.

The reference spectra are the usual separable solutions: disk eigenvalues are
(j_{l,k}/R)^2 with multiplicity 2 for l > 0, annulus eigenvalues are the
squared roots k of the cross-product

    J_l(k R1) Y_l(k R2) - J_l(k R2) Y_l(k R1) = 0.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

__all__ = [
    "MAX_ORDER",
    "MAX_ZERO_INDEX",
    "ROOT_TOL",
    "BesselZero",
    "SpectrumLine",
    "ReferenceSpectrum",
    "RadiiCondition",
    "RootBracketError",
    "bessel_j",
    "bessel_j_prime",
    "bessel_y",
    "bessel_zero",
    "disk_spectrum",
    "annulus_spectrum",
    "choose_r1",
    "verify_radii_condition",
]

MAX_ORDER = 64
MAX_ZERO_INDEX = 64
ROOT_TOL = 1e-12

_EULER_GAMMA = 0.5772156649015328606
_SERIES_SWITCH = 9.0  # ascending series below, backward recurrence above
_Y_ASYMPTOTIC_SWITCH = 12.0


class RootBracketError(RuntimeError):
    """Raised when a root scan fails to bracket the requested zero."""

    def __init__(self, message: str, lo: float, hi: float):
        super().__init__(f"{message} (scanned [{lo:.6g}, {hi:.6g}])")
        self.lo = lo
        self.hi = hi


def _check_order(ell: int) -> None:
    if not isinstance(ell, (int,)) or isinstance(ell, bool):
        raise ValueError(f"order must be an integer, got {ell!r}")
    if ell < 0 or ell > MAX_ORDER:
        raise ValueError(f"order {ell} outside supported range [0, {MAX_ORDER}]")


def _bessel_j_series(ell: int, x: float) -> float:
    # (x/2)^l / l! * sum_m (-1)^m (x^2/4)^m / (m! (m+l)!)
    half = 0.5 * x
    pref = 1.0
    for i in range(1, ell + 1):
        pref *= half / i
    if pref == 0.0:
        return 0.0
    q = half * half
    term = 1.0
    total = 1.0
    for m in range(1, 200):
        term *= -q / (m * (m + ell))
        total += term
        if abs(term) < 1e-18 * abs(total) + 1e-300:
            break
    return pref * total


def _bessel_j_backward(ell: int, x: float) -> float:
    # Miller's algorithm: downward recurrence from a high even starting order,
    # normalized afterwards through J_0 + 2 J_2 + 2 J_4 + ... = 1.
    top = max(ell, int(x))
    m_start = 2 * ((top + 16 + int(math.sqrt(40.0 * (top + 1)))) // 2)
    tox = 2.0 / x
    bjp = 0.0
    bj = 1e-30
    total = 0.0
    ans = 0.0
    add_even = False
    for j in range(m_start, 0, -1):
        bjm = j * tox * bj - bjp
        bjp = bj
        bj = bjm  # now holds the unnormalized J_{j-1}
        if abs(bj) > 1e100:
            bj *= 1e-200
            bjp *= 1e-200
            total *= 1e-200
            ans *= 1e-200
        if add_even:  # true exactly when j-1 is even (m_start is even)
            total += bj
        add_even = not add_even
        if j - 1 == ell:
            ans = bj
    total = 2.0 * total - bj  # bj ends as unnormalized J_0
    return ans / total


def bessel_j(ell: int, x: float) -> float:
    """Bessel function of the first kind J_l(x) for integer 0 <= l <= 64.

    Absolute error below 1e-12 for 0 <= x <= 50.
    """
    _check_order(ell)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"argument must be finite and >= 0, got {x!r}")
    if x == 0.0:
        return 1.0 if ell == 0 else 0.0
    if x < _SERIES_SWITCH:
        return _bessel_j_series(ell, x)
    return _bessel_j_backward(ell, x)


def bessel_j_prime(ell: int, x: float) -> float:
    """Derivative J_l'(x) via J_l' = (J_{l-1} - J_{l+1}) / 2, J_0' = -J_1."""
    _check_order(ell)
    if ell == 0:
        return -bessel_j(1, x)
    if ell == MAX_ORDER:
        # avoid the out-of-range order l+1: J_l' = J_{l-1} - (l/x) J_l
        if x == 0.0:
            return 0.0
        return bessel_j(ell - 1, x) - ell / x * bessel_j(ell, x)
    return 0.5 * (bessel_j(ell - 1, x) - bessel_j(ell + 1, x))


def _harmonic(m: int) -> float:
    return sum(1.0 / i for i in range(1, m + 1))


def _bessel_y01_series(order: int, x: float) -> float:
    lg = math.log(0.5 * x) + _EULER_GAMMA
    q = 0.25 * x * x
    if order == 0:
        total = 0.0
        term = 1.0
        for m in range(1, 200):
            term *= -q / (m * m)
            contrib = -term * _harmonic(m)  # (-1)^{m+1} H_m q^m / (m!)^2
            total += contrib
            if abs(contrib) < 1e-18 * (abs(total) + 1.0):
                break
        return (2.0 / math.pi) * (lg * bessel_j(0, x) + total)
    # order == 1
    total = 0.0
    term = 0.5 * x  # (x/2)^{2k+1} / (k! (k+1)!) at k = 0
    for k in range(0, 200):
        if k > 0:
            term *= -q / (k * (k + 1))
        contrib = term * (_harmonic(k) + _harmonic(k + 1))
        total += contrib
        if abs(contrib) < 1e-18 * (abs(total) + 1.0):
            break
    return (2.0 / math.pi) * (lg * bessel_j(1, x) - 1.0 / x) - total / math.pi


def _hankel_pq(order: int, x: float) -> tuple[float, float]:
    mu = 4.0 * order * order
    p = 1.0
    q = 0.0
    term = 1.0
    for k in range(1, 40):
        term *= (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        if k % 2 == 1:
            q += term if (k // 2) % 2 == 0 else -term
        else:
            p += term if (k // 2) % 2 == 0 else -term
        if abs(term) < 1e-17:
            break
    return p, q


def _bessel_y01_asymptotic(order: int, x: float) -> float:
    p, q = _hankel_pq(order, x)
    chi = x - (0.5 * order + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.sin(chi) + q * math.cos(chi))


def bessel_y(ell: int, x: float) -> float:
    """Bessel function of the second kind Y_l(x), x > 0.

    Accurate to better than 1e-10 absolute on 0.05 <= x <= 50 for the orders
    used here; higher orders are produced by the (stable) upward recurrence.
    """
    _check_order(ell)
    x = float(x)
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"Y_l requires x > 0, got {x!r}")
    if x < _Y_ASYMPTOTIC_SWITCH:
        y0 = _bessel_y01_series(0, x)
        y1 = _bessel_y01_series(1, x)
    else:
        y0 = _bessel_y01_asymptotic(0, x)
        y1 = _bessel_y01_asymptotic(1, x)
    if ell == 0:
        return y0
    if ell == 1:
        return y1
    ym, y = y0, y1
    for n in range(1, ell):
        ym, y = y, (2.0 * n / x) * y - ym
    return y


# ---------------------------------------------------------------------------
# zeros of J_l
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesselZero:
    ell: int
    k: int
    value: float


# Every zero found so far, keyed by (ell, k).  A key's value is deterministic,
# so two threads racing on one key can only store the same float twice.
_zeros: dict[tuple[int, int], float] = {}


def _refine_zero(ell: int, lo: float, hi: float) -> float:
    f_lo = bessel_j(ell, lo)
    x = 0.5 * (lo + hi)
    for _ in range(100):
        f = bessel_j(ell, x)
        if abs(f) <= ROOT_TOL:
            return x
        if (f > 0) == (f_lo > 0):
            lo = x
        else:
            hi = x
        # J_l' = J_{l-1} - (l/x) J_l keeps the needed order within the cap
        df = -bessel_j(1, x) if ell == 0 else bessel_j(ell - 1, x) - ell / x * f
        step_ok = False
        if df != 0.0:
            x_new = x - f / df
            if lo < x_new < hi:
                x = x_new
                step_ok = True
        if not step_ok:
            x = 0.5 * (lo + hi)
    return x


def bessel_zero(ell: int, k: int) -> BesselZero:
    """k-th positive zero j_{l,k} of J_l, found by scan-and-count plus
    safeguarded Newton refinement.  Results are kept in memory for the
    life of the process."""
    _check_order(ell)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1 or k > MAX_ZERO_INDEX:
        raise ValueError(f"zero index {k} outside supported range [1, {MAX_ZERO_INDEX}]")
    known = _zeros.get((ell, k))
    if known is not None:
        return BesselZero(ell, k, known)
    # J_l > 0 on (0, j_{l,1}) and consecutive zeros are separated by more
    # than the step below, so counting sign changes is exact.  Every zero
    # encountered on the way to the k-th is refined and stored.
    x = 0.5 if ell == 0 else ell + 0.25
    step = 1.0
    f_prev = bessel_j(ell, x)
    found = 0
    limit = x + step * (int(k * 4 + 2 * ell) + 64)
    while x < limit:
        x_next = x + step
        f_next = bessel_j(ell, x_next)
        if (f_prev > 0) != (f_next > 0) or f_prev == 0.0:
            found += 1
            root = x if f_prev == 0.0 else _refine_zero(ell, x, x_next)
            _zeros[(ell, found)] = root
            if found == k:
                return BesselZero(ell, k, root)
        x, f_prev = x_next, f_next
    raise RootBracketError(f"failed to bracket zero {k} of J_{ell}", 0.0, limit)


# ---------------------------------------------------------------------------
# reference spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumLine:
    value: float
    ell: int
    k: int
    multiplicity: int


@dataclass(frozen=True)
class ReferenceSpectrum:
    entries: tuple[SpectrumLine, ...]

    def eigenvalues(self) -> list[float]:
        """Eigenvalues repeated according to multiplicity, ascending."""
        out: list[float] = []
        for e in self.entries:
            out.extend([e.value] * e.multiplicity)
        return out


def disk_spectrum(radius: float, count: int) -> ReferenceSpectrum:
    """First `count` Dirichlet eigenvalues (counted with multiplicity) of the
    disk of the given radius, as grouped (value, l, k, multiplicity) lines."""
    if not (radius > 0.0):
        raise ValueError(f"radius must be positive, got {radius!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    # j_{l,k} rises in l and in k, so the least zero not yet taken is the
    # next zero of an order already started or the first of the next order
    heap = [(bessel_zero(0, 1).value, 0, 1)]
    lines: list[SpectrumLine] = []
    total = 0
    while total < count:
        z, ell, k = heapq.heappop(heap)
        lines.append(SpectrumLine((z / radius) ** 2, ell, k, 1 if ell == 0 else 2))
        total += lines[-1].multiplicity
        if k == 1 and ell == MAX_ORDER and total < count:
            # a later zero may belong to an order above MAX_ORDER
            raise ValueError(f"count={count} needs angular orders beyond {MAX_ORDER}")
        if k == 1 and ell < MAX_ORDER:
            heapq.heappush(heap, (bessel_zero(ell + 1, 1).value, ell + 1, 1))
        if k < MAX_ZERO_INDEX:
            heapq.heappush(heap, (bessel_zero(ell, k + 1).value, ell, k + 1))
    return ReferenceSpectrum(tuple(lines))


def _annulus_crossprod(ell: int, r1: float, r2: float, k: float) -> float:
    return (bessel_j(ell, k * r1) * bessel_y(ell, k * r2)
            - bessel_j(ell, k * r2) * bessel_y(ell, k * r1))


def annulus_spectrum(r1: float, r2: float, ell: int, count: int) -> list[float]:
    """First `count` Dirichlet eigenvalues of the annulus r1 < r < r2 for the
    angular order `ell`: squared roots of the Bessel cross-product."""
    if not (0.0 < r1 < r2):
        raise ValueError(f"need 0 < r1 < r2, got r1={r1!r}, r2={r2!r}")
    _check_order(ell)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    # the annulus eigenvalue dominates the disk one at equal order, so the
    # scan may start just below j_{l,1}/r2; spacing approaches pi/(r2-r1)
    k_lo = 0.95 * bessel_zero(ell, 1).value / r2
    step = min(0.25, math.pi / (r2 - r1) / 8.0)
    roots: list[float] = []
    x = k_lo
    f_prev = _annulus_crossprod(ell, r1, r2, x)
    max_steps = int((count + 2) * (math.pi / (r2 - r1)) / step) + 400
    for _ in range(max_steps):
        x_next = x + step
        f_next = _annulus_crossprod(ell, r1, r2, x_next)
        if (f_prev > 0) != (f_next > 0):
            lo, hi = x, x_next
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                f_mid = _annulus_crossprod(ell, r1, r2, mid)
                if (f_mid > 0) == (f_prev > 0):
                    lo = mid
                else:
                    hi = mid
                if hi - lo < 1e-14 * hi:
                    break
            roots.append(0.5 * (lo + hi))
            if len(roots) == count:
                return [r * r for r in roots]
        x, f_prev = x_next, f_next
    raise RootBracketError(
        f"found only {len(roots)} of {count} cross-product roots for ell={ell}",
        k_lo, x)


def choose_r1(r2: float) -> float:
    """Inner radius making the disk and annulus ground energies coincide:
    r1 = r2 * j_{0,1} / j_{0,2} (the nodal radius of the second radial
    eigenfunction of the disk)."""
    if not (r2 > 0.0):
        raise ValueError(f"r2 must be positive, got {r2!r}")
    return r2 * bessel_zero(0, 1).value / bessel_zero(0, 2).value


@dataclass(frozen=True)
class RadiiCondition:
    strict: bool
    weak: bool
    lam1_disk: float
    lam2_disk: float
    lam1_annulus: float
    lam2_annulus: float


def verify_radii_condition(r1: float, r2: float) -> RadiiCondition:
    """Check the two admissibility conditions on (r1, r2).

    strict:  lam_1(B_r1) < lam_1(annulus) < lam_2(B_r1)
    weak:    max of the two first eigenvalues < min of the two second ones
    """
    if not (0.0 < r1 < r2):
        raise ValueError(f"need 0 < r1 < r2, got r1={r1!r}, r2={r2!r}")
    lam1_disk = (bessel_zero(0, 1).value / r1) ** 2
    lam2_disk = (bessel_zero(1, 1).value / r1) ** 2
    ann0 = annulus_spectrum(r1, r2, 0, 2)
    ann1 = annulus_spectrum(r1, r2, 1, 1)
    lam1_ann = ann0[0]
    lam2_ann = min(ann0[1], ann1[0])
    strict = lam1_disk < lam1_ann < lam2_disk
    weak = max(lam1_disk, lam1_ann) < min(lam2_disk, lam2_ann)
    return RadiiCondition(strict, weak, lam1_disk, lam2_disk, lam1_ann, lam2_ann)
