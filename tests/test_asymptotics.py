import math

import numpy as np
import pytest

from crackspec import specfun
from crackspec.asymptotics import (
    DEFAULT_WINDOWS,
    fit_coefficient,
    law_competition,
    model,
    predict,
)


def test_model_limits_match_bessel_zeros():
    nnd = model("NND", 0.4356, 1.0)
    assert nnd.lambda_limit == pytest.approx(5.783, abs=1e-3)
    assert nnd.law == "inverse_log" and nnd.status == "proven"
    dnd = model("DND", 0.4356, 1.0)
    assert dnd.lambda_limit == pytest.approx(14.68, abs=5e-3)
    assert dnd.law == "inverse_log" and dnd.status == "proven"
    ndd = model("NDD", 0.4356, 1.0)
    assert ndd.lambda_limit == pytest.approx(14.68, abs=5e-3)
    assert ndd.law == "quadratic" and ndd.status == "conjectural"
    ddd = model("DDD", 0.4356, 1.0)
    assert ddd.lambda_limit == pytest.approx(26.3746, abs=1e-3)
    assert ddd.law == "quadratic" and ddd.status == "conjectural"


def test_dnd_ndd_coefficient_ratio_is_two():
    dnd = model("DND", 0.4356, 1.0)
    ndd = model("NDD", 0.4356, 1.0)
    assert dnd.coefficient / ndd.coefficient == pytest.approx(2.0, rel=1e-14)


def test_coefficient_closed_forms():
    # spot-check one coefficient against its defining expression
    r1, r2 = 0.4356, 1.0
    j01 = specfun.bessel_zero(0, 1).value
    expected = (4 / r2**2) * (specfun.bessel_j(0, j01 * r1 / r2)
                              / specfun.bessel_j_prime(0, j01)) ** 2
    assert model("NND", r1, r2).coefficient == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("case", ["NND", "DND", "NDD", "DDD"])
@pytest.mark.parametrize("r1,r2", [(0.2, 1.0), (0.4356, 1.0), (0.7, 1.0), (1.3, 2.9)])
def test_coefficients_strictly_positive(case, r1, r2):
    assert model(case, r1, r2).coefficient > 0


def test_model_scaling_covariance():
    a = model("DND", 0.4356, 1.0)
    b = model("DND", 2 * 0.4356, 2.0)
    assert b.lambda_limit == pytest.approx(a.lambda_limit / 4, rel=1e-12)
    assert b.coefficient == pytest.approx(a.coefficient / 4, rel=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        model("XYZ", 0.4, 1.0)
    with pytest.raises(ValueError):
        model("NND", 1.0, 0.4)


def test_predict_limit_and_log_arithmetic():
    nnd = model("NND", 0.4356, 1.0)
    eps = math.pi / 2 - math.exp(-10.0)
    assert predict(nnd, eps) == pytest.approx(nnd.lambda_limit + nnd.coefficient / 10)
    assert predict(nnd, math.pi / 2 - 1e-12) == pytest.approx(
        nnd.lambda_limit + nnd.coefficient / abs(math.log(1e-12)))


def test_predict_domain_errors():
    nnd = model("NND", 0.4356, 1.0)
    with pytest.raises(ValueError):
        predict(nnd, math.pi / 2)          # delta = 0
    with pytest.raises(ValueError):
        predict(nnd, math.pi / 2 - 1.0)    # delta = 1: |log| vanishes
    with pytest.raises(ValueError):
        predict(nnd, 0.2)


@pytest.mark.parametrize("case", ["NND", "DDD"])
def test_predict_monotone_decreasing(case):
    mod = model(case, 0.4356, 1.0)
    eps = np.linspace(math.pi / 2 - 0.9, math.pi / 2 - 1e-6, 40)
    vals = [predict(mod, e) for e in eps]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > mod.lambda_limit


def test_fit_recovers_synthetic_coefficient():
    for case in ("NND", "DDD"):
        mod = model(case, 0.4356, 1.0)
        eps = math.pi / 2 - np.array([0.3, 0.22, 0.15, 0.1, 0.07, 0.05, 0.03])
        lam = [predict(mod, e) for e in eps]
        report = fit_coefficient(eps, lam, mod)
        assert report.c_hat == pytest.approx(mod.coefficient, rel=1e-6)
        for w in report.windows:
            assert w.ratio == pytest.approx(1.0, rel=1e-6)
        assert report.toward_one in (True, False)  # exact data: ties allowed


def test_fit_window_bookkeeping():
    mod = model("NND", 0.4356, 1.0)
    eps = math.pi / 2 - np.array([0.29, 0.2, 0.14, 0.1, 0.07, 0.05])
    lam = [predict(mod, e) for e in eps]
    report = fit_coefficient(eps, lam, mod)
    assert [w.delta_max for w in report.windows] == list(DEFAULT_WINDOWS)
    assert [w.n_points for w in report.windows] == [6, 4, 2]


def test_fit_respects_limit_override():
    mod = model("NND", 0.4356, 1.0)
    eps = math.pi / 2 - np.array([0.3, 0.2, 0.14, 0.1, 0.07, 0.05])
    lam = np.array([predict(mod, e) for e in eps]) + 0.25  # biased curve
    biased = fit_coefficient(eps, lam, mod)
    fixed = fit_coefficient(eps, lam, mod, lambda_limit=mod.lambda_limit + 0.25)
    assert fixed.c_hat == pytest.approx(mod.coefficient, rel=1e-6)
    assert abs(biased.c_hat - mod.coefficient) > abs(fixed.c_hat - mod.coefficient)


def test_fit_insufficient_points():
    mod = model("NND", 0.4356, 1.0)
    eps = math.pi / 2 - np.array([0.3, 0.2, 0.1])
    lam = [predict(mod, e) for e in eps]
    with pytest.raises(ValueError):
        fit_coefficient(eps, lam, mod)
    # the endpoint delta = 0 is no point of any window
    ndd = model("NDD", 0.4356, 1.0)
    eps = list(math.pi / 2 - np.array([0.25, 0.07, 0.05]))
    lam = [predict(ndd, e) for e in eps] + [ndd.lambda_limit]
    with pytest.raises(ValueError, match="at least 4 points with 0 < pi/2 - eps <= 0.3, got 3"):
        fit_coefficient(eps + [math.pi / 2], lam, ndd)


def test_law_competition_prefers_generating_law():
    ddd = model("DDD", 0.4356, 1.0)
    eps = math.pi / 2 - np.linspace(0.03, 0.3, 9)
    lam = [predict(ddd, e) for e in eps]
    rss = law_competition(eps, lam, ddd.lambda_limit)
    assert rss["quadratic"] < rss["inverse_log"]
    nnd = model("NND", 0.4356, 1.0)
    lam = [predict(nnd, e) for e in eps]
    rss = law_competition(eps, lam, nnd.lambda_limit)
    assert rss["inverse_log"] < rss["quadratic"]
