"""The acceptance band checker: fit floor, NaN values and unfittable series."""
import pytest

from parimplode.bands import check


@pytest.mark.parametrize("values, ok, detail", [
    ([1e-2, 5e-3, 2.5e-3, 1.25e-3], True, "fiber_coeff_err slope -1.000 (band <= -0.5)"),
    ([1e-4, 2e-4, 4e-4, 8e-4], False, "fiber_coeff_err slope +1.000 (band <= -0.5)"),
    ([1e-3, float("nan"), 1e-5, 1e-6], False, "fiber_coeff_err is nan at N=200"),
    ([1e-13, 0.0, 5e-13, 1e-12], True, "fiber_coeff_err below floor 1e-12"),
    ([1e-3, 1e-4, 1e-13, 0.0], False, "fiber_coeff_err has too few points above floor 1e-12"),
], ids=["in-band", "out-of-band", "nan", "below-floor", "too-few-points"])
def test_decay_clause(values, ok, detail):
    verdicts = check("skew", {"N": [100, 200, 400, 800], "fiber_coeff_err": values,
                              "|w_N|": [1e-2, 1e-3, 1e-4, 1e-5]})
    assert verdicts[0] == (ok, detail)
    assert all(ok for ok, _ in verdicts[1:])
