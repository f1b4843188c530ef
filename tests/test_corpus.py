"""A corpus outside the bench pools, from seeded recipes (ROADMAP item 11).

The pools hold attractive wells and steps with z = 2a sqrt(V2) <= 7.07, so
the largest known failures sit where they do not look: square-well
barriers, and steps whose Bessel argument the ascending series cannot sum
exactly.  Each row that fails today is a strict xfail that names the
ROADMAP item that mends it.
"""
import math

import mpmath
import numpy as np
import pytest

from resdelay import poles
from resdelay.cli import main
from resdelay.numerics import bessel_j
from resdelay.poles import SearchRegion, find_poles
from resdelay.scattering import SquareWell

# the sqwell CLI's region at its default bounds
SQWELL_REGION = SearchRegion((0.0, 50.0), (-6.0, 0.0), n_re=120, n_im=10)


def seeded_barriers(n):
    """The first ``n`` barriers of the recipe V0 = -U(0.2, 8), a = U(0.5,
    12), l = integers(0, 11), drawn one triple at a time from
    ``default_rng(5)`` and rounded to 4 decimals."""
    rng = np.random.default_rng(5)
    barriers = []
    for _ in range(n):
        v0, a = -float(rng.uniform(0.2, 8.0)), float(rng.uniform(0.5, 12.0))
        barriers.append(SquareWell(round(v0, 4), round(a, 4), int(rng.integers(0, 11))))
    return barriers


# Newton on the bare F reports roots on the disc around E = -V0, where F
# vanishes like p^l, and elsewhere: 62 roots against a count of 19 on the
# first barrier, 54 against 0 on the second
OVER_COUNTED = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "find_poles returns more roots than the box holds poles under a barrier "
    "(ROADMAP item 1: Newton on the regularised condition G)"
))


class TestSeededBarriers:
    @pytest.mark.parametrize("model", [
        pytest.param(model, id=f"barrier{i}",
                     marks=[] if i in (2, 3) else [OVER_COUNTED])
        for i, model in enumerate(seeded_barriers(8))
    ])
    def test_poles_found_are_the_certified_count(self, model):
        count = poles._winding_number(model, SQWELL_REGION)
        found = find_poles(model, SQWELL_REGION, tol=1e-8)
        assert count is not None and len(found) == count


class TestLargeBesselArgument:
    # z = 2 sqrt(70) of `step --V1 1 --V2 70 --a 1 --emax 80`, and the step's
    # orders nu = -2i p a between its barrier top (p = 0) and E = 80 (p = 3)
    Z = 2.0 * math.sqrt(70.0)
    ORDERS = [-1j * y for y in (0.0, 0.01, 0.063, 0.1, 0.5, 2.0, 6.0)]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the ascending series loses up to 4.2e-10 to cancellation at z = 16.73 "
        "(ROADMAP item 10: J by backward recurrence)"
    ))
    def test_step_orders_against_mpmath(self):
        J, dJ = bessel_j(np.array(self.ORDERS), self.Z)
        with mpmath.workdps(40):
            ref = [(complex(mpmath.besselj(nu, self.Z)),
                    complex(mpmath.besselj(nu, self.Z, derivative=1)))
                   for nu in self.ORDERS]
        for j, dj, (rj, rdj) in zip(J, dJ, ref):
            assert abs(j - rj) + abs(dj - rdj) <= 1e-13 * (abs(rj) + abs(rdj))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the ascending series cancels at z = 2a sqrt(V2) = 18.97 and raises "
        "SeriesNonConvergence (ROADMAP item 10: J by backward recurrence)"
    ))
    def test_step_at_z_19_exits_0(self, tmp_path):
        assert main(["step", "--V2", "90", "--a", "1", "--emax", "100",
                     "--out", str(tmp_path)]) == 0
