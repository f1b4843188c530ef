"""Unit tests for Gamow-Siegert pole location and classification."""
import cmath
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from resdelay import poles, scattering
from resdelay.counting import lorentzian_sum
from resdelay.errors import MaxDepthExceeded, NoPoleFound, ZeroArgument
from resdelay.numerics import (
    CONVERGED, JOIN, NON_FINITE, Curve, _sph_jh, newton_complex,
)
from resdelay.poles import (
    RESONANCE,
    SPURIOUS,
    Pole,
    SearchRegion,
    classify_pole,
    classify_poles,
    find_poles,
    outgoing_condition,
)
from resdelay.scattering import (
    DeltaShell,
    SquareWell,
    _outgoing,
    delay_curve,
    s_matrix,
)


def lorentzian_curve(e0, gamma, lo, hi, n=2000):
    e = np.linspace(lo, hi, n)
    v = (gamma / 2) / ((e - e0) ** 2 + gamma**2 / 4)
    return Curve(e, v, label="synthetic")


class TestOutgoingCondition:
    def test_depth5_range2_first_root(self):
        m = SquareWell(V0=5, a=2, l=0)
        assert abs(outgoing_condition(m, 0.023387 - 0.542466j)) < 1e-4

    def test_l9_root(self):
        m = SquareWell(V0=5, a=10, l=9)
        assert abs(outgoing_condition(m, 0.38499 - 0.479894j)) < 1e-3

    def test_delta_shell_self_consistency(self):
        m = DeltaShell(V0=10, a=1)
        reg = SearchRegion((1.0, 20.0), (-2.0, 0.0), n_re=30, n_im=6)
        first = find_poles(m, reg, tol=1e-10)[0]
        # re-find from a perturbed seed
        z = newton_complex(
            lambda E: _outgoing(m, E),
            first.energy + 0.01 - 0.01j,
            1e-10,
            60,
        )
        assert abs(z - first.energy) < 1e-8

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            outgoing_condition(SquareWell(V0=5, a=2, l=0), 0.0)

    def test_value_defined_at_interior_threshold(self):
        # E = -V0 (p = 0): the value stays defined, only the slope is not
        m = SquareWell(V0=-1, a=1, l=0)
        assert outgoing_condition(m, 1.0) == 0
        assert cmath.isnan(_outgoing(m, 1.0)[1])
        with pytest.raises(ZeroArgument):
            outgoing_condition(SquareWell(V0=-1, a=1, l=1), 1.0)

    def test_square_well_poles_match_s_matrix_denominator(self):
        # zeros of the outgoing condition are poles of the S-matrix
        m = SquareWell(V0=5, a=2, l=0)
        reg = SearchRegion((0.0, 15.0), (-6.0, 0.0), n_re=40, n_im=10)
        for p in find_poles(m, reg, tol=1e-10):
            # |S| blows up approaching the pole from the real direction
            near = abs(s_matrix(m, p.energy + 1e-4))
            far = abs(s_matrix(m, p.energy + 1e-1))
            assert near > 10 * far


def outgoing_mpmath(mpmath, model, E):
    """30-digit residual of the same entire form, the l >= 1 case from
    besselj/bessely with half-integer orders."""
    k, a = mpmath.sqrt(E), model.a
    if isinstance(model, DeltaShell):
        lam = a * model.V0
        return k * mpmath.cos(k * a) + (lam - 1j * k) * mpmath.sin(k * a)
    p, l = mpmath.sqrt(E + model.V0), model.l
    if l == 0:
        return 1j * k * mpmath.sin(p * a) - p * mpmath.cos(p * a)

    def sph(f, n, z):
        return mpmath.sqrt(mpmath.pi / (2 * z)) * f(n + 0.5, z)

    def with_deriv(f, z):  # (f_l, f_l') by f_l' = f_{l-1} - (l+1) f_l / z
        v = sph(f, l, z)
        return v, sph(f, l - 1, z) - (l + 1) * v / z

    j, jp = with_deriv(mpmath.besselj, p * a)
    jk, jkp = with_deriv(mpmath.besselj, k * a)
    yk, ykp = with_deriv(mpmath.bessely, k * a)
    return p * jp * (jk + 1j * yk) - k * (jkp + 1j * ykp) * j


# criterion-2 poles of the V0 = 5, a = 10 well
POLE_L9, POLE_L10 = 0.38499 - 0.479894j, 0.541725 - 0.574161j
NEAR = (1e-3, -1e-3j, 7e-4 - 7e-4j)


class TestOutgoingSlope:
    """The analytic dE-derivative against mpmath.diff of a 30-digit
    residual, at complex E in the CLI search regions."""

    @pytest.mark.parametrize(
        "model, E",
        [(DeltaShell(V0=10, a=1), E) for E in (1 - 0.5j, 40 - 7j, 150 - 14j)]
        + [(SquareWell(V0=5, a=2, l=0), E)
           for E in (0.023387 - 0.542466j + 1e-3, 9.38 - 4.43j, 30 - 5j)]
        + [(SquareWell(V0=5, a=10, l=l), E)
           for l in (1, 3, 9, 10) for E in (0.5 - 0.5j, 12 - 3j, 45 - 6j)]
        # |pa| < l: j_l(pa) from the Miller branch
        + [(SquareWell(V0=2, a=1, l=l), E)
           for l in (3, 9, 10) for E in (1 - 0.5j, 5 - 2j)]
        + [(SquareWell(V0=5, a=10, l=9), POLE_L9 + d) for d in NEAR]
        + [(SquareWell(V0=5, a=10, l=10), POLE_L10 + d) for d in NEAR],
    )
    def test_against_mpmath(self, model, E):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(
                mpmath.diff(lambda z: outgoing_mpmath(mpmath, model, z), mpmath.mpc(E))
            )
        f, df, *_ = _outgoing(model, E)
        assert f == outgoing_condition(model, E)
        assert abs(df - ref) <= 1e-10 * abs(ref)


class TestFindPoles:
    def test_bessel_call_budget(self, monkeypatch):
        # the seeds run as one batch: each round evaluates the residual once
        # on the seeds still running, which is one spherical-Bessel pass
        # (_sph_jh: j_l(pa) and h_l(ka) together).  The count of the box
        # takes 4 passes on 361 samples.  The batch starts on the 205
        # coarse seeds, spaced about evenly in k, and stops after 7 rounds,
        # once the 16th counted pole is found, before the 995 held seeds
        # join (1107 seeds stopped).  One polish step costs 2 passes on the
        # 16 poles.  70 seeds end once they rise above Im E = 6, the box's
        # bottom edge mirrored.  Started on every other column, even in E
        # (300 seeds), the batch found 14 poles by round 5, the 900 other
        # seeds joined in round 10 and it stopped after 13 rounds (4,933
        # seed evaluations against 1,184, 19 passes); a fixed join in round
        # 8 took 12 rounds (5,571), starting on all 1200 seeds 6 rounds
        # (6,088), the full run 61, one scalar Newton run per seed about
        # 28k scalar calls, a central-difference slope 183,814, and
        # separate interior and exterior calls 122
        calls, rounds, samples = [], [], []

        def counted(fn):
            def wrapper(l, *args):
                calls.append(args[-1].size)
                return fn(l, *args)
            return wrapper

        def residual(model, E, **kwargs):
            rounds.append(E.size)
            return newton_residual(model, E, **kwargs)

        def phase(model, E):
            samples.append(E.size)
            return regularised_phase(model, E)

        newton_residual = poles._newton_residual
        regularised_phase = poles._regularised_phase
        monkeypatch.setattr(scattering, "_sph_jh", counted(_sph_jh))
        monkeypatch.setattr(poles, "_newton_residual", residual)
        monkeypatch.setattr(poles, "_regularised_phase", phase)
        m = SquareWell(V0=5, a=10, l=1)
        found = find_poles(m, SearchRegion((0, 50), (-6, 0), 120, 10), tol=1e-8)
        assert len(samples) == 4 and sum(samples) == 361 and samples[0] == 260
        assert rounds == [205, 205, 193, 166, 153, 140, 122, 16, 16]
        assert sum(rounds[:-2]) == 1184
        assert len(calls) == 4 + 7 + 2
        assert len(found) == 16
        for pole in found:
            d = pole.diagnostics
            assert pole.residual <= 1e-8
            assert d["winding_number"] == 16 and d["complete"] is True
            assert d["seeds_failed"] == 0 and d["seeds_stopped"] == 1107
            assert d["seeds_above_box"] == 70
            assert d["search_end"] == "count"
            assert d["rounds"] == 7 and d["joined_round"] is None

    def test_failed_seeds_by_reason(self):
        # the CLI's sqwell region.  In the full run six seeds reach the
        # negative real axis, where the s-wave Newton steps stay real, and
        # bounce there until they run out of steps; the count of 10 stops
        # the batch first, and they end as stopped.  The 205 coarse seeds
        # meet the count in 4 rounds, before any round goes without a new
        # root, so 1174 seeds are stopped, 995 of them held and never
        # started (1164 when the batch started on every other column, 1056
        # on all 1200)
        m = SquareWell(6.1477, 6.071, 0)
        found = find_poles(m, SearchRegion((0, 50), (-6, 0), 120, 10), tol=1e-8)
        assert len(found) == 10
        for pole in found:
            d = pole.diagnostics
            assert d["seeds_failed"] == 0 and d["seeds_stopped"] == 1174
            assert d["seeds_failed_by_reason"] == {
                "no_convergence": 0, "non_finite": 0, "zero_slope": 0,
                "branch_point": 0,
            }
            assert d["winding_number"] == 10 and d["complete"] is True
            assert d["search_end"] == "count"
            assert d["rounds"] == 4 and d["joined_round"] is None

    def test_barrier_runs_every_seed_to_its_end(self):
        # under a barrier F vanishes like p at E = -V0 (here 3), which is
        # not a pole: the count does not stop the batch.  A Newton step on
        # F ~ sqrt(E + V0) maps E + V0 to about -(E + V0), so the seed from
        # 2.941 - 0.06i bounces around E = 3 until it runs out of steps
        m = SquareWell(-3, 3, 0)
        found = find_poles(m, SearchRegion((0, 50), (-6, 0), 120, 10), tol=1e-8)
        assert len(found) == 4
        for pole in found:
            d = pole.diagnostics
            assert d["seeds_stopped"] == 0 and d["seeds_failed"] == 1
            assert d["seeds_failed_by_reason"] == {
                "no_convergence": 1, "non_finite": 0, "zero_slope": 0,
                "branch_point": 0,
            }
            assert sum(d["seeds_failed_by_reason"].values()) == d["seeds_failed"]
            assert d["winding_number"] == 4 and d["complete"] is True
            assert all(type(n) is int for n in d["seeds_failed_by_reason"].values())
            assert d["search_end"] == "steps" and d["joined_round"] is None

    @pytest.mark.parametrize("l, branch_points", [(0, 1), (1, 2)])
    def test_branch_point_fails_its_seed_only(self, monkeypatch, l, branch_points):
        # seeds at E = 0 and E = -V0: the outgoing condition is undefined at
        # E = 0, and at E = -V0 too for l >= 1 (sph_bessel raises at p = 0);
        # the two seeds fail and every other seed runs as before.  They
        # replace the last two seeds that are not held, which run whether or
        # not the rest of the grid joins; a failed seed does not move the
        # round in which the rest joins (_Progress)
        m = SquareWell(V0=5, a=10, l=l)
        region = SearchRegion((0, 20), (-3, 0), 40, 6)

        def at_branch_points(f, seeds, **kwargs):
            seeds = seeds.copy()
            seeds[np.flatnonzero(~kwargs["held"])[-2:]] = 0.0, -m.V0
            return newton_complex(f, seeds, **kwargs)

        plain = find_poles(m, region, tol=1e-8)
        monkeypatch.setattr(poles, "newton_complex", at_branch_points)
        hit = find_poles(m, region, tol=1e-8)
        assert [p.energy for p in hit] == [p.energy for p in plain]
        before = plain[0].diagnostics["seeds_failed_by_reason"]
        after = hit[0].diagnostics["seeds_failed_by_reason"]
        assert after["branch_point"] == before["branch_point"] + branch_points

    def test_depth5_range2_exactly_two_roots(self):
        m = SquareWell(V0=5, a=2, l=0)
        reg = SearchRegion((0.0, 15.0), (-6.0, 0.0), n_re=60, n_im=12)
        poles = find_poles(m, reg, tol=1e-8)
        assert len(poles) == 2
        assert poles[0].energy == pytest.approx(0.023387 - 0.542466j, abs=1e-4)
        assert poles[1].energy.imag == pytest.approx(-4.43007, abs=1e-4)

    def test_depth5_range2_roots_against_mpmath(self):
        # independent 30-digit roots of ik sin(pa) - p cos(pa), the oracle
        # behind the E2 = 9.38265 - 4.43007i reference of criterion 2
        mpmath = pytest.importorskip("mpmath")
        m = SquareWell(V0=5, a=2, l=0)
        reg = SearchRegion((0.0, 15.0), (-6.0, 0.0), n_re=60, n_im=12)
        poles = find_poles(m, reg, tol=1e-8)

        def f(E):
            k, p = mpmath.sqrt(E), mpmath.sqrt(E + 5)
            return 1j * k * mpmath.sin(2 * p) - p * mpmath.cos(2 * p)

        with mpmath.workdps(30):
            refs = [
                complex(mpmath.findroot(f, mpmath.mpc(seed)))
                for seed in (0.02 - 0.5j, 9.4 - 4.4j)
            ]
        assert refs[0] == pytest.approx(0.0233870411 - 0.5424658309j, abs=1e-9)
        assert refs[1] == pytest.approx(9.3826492223 - 4.4300741274j, abs=1e-9)
        assert len(poles) == 2
        for pole, ref in zip(poles, refs):
            assert abs(pole.energy - ref) < 1e-8

    def test_l10_contains_printed_root(self):
        m = SquareWell(V0=5, a=10, l=10)
        reg = SearchRegion((0.0, 2.0), (-1.0, 0.0), n_re=30, n_im=8)
        poles = find_poles(m, reg, tol=1e-8)
        dists = [abs(p.energy - (0.541725 - 0.574161j)) for p in poles]
        assert min(dists) < 1e-4

    # sqwell_highl/r2/i4 of the bench pool (sqwell --l 5 --V0 2.5836
    # --a 6.9964), its narrow pole (Gamma = 0.00295) and the CLI's region
    NARROW_L5 = SquareWell(V0=2.5836, a=6.9964, l=5)
    NARROW_L5_POLE = 0.168245380 - 0.001476100j
    CLI_REGION = SearchRegion((0.0, 50.0), (-6.0, 0.0), n_re=120, n_im=10)

    def test_narrow_l5_pole_is_a_root(self):
        mpmath = pytest.importorskip("mpmath")
        m = self.NARROW_L5
        with mpmath.workdps(30):
            ref = complex(mpmath.findroot(
                lambda E: outgoing_mpmath(mpmath, m, E), mpmath.mpc(0.17 - 0.001j)
            ))
        assert ref == pytest.approx(self.NARROW_L5_POLE, abs=1e-9)
        root = newton_complex(lambda E: _outgoing(m, E), 0.17 - 0.001j, 1e-8, 60)
        assert abs(root - ref) < 1e-8

    @pytest.mark.xfail(strict=True, reason=(
        "the seed grid misses this narrow pole: 13 poles found, 16 seeds "
        "end in no_convergence (CHANGES.md FOUND line on find_poles)"
    ))
    def test_narrow_l5_pole_is_found(self):
        found = find_poles(self.NARROW_L5, self.CLI_REGION, tol=1e-8)
        assert min(abs(p.energy - self.NARROW_L5_POLE) for p in found) < 1e-8

    # well 384 of the 480 seeded wells behind the search constants (numpy
    # default_rng(27)), in the CLI's region, and the pole that only the run
    # of every seed to its own end finds
    STALL_LOSS = SquareWell(V0=2.443868141469588, a=9.734632040903833, l=3)
    STALL_LOSS_POLE = 0.061931682 - 0.008317956j

    @pytest.mark.xfail(strict=True, reason=(
        "the batch stalls after 28 rounds, the held seeds joined in round 12, "
        "with 17 of the 18 counted poles; the run of every seed finds the "
        "18th (CHANGES.md FOUND line on the stall end)"
    ))
    def test_stall_end_finds_the_full_runs_pole(self):
        found = find_poles(self.STALL_LOSS, self.CLI_REGION, tol=1e-8)
        assert min(abs(p.energy - self.STALL_LOSS_POLE) for p in found) < 1e-8

    def test_seeds_above_the_box_end(self, monkeypatch):
        # where h1 was j + i n, it underflowed above the axis and 634 seeds
        # "converged" there at points that are no zero of F.  Now a seed
        # ends once it rises above Im E = 6, the box's bottom edge mirrored
        # (582 seeds, not counted as failed).  The count is never met here,
        # and the batch ends after 27 rounds, 16 after the last new root:
        # no seed runs out of steps (23 when the held seeds joined in round
        # 8 and every seed ran to its end).  The 24 seeds that converge
        # above the axis reach zeros of F that are no poles, within 0.05 of
        # E = -V0, where F vanishes like p^5.  Run to its end, every seed
        # from round 0, the batch ends 599 seeds above the box, and 36
        # converge above the axis: 35 near E = -V0 and the bound state on
        # the negative real axis
        mpmath = pytest.importorskip("mpmath")
        runs = []

        def recorded(*args, **kwargs):
            runs.append(newton_complex(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(poles, "newton_complex", recorded)
        m = self.NARROW_L5
        found = find_poles(m, self.CLI_REGION, tol=1e-8)
        full = full_run(monkeypatch, m, self.CLI_REGION)
        assert len(found) == len(full) == 13
        d = found[0].diagnostics
        assert d["seeds_above_box"] == 582 and d["seeds_failed"] == 0
        assert full[0].diagnostics["seeds_above_box"] == 599
        for (roots, _, outcomes), n_above, n_near in ((runs[0], 24, 24),
                                                      (runs[1], 36, 35)):
            assert (roots[outcomes == poles.ABOVE_BOX].imag > 6.0).all()
            above = roots[(outcomes == "converged") & (roots.imag > 0)]
            at_threshold = np.abs(above + m.V0) < 0.05
            assert above.size == n_above and np.count_nonzero(at_threshold) == n_near
        (bound,) = above[~at_threshold]
        root = mpmath_root(mpmath, m, bound)
        assert abs(root.imag) < 1e-30 and -m.V0 < root.real < 0
        assert abs(bound - root) < 1e-4

    def test_search_starts_on_seeds_even_in_k(self, monkeypatch):
        # where the count can stop the search, the batch starts on every
        # other row and on the columns nearest to 45 points spaced evenly
        # in k = sqrt(E), where the poles lie about evenly: every column
        # near the threshold, fewer above it (41 of sqwell's 120 columns,
        # 205 seeds, and 35 of deltashell's 50, 140 seeds).  The rest are
        # held.  A barrier, whose count does not stop the search, starts
        # on every seed
        rounds, held = [], []

        def recorded(f, seeds, **kwargs):
            held.append(kwargs["held"])
            return newton_complex(f, seeds, **kwargs)

        def residual(model, E, **kwargs):
            rounds.append(E.size)
            return newton_residual(model, E, **kwargs)

        newton_residual = poles._newton_residual
        monkeypatch.setattr(poles, "newton_complex", recorded)
        monkeypatch.setattr(poles, "_newton_residual", residual)
        for model, region, n_cols in ((SquareWell(5, 10, 1), SQWELL_REGION, 41),
                                      (DeltaShell(10, 1), DELTASHELL_REGION, 35)):
            held.clear()
            rounds.clear()
            find_poles(model, region, tol=1e-8)
            e = np.linspace(scattering.E_MIN, region.re_range[1], region.n_re)
            k = np.linspace(math.sqrt(e[0]), math.sqrt(e[-1]), 45)
            cols = np.unique(np.abs(e[:, None] - k * k).argmin(axis=0))
            started = ~held[0].reshape(region.n_re, region.n_im)
            assert cols.size == n_cols and (cols[:8] == np.arange(8)).all()
            assert started[cols, ::2].all()
            assert rounds[0] == np.count_nonzero(started) == n_cols * region.n_im // 2
        held.clear()
        rounds.clear()
        barrier = find_poles(SquareWell(-3, 3, 0), self.CLI_REGION, tol=1e-8)
        assert held == [None] and rounds[0] == 1200
        assert barrier[0].diagnostics["search_end"] == "steps"
        assert barrier[0].diagnostics["rounds"] == 61

    def test_certified_poles_none_found_raises(self):
        # a tolerance below what |F| reaches in double precision: no seed
        # converges, and the empty list hid the 17 counted poles
        with pytest.raises(NoPoleFound, match="any of the 17 poles"):
            find_poles(SquareWell(5, 10, 0), self.CLI_REGION, tol=1e-300)

    @pytest.mark.parametrize("inst_id", ["sqwell_highl/r0/i1", "sqwell_highl/r2/i4"])
    def test_every_seed_is_accounted_for(self, monkeypatch, inst_id):
        # failed + stopped + above the box + converged outside the region +
        # converged inside it = every seed.  When every seed started in
        # round 0, 130 of r0/i1's seeds converged outside the region; now
        # the count stops it on the coarse seeds first, 1 of them outside
        # (2 when the coarse seeds were every other column).  r2/i4 never
        # meets its count and ends when its roots stall, 47 of its seeds
        # converged outside the region and 24 above the axis (48 and 21 on
        # every other column; 80 and 36 when the held seeds joined in a
        # fixed round 8 and every seed ran to its end)
        outside, above_axis = {"sqwell_highl/r0/i1": (1, 0),
                               "sqwell_highl/r2/i4": (47, 24)}[inst_id]
        runs = []

        def recorded(*args, **kwargs):
            runs.append(newton_complex(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(poles, "newton_complex", recorded)
        m, region = instance_model(pool_instance(inst_id))
        found = find_poles(m, region, tol=1e-8)
        d = found[0].diagnostics
        roots, _, outcomes = runs[0]
        converged = outcomes == "converged"
        inside = np.count_nonzero(converged & poles._inside(region, roots))
        assert d["seeds_converged_outside"] == outside
        assert np.count_nonzero(converged & (roots.imag > 0)) == above_axis
        assert (d["seeds_failed"] + d["seeds_stopped"] + d["seeds_above_box"]
                + d["seeds_converged_outside"] + inside == region.n_re * region.n_im)

    def test_rigid_wall_limit(self):
        m = DeltaShell(V0=1e6, a=1)
        reg = SearchRegion((1.0, 170.0), (-0.5, 0.0), n_re=120, n_im=6)
        poles = find_poles(m, reg, tol=1e-8)
        targets = [(j * math.pi) ** 2 for j in (1, 2, 3, 4)]
        for t in targets:
            best = min(poles, key=lambda p: abs(p.position - t))
            assert abs(best.position - t) < 0.01 * t
            assert abs(best.energy.imag) < 0.1

    def test_seed_density_stability(self):
        m = DeltaShell(V0=10, a=1)
        reg1 = SearchRegion((1.0, 170.0), (-15.0, 0.0), n_re=50, n_im=8)
        reg2 = SearchRegion((1.0, 170.0), (-15.0, 0.0), n_re=100, n_im=16)
        p1 = find_poles(m, reg1, tol=1e-10)
        p2 = find_poles(m, reg2, tol=1e-10)
        assert len(p2) >= len(p1)
        for a in p1:
            assert min(abs(a.energy - b.energy) for b in p2) < 1e-8

    def test_residual_bound(self):
        m = DeltaShell(V0=10, a=1)
        reg = SearchRegion((1.0, 170.0), (-15.0, 0.0), n_re=50, n_im=8)
        for p in find_poles(m, reg, tol=1e-10):
            assert p.residual <= 1e-10

    def test_conjugate_reflection(self):
        # real-analyticity: the mirrored condition has the conjugate root
        m = SquareWell(V0=5, a=2, l=0)
        reg = SearchRegion((0.0, 15.0), (-6.0, 0.0), n_re=40, n_im=10)
        root = find_poles(m, reg, tol=1e-10)[0].energy

        def mirrored_condition(E):
            f, df, *_ = _outgoing(m, E.conjugate())
            return f.conjugate(), df.conjugate()

        mirrored = newton_complex(
            mirrored_condition,
            root.conjugate(),
            1e-10,
            60,
        )
        assert abs(mirrored.imag) == pytest.approx(abs(root.imag), abs=1e-8)


class TestProgress:
    """The batch rule of a pole search, fed rounds by hand."""

    REGION = SearchRegion((0, 20), (-3, 0), 40, 6)

    @staticmethod
    def ended(*pairs):
        return (np.array([z for z, _ in pairs], dtype=complex),
                np.array([o for _, o in pairs], dtype=object))

    def test_failed_seeds_do_not_start_the_stall_count(self):
        rule = poles._Progress(self.REGION, 2, running=100)
        for i in range(20):
            assert rule(i, *self.ended((1 - 1j, NON_FINITE), (30 - 1j, CONVERGED))) is False
        assert rule.quiet is None and rule.joined_round is None

    def test_held_seeds_join_after_4_rounds_without_a_new_root(self):
        rule = poles._Progress(self.REGION, 2, running=100)
        assert rule(0, *self.ended((1 - 1j, CONVERGED))) is False
        assert [rule(i, *self.ended()) for i in (1, 2, 3, 4)] == [False] * 3 + [JOIN]
        assert rule(5, *self.ended()) is False
        assert rule.joined_round == 5

    def test_held_seeds_join_once_too_few_seeds_run(self):
        # one root of three found and one seed still running
        rule = poles._Progress(self.REGION, 3, running=3)
        assert rule(0, *self.ended((1 - 1j, CONVERGED))) is False
        assert rule(1, *self.ended((2 - 1j, NON_FINITE))) == JOIN

    def test_a_join_asked_in_the_last_round_is_no_join(self):
        rule = poles._Progress(self.REGION, 2, running=1)
        assert rule(60, *self.ended((1 - 1j, NON_FINITE))) == JOIN
        assert rule.rounds == 61 and rule.joined_round is None

    def test_stall_ends_the_batch_16_rounds_after_the_join(self):
        rule = poles._Progress(self.REGION, 2, running=0)
        assert rule(0, *self.ended()) == JOIN
        assert [rule(i, *self.ended()) for i in range(1, 17)] == [False] * 15 + [True]
        assert rule.end == "stall" and rule.rounds == 17 and rule.joined_round == 1


class TestPoleType:
    def test_rejects_upper_half_plane(self):
        with pytest.raises(ValueError):
            Pole(1.0 + 0.5j, residual=0.0)

    def test_gamma_property(self):
        p = Pole(2.0 - 0.25j, residual=0.0)
        assert p.gamma == pytest.approx(0.5)
        assert p.position == pytest.approx(2.0)

    def test_region_validation(self):
        with pytest.raises(ValueError):
            SearchRegion((5.0, 1.0), (-1.0, 0.0))
        with pytest.raises(ValueError):
            SearchRegion((0.0, 1.0), (0.5, 1.0))

    @pytest.mark.parametrize("re_range", [(0.0, 1e-6), (0.0, 5e-7), (2e-7, 8e-7)])
    def test_region_must_end_above_the_threshold_guard(self, re_range):
        # the search starts at E_MIN = 1e-6: such a region has no box to
        # count and no seed row to start from
        with pytest.raises(ValueError, match="E_hi > max"):
            SearchRegion(re_range, (-1.0, 0.0))


class TestClassifyPole:
    def test_synthetic_lorentzian_is_resonance(self):
        pole = Pole(5.0 - 0.25j, residual=0.0)
        curve = lorentzian_curve(5.0, 0.5, 0.5, 10.0)
        assert classify_pole(pole, curve).classification == RESONANCE

    def test_ea_is_spurious_against_l9_curve(self):
        m = SquareWell(V0=5, a=10, l=9)
        curve = delay_curve(m, 1e-6, 10.0, 1500)
        pole = Pole(0.38499 - 0.479894j, residual=0.0)
        assert classify_pole(pole, curve).classification == SPURIOUS

    def test_broad_pole_is_resonance_by_concavity(self):
        m = SquareWell(V0=5, a=2, l=0)
        curve = delay_curve(m, 1e-6, 20.0, 1200)
        pole = Pole(9.382649 - 4.430074j, residual=0.0)
        assert classify_pole(pole, curve).classification == RESONANCE

    def test_diagnostics_recorded(self):
        pole = Pole(5.0 - 0.25j, residual=0.0)
        curve = lorentzian_curve(5.0, 0.5, 0.5, 10.0)
        out = classify_pole(pole, curve)
        assert "peak_found" in out.diagnostics
        assert "concave_at_pole" in out.diagnostics
        # reports are written with plain json.dumps: no numpy scalars
        for value in out.diagnostics.values():
            assert type(value) in (bool, int, float, type(None))

    def test_too_coarse_curve_raises(self):
        from resdelay.errors import CurveTooCoarse

        pole = Pole(5.0 - 0.0005j, residual=0.0)  # Gamma = 0.001
        e = np.linspace(0.0, 10.0, 101)  # step 0.1 >> Gamma/4
        curve = Curve(e, np.ones_like(e))
        with pytest.raises(CurveTooCoarse):
            classify_pole(pole, curve)

    def test_one_scan_per_curve(self, monkeypatch):
        # classify_poles scans the curve for extrema once, and classifies
        # each pole as classify_pole does alone
        m = SquareWell(V0=5, a=10, l=5)
        curve = delay_curve(m, 1e-6, 50.0, 900)
        found = find_poles(m, SearchRegion((0.0, 50.0), (-6.0, 0.0), 120, 10), 1e-8)
        alone = [classify_pole(p, curve) for p in found]
        scans = [0]
        original = poles.find_extrema

        def counted(c):
            scans[0] += 1
            return original(c)

        monkeypatch.setattr(poles, "find_extrema", counted)
        assert classify_poles(found, curve) == alone
        assert len(found) > 1 and scans[0] == 1
        assert {p.classification for p in alone} == {RESONANCE, SPURIOUS}
        assert classify_poles([], curve) == [] and scans[0] == 1



REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
# benchmark pool instances (bench/reference.json, read only): one
# sqwell_highl instance per l = 1..10, three `sqwell --l 0` and three
# `deltashell`
REFERENCE_IDS = [
    "sqwell_highl/r2/i0", "sqwell_highl/r1/i1", "sqwell_highl/r2/i2",
    "sqwell_highl/r2/i3", "sqwell_highl/r0/i4", "sqwell_highl/r0/i5",
    "sqwell_highl/r1/i6", "sqwell_highl/r0/i7", "sqwell_highl/r2/i8",
    "sqwell_highl/r2/i9",
    "closed_form/r0/i0", "closed_form/r0/i1", "closed_form/r0/i2",
    "closed_form/r0/i12", "closed_form/r0/i13", "closed_form/r0/i14",
]
# the CLI's default search regions
SQWELL_REGION = SearchRegion((0.0, 50.0), (-6.0, 0.0), n_re=120, n_im=10)
DELTASHELL_REGION = SearchRegion((0.0, 170.0), (-15.0, 0.0), n_re=50, n_im=8)


def reference_instances():
    workloads = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"]
    by_id = {
        inst["id"]: inst
        for name in ("sqwell_highl", "closed_form")
        for rnd in workloads[name] for inst in rnd
    }
    return [by_id[i] for i in REFERENCE_IDS]


def model_instances():
    """Every sqwell and deltashell instance of the bench pools."""
    workloads = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"]
    return [
        inst
        for name in ("sqwell_highl", "closed_form")
        for rnd in workloads[name] for inst in rnd
        if inst["argv"][0] in ("sqwell", "deltashell")
    ]


def instance_model(inst):
    """The model and the CLI's default search region of a pool instance."""
    argv = inst["argv"]
    flags = {argv[i][2:]: float(argv[i + 1]) for i in range(1, len(argv), 2)}
    if argv[0] == "sqwell":
        return SquareWell(V0=flags["V0"], a=flags["a"], l=int(flags["l"])), SQWELL_REGION
    return DeltaShell(V0=flags["V0"], a=flags["a"]), DELTASHELL_REGION


def mpmath_root(mpmath, model, E):
    """The 30-digit root of the outgoing condition that findroot reaches
    from E."""
    with mpmath.workdps(30):
        return complex(mpmath.findroot(
            lambda z: outgoing_mpmath(mpmath, model, z), mpmath.mpc(E)
        ))


class TestBenchmarkPoleSets:
    """The pole search reproduces the benchmark's recorded pole sets, and
    its poles are the roots of the condition to 1e-12.

    The recorded digits hold the stopping error of the search that recorded
    them (|F| <= 1e-8): up to 9.3e-8 relative off the 30-digit roots.  So
    they are matched within the bench tolerance, and the reported poles
    against mpmath roots."""

    @pytest.mark.parametrize(
        "inst", reference_instances(), ids=lambda inst: inst["id"]
    )
    def test_recorded_poles_are_found(self, inst):
        mpmath = pytest.importorskip("mpmath")
        m, region = instance_model(inst)
        found = find_poles(m, region, tol=1e-8)
        expect = inst["expect"]
        assert expect["exit"] == 0 and expect["poles"]
        # (a) the bench tolerance of bench/checks.py
        for re_, im_ in expect["poles"]:
            ref = complex(re_, im_)
            assert min(abs(p.energy - ref) for p in found) <= 1e-6 + 1e-6 * abs(ref)
        for p in found:
            assert p.residual <= 1e-8
            assert abs(outgoing_condition(m, p.energy)) == p.residual
            # (b) the root that findroot reaches from the pole
            root = mpmath_root(mpmath, m, p.energy)
            assert abs(p.energy - root) <= 1e-12 * abs(root)


def mpmath_roots_in_box(mpmath, model, region, starts):
    """The distinct 30-digit roots of the outgoing condition that findroot
    reaches from ``starts`` and that lie in the region below the axis, less
    E = -V0 of a square well (F vanishes there, and it is no pole)."""
    (re_lo, re_hi), (im_lo, _) = region.re_range, region.im_range
    roots = []
    for start in starts:
        try:
            z = mpmath_root(mpmath, model, start)
        except (ValueError, ZeroDivisionError):  # no root reached from there
            continue
        if isinstance(model, SquareWell) and abs(z + model.V0) < 1e-6:
            continue
        inside = re_lo <= z.real <= re_hi and im_lo <= z.imag < 0
        if inside and all(abs(z - r) > 1e-10 * (1 + abs(z)) for r in roots):
            roots.append(z)
    return roots


# models whose roots findroot reaches from the poles the search finds
COUNTED = [
    # criterion 2's depth-5, range-2 well in its region
    (SquareWell(5, 2, 0), SearchRegion((0.0, 15.0), (-6.0, 0.0), 60, 12)),
    (DeltaShell(10, 1), DELTASHELL_REGION),
    (SquareWell(5, 10, 1), SQWELL_REGION),
    # barriers: F also vanishes at E = -V0 = 4, like p^l
    (SquareWell(-4, 5, 0), SQWELL_REGION),
    (SquareWell(-4, 5, 1), SQWELL_REGION),
    (SquareWell(-4, 5, 3), SQWELL_REGION),
]


def full_run(monkeypatch, model, region):
    """find_poles with every seed run to its own end: its count fails."""
    with monkeypatch.context() as patch:
        patch.setattr(poles, "_winding_number", lambda model, region: None)
        return find_poles(model, region, tol=1e-8)


def same_pole(a, b, model=None):
    """Two poles agree to 1e-12 relative; with ``model``, to that plus each
    pole's residual over |F'|, the distance within which a point of that
    residual finds the root, where F's own error exceeds 1e-12."""
    slack = 0.0
    if model is not None:
        slack = (a.residual + b.residual) / abs(_outgoing(model, b.energy)[1])
    return abs(a.energy - b.energy) <= 1e-12 * abs(b.energy) + slack


def assert_same_poles(early, full, model=None):
    """The same poles, pair by pair (:func:`same_pole`)."""
    assert len(early) == len(full)
    for a, b in zip(early, full):
        assert same_pole(a, b, model), (a.energy, b.energy)


def stall_models():
    """Seeded wells and delta shells of the pools' parameter ranges, with l
    up to 20, and two wells whose search loses a pole when the batch ends
    after 8 rounds without a new root."""
    rng = np.random.default_rng(27)
    wells = [SquareWell(float(rng.uniform(2.0, 10.0)), float(rng.uniform(3.0, 10.0)),
                        int(rng.integers(0, 21))) for _ in range(100)]
    shells = [DeltaShell(float(rng.uniform(2.0, 20.0)), float(rng.uniform(0.5, 2.0)))
              for _ in range(25)]
    guards = [SquareWell(4.366754753187578, 5.634301692541548, 9),
              SquareWell(5.842322784906136, 6.277924447909708, 3)]
    return ([(m, SQWELL_REGION) for m in wells + guards]
            + [(m, DELTASHELL_REGION) for m in shells])


STALL_MODELS = stall_models()
# some of them have a deep pole that the early and the full run may reach
# beyond assert_same_poles' slack: F is inexact below the axis at |ka| < l
# (ROADMAP item 5).  The first three were up to 7.1e-9 relative apart when
# the held seeds joined in a fixed round 8; with the coarse seeds even in
# k, the l = 18 well is 2.1e-10 apart and the last three 2.2e-12, 1.2e-9
# and 1.3e-9, each run within 1.1e-9 of the 30-digit root
INEXACT_DEEP_POLES = [
    SquareWell(3.54383381374328, 9.984840396325676, 20),
    SquareWell(6.313476362622474, 6.853502911902093, 20),
    SquareWell(6.644243231320797, 7.444679410343516, 18),
    SquareWell(3.819899149610693, 7.643106352364793, 13),
    SquareWell(3.014059027197024, 7.819891714107455, 19),
    SquareWell(2.4081663433761644, 9.95251350273587, 20),
]


class TestWindingNumber:
    """The argument-principle count of the poles in the search box."""

    @pytest.mark.parametrize("model, region", COUNTED, ids=str)
    def test_count_is_the_number_of_mpmath_roots(self, model, region):
        mpmath = pytest.importorskip("mpmath")
        found = find_poles(model, region, tol=1e-8)
        roots = mpmath_roots_in_box(mpmath, model, region, [p.energy for p in found])
        count = found[0].diagnostics["winding_number"]
        assert count == len(roots) > 0
        assert poles._winding_number(model, region) == count

    @pytest.mark.parametrize("model, region", COUNTED, ids=str)
    def test_top_edge_keeps_im_ka_at_most_7(self, model, region):
        # Im(ka) is largest on the top edge at its left corner, where the
        # box starts at the threshold guard, and there it reaches 7
        eta = poles._top_edge(model, region)
        corner = complex(max(region.re_range[0], scattering.E_MIN), eta)
        im_ka = cmath.sqrt(corner).imag * model.a
        assert 0 < eta and 7.0 * (1 - 1e-15) <= im_ka <= 7.0 * (1 + 1e-15)

    @pytest.mark.parametrize("inst_id, missed", [
        ("sqwell_highl/r2/i4", 0.168245380 - 0.001476100j),
        ("sqwell_highl/r2/i9", 0.1431902223 - 1.887e-9j),
    ])
    def test_count_shows_the_missed_pole(self, inst_id, missed):
        # the two poles the seed grid misses (the strict xfails
        # test_narrow_l5_pole_is_found and
        # test_narrow_l10_resonance_is_counted): the count is one higher,
        # and the search reports itself incomplete.  The coarse seeds find
        # their last root in round 6, the held seeds join 4 rounds later,
        # and the batch ends after 16 more rounds without a new root, the
        # seeds still running stopped.  On every other column, even in E,
        # r2/i4 ran 26 rounds, joined in round 10 and stopped 116 seeds,
        # r2/i9 27, 11 and 101.  Every seed ran to round 60 when the held
        # seeds joined in a fixed round 8
        rounds, joined, stopped = {"sqwell_highl/r2/i4": (27, 11, 122),
                                   "sqwell_highl/r2/i9": (27, 11, 98)}[inst_id]
        m, region = instance_model(pool_instance(inst_id))
        found = find_poles(m, region, tol=1e-8)
        assert min(abs(p.energy - missed) for p in found) > 1e-6
        for p in found:
            d = p.diagnostics
            assert d["winding_number"] == len(found) + 1
            assert d["complete"] is False and d["search_end"] == "stall"
            assert d["rounds"] == rounds and d["joined_round"] == joined
            assert d["seeds_stopped"] == stopped

    @pytest.mark.parametrize(
        "inst", model_instances(), ids=lambda inst: inst["id"]
    )
    def test_early_stop_finds_the_full_runs_poles(self, monkeypatch, inst):
        # every sqwell and deltashell instance of the bench pools: the
        # coarse-to-fine search that the count stops finds the poles of
        # the full run, and a complete search has no failed seed.  The
        # count is certified on each, and it is the number of poles found,
        # one more where the seed grid misses a pole
        m, region = instance_model(inst)
        early = find_poles(m, region, tol=1e-8)
        missed = inst["id"] in ("sqwell_highl/r2/i4", "sqwell_highl/r2/i9")
        assert poles._winding_number(m, region) == len(early) + missed
        full = full_run(monkeypatch, m, region)
        assert_same_poles(early, full)
        assert all(p.diagnostics["winding_number"] is None for p in full)
        for p in early:
            assert p.diagnostics["seeds_failed"] == 0 or not p.diagnostics["complete"]

    def test_early_stop_on_attractive_wells(self, monkeypatch):
        # at l = 21 (V0 = 6.435, a = 7.684) the poles near Re E = 0.35 and
        # 1.73 below Im E = -4.5 lie 6.7e-9 and 3.4e-10 relative off the
        # 30-digit roots in both runs, with residuals near 3e-9 that one
        # Newton step does not lower: F itself is that far off there, with
        # |ka| < l below the axis (ROADMAP item 3)
        rng = np.random.default_rng(23)
        for _ in range(8):
            m = SquareWell(V0=float(rng.uniform(0.5, 10.0)),
                           a=float(rng.uniform(1.0, 10.0)),
                           l=int(rng.integers(0, 31)))
            early = find_poles(m, SQWELL_REGION, tol=1e-8)
            assert early and early[0].diagnostics["complete"] is True
            assert_same_poles(early, full_run(monkeypatch, m, SQWELL_REGION), m)

    @pytest.mark.parametrize("model, region", [
        pytest.param(model, region, id=str(model)) for model, region in STALL_MODELS
    ])
    def test_stall_end_keeps_the_full_runs_poles(self, monkeypatch, model, region):
        # a search that ends when 16 rounds bring no new root, and whose
        # held seeds join after 4, finds every pole of the run of every
        # seed to its own end: on seeded wells and delta shells of the
        # pools' ranges at l <= 20, and on two wells that each lose a pole
        # when the batch ends after 8 rounds without one
        early = find_poles(model, region, tol=1e-8)
        full = full_run(monkeypatch, model, region)
        if model not in INEXACT_DEEP_POLES:
            assert_same_poles(early, full, model)
            return
        # beyond the slack, a pole is the same where both runs lie within
        # 2e-9 relative of its 30-digit root
        assert len(early) == len(full)
        for a, b in zip(early, full):
            if not same_pole(a, b, model):
                mpmath = pytest.importorskip("mpmath")
                root = mpmath_root(mpmath, model, b.energy)
                assert abs(a.energy - root) <= 2e-9 * abs(root)
                assert abs(b.energy - root) <= 2e-9 * abs(root)

    def test_uncertified_count_runs_in_full_without_warning(self, monkeypatch):
        # with a = 1e300 the box is 1.4e-302 high, and the unwrap of its
        # phase runs out of depth
        raised = []

        def unwrap(*args):
            try:
                return numerics_unwrap(*args)
            except Exception as exc:
                raised.append(type(exc))
                raise

        numerics_unwrap = poles._unwrap
        monkeypatch.setattr(poles, "_unwrap", unwrap)
        m = SquareWell(5, 1e300, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert poles._winding_number(m, SQWELL_REGION) is None
        assert raised == [MaxDepthExceeded]

    @pytest.mark.xfail(strict=True, reason=(
        "F vanishes like p^8 at E = -V0 under this barrier, so Newton "
        "reports 30 roots within 0.014 of it and 48 in all; the count is 18 "
        "(CHANGES.md FOUND line on barrier roots)"
    ))
    def test_barrier_l8_reports_its_counted_poles(self):
        m = SquareWell(-1.702, 9.39, 8)
        found = find_poles(m, SQWELL_REGION, tol=1e-8)
        assert found[0].diagnostics["winding_number"] == 18
        assert len(found) == 18

    def test_barrier_l8_count(self):
        assert poles._winding_number(SquareWell(-1.702, 9.39, 8), SQWELL_REGION) == 18


def pool_instance(inst_id):
    workloads = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"]
    name = inst_id.split("/")[0]
    return next(i for rnd in workloads[name] for i in rnd if i["id"] == inst_id)


@pytest.mark.parametrize(
    "re_range, im_range, n_re, n_im, match",
    [
        ((0.0, math.inf), (-1.0, 0.0), 40, 10, "finite"),
        ((0.0, 5.0), (math.nan, 0.0), 40, 10, "finite"),
        ((0.0, 5.0), (-1.0, 0.0), 1, 10, ">= 2"),
        ((0.0, 5.0), (-1.0, 0.0), 40, 1, ">= 2"),
    ],
    ids=["re-infinite", "im-nan", "n_re-1", "n_im-1"],
)
def test_search_region_checks(re_range, im_range, n_re, n_im, match):
    with pytest.raises(ValueError, match=match):
        SearchRegion(re_range, im_range, n_re, n_im)
