"""End-to-end tests of the command-line front-end."""
import argparse
import dataclasses
import io
import json
import math
import warnings
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import scalar_oracle

from resdelay import cli, counting, poles, reflect, scattering
from resdelay.cli import main
from resdelay.counting import CountReport
from resdelay.numerics import Curve
from resdelay.phasedata import (
    delay_from_table, extract_resonance, load_bundled_p33, synth_phase_table,
)


def load_schema():
    text = resources.files("resdelay").joinpath("report_schema.json").read_text()
    return json.loads(text)


def run(args, out):
    return main(args + ["--out", str(out)])


class TestExitCodes:
    def test_success(self, tmp_path):
        assert run(["data"], tmp_path) == 0

    def test_smoothing_window_may_span_the_table(self, tmp_path):
        # the bundled table has 45 rows; a wider window is rejected
        assert run(["data", "--smooth", "45"], tmp_path) == 0

    def test_validation_error(self, tmp_path):
        # emax below the barrier top is a config error
        assert run(["step", "--emax", "1.0"], tmp_path) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            # both read "emax must exceed the barrier top", although the
            # first range ends below its own start, above the top 2.0
            (["step", "--emin", "5", "--emax", "4"],
             "--emax 4.0: the energy range must end above --emin 5.0"),
            (["step", "--emax", "1.0"],
             "--emax 1.0: the energy range must end more than 2e-06 above the "
             "barrier top V1 + V2 = 2.0"),
            # both read "window contains fewer than 3 samples", naming no
            # option; the bundled table's W runs from 1110 to 1550 MeV
            (["data", "--wlo", "1300", "--whi", "1200"],
             "--whi 1200.0: the window must end above --wlo 1300.0"),
            (["data", "--wlo", "2000", "--whi", "3000"],
             "--wlo 2000.0 --whi 3000.0: the window holds 0 of the table's "
             "rows, whose W runs from 1110.0 to 1550.0"),
            # both read "require e_hi > e_lo > 0, both finite": the curves
            # start at the threshold guard 1e-6, past --emax
            (["sqwell", "--emin", "1e-8", "--emax", "1e-7"],
             "--emax 1e-07: the energy range must end above the threshold "
             "guard 1e-06"),
            (["deltashell", "--emin", "1e-9", "--emax", "5e-7"],
             "--emax 5e-07: the energy range must end above the threshold "
             "guard 1e-06"),
            # both read "require e_hi > e_lo > 0, both finite": the barrier
            # top V1 + V2 = -4 lifts neither --emin to 0
            (["step", "--V1", "-5", "--V2", "1", "--emin", "-1"],
             "--emin -1.0: the energy range must start above 0"),
            (["step", "--V1", "-5", "--V2", "1", "--emin", "0"],
             "--emin 0.0: the energy range must start above 0"),
            # exited 0 with a delay averaged over padded copies of the end
            # rows of the bundled 45-row table
            (["data", "--smooth", "999"],
             "--smooth 999: the moving-average window must not exceed the "
             "table's 45 rows"),
            # each read the model's own message, naming no option
            (["sqwell", "--l", "31"],
             "--V0 5.0 --a 10.0 --l 31: l must be in [0, 30]"),
            (["sqwell", "--a", "-1"],
             "--V0 5.0 --a -1.0 --l 0: range a must be positive"),
            (["deltashell", "--V0", "-1"],
             "--V0 -1.0 --a 1.0: shell strength V0 must be positive"),
            (["step", "--V2", "0"],
             "--V1 1.0 --V2 0.0 --a 1.31: V2 must be positive"),
            # read bessel_j's "|z| = 52.9 outside the series regime (<= 50)"
            (["step", "--V2", "700", "--a", "1", "--emax", "800"],
             "--a 1.0 --V2 700.0: the Bessel argument 2a sqrt(V2) = 52.9 "
             "exceeds the series' 50"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_range_names_the_bound_that_fails(self, tmp_path, capsys, argv, message):
        assert run(argv, tmp_path) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_step_grid_below_two_is_validation(self, tmp_path, grid):
        # the theta curve needs two samples for a phase change
        assert run(["step", "--grid", grid], tmp_path) == 2

    @pytest.mark.parametrize("sub", ["sqwell", "deltashell"])
    def test_delay_grid_below_two_is_validation(self, tmp_path, sub, capsys):
        # was numpy's "zero-size array to reduction operation maximum"
        assert run([sub, "--grid", "0"], tmp_path) == 2
        assert "a curve needs at least 2 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["sqwell", "deltashell"])
    def test_delay_grid_below_three_is_validation(self, tmp_path, sub, capsys,
                                                  monkeypatch):
        # the peak count needs 3 samples: --grid 2 ran the pole search and
        # the count, then failed with find_extrema's message
        def forbidden(*args, **kwargs):
            raise AssertionError("pole search ran")

        monkeypatch.setattr(cli, "find_poles", forbidden)
        assert run([sub, "--grid", "2"], tmp_path) == 2
        assert "--grid 2" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["2", "8"])
    def test_step_coarse_grid_counts_the_turn(self, tmp_path, grid):
        # theta turns a full 2 pi between two samples of a 2- to 8-point
        # grid near the dip at E = 2.04, where the principal values agree
        # (n_R read 0.8427592, then exit 3).  theta is unwrapped on the
        # shared grid of at least 2000 points, whatever --grid says
        assert run(["step", "--grid", grid], tmp_path) == 0
        report = json.loads((tmp_path / "step_report.json").read_text())
        assert report["count"]["n_R"] == pytest.approx(-1.1572408, abs=1e-7)

    def test_step_grid_resolving_the_turn(self, tmp_path):
        assert run(["step", "--grid", "9"], tmp_path) == 0
        report = json.loads((tmp_path / "step_report.json").read_text())
        assert report["count"]["n_R"] == pytest.approx(-1.1572408, abs=1e-7)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_validation(self, tmp_path, tol):
        # a NaN tol bisected one panel per round to the panel cap (exit 3
        # after minutes); an infinite one took every Newton seed for a root
        assert run(["sqwell", "--tol", tol], tmp_path) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sqwell", "--V0", "nan"],
            ["sqwell", "--a", "inf"],
            ["deltashell", "--V0", "nan"],
            ["deltashell", "--a", "inf"],
            ["step", "--V1", "nan"],
            ["step", "--V2", "nan"],
            ["step", "--a", "inf"],
            ["sqwell", "--pole-gmax", "inf"],
            ["deltashell", "--pole-gmax", "inf"],
            ["sqwell", "--pole-emax", "inf"],
            ["step", "--emax", "inf"],
        ],
        ids=" ".join,
    )
    def test_non_finite_model_parameter_is_validation(self, tmp_path, argv):
        # NaN passed the positivity checks: the runs warned, or reported a
        # series at order nan as a numerical failure.  An infinite width
        # bound put every seed at Im E = -inf (exit 0 with no poles), and an
        # infinite energy bound warned on inf * 0
        assert run(argv, tmp_path) == 2

    @pytest.mark.parametrize("option", ["--emin", "--emax"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_step_non_finite_range_names_the_option(self, tmp_path, capsys,
                                                     option, value):
        # max(nan, barrier top) stayed NaN, so --emin nan was reported as
        # "emax must exceed the barrier top"
        assert run(["step", option, value], tmp_path) == 2
        assert f"{option} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sub, option",
        [("sqwell", "--emin"), ("sqwell", "--emax"), ("sqwell", "--pole-emax"),
         ("sqwell", "--pole-gmax"), ("deltashell", "--emin"),
         ("deltashell", "--emax"), ("deltashell", "--pole-gmax")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_model_non_finite_range_names_the_option(self, tmp_path, capsys,
                                                      sub, option, value):
        # these were reported as "require e_hi > e_lo > 0, both finite" or
        # "the search region's bounds must be finite", naming no option
        assert run([sub, option, value], tmp_path) == 2
        assert f"{option} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        pytest.param(argv, named, id=" ".join(argv)) for argv, named in [
            (["sqwell", "--tol", "0"], "--tol 0.0"),
            (["sqwell", "--tol", "-1"], "--tol -1.0"),
            (["sqwell", "--tol", "nan"], "--tol nan"),
            (["deltashell", "--tol", "0"], "--tol 0.0"),
            (["sqwell", "--pole-gmax", "0"], "--pole-gmax 0.0"),
            (["sqwell", "--pole-gmax", "-3"], "--pole-gmax -3.0"),
            (["deltashell", "--pole-gmax", "0"], "--pole-gmax 0.0"),
            (["deltashell", "--pole-gmax", "-3"], "--pole-gmax -3.0"),
            (["data", "--smooth", "2"], "--smooth 2"),
            (["data", "--smooth", "0"], "--smooth 0"),
            (["sqwell", "--emin", "5", "--emax", "4"], "--emax 4.0"),
            (["deltashell", "--emin", "5", "--emax", "4"], "--emax 4.0"),
            (["sqwell", "--emin", "0"], "--emin 0.0"),
        ]
    ])
    def test_out_of_range_option_names_it(self, tmp_path, capsys, argv, named):
        # these were reported as "tol must be positive and finite",
        # "im_range must lie in the lower half plane", "smooth_window must
        # be an odd integer >= 1" and "require e_hi > e_lo > 0, both
        # finite", naming no option
        assert run(argv, tmp_path) == 2
        assert capsys.readouterr().err.startswith(f"error (ValueError): {named}: ")

    @pytest.mark.parametrize("option", ["--wlo", "--whi"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_data_non_finite_window_names_the_option(self, tmp_path, capsys,
                                                     option, value):
        # --whi inf exited 0 and wrote Infinity, which is not JSON, into the
        # report; --wlo nan exited 2 with a message that blamed the window
        assert run(["data", f"{option}={value}"], tmp_path) == 2
        assert f"{option} {value}" in capsys.readouterr().err
        assert not (tmp_path / "data_report.json").exists()

    def test_missing_input_names_the_path(self, tmp_path, capsys):
        # was an uncaught FileNotFoundError (exit 1)
        missing = tmp_path / "no_such_table.csv"
        assert run(["data", "--input", str(missing)], tmp_path) == 2
        assert str(missing) in capsys.readouterr().err

    def test_data_infinite_energy_names_its_line(self, tmp_path, capsys):
        # exited 2 with "curve samples must be finite", no line number, after
        # two numpy RuntimeWarnings on stderr
        table = tmp_path / "table.csv"
        rows = [f"{1100 + 10 * i},{5.0 * i}" for i in range(8)]
        rows[3] = "inf,15.0"
        table.write_text("W_MeV,delta_deg\n" + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["data", "--input", str(table)], tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == "error (ParseError): line 5: non-finite field in 'inf,15.0'\n"

    def test_data_phase_beyond_360_names_its_line(self, tmp_path, capsys):
        # exited 2 with "|delta| exceeds 360 degrees", no line number
        table = tmp_path / "table.csv"
        rows = [f"{1100 + 10 * i},{5.0 * i}" for i in range(8)]
        rows[3] = "1130,-400.0"
        table.write_text("W_MeV,delta_deg\n" + "\n".join(rows) + "\n")
        assert run(["data", "--input", str(table)], tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err == ("error (ParseError): line 5: |delta| exceeds 360 degrees "
                       "in '1130,-400.0'\n")

    def test_data_without_a_positive_maximum_is_numerical_failure(self, tmp_path,
                                                                  capsys):
        # exited 2 with "peak height must be positive", naming no option or
        # line: the falling background leaves every delay maximum below 0
        table = synth_phase_table(1232.0, 115.0, -0.02, 1100.0, 1400.0, 301)
        path = tmp_path / "falling.csv"
        path.write_text("W_MeV,delta_deg\n" + "".join(
            f"{w!r},{d!r}\n" for w, d in zip(table.W.tolist(), table.delta_deg.tolist())))
        assert run(["data", "--input", str(path)], tmp_path / "out") == 3
        assert capsys.readouterr().err == (
            "numerical failure (NoPeak): no interior maximum of positive delay in "
            "[1100.0, 1400.0]; the highest is -0.00261 rad/MeV\n")
        assert not (tmp_path / "out" / "data_report.json").exists()

    def test_output_path_that_is_a_file_names_the_path(self, tmp_path, capsys):
        # mkdir raised an uncaught FileExistsError (exit 1)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run(["data"], taken) == 2
        assert str(taken) in capsys.readouterr().err
        assert taken.read_text() == ""

    def test_step_bessel_overflow_is_numerical_failure(self, tmp_path, capsys):
        # Gamma(nu + 1) underflows near E = 3e4: the run warned, then
        # reported a round-off estimate nan
        assert run(["step", "--emax", "1e6"], tmp_path) == 3
        assert "overflows" in capsys.readouterr().err

    def test_huge_range_overflows_to_inf(self, tmp_path):
        # a**2 of a Python float raised an uncaught OverflowError (exit 1);
        # the pole count's unwrap runs out of depth on a box 1.4e-302 high,
        # and the count is not certified, silently
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["sqwell", "--a", "1e300"], tmp_path) == 3
        assert caught == []

    def test_certified_poles_none_found_is_numerical_failure(self, tmp_path, capsys):
        # exited 0 with "poles": [], no pole to carry the search's
        # diagnostics, although the winding number counts 17 poles
        assert run(["sqwell", "--tol", "1e-300"], tmp_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure (NoPoleFound): --tol 1e-300: ")
        assert "17 poles" in err
        assert not (tmp_path / "sqwell_report.json").exists()

    def test_table_with_byte_order_mark(self, tmp_path):
        # a table saved as "CSV UTF-8" exited 2 with "line 1: bad header
        # '\ufeffW_MeV,delta_deg'"
        text = resources.files("resdelay").joinpath("data/p33_pip_p.csv").read_text()
        reports = {}
        for name, encoding in [("plain", "utf-8"), ("bom", "utf-8-sig")]:
            table = tmp_path / f"{name}.csv"
            table.write_text(text, encoding=encoding)
            assert run(["data", "--input", str(table)], tmp_path / name) == 0
            reports[name] = json.loads((tmp_path / name / "data_report.json").read_text())
        assert (tmp_path / "bom.csv").read_bytes()[:3] == b"\xef\xbb\xbf"
        assert ((tmp_path / "bom" / "fig4.csv").read_bytes()
                == (tmp_path / "plain" / "fig4.csv").read_bytes())
        for key in ("resonance", "count"):
            assert reports["bom"][key] == reports["plain"][key]

    def test_parse_error_is_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("W_MeV,delta_deg\n1,1\n2,oops\n3,3\n4,4\n5,5\n")
        assert run(["data", "--input", str(bad)], tmp_path) == 2

    @pytest.mark.parametrize("l", ["0", "1"])
    def test_grid_at_interior_threshold(self, tmp_path, l):
        # --emin 1 puts the first grid point at E = -V0, where p = 0
        args = ["sqwell", "--V0", "-1", "--a", "1", "--emin", "1", "--emax", "10"]
        assert run(args + ["--l", l], tmp_path) == 0

    def test_thick_s_wave_barrier(self, tmp_path):
        # |Im pa| reaches 949 under this barrier, where cos(pa) and sin(pa)
        # overflow (exit 2 after overflow warnings); the rescaled outgoing
        # condition gives mpmath's delay
        mpmath = pytest.importorskip("mpmath")
        args = ["sqwell", "--V0", "-1000", "--a", "30", "--l", "0"]
        assert run(args + ["--format", "json"], tmp_path) == 0
        report = json.loads((tmp_path / "sqwell_report.json").read_text())
        curve = report["curves"][0]

        def jost(E):
            k, p = mpmath.sqrt(E), mpmath.sqrt(E - 1000)
            return 1j * k * mpmath.sin(30 * p) - p * mpmath.cos(30 * p)

        for i in (0, 1, 299, 599):
            E = curve["energies"][i]
            with mpmath.workdps(40):
                ref = -mpmath.im(mpmath.diff(jost, E) / jost(E))
            assert curve["values"][i] == pytest.approx(float(ref), rel=1e-9)
        # the barrier is opaque: the phase is arctan(k/kappa) of a hard
        # sphere with exponential penetration
        phase = lambda E: math.atan(math.sqrt(E / (1000 - E)))
        n_R = (phase(10.0) - phase(1e-6)) / math.pi
        assert report["count"]["n_R"] == pytest.approx(n_R, abs=1e-7)

    def test_thick_barrier_at_l1(self, tmp_path):
        # the same barrier at l = 1: sin and cos of pa overflowed in
        # sph_bessel (an OverflowError traceback, exit 1); j_1(pa) and
        # j_1'(pa) now recur from pa with Im pa clipped, which scales the
        # outgoing condition by one real factor, and the delay is mpmath's
        # -Im(F'/F) + Im(h'/h)
        mpmath = pytest.importorskip("mpmath")
        args = ["sqwell", "--V0", "-1000", "--a", "30", "--l", "1"]
        assert run(args + ["--format", "json"], tmp_path) == 0
        report = json.loads((tmp_path / "sqwell_report.json").read_text())
        curve = report["curves"][0]

        def j1(x):
            return mpmath.sin(x) / x**2 - mpmath.cos(x) / x

        def j1p(x):  # j_1' = j_0 - 2 j_1 / x
            return mpmath.sin(x) / x - 2 * j1(x) / x

        def h1(y):  # j_1 + i y_1, y_1 = -cos y / y^2 - sin y / y
            return j1(y) - 1j * (mpmath.cos(y) / y**2 + mpmath.sin(y) / y)

        def h1p(y):  # h_0 - 2 h_1 / y, h_0 = -i e^(iy) / y
            return -1j * mpmath.exp(1j * y) / y - 2 * h1(y) / y

        def jost(E):
            k, p = mpmath.sqrt(E), mpmath.sqrt(E - 1000)
            return p * j1p(30 * p) * h1(30 * k) - k * h1p(30 * k) * j1(30 * p)

        def hard(E):
            return h1(30 * mpmath.sqrt(E))

        for i in (0, 1, 299, 599):
            E = curve["energies"][i]
            with mpmath.workdps(40):
                ref = (-mpmath.im(mpmath.diff(jost, E) / jost(E))
                       + mpmath.im(mpmath.diff(hard, E) / hard(E)))
            assert curve["values"][i] == pytest.approx(float(ref), rel=1e-11)

    def test_narrow_l5_resonance_is_integrable(self, tmp_path):
        # the S-matrix central difference once left noise here that drove
        # the counting quadrature of the time (exit 3) to MaxDepthExceeded.
        # The count now unwraps the phase, and its delay check refines onto
        # the narrow pole at 0.168 that the pole search misses
        args = ["sqwell", "--l", "5", "--V0", "2.5836", "--a", "6.9964"]
        assert run(args, tmp_path) == 0
        report = json.loads((tmp_path / "sqwell_report.json").read_text())
        assert report["count"]["n_R"] == pytest.approx(4.6041380075, abs=1e-9)

    @pytest.mark.parametrize("l, n_R", [("0", 0.9522843546), ("1", 0.5549050673)])
    def test_barrier_band_edge_in_range(self, tmp_path, l, n_R):
        # E = -V0 = 1 lies in the count's range, where the phase of the
        # outgoing condition once jumped by pi/2 and the unwrap ended in
        # MaxDepthExceeded (exit 3); n_R is the tol-1e-10 quadrature's
        args = ["sqwell", "--V0", "-1", "--a", "1", "--l", l]
        assert run(args, tmp_path) == 0
        report = json.loads((tmp_path / "sqwell_report.json").read_text())
        assert report["count"]["n_R"] == pytest.approx(n_R, abs=1e-9)

    def test_step_dip_is_integrable(self, tmp_path):
        # the finite-difference noise of this delay at its dip once
        # exhausted the depth of the counting quadrature (exit 3); the delay
        # curve and its dip refinement must still succeed here
        args = ["step", "--V1", "1.2205", "--V2", "1.4612", "--a", "2.3290"]
        assert run(args, tmp_path) == 0

    @pytest.mark.parametrize(
        "step", [("2.4226", "1.3894", "3.7552"), ("2.0467", "0.5730", "3.4704")]
    )
    def test_step_dip_next_to_the_barrier_top(self, tmp_path, step):
        # the coarse dip lies within two grid steps of the lowest energy;
        # an unclipped refine window reached below the barrier top (exit 2)
        v1, v2, a = step
        assert run(["step", "--V1", v1, "--V2", v2, "--a", a], tmp_path) == 0
        report = json.loads((tmp_path / "step_report.json").read_text())
        lo = float(v1) + float(v2) + 2e-6
        assert report["dip"]["E"] >= lo and report["dip"]["delay_extremum_E"] >= lo

    def test_step_cancelled_series_exits_3(self, tmp_path, capsys):
        # 2 sqrt(V2) a = 40: r(E) would come from a cancelled J_nu series,
        # and the first grid raises
        args = ["step", "--V2", "100", "--a", "2", "--emin", "102", "--emax", "110"]
        assert run(args, tmp_path) == 3
        assert "(SeriesNonConvergence)" in capsys.readouterr().err

    def test_step_cancelled_series_names_the_options(self, tmp_path, capsys):
        # 2 sqrt(V2) a = 18.97, inside the series' bound: the J_nu series
        # cancels, and the error named no option
        args = ["step", "--V2", "90", "--a", "1", "--emax", "800"]
        assert run(args, tmp_path) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure (SeriesNonConvergence): --a 1.0 --V2 90.0: J_nu series "
            "cancels at nu=")

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["quux"])
        assert err.value.code == 2


class TestOutputs:
    def test_data_report_and_curve(self, tmp_path):
        assert run(["data"], tmp_path) == 0
        report = json.loads((tmp_path / "data_report.json").read_text())
        assert report["provenance"]["subcommand"] == "data"
        assert (tmp_path / "fig4.csv").exists()
        jsonschema.validate(report, load_schema())
        count = report["count"]
        assert set(count) == {f.name for f in dataclasses.fields(CountReport)}
        assert count["N"] + count["Delta"] == pytest.approx(count["n_R"], abs=1e-12)

    @pytest.mark.parametrize("synthetic", [False, True], ids=["bundled", "synthetic"])
    def test_smoothing_keeps_n_R(self, tmp_path, synthetic):
        # the moving average pads each end with the end value, which shrank
        # the smoothed phase change: n_R read 0.649848 at --smooth 45 on the
        # bundled table and 0.7058335 at --smooth 301 on the synthetic one.
        # n_R counts the table's own phases; M and Gamma read the smoothed
        # delay's peak, as before
        if synthetic:
            table = synth_phase_table(1232.0, 115.0, 0.001, 1100.0, 1400.0, 301)
            path = tmp_path / "synthetic.csv"
            path.write_text("W_MeV,delta_deg\n" + "".join(
                f"{w!r},{d!r}\n" for w, d in zip(table.W.tolist(),
                                                  table.delta_deg.tolist())))
            argv, n_R = ["data", "--input", str(path)], 0.8597576616763176
        else:
            table, argv, n_R = load_bundled_p33(), ["data"], 0.8728333333333333
        lo, hi = float(table.W[0]), float(table.W[-1])
        for window in range(1, len(table) + 1, 2):
            out = tmp_path / str(window)
            assert run(argv + ["--smooth", str(window)], out) == 0
            report = json.loads((out / "data_report.json").read_text())
            assert report["resonance"]["n_R"] == pytest.approx(n_R, rel=0, abs=1e-12)
            assert report["count"]["n_R"] == report["resonance"]["n_R"]
            peak = extract_resonance(delay_from_table(table, window), lo, hi)
            assert report["resonance"]["M_MeV"] == peak.M
            assert report["resonance"]["Gamma_MeV"] == peak.Gamma

    def test_step_report(self, tmp_path):
        assert run(["step"], tmp_path) == 0
        report = json.loads((tmp_path / "step_report.json").read_text())
        jsonschema.validate(report, load_schema())
        assert report["dip"]["E"] == pytest.approx(2.0445, abs=1e-3)
        for stem in ("fig3_reflectivity", "fig3_theta", "fig3_delay"):
            assert (tmp_path / f"{stem}.csv").exists()

    def test_sqwell_report(self, tmp_path):
        assert run(["sqwell", "--grid", "400"], tmp_path) == 0
        report = json.loads((tmp_path / "sqwell_report.json").read_text())
        jsonschema.validate(report, load_schema())
        assert report["count"]["N"] == report["peak_count"]
        assert (tmp_path / "fig1a_l0.csv").exists()
        assert (tmp_path / "fig1b_l0.csv").exists()

    def test_sqwell_higher_l_curves(self, tmp_path):
        assert run(["sqwell", "--l", "1", "--grid", "300"], tmp_path) == 0
        report = json.loads((tmp_path / "sqwell_report.json").read_text())
        jsonschema.validate(report, load_schema())
        for stem in ("fig1a_l1", "fig1a_l1_lorentzian", "fig1b_l1"):
            assert (tmp_path / f"{stem}.csv").exists()
        assert 1 <= report["reconstruction"]["poles_used"] <= 15

    def test_deltashell_report(self, tmp_path):
        assert run(["deltashell"], tmp_path) == 0
        report = json.loads((tmp_path / "deltashell_report.json").read_text())
        jsonschema.validate(report, load_schema())
        resonances = [
            p for p in report["poles"] if p["classification"] == "Resonance"
        ]
        assert len(resonances) == 4
        assert report["count"]["n_R"] == pytest.approx(4.0114, abs=0.2)
        assert (tmp_path / "fig2.csv").exists()
        assert (tmp_path / "fig2_lorentzian.csv").exists()
        assert report["reconstruction"]["poles_used"] == len(resonances)

    def test_csv_format(self, tmp_path):
        assert run(["data"], tmp_path) == 0
        lines = (tmp_path / "fig4.csv").read_bytes().split(b"\n")
        assert lines[0] == b"E,value"
        assert b"\r" not in (tmp_path / "fig4.csv").read_bytes()

    def test_json_format_embeds_curves(self, tmp_path):
        assert run(["data", "--format", "json"], tmp_path) == 0
        assert not (tmp_path / "fig4.csv").exists()
        report = json.loads((tmp_path / "data_report.json").read_text())
        assert report["curves"][0]["energies"]


# floats whose repr the fast writers must reproduce: signed zero, the
# smallest subnormal, exponent forms and integral values
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e300, 1.0, -3.0,
                  2.0**53, 0.1, 1e-7, 123456789.0]
finite_floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(-10**6, 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
# energies stay within 1e300 so that their differences are finite
energy_lists = st.lists(
    st.one_of(st.sampled_from(SPECIAL_FLOATS),
              st.floats(min_value=-1e300, max_value=1e300)),
    max_size=12,
).map(lambda xs: sorted(set(xs)))
json_scalars = st.one_of(
    st.text(), finite_floats, st.integers(), st.booleans(), st.none()
)
# nested report members: tuples (written as arrays), empty containers and
# the non-finite floats the encoder spells NaN, Infinity and -Infinity
json_values = st.recursive(
    st.one_of(json_scalars, st.sampled_from([math.nan, math.inf, -math.inf])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=10,
)


def listed(report: dict) -> dict:
    """The report with each curve's sample arrays as lists, as the oracle
    encoder takes them."""
    entries = [{**entry, "energies": entry["energies"].tolist(),
                "values": entry["values"].tolist()} for entry in report["curves"]]
    return {**report, "curves": entries}


@st.composite
def curve_sets(draw):
    """Two curves sharing one energy array and a third with its own (any
    of them may be empty)."""
    shared = np.array(draw(energy_lists), dtype=float)
    own = draw(energy_lists)
    values = lambda n: draw(st.lists(finite_floats, min_size=n, max_size=n))
    first = Curve(shared, values(len(shared)), label=draw(st.text()))
    second = Curve(first.energies, values(len(shared)), label=draw(st.text()))
    third = Curve(own, values(len(own)), label=draw(st.text()))
    assert second.energies is first.energies
    return [first, second, third]


class TestWriters:
    @given(
        curves=curve_sets(),
        files=st.lists(st.one_of(st.none(), st.text()), min_size=3, max_size=3),
        config=st.dictionaries(st.text(), json_scalars),
        extra=st.dictionaries(st.text(max_size=8), json_values),
    )
    @settings(max_examples=100, deadline=None)
    def test_report_matches_the_encoder(self, curves, files, config, extra):
        # strings from argv or config may hold quotes, newlines, brackets or
        # the keys themselves: the curve text is placed by structure.  The
        # shared energy array also stands one level up, where its numbers
        # take other separators than in the curve entries
        report = {k: v for k, v in extra.items() if k != "curves"}
        report["provenance"] = {"subcommand": "step", "config": config,
                                "grid": curves[0].energies}
        report["count"] = {"n_R": -1.25, "evaluations": 1257}
        entries = []
        for curve, name in zip(curves, files):
            entry = {"label": curve.label, "energies": curve.energies,
                     "values": curve.values}
            if name is not None:
                entry["file"] = name
            entries.append(entry)
        report["curves"] = entries
        got = io.BytesIO()
        cli._write_report(got, report, cli._digit_table(curves))
        expected = listed(report)
        expected["provenance"] = {**report["provenance"],
                                  "grid": curves[0].energies.tolist()}
        assert got.getvalue().decode() == scalar_oracle.report_json(expected)

    @given(curves=curve_sets())
    @settings(max_examples=100, deadline=None)
    def test_csv_matches_the_row_loop(self, tmp_path_factory, curves):
        out = tmp_path_factory.getbasetemp() / "curves"
        args = argparse.Namespace(out=str(out), format="csv")
        stems = [f"curve{i}" for i in range(len(curves))]
        cli._emit({"provenance": {"subcommand": "step"}, "curves": []},
                  list(zip(stems, curves)), args)
        for stem, curve in zip(stems, curves):
            text = scalar_oracle.curve_csv(curve).encode()
            assert (out / f"{stem}.csv").read_bytes() == text

    def test_each_sample_array_is_formatted_once(self, tmp_path, monkeypatch):
        # default step writes six sample arrays: the 2,000-point grid that
        # the reflectivity and delay curves share, their values, and theta's
        # refined grid (the grid plus 2 bisection midpoints) and values.
        # One kernel call formats the five distinct arrays, 10,004 floats,
        # and none of them takes float.__repr__
        calls, fallback = [], []
        digit_rows, repr_rows = cli._digit_rows, cli._repr_rows

        def counted(x):
            calls.append(len(x))
            return digit_rows(x)

        def counted_fallback(rows, x, where):
            fallback.append(len(where))
            return repr_rows(rows, x, where)

        grids = []
        sample_grid = cli._sample_grid

        def kept_grid(*args):
            grids.append(sample_grid(*args))
            return grids[-1]

        monkeypatch.setattr(cli, "_digit_rows", counted)
        monkeypatch.setattr(cli, "_repr_rows", counted_fallback)
        monkeypatch.setattr(cli, "_sample_grid", kept_grid)
        args = cli.build_parser().parse_args(["step", "--out", str(tmp_path)])
        report = args.func(args)
        assert calls == [10004] and fallback == [0]
        refl, theta, delay = report["curves"]
        assert len(theta["energies"]) == len(theta["values"]) == 2002
        # the returned report holds the curves' own arrays, not list copies
        assert refl["energies"] is delay["energies"] is grids[0]
        written = json.loads((tmp_path / "step_report.json").read_text())
        assert written["curves"] == listed(report)["curves"]
        for entry in listed(report)["curves"]:
            lines = (tmp_path / entry["file"]).read_text().splitlines()
            rows = zip(entry["energies"], entry["values"], strict=True)
            assert lines == ["E,value"] + [f"{e!r},{v!r}" for e, v in rows]

    @pytest.mark.parametrize(
        "argv, joins",
        [
            # 3 CSV files, and 5 report arrays: the reflectivity and delay
            # curves share their grid
            (["step"], 8),
            (["step", "--format", "json"], 5),
            # theta needs no bisection here, so all three curves share it
            (["step", "--V1", "0.5208", "--V2", "1.9192", "--a", "1.9742"], 7),
            # the display grid serves the Lorentzian curve too
            (["sqwell", "--l", "1"], 8),
            (["deltashell"], 5),
            (["data"], 3),
        ],
    )
    def test_each_array_and_indentation_is_joined_once(self, tmp_path, monkeypatch,
                                                        argv, joins):
        calls = [0]
        joined = cli._joined

        def counted(parts):
            calls[0] += 1
            return joined(parts)

        monkeypatch.setattr(cli, "_joined", counted)
        assert run(argv, tmp_path) == 0
        assert calls[0] == joins

    @pytest.mark.parametrize(
        "argv, handed, written",
        [
            # at 56-byte rows the joins read 1,344,492 and 304,800 bytes
            (["step"], 640236, 486565),
            (["sqwell", "--l", "1"], 144800, 112610),
        ],
    )
    def test_joins_read_24_byte_rows(self, tmp_path, monkeypatch, argv, handed,
                                     written):
        # every digit row is 24 bytes, so the joins read 1.3 times the bytes
        # they keep
        widths, read, kept = set(), [0], [0]
        digit_rows, joined = cli._digit_rows, cli._joined

        def counted_rows(x):
            rows = digit_rows(x)
            widths.add(rows.shape[1])
            return rows

        def counted_join(parts):
            n = next(len(part) for part in parts if not isinstance(part, bytes))
            read[0] += n * sum(len(part) if isinstance(part, bytes) else part.shape[1]
                               for part in parts)
            out = joined(parts)
            kept[0] += len(out)
            return out

        monkeypatch.setattr(cli, "_digit_rows", counted_rows)
        monkeypatch.setattr(cli, "_joined", counted_join)
        assert run(argv, tmp_path) == 0
        assert widths == {24} and read[0] == handed and kept[0] == written

    @pytest.mark.parametrize(
        "argv, points",
        [
            # display 600, classification 900 and count 309 (or 311) in one
            # pass; the first-peak curve's 200 in another
            (["sqwell", "--l", "1"], [1809, 200]),
            (["sqwell"], [1811, 200]),
            # display 600, classification 1,200 and count 294
            (["deltashell"], [2094]),
        ],
    )
    def test_one_real_axis_pass_per_model_run(self, tmp_path, monkeypatch, argv,
                                               points):
        # the pole search evaluates through poles' own reference; every
        # real-axis evaluation of the delay goes through scattering's
        passes = []
        outgoing = scattering._outgoing

        def counted(model, E, lower=False, series=False):
            if series:
                passes.append(np.size(E))
            return outgoing(model, E, lower, series)

        monkeypatch.setattr(scattering, "_outgoing", counted)
        assert run(argv, tmp_path) == 0
        assert passes == points

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["step", "--grid", "200"],
            ["data"],
            ["sqwell", "--grid", "40"],
            ["sqwell", "--l", "1", "--grid", "40"],
            ["deltashell", "--grid", "40"],
        ],
    )
    def test_files_match_the_oracle_writers(self, tmp_path, fmt, argv):
        args = cli.build_parser().parse_args(
            argv + ["--format", fmt, "--out", str(tmp_path)]
        )
        report = args.func(args)
        # the model reports carry poles: nested diagnostics, None, bools, ints
        assert bool(report["poles"]) == (argv[0] in ("sqwell", "deltashell"))
        # the returned report holds each curve's samples as arrays
        for entry in report["curves"]:
            assert type(entry["energies"]) is np.ndarray
            assert type(entry["values"]) is np.ndarray
            assert len(entry["energies"]) == len(entry["values"]) > 0
        written = (tmp_path / f"{argv[0]}_report.json").read_bytes()
        assert written == scalar_oracle.report_json(listed(report)).encode()
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        if fmt == "json":
            assert csvs == [] and all("file" not in e for e in report["curves"])
            return
        assert csvs == sorted(e["file"] for e in report["curves"])
        for entry in report["curves"]:
            curve = Curve(entry["energies"], entry["values"])
            text = scalar_oracle.curve_csv(curve).encode()
            assert (tmp_path / entry["file"]).read_bytes() == text


def _repr_text(values) -> bytes:
    """float.__repr__ of each value, one per line."""
    return "".join(f"{v!r}\n" for v in values.tolist()).encode()


def _kernel_text(values) -> bytes:
    """The kernel's rows of the values, one per line."""
    return cli._joined([cli._digit_rows(values), b"\n"])


class TestDigitRows:
    """The array kernel against float.__repr__, its oracle."""

    def test_seeded_families_match_repr(self):
        # a million seeded values in blocks of 100,000: uniform samples,
        # log-uniform magnitudes of both signs (most of 1e-40..1e-28 and
        # above 1.4e17 take the fallback), random bit patterns (NaN, inf and
        # subnormals among them) and values rounded to 0-7 decimals, whose
        # digits end in zeros
        rng = np.random.default_rng(20260)
        n = 100_000
        families = {
            "uniform 0..10": lambda: rng.uniform(0, 10, n),
            "uniform 0..170": lambda: rng.uniform(0, 170, n),
            "log-uniform": lambda: rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-40, 20, n),
            "bit patterns": lambda: rng.integers(-2**63, 2**63, n, dtype=np.int64).view(float),
            "rounded": lambda: np.array([round(v, k) for v, k in zip(
                rng.uniform(-2000, 2000, n).tolist(), rng.integers(0, 8, n).tolist())]),
        }
        for name, draw in families.items():
            for _ in range(2):
                x = draw()
                assert _kernel_text(x) == _repr_text(x), name
        # and every decade from 1e-30 to 1e17, fixed and exponent forms
        x = rng.uniform(0, 10, 1000) * 10.0 ** rng.integers(-30, 18, 1000)
        assert _kernel_text(x) == _repr_text(x)

    def test_edges_match_repr(self):
        # powers of two (asymmetric rounding intervals, the fallback) and of
        # ten, the ends of repr's fixed form (1e-4 and 1e16), the kernel's
        # range, subnormals, signed zeros and non-finite values, each with
        # its neighbours on both sides
        edges = np.concatenate([
            np.ldexp(1.0, np.arange(-1074, 1024)),
            [float(f"1e{k}") for k in range(-323, 309)],
            [1e-4, 1e16, 2.0**-93, 2.0**57, 5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, 0.0, math.inf, math.nan],
            SPECIAL_FLOATS,
        ])
        with np.errstate(over="ignore"):
            edges = np.concatenate([edges, np.nextafter(edges, math.inf),
                                    np.nextafter(edges, -math.inf)])
        x = np.concatenate([edges, -edges])
        assert _kernel_text(x) == _repr_text(x)

    def test_longest_text_of_each_layout_ends_inside_its_row(self, monkeypatch):
        # the longest text of each layout: a sign, "0.000" and 17 digits; a
        # sign and 17 digits with the exponents -28 and +16; 16 integer
        # digits and ".0"; and the fallback's 24 characters.  Each is repr's
        # text from the row's first byte, with NUL bytes only after it
        fallback = []
        repr_rows = cli._repr_rows

        def counted(rows, x, where):
            fallback.extend(x[where].tolist())
            return repr_rows(rows, x, where)

        monkeypatch.setattr(cli, "_repr_rows", counted)
        longest = {-0.00012345678901234567: 23, -1.2345678901234567e-28: 23,
                   -1.2345678901234567e16: 23, -1234567890123456.0: 19,
                   -1.7976931348623157e308: 24}
        x = np.array(list(longest))
        rows = cli._digit_rows(x)
        assert rows.shape == (len(x), cli._WIDTH) and cli._WIDTH == 24
        for value, row in zip(x.tolist(), rows):
            text = repr(value).encode()
            assert len(text) == longest[value]
            assert row[:len(text)].tobytes() == text and not row[len(text):].any()
        assert fallback == [-1.7976931348623157e308]

    def test_short_last_block_joins_the_one_before(self, monkeypatch):
        # a last block shorter than half of _KERNEL_BLOCK joins the one
        # before it, so a run's ~2,200 samples take one block
        k = cli._KERNEL_BLOCK
        blocks = []
        digit_block = cli._digit_block

        def counted(x, rows):
            blocks.append(len(x))
            return digit_block(x, rows)

        monkeypatch.setattr(cli, "_digit_block", counted)
        rng = np.random.default_rng(7)
        for n, expected in [(10, [10]), (2200, [2200]),
                            (k + k // 2 - 1, [k + k // 2 - 1]),
                            (k + k // 2, [k, k // 2]), (2 * k + 10, [k, k + 10])]:
            blocks.clear()
            x = rng.uniform(-100, 100, n)
            assert _kernel_text(x) == _repr_text(x)
            assert blocks == expected

    def test_fallback_elements(self, monkeypatch):
        # 0, powers of two, non-finite values and |x| outside the kernel's
        # range take float.__repr__; ordinary values do not
        fallback = []
        repr_rows = cli._repr_rows

        def counted(rows, x, where):
            fallback.extend(x[where].tolist())
            return repr_rows(rows, x, where)

        monkeypatch.setattr(cli, "_repr_rows", counted)
        special = [0.0, -0.0, 0.5, -4.0, math.inf, math.nan, 1e-30, 1e300]
        x = np.array(special + [0.1, 2.5, -3.75e-5, 123456.789, 1e16])
        assert _kernel_text(x) == _repr_text(x)
        assert [repr(v) for v in fallback] == [repr(v) for v in special]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["step", "--grid", "200"], out) == 0
        # the report leaves the output directory out of its provenance, so
        # runs into different directories write the same bytes
        for name in ("fig3_reflectivity.csv", "fig3_theta.csv",
                     "fig3_delay.csv", "step_report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestEnvironmentDefault:
    def test_out_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RESDELAY_OUT", str(tmp_path))
        assert main(["data"]) == 0
        assert (tmp_path / "data_report.json").exists()


class TestEvaluationCounts:
    def test_step_bessel_calls(self, tmp_path, monkeypatch):
        # every bessel_j call takes an array of orders, one per energy (r
        # and its exact delay): on the grid shared by the reflectivity,
        # delay and theta curves, on the 2 midpoints of theta's one
        # bisection pass, and on the dip window.  n_R is read off the theta
        # curve at no further call
        calls = {"scalar": 0, "array": 0, "orders": 0}
        original = reflect.bessel_j

        def counted(nu, z, **kwargs):
            calls["array" if isinstance(nu, np.ndarray) else "scalar"] += 1
            calls["orders"] += np.size(nu)
            return original(nu, z, **kwargs)

        monkeypatch.setattr(reflect, "bessel_j", counted)
        assert run(["step"], tmp_path) == 0
        report = json.loads((tmp_path / "step_report.json").read_text())
        assert report["count"]["evaluations"] == 2002
        assert report["count"]["quadrature_tol"] == 0.0
        assert calls == {"scalar": 0, "array": 3, "orders": 2066}

    def test_one_lorentzian_sum_per_reconstructed_curve(self, tmp_path, monkeypatch):
        # the reconstruction curve and its error report share one evaluation
        calls = [0]
        original = counting.lorentzian_sum

        def counted(poles, E):
            calls[0] += 1
            return original(poles, E)

        for module in (cli, counting):
            monkeypatch.setattr(module, "lorentzian_sum", counted)
        assert run(["deltashell"], tmp_path) == 0
        report = json.loads((tmp_path / "deltashell_report.json").read_text())
        assert report["reconstruction"] is not None
        assert calls[0] == 1

    @pytest.mark.parametrize("argv", [["sqwell", "--l", "1"], ["deltashell"]])
    def test_count_reads_the_phase(self, tmp_path, monkeypatch, argv):
        # n_R is the unwrapped phase change: no quadrature runs, and the
        # count reports its phase samples (294 on default deltashell)
        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(counting, "integrate", forbidden)
        assert run(argv, tmp_path) == 0
        report = json.loads((tmp_path / f"{argv[0]}_report.json").read_text())
        assert report["count"]["quadrature_tol"] == 0.0
        assert report["count"]["evaluations"] == {"sqwell": 309, "deltashell": 294}[argv[0]]

    def test_two_extremum_scans(self, tmp_path, monkeypatch):
        # one scan of the classification curve for all poles, and one of
        # the display curve for the peak count
        scans = []
        original = cli.find_extrema

        def counted(curve):
            scans.append(curve.label)
            return original(curve)

        for module in (cli, poles):
            monkeypatch.setattr(module, "find_extrema", counted)
        assert run(["sqwell", "--l", "1"], tmp_path) == 0
        report = json.loads((tmp_path / "sqwell_report.json").read_text())
        assert len(report["poles"]) > 1
        assert scans == ["classification", "time_delay_l1"]

    @pytest.mark.parametrize("argv", [["sqwell", "--l", "0"], ["deltashell"]])
    def test_pipelines_use_no_closed_form(self, tmp_path, monkeypatch, argv):
        # the closed-form delays are test references: every curve and count
        # comes from time_delay, the delay of the outgoing condition whose
        # zeros the pole search finds
        def forbidden(model, E):
            raise AssertionError("closed-form delay called")

        for model in ("square_well", "delta_shell"):
            monkeypatch.setattr(scattering, f"time_delay_{model}_analytic", forbidden)
        assert run(argv, tmp_path) == 0
