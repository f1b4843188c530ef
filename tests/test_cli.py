"""End-to-end tests of the command-line front-end."""
import argparse
import dataclasses
import json
import math
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import scalar_oracle

from resdelay import cli, counting, reflect, scattering
from resdelay.cli import main
from resdelay.counting import CountReport
from resdelay.numerics import Curve


def load_schema():
    text = resources.files("resdelay").joinpath("report_schema.json").read_text()
    return json.loads(text)


def run(args, out):
    return main(args + ["--out", str(out)])


class TestExitCodes:
    def test_success(self, tmp_path):
        assert run(["data"], tmp_path) == 0

    def test_validation_error(self, tmp_path):
        # emax below the barrier top is a config error
        assert run(["step", "--emax", "1.0"], tmp_path) == 2

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_step_grid_below_two_is_validation(self, tmp_path, grid):
        # the theta curve needs two samples for a phase change
        assert run(["step", "--grid", grid], tmp_path) == 2

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
        # the S-matrix central difference left noise that drove the
        # counting quadrature to MaxDepthExceeded (exit 3) here
        args = ["sqwell", "--l", "5", "--V0", "2.5836", "--a", "6.9964"]
        assert run(args, tmp_path) == 0

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
        extra=st.dictionaries(st.text(max_size=8), json_scalars),
    )
    @settings(max_examples=100, deadline=None)
    def test_report_matches_the_encoder(self, curves, files, config, extra):
        # strings from argv or config may hold quotes, newlines, brackets or
        # the keys themselves: the curve text is placed by structure
        report = {k: v for k, v in extra.items() if k != "curves"}
        report["provenance"] = {"subcommand": "step", "config": config}
        report["count"] = {"n_R": -1.25, "evaluations": 1257}
        entries = []
        for curve, name in zip(curves, files):
            entry = curve.to_dict()
            if name is not None:
                entry["file"] = name
            entries.append(entry)
        report["curves"] = entries
        got = cli._report_json(report, curves, cli._digit_table(curves))
        assert got == scalar_oracle.report_json(report)

    @given(curves=curve_sets())
    @settings(max_examples=100, deadline=None)
    def test_csv_matches_the_row_loop(self, tmp_path_factory, curves):
        out = tmp_path_factory.getbasetemp() / "curves"
        args = argparse.Namespace(out=str(out), format="csv")
        stems = [f"curve{i}" for i in range(len(curves))]
        cli._emit({"provenance": {"subcommand": "step"}}, list(zip(stems, curves)),
                  args)
        for stem, curve in zip(stems, curves):
            text = scalar_oracle.curve_csv(curve).encode()
            assert (out / f"{stem}.csv").read_bytes() == text

    def test_each_sample_array_is_formatted_once(self, tmp_path, monkeypatch):
        # step writes six sample arrays, and its reflectivity and delay
        # curves share one energy array: five are formatted, once each, and
        # both CSV files and the report take their fields from that one table
        tables = []
        original = cli._digit_table

        def recorded(curves):
            tables.append((curves, original(curves)))
            return tables[-1][1]

        monkeypatch.setattr(cli, "_digit_table", recorded)
        assert run(["step", "--grid", "200"], tmp_path) == 0
        ((curves, digits),) = tables
        refl, theta, delay = curves
        assert refl.energies is delay.energies
        assert len(digits) == 5
        report = json.loads((tmp_path / "step_report.json").read_text())
        for curve, entry in zip(curves, report["curves"], strict=True):
            energies, values = digits[id(curve.energies)], digits[id(curve.values)]
            assert list(map(repr, entry["energies"])) == energies
            assert list(map(repr, entry["values"])) == values
            lines = (tmp_path / entry["file"]).read_text().splitlines()
            assert lines == ["E,value"] + [f"{e},{v}" for e, v in zip(energies, values)]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [["step", "--grid", "200"], ["data"]])
    def test_files_match_the_oracle_writers(self, tmp_path, fmt, argv):
        args = cli.build_parser().parse_args(
            argv + ["--format", fmt, "--out", str(tmp_path)]
        )
        report = args.func(args)
        # the returned report still holds each curve's samples as lists
        for entry in report["curves"]:
            assert type(entry["energies"]) is list and type(entry["values"]) is list
            assert len(entry["energies"]) == len(entry["values"]) > 0
        written = (tmp_path / f"{argv[0]}_report.json").read_bytes()
        assert written == scalar_oracle.report_json(report).encode()
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        if fmt == "json":
            assert csvs == [] and all("file" not in e for e in report["curves"])
            return
        assert csvs == sorted(e["file"] for e in report["curves"])
        for entry in report["curves"]:
            curve = Curve(entry["energies"], entry["values"])
            text = scalar_oracle.curve_csv(curve).encode()
            assert (tmp_path / entry["file"]).read_bytes() == text


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
        # every bessel_j call takes an array of orders, and every delay call
        # is one of them (r at E and E +- h, stacked): the delay curve and
        # its dip refinement, plus the reflectivity grid, the theta grid and
        # the reflectivity refinement.  n_R is read off the theta curve at no
        # further call
        calls = {"scalar": 0, "array": 0}
        original = reflect.bessel_j

        def counted(nu, z):
            calls["array" if isinstance(nu, np.ndarray) else "scalar"] += 1
            return original(nu, z)

        monkeypatch.setattr(reflect, "bessel_j", counted)
        assert run(["step"], tmp_path) == 0
        report = json.loads((tmp_path / "step_report.json").read_text())
        assert report["count"]["evaluations"] == 600
        assert report["count"]["quadrature_tol"] == 0.0
        assert calls == {"scalar": 0, "array": 5}

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
