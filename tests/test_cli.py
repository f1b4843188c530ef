"""End-to-end tests of the command-line front-end."""
import dataclasses
import json
from importlib import resources

import jsonschema
import pytest

import numpy as np

from resdelay import cli, counting, reflect
from resdelay.cli import main
from resdelay.counting import CountReport


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

    def test_parse_error_is_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("W_MeV,delta_deg\n1,1\n2,oops\n3,3\n4,4\n5,5\n")
        assert run(["data", "--input", str(bad)], tmp_path) == 2

    @pytest.mark.parametrize("l", ["0", "1"])
    def test_grid_at_interior_threshold(self, tmp_path, l):
        # --emin 1 puts the first grid point at E = -V0, where p = 0
        args = ["sqwell", "--V0", "-1", "--a", "1", "--emin", "1", "--emax", "10"]
        assert run(args + ["--l", l], tmp_path) == 0

    def test_narrow_l5_resonance_is_integrable(self, tmp_path):
        # the S-matrix central difference left noise that drove the
        # counting quadrature to MaxDepthExceeded (exit 3) here
        args = ["sqwell", "--l", "5", "--V0", "2.5836", "--a", "6.9964"]
        assert run(args, tmp_path) == 0

    def test_step_dip_is_integrable(self, tmp_path):
        # the finite-difference noise of this delay at its dip must not
        # exhaust the counting quadrature's depth (exit 3)
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


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["step", "--grid", "200"], out) == 0
        # the JSON report echoes the output path in provenance, so the
        # byte-identity guarantee applies to the emitted curves
        for name in ("fig3_reflectivity.csv", "fig3_theta.csv",
                     "fig3_delay.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        ra = json.loads((a / "step_report.json").read_text())
        rb = json.loads((b / "step_report.json").read_text())
        del ra["provenance"]["config"]["out"], rb["provenance"]["config"]["out"]
        assert ra == rb


class TestEnvironmentDefault:
    def test_out_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RESDELAY_OUT", str(tmp_path))
        assert main(["data"]) == 0
        assert (tmp_path / "data_report.json").exists()


class TestEvaluationCounts:
    def test_step_bessel_calls(self, tmp_path, monkeypatch):
        # the counting quadrature evaluates the delay one energy at a time
        # (3 scalar r(E), so 3 bessel_j calls, per evaluation); every fixed
        # grid is one array call.  A per-point loop over the grids made
        # 12,627 scalar calls here
        calls = {"scalar": 0, "array": 0}
        original = reflect.bessel_j

        def counted(nu, z):
            calls["array" if isinstance(nu, np.ndarray) else "scalar"] += 1
            return original(nu, z)

        monkeypatch.setattr(reflect, "bessel_j", counted)
        assert run(["step"], tmp_path) == 0
        report = json.loads((tmp_path / "step_report.json").read_text())
        assert calls["scalar"] == 3 * report["count"]["evaluations"]
        assert calls["array"] <= 10

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
