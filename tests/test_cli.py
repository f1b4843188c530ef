"""End-to-end tests of the command-line front-end."""
import dataclasses
import json
from importlib import resources

import jsonschema
import pytest

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
