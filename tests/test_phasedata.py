"""Unit tests for phase-shift-table ingestion and resonance extraction."""
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle

from resdelay import phasedata
from resdelay.errors import MonotonicityError, NoPeak, ParseError, TooFewRows
from resdelay.numerics import Curve
from resdelay.phasedata import (
    PhaseTable,
    delay_from_table,
    extract_resonance,
    load_bundled_p33,
    parse_phase_table,
    synth_phase_table,
)

GOOD = """# comment line
W_MeV,delta_deg
1100,10.0
1110,12.0
1120,15.0
1130,19.0
1140,24.0
1150,30.0
"""


class TestParsePhaseTable:
    def test_well_formed(self):
        t = parse_phase_table(GOOD)
        assert len(t) == 6
        assert t.delta_deg[0] == 10.0  # degrees preserved

    def test_too_few_rows(self):
        text = "W_MeV,delta_deg\n1,1\n2,2\n3,3\n"
        with pytest.raises(TooFewRows):
            parse_phase_table(text)

    def test_monotonicity(self):
        bad = GOOD.replace("1130,19.0", "1115,19.0")
        with pytest.raises(MonotonicityError) as err:
            parse_phase_table(bad)
        assert err.value.line_number == 6

    def test_duplicate_w_rejected(self):
        bad = GOOD.replace("1130,19.0", "1120,19.0")
        with pytest.raises(MonotonicityError):
            parse_phase_table(bad)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_phase_table("energy,phase\n1,1\n2,2\n3,3\n4,4\n5,5\n")

    def test_non_numeric_field_carries_line_number(self):
        bad = GOOD.replace("1140,24.0", "1140,abc")
        with pytest.raises(ParseError) as err:
            parse_phase_table(bad)
        assert err.value.line_number == 7

    @pytest.mark.parametrize("first, second, message", [
        ("1110,abc", "1130,19.0,1", "non-numeric field in '1110,abc'"),
        ("1110,12.0,1", "1130,abc", "expected 2 fields, got 3"),
    ])
    def test_first_bad_line_wins(self, first, second, message):
        # a field count and a number that does not parse, on lines 4 and 6:
        # the error is line 4's, whichever kind each is
        bad = GOOD.replace("1110,12.0", first).replace("1130,19.0", second)
        with pytest.raises(ParseError) as err:
            parse_phase_table(bad)
        assert type(err.value) is ParseError
        assert err.value.line_number == 4
        assert str(err.value) == f"line 4: {message}"

    @pytest.mark.parametrize("first, second", [
        ("1110,nan", "1130,19.0"),
        ("inf,12.0", "1130,nan"),
        ("1110,-inf", "nan,19.0"),
    ])
    def test_non_finite_field_names_its_line(self, first, second):
        # float() reads nan and inf; an inf in W reached the curve check
        # ("curve samples must be finite", no line, numpy warnings first)
        # and a nan in W a MonotonicityError with no line
        bad = GOOD.replace("1110,12.0", first).replace("1130,19.0", second)
        with pytest.raises(ParseError) as err:
            parse_phase_table(bad)
        assert type(err.value) is ParseError
        assert str(err.value) == f"line 4: non-finite field in {first!r}"

    def test_fields_padded_with_whitespace(self):
        padded = parse_phase_table(GOOD.replace("1120,15.0", "  1120 ,\t15.0 "))
        plain = parse_phase_table(GOOD)
        assert padded.W.tobytes() == plain.W.tobytes()
        assert padded.delta_deg.tobytes() == plain.delta_deg.tobytes()

    def test_err_column(self):
        text = "W_MeV,delta_deg,err_deg\n" + "\n".join(
            f"{1100 + 10 * i},{float(i)},0.5" for i in range(6)
        )
        t = parse_phase_table(text)
        assert t.err_deg is not None
        assert np.all(t.err_deg == 0.5)

    def test_delta_magnitude_cap(self):
        bad = GOOD.replace("1150,30.0", "1150,400.0")
        with pytest.raises(ParseError):
            parse_phase_table(bad)


# digits that float() reads besides the ASCII ones
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_FULL_WIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))

_BAD_FIELDS = ["abc", "", "nan", "inf", "-inf", "1e999", "12 # note", "1,5"]
_BAD_HEADERS = ["W_MeV,delta", "energy,phase", "W_MeV,delta_deg,err",
                "W_MeV,delta_deg,err_deg,note", "delta_deg,W_MeV", "W_MeV"]


@st.composite
def field_text(draw, value: float) -> str:
    """``value`` as a CSV field, in one of the spellings float() reads,
    with or without whitespace around it."""
    text = draw(st.sampled_from([
        repr(value),
        f"{value:.3f}",
        f"{value:.6e}",
        f"{round(value):_}",
        f"{value:.2f}".translate(_ARABIC_INDIC),
        f"{value:.2f}".translate(_FULL_WIDTH),
    ]))
    pad = st.sampled_from(["", " ", "\t", "  "])
    return draw(pad) + text + draw(pad)


@st.composite
def phase_table_texts(draw) -> str:
    """CSV texts of phase tables: valid ones with comments, blank lines and
    CRLF endings between their rows, and ones with a bad header, a row
    with a missing or an extra field, a field that is no number or is not
    finite, a repeated or falling W, or too few rows."""
    ncol = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 12))
    w = (1000.0 + np.cumsum(draw(st.lists(
        st.floats(0.125, 40.0), min_size=n, max_size=n)))).tolist()
    rows = []
    for i in range(n):
        values = [w[i], draw(st.floats(-370.0, 370.0)), draw(st.floats(0.0, 5.0))]
        rows.append([draw(field_text(v)) for v in values[:ncol]])
    defects = draw(st.lists(st.tuples(
        st.integers(0, n - 1),
        st.sampled_from(["missing", "extra", "field", "repeat", "fall"])),
        max_size=2)) if n else []
    # a row's values first, then its field count
    for i, kind in sorted(defects, key=lambda d: d[1] in ("missing", "extra")):
        if kind == "missing":
            rows[i].pop()
        elif kind == "extra":
            rows[i].append(draw(field_text(1.0)))
        elif kind == "field":
            rows[i][draw(st.integers(0, ncol - 1))] = draw(st.sampled_from(_BAD_FIELDS))
        elif i:
            rows[i][0] = rows[i - 1][0] if kind == "repeat" else repr(w[i - 1] - 1.0)
    header = ["W_MeV", "delta_deg", "err_deg"][:ncol]
    if draw(st.integers(0, 9)) == 0:
        header = [draw(st.sampled_from(_BAD_HEADERS))]
    lines = [", ".join(header) if draw(st.booleans()) else ",".join(header)]
    lines += [",".join(row) for row in rows]
    between = st.sampled_from(["", "   ", "# comment", "  # indented, with commas",
                               "\t#"])
    text = []
    for line in lines:
        text += draw(st.lists(between, max_size=2))
        text.append(draw(st.sampled_from(["", " ", "  "])) + line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(text) + draw(st.sampled_from(["", end]))


def _outcome(parse, text):
    """A parser's table as the bytes of its arrays, or its error as the
    type, message and line number."""
    try:
        t = parse(text, source="s")
    except ParseError as exc:
        return type(exc), str(exc), exc.line_number
    arrays = (t.W, t.delta_deg) + (() if t.err_deg is None else (t.err_deg,))
    return [a.view(np.uint64).tobytes() for a in arrays], t.source


class TestParseAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(phase_table_texts())
    def test_same_table_or_error(self, text):
        # the bulk parse and the per-line one of the oracle give the same
        # floats bit for bit, or the same error at the same line
        assert _outcome(parse_phase_table, text) == _outcome(
            scalar_oracle.parse_phase_table, text)

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n\n", GOOD, GOOD.replace("\n", "\r\n"),
        GOOD.replace("1120,15.0", "  # 1120,15.0"),
        GOOD.replace("1120,15.0", "1_120,\u0661\u0665.0"),
        GOOD.replace("1120,15.0", "1120,15.0,"), GOOD.replace("1120,15.0", "1120"),
        GOOD.replace("W_MeV,delta_deg", "W_MeV ,\tdelta_deg , err_deg"),
    ], ids=repr)
    def test_edge_texts(self, text):
        assert _outcome(parse_phase_table, text) == _outcome(
            scalar_oracle.parse_phase_table, text)


def _large_table(rows: int) -> str:
    w = 1000.0 + 0.1 * np.arange(rows)
    return "W_MeV,delta_deg\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in zip(w.tolist(), np.sin(w / 7.0).tolist()))


class TestParseCounts:
    TEXT = _large_table(5000)

    @staticmethod
    def collections(parse) -> int:
        """The garbage collections that one ``parse`` of the table starts,
        after a full collection."""
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(count)
        try:
            parse(TestParseCounts.TEXT)
        finally:
            gc.callbacks.remove(count)
        return len(starts)

    def test_no_garbage_collection(self):
        # the per-line parse built a (line number, line) tuple and a field
        # list per row: 10,000 containers, 14 generation-0 collections
        assert self.collections(scalar_oracle.parse_phase_table) > 0
        assert self.collections(parse_phase_table) == 0

    def test_one_float_call_per_field(self, monkeypatch):
        calls = []

        def counted(text):
            calls.append(None)
            return float(text)

        monkeypatch.setattr(phasedata, "float", counted, raising=False)
        table = parse_phase_table(self.TEXT)
        assert len(table) == 5000
        assert len(calls) == 10_000


class TestBundledTable:
    def test_loads_and_validates(self):
        t = load_bundled_p33()
        assert len(t) >= 40
        assert t.W[0] < 1232 < t.W[-1]


class TestDelayFromTable:
    def test_constant_phase_gives_zero(self):
        t = PhaseTable(
            W=np.linspace(1000, 1100, 11), delta_deg=np.full(11, 25.0)
        )
        curve = delay_from_table(t)
        assert np.allclose(curve.values, 0.0, atol=1e-15)

    def test_linear_phase_gives_constant(self):
        w = np.linspace(1000, 1100, 11)
        c = 0.002  # rad/MeV
        t = PhaseTable(W=w, delta_deg=np.degrees(c * w))
        curve = delay_from_table(t)
        assert np.allclose(curve.values, c, rtol=1e-10)

    def test_synthetic_breit_wigner(self):
        t = synth_phase_table(1232.0, 120.0, 0.0, 800.0, 1700.0, 901)
        curve = delay_from_table(t)
        i = int(np.argmax(curve.values))
        assert curve.energies[i] == pytest.approx(1232.0, abs=1.0)
        assert curve.values[i] == pytest.approx(2.0 / 120.0, rel=0.02)

    def test_even_window_rejected(self):
        t = parse_phase_table(GOOD)
        with pytest.raises(ValueError):
            delay_from_table(t, smooth_window=2)

    def test_smoothing_keeps_symmetric_peak_in_place(self):
        t = synth_phase_table(1232.0, 120.0, 0.0, 1000.0, 1460.0, 231)
        step = t.W[1] - t.W[0]
        raw = delay_from_table(t, smooth_window=1)
        for win in (3, 5):
            smoothed = delay_from_table(t, smooth_window=win)
            i0 = int(np.argmax(raw.values))
            i1 = int(np.argmax(smoothed.values))
            assert abs(raw.energies[i0] - smoothed.energies[i1]) <= step

    def test_degree_radian_scaling(self):
        # the same numbers labelled radians give exactly 180/pi times less
        w = np.linspace(1000, 1200, 21)
        vals = 30 + 20 * np.sin(w / 70)
        t = PhaseTable(W=w, delta_deg=vals)
        as_deg = delay_from_table(t).values
        direct = np.gradient(np.radians(vals), w)
        assert np.allclose(as_deg, direct, rtol=1e-12)

    def test_unwrap_idempotence(self):
        # phases wrapped into [-90, 90) degrees unwrap back to the original
        # table, so both give the same delay curve
        rng = np.random.default_rng(7)
        w = np.linspace(1000.0, 1200.0, 100)
        raw = np.degrees(np.cumsum(rng.normal(0, 0.3, 100)))
        assert np.max(np.abs(raw)) <= 360.0
        wrapped = (raw + 90.0) % 180.0 - 90.0
        for win in (1, 3):
            a = delay_from_table(PhaseTable(W=w, delta_deg=raw), win)
            b = delay_from_table(PhaseTable(W=w, delta_deg=wrapped), win)
            assert np.allclose(a.values, b.values, rtol=0, atol=1e-12)


class TestExtractResonance:
    def test_synthetic_round_trip(self):
        m0, g0 = 1232.0, 120.0
        t = synth_phase_table(m0, g0, 0.0, m0 - 10 * g0, m0 + 10 * g0, 2401)
        curve = delay_from_table(t)
        rep = extract_resonance(curve, float(t.W[0]), float(t.W[-1]))
        assert rep.M == pytest.approx(m0, abs=1.0)
        assert rep.Gamma == pytest.approx(g0, abs=3.0)
        assert 0.92 <= rep.n_R <= 1.0

    def test_truncation_lowers_n_r(self):
        m0, g0 = 1232.0, 120.0
        t = synth_phase_table(m0, g0, 0.0, m0 - g0 / 2, m0 + 10 * g0, 1201)
        curve = delay_from_table(t)
        rep = extract_resonance(curve, float(t.W[0]), float(t.W[-1]))
        assert rep.n_R < 0.85

    def test_monotone_curve_raises(self):
        w = np.linspace(0, 10, 50)
        with pytest.raises(NoPeak):
            extract_resonance(Curve(w, w**2), 0.0, 10.0)

    def test_fundamental_theorem_consistency(self):
        # integral of the derivative recovers the phase change
        t = synth_phase_table(1232.0, 120.0, 1e-4, 1100.0, 1500.0, 801)
        curve = delay_from_table(t)
        rep = extract_resonance(curve, 1100.0, 1500.0)
        delta = np.radians(t.delta_deg)
        expected = (delta[-1] - delta[0]) / math.pi
        assert rep.n_R == pytest.approx(expected, rel=0.02)


class TestSynthPhaseTable:
    def test_phase_is_90_degrees_at_resonance(self):
        t = synth_phase_table(1232.0, 120.0, 0.0, 1100.0, 1400.0, 61)
        i = int(np.argmin(np.abs(t.W - 1232.0)))
        assert t.delta_deg[i] == pytest.approx(90.0, abs=2.0)

    def test_far_below_resonance_phase_vanishes(self):
        t = synth_phase_table(5000.0, 10.0, 0.0, 100.0, 200.0, 21)
        assert np.all(np.abs(t.delta_deg) < 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_phase_table(1232.0, -5.0, 0.0, 1100.0, 1400.0, 61)
        with pytest.raises(ValueError):
            synth_phase_table(1232.0, 120.0, 0.0, 1100.0, 1400.0, 3)


_W = np.linspace(1100.0, 1400.0, 6)


@pytest.mark.parametrize(
    "call, exc, match",
    [
        (lambda: PhaseTable(_W[:4], np.zeros(4)), TooFewRows, "at least 5 rows"),
        (lambda: PhaseTable(_W[::-1], np.zeros(6)), MonotonicityError, "increasing"),
        (lambda: PhaseTable(_W, np.full(6, 361.0)), ParseError, "360 degrees"),
        (lambda: phasedata.ResonanceReport(1500.0, 100.0, 0.9, (1100.0, 1400.0)),
         ValueError, "outside the analysis window"),
        (lambda: phasedata.ResonanceReport(1200.0, 0.0, 0.9, (1100.0, 1400.0)),
         ValueError, "Gamma must be positive"),
        (lambda: extract_resonance(Curve(_W, np.ones(6)), 1100.0, 1150.0),
         ValueError, "fewer than 3 samples"),
    ],
    ids=["table-4-rows", "table-decreasing", "table-beyond-360", "report-M-outside",
         "report-Gamma-zero", "window-2-samples"],
)
def test_direct_construction_checks(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
