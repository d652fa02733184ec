import json
import sys
import warnings

import pytest
from mpmath import mp, mpf

from oracles import compare_row_mpf
from subexp import cli
from subexp.asymptotics import log_estimate_explicit, log_estimate_khintchine
from subexp.cli import CSV_HEADER, main
from subexp.errors import TruncationWarning
from subexp.exact import exact_coefficients
from subexp.model import custom_model, make_preset
from subexp.spectrum import derive_spectrum, load_custom_spectrum


@pytest.fixture(autouse=True)
def restore_precision():
    old = mp.dps
    yield
    mp.dps = old


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_standard(capsys):
    code, out, _ = run(capsys, "spectrum", "--model", "standard")
    assert code == 0
    assert "classification: subcritical" in out
    assert "A0: -0.5" in out
    assert "pole 1: rho = 1.0  h = 1.64493406684823" in out


def test_spectrum_roots_critical(capsys):
    code, out, _ = run(capsys, "spectrum", "--model", "roots")
    assert code == 0
    assert "classification: critical" in out
    assert "kappa: -0.888888888888889" in out


def test_spectrum_gcd_error(capsys):
    code, _, err = run(capsys, "spectrum", "--model", "congruent", "--a", "4",
                       "--b", "2")
    assert code == 3
    assert "gcd" in err


def test_congruent_requires_params(capsys):
    code, _, _ = run(capsys, "spectrum", "--model", "congruent")
    assert code == 2


def test_a_and_b_need_the_congruent_model(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"poles": [{"rho": 1, "h": 1}], "A0": 0, "h0": 0,
                                "d_neg": [0]}))
    for model in (["standard"], ["roots"], ["custom", "--spec", str(spec)]):
        for extra in (["--a", "5", "--b", "7"], ["--a", "5"], ["--b", "7"]):
            code, out, err = run(capsys, "predict", "--model", *model, *extra,
                                 "--n", "100")
            assert (code, out) == (2, "")
            assert "--model congruent" in err


def test_predict_standard(capsys):
    code, out, _ = run(capsys, "predict", "--model", "standard", "--n", "100",
                       "--formula", "both")
    assert code == 0
    assert "khintchine log c_n: 19.0711813137749" in out
    assert "explicit log c_n: 19.1102259117952" in out
    assert "e8" in out


def test_predict_log10(capsys):
    _, out, _ = run(capsys, "predict", "--model", "standard", "--n", "100",
                    "--formula", "explicit", "--log10")
    line = [l for l in out.splitlines() if "log10" in l][0]
    val = mpf(line.split(":")[1].strip())
    assert abs(val - mpf("19.1102259117952") / mp.log(10)) < mpf("1e-10")


def test_predict_failure_prints_nothing(capsys):
    # delta_n >= 1 at these n: the Khintchine estimate fails, and no
    # partial answer may reach stdout
    for model, n in (("roots", "3"), ("standard", "1")):
        code, out, err = run(capsys, "predict", "--model", model, "--n", n)
        assert (code, out) == (3, "")
        assert "0 < tau < 1" in err
    code, out, _ = run(capsys, "predict", "--model", "roots", "--n", "3",
                       "--formula", "explicit")
    assert code == 0
    assert out.startswith("model: roots\nn: 3\nexplicit log c_n: ")


def test_predict_failure_names_the_smallest_n(capsys):
    code, out, err = run(capsys, "predict", "--model", "roots", "--n", "5")
    assert (code, out) == (3, "")
    assert "0 < tau < 1" in err
    assert "n >= 6" in err


def test_predict_failure_names_the_largest_n(capsys):
    # delta_n < 1e-12 above n = lhs(1e-12) = 1.645e24 for standard
    code, out, err = run(capsys, "predict", "--model", "standard", "--n", str(10**25))
    assert (code, out) == (3, "")
    assert "needs n < 1644934066847726436472415.2" in err


def test_predict_rejects_n_zero(capsys):
    code, _, _ = run(capsys, "predict", "--model", "standard", "--n", "0")
    assert code == 2


def test_exact_listing(capsys):
    code, out, _ = run(capsys, "exact", "--model", "standard", "--N", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0 1"
    assert lines[-1] == "10 42"
    assert run(capsys, "exact", "--model", "standard", "--N", "-1")[:2] == (2, "")
    # past sys.maxsize: the warning, then a typed error, not a traceback
    code, out, err = run(capsys, "exact", "--model", "standard", "--N", str(10**400))
    assert (code, out) == (3, "")
    assert "warning: N=" in err and "error: need an int N >= 0" in err


def test_exact_oracle_flag(capsys, monkeypatch):
    code, out, err = run(capsys, "exact", "--model", "standard", "--N", "30",
                         "--oracle")
    assert code == 0
    assert "oracle check passed" in err
    code, _, err = run(capsys, "exact", "--model", "roots", "--N", "30", "--oracle")
    assert code == 0
    assert "direct product" in err
    # an oracle that disagrees: exit 4 and no listing
    monkeypatch.setattr(cli, "product_dp", lambda model, N: [0] * (N + 1))
    code, out, err = run(capsys, "exact", "--model", "roots", "--N", "30", "--oracle")
    assert (code, out) == (4, "")
    assert "oracle mismatch (direct product evaluation) at n = [0, 1, 2" in err


def test_exact_congruent(capsys):
    code, out, _ = run(capsys, "exact", "--model", "congruent", "--a", "2",
                       "--b", "1", "--N", "10")
    assert code == 0
    assert out.strip().splitlines()[-1] == "10 10"


def test_compare_csv_shape(capsys):
    code, out, _ = run(capsys, "compare", "--model", "standard", "--grid",
                       "100:300:100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    row = lines[1].split(",")
    assert row[0] == "100"
    # ratio columns reproduce exp(exact - pred) at 15 digits
    exact_log, kh_log, ex_log = map(mpf, row[1:4])
    assert abs(mpf(row[4]) - mp.exp(exact_log - kh_log)) < mpf("1e-13")
    assert abs(mpf(row[5]) - mp.exp(exact_log - ex_log)) < mpf("1e-13")
    assert abs(exact_log - mp.log(190569292)) < mpf("1e-12")


def test_compare_geom_grid(capsys):
    code, out, _ = run(capsys, "compare", "--model", "standard", "--geom",
                       "50:400:2")
    assert code == 0
    ns = [l.split(",")[0] for l in out.strip().splitlines()[1:]]
    assert ns == ["50", "100", "200", "400"]


def test_compare_empty_grid(capsys):
    code, out, _ = run(capsys, "compare", "--model", "standard", "--grid",
                       "50:40:10")
    assert code == 0
    assert out.strip() == CSV_HEADER


def test_compare_failures_write_no_partial_table(tmp_path, capsys):
    code, out, _ = run(capsys, "compare", "--model", "standard", "--grid",
                       "10:20:0")
    assert (code, out) == (2, "")
    code, out, _ = run(capsys, "compare", "--model", "custom", "--spec",
                       str(tmp_path / "absent.json"), "--grid", "10:20:5")
    assert (code, out) == (3, "")
    doc = {"poles": [{"rho": 1, "h": 1.64}], "A0": -0.5, "h0": -0.92,
           "d_neg": [0.04]}
    spec = tmp_path / "nw.json"
    spec.write_text(json.dumps(doc))
    code, out, err = run(capsys, "compare", "--model", "custom", "--spec",
                         str(spec), "--grid", "10:20:5")
    assert (code, out) == (3, "")
    assert "weights" in err
    # the Khintchine estimate has no solution for roots at n <= 5
    code, out, _ = run(capsys, "compare", "--model", "roots", "--grid", "3:8:1")
    assert (code, out) == (3, "")


def test_compare_needs_exactly_one_grid(capsys):
    code, _, _ = run(capsys, "compare", "--model", "standard")
    assert code == 2
    code, _, _ = run(capsys, "compare", "--model", "standard", "--grid",
                     "1:5:1", "--geom", "1:5:2")
    assert code == 2


def test_compare_bad_grid_syntax(capsys):
    code, _, _ = run(capsys, "compare", "--model", "standard", "--grid", "100:200")
    assert code == 2
    code, _, _ = run(capsys, "compare", "--model", "standard", "--geom", "10:100:1")
    assert code == 2
    # a part that is no integer, START < 1, and a STOP past sys.maxsize, which
    # used to reach range() and exit 1 with an OverflowError traceback
    for grid in ("1:5.5:1", "0:5:1", f"1:{10**400}:1"):
        code, out, _ = run(capsys, "compare", "--model", "standard", "--grid", grid)
        assert (code, out) == (2, ""), grid


def test_determinism(capsys):
    a = run(capsys, "compare", "--model", "roots", "--geom", "20:160:2")
    b = run(capsys, "compare", "--model", "roots", "--geom", "20:160:2")
    assert a == b
    a = run(capsys, "spectrum", "--model", "congruent", "--a", "3", "--b", "2")
    b = run(capsys, "spectrum", "--model", "congruent", "--a", "3", "--b", "2")
    assert a == b


def test_verify_passes(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "roots: kappa = -8/9 OK" in out
    assert "congruent(2,1): exponent at n=1000 is pi*sqrt(2n/(3a)) OK" in out
    assert "Hardy-Ramanujan" in out
    assert "FAIL" not in out
    # one row off by more than its tolerance: its FAIL line, the count, exit 4
    checks = cli._verify_checks()
    name, got, want, tol = checks[3]
    checks[3] = (name, got, want + 1, tol)
    monkeypatch.setattr(cli, "_verify_checks", lambda: checks)
    code, out, _ = run(capsys, "verify")
    assert code == 4
    assert f"{name} FAIL: got -0.0833333333333333, want 0.916666666666667" in out
    assert out.count("FAIL") == 1
    assert out.endswith("1 of 33 checks failed\n")


def test_custom_spectrum_file(tmp_path, capsys):
    doc = {
        "poles": [{"rho": 1, "h": "1.6449340668482264364724151666460251892"}],
        "A0": -0.5,
        "h0": "-0.91893853320467274178032973640561763986",
        "d_neg": ["0.041666666666666666666666666666666666667"],
        "weights": [1] * 200,
    }
    spec = tmp_path / "custom.json"
    spec.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "predict", "--model", "custom", "--spec",
                       str(spec), "--n", "100", "--formula", "explicit")
    assert code == 0
    assert "explicit log c_n: 19.1102259117952" in out
    code, out, _ = run(capsys, "exact", "--model", "custom", "--spec", str(spec),
                       "--N", "10")
    assert code == 0
    assert out.strip().splitlines()[-1] == "10 42"
    # one stored d_neg term cannot meet the Khintchine correction tolerance
    with pytest.warns(TruncationWarning):
        code, out, _ = run(capsys, "compare", "--model", "custom", "--spec",
                           str(spec), "--grid", "100:100:1")
    assert code == 0
    assert out.splitlines()[1].startswith("100,19.0655264239274")


def test_custom_spectrum_without_weights_cannot_count(tmp_path, capsys):
    doc = {
        "poles": [{"rho": 1, "h": 1.64}],
        "A0": -0.5,
        "h0": -0.92,
        "d_neg": [0.04],
    }
    spec = tmp_path / "nw.json"
    spec.write_text(json.dumps(doc))
    code, _, err = run(capsys, "exact", "--model", "custom", "--spec", str(spec),
                       "--N", "5")
    assert code == 3
    assert "weights" in err


def test_exact_over_int_str_limit_prints_nothing(tmp_path, capsys):
    # c_37 of this table has over 4300 digits, the default int-to-str limit
    doc = {"poles": [{"rho": 1, "h": 1.64}], "A0": -0.5, "h0": -0.92,
           "d_neg": [0.04], "weights": [10**120] * 60}
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps(doc))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for oracle in ((), ("--oracle",)):
            code, out, err = run(capsys, "exact", "--model", "custom", "--spec",
                                 str(spec), "--N", "50", *oracle)
            assert (code, out) == (3, "")
            assert "4300 digits" in err and "PYTHONINTMAXSTRDIGITS" in err
            assert "oracle" not in err  # it fails before the oracle runs
        sys.set_int_max_str_digits(0)
        code, out, _ = run(capsys, "exact", "--model", "custom", "--spec",
                           str(spec), "--N", "50")
        assert code == 0
        assert len(out.splitlines()) == 51
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "weights, named",
    [(["abc", 1], "weights[0] = 'abc'"), ([1, None], "weights[1] = None"),
     ({"a": 1}, "weights must be a list"), ("12", "weights must be a list"),
     ([True, 1], "weights[0] = True"), ([0.1, 1, 1], "weights[0] = 0.1 (b_1)")],
    ids=("string", "null", "object", "digits", "boolean", "fractional-float"),
)
def test_malformed_weights_fail_before_output(tmp_path, capsys, weights, named):
    doc = {"poles": [{"rho": 1, "h": 1.64}], "A0": -0.5, "h0": -0.92,
           "d_neg": [0.04], "weights": weights}
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc))
    for argv in (("exact", "--N", "5"), ("compare", "--grid", "2:4:1")):
        code, out, err = run(capsys, *argv, "--model", "custom", "--spec", str(spec))
        assert (code, out) == (3, ""), argv
        assert named in err


def test_custom_spectrum_schema_error(tmp_path, capsys):
    assert run(capsys, "spectrum", "--model", "custom")[:2] == (2, "")  # no --spec
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"poles": []}))
    code, _, err = run(capsys, "spectrum", "--model", "custom", "--spec", str(spec))
    assert code == 3
    code, _, _ = run(capsys, "spectrum", "--model", "custom", "--spec",
                     str(tmp_path / "absent.json"))
    assert code == 3
    # an int literal past the int-to-str limit: json raises a plain ValueError
    spec.write_text('{"A0": ' + "9" * 5000 + "}")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (
            ("spectrum",),
            ("predict", "--n", "100"),
            ("exact", "--N", "5"),
            ("compare", "--grid", "10:12:1"),
        ):
            code, out, err = run(capsys, *argv, "--model", "custom", "--spec", str(spec))
            assert (code, out) == (3, ""), argv
            assert str(spec) in err
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("A0", ("nan", float("nan")), ids=("string", "literal"))
def test_custom_spectrum_nan_fails_before_output(tmp_path, capsys, A0):
    doc = {"poles": [{"rho": 1, "h": 1.64}], "A0": A0, "h0": -0.92, "d_neg": [0.04]}
    spec = tmp_path / "nan.json"
    spec.write_text(json.dumps(doc))  # a float NaN becomes the literal NaN
    for argv in (("spectrum",), ("predict", "--n", "100", "--formula", "explicit")):
        code, out, err = run(capsys, *argv, "--model", "custom", "--spec", str(spec))
        assert (code, out) == (3, ""), argv
        assert "A0=nan not finite" in err


def test_require_eligible(tmp_path, capsys):
    doc = {
        "poles": [{"rho": 1.5, "h": 1.0}, {"rho": 2.0, "h": 1.0}],
        "A0": -0.5,
        "h0": -0.9,
        "d_neg": [0.04],
    }
    spec = tmp_path / "inel.json"
    spec.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "spectrum", "--model", "custom", "--spec", str(spec))
    assert code == 0
    assert "classification: ineligible" in out
    code, _, _ = run(capsys, "spectrum", "--model", "custom", "--spec", str(spec),
                     "--require-eligible")
    assert code == 3
    code, _, err = run(capsys, "predict", "--model", "custom", "--spec", str(spec),
                       "--n", "10", "--formula", "explicit")
    assert code == 3


def test_precision_flag(capsys):
    code, out, _ = run(capsys, "predict", "--model", "standard", "--n", "100",
                       "--formula", "explicit", "--precision", "50")
    assert code == 0
    assert mp.dps == 50
    code, _, _ = run(capsys, "predict", "--model", "standard", "--n", "100",
                     "--precision", "5")
    assert code == 2
    code, out, _ = run(capsys, "verify", "--precision", "44")
    assert code == 0
    assert mp.dps == 44
    assert out.endswith("checks passed\n")


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


# Fraction weights give Fraction c_n, which mpf rounds once; a single stored
# D(-l) leaves the correction series short of its tolerance at every n
HALF_WEIGHTS_SPEC = {
    "poles": [{"rho": 1, "h": "0.82246703342411321823620758332301259461"}],
    "A0": "-0.25",
    "h0": "-0.45",
    "d_neg": ["0.020833333333333333333333333333333333333"],
    "weights": ["1/2"] * 60,
}
# c_n above the working precision enter log c_n unrounded: at 15 digits the
# standard rows n = 302, 420, 495 and 503 print differently when they are
# rounded first, and the roots grid reaches c_n of about 240 bits, past the
# 203 of 60 digits
ROW_ORACLE_CASES = {
    "standard": ((), "300:510:1"),
    "roots": ((), "10:500:7"),
    "congruent": ((3, 1), "10:400:13"),
    "custom": (None, "2:60:1"),
}


@pytest.mark.parametrize("log10", (False, True), ids=("log", "log10"))
@pytest.mark.parametrize("dps", (15, 38, 60))
@pytest.mark.parametrize("name", ROW_ORACLE_CASES)
def test_compare_rows_equal_the_mpf_row_oracle(tmp_path, capsys, name, dps, log10):
    params, grid = ROW_ORACLE_CASES[name]
    if params is None:
        spec = tmp_path / "half.json"
        spec.write_text(json.dumps(HALF_WEIGHTS_SPEC))
        selector = ["--model", "custom", "--spec", str(spec)]
    else:
        selector = ["--model", name]
        if params:
            selector += ["--a", str(params[0]), "--b", str(params[1])]
    start, stop, step = (int(v) for v in grid.split(":"))
    ns = range(start, stop + 1, step)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "compare", *selector, "--grid", grid,
                           "--precision", str(dps), *(["--log10"] if log10 else []))
        with mp.workdps(dps):
            if params is None:
                model = custom_model(HALF_WEIGHTS_SPEC["weights"])
                sd = load_custom_spectrum(HALF_WEIGHTS_SPEC)
            else:
                model = make_preset(name, *params)
                sd = derive_spectrum(model)
            series = exact_coefficients(model, ns[-1])
            log_scale = mp.log(10) if log10 else mpf(1)
            want = [CSV_HEADER] + [
                compare_row_mpf(n, series[n], log_estimate_khintchine(sd, n).log_value,
                                log_estimate_explicit(sd, n).log_value, log_scale)
                for n in ns]
    assert code == 0
    assert out.splitlines() == want
    assert {w.category for w in caught} == (
        {TruncationWarning} if name == "custom" else set())


def test_compare_makes_each_estimate_once_per_row_through_cli(monkeypatch, capsys):
    # the benchmark's compare-cli pair timer wraps these two cli attributes
    calls = []
    for name in ("log_estimate_khintchine", "log_estimate_explicit"):
        def spy(sd, n, _name=name, _estimate=getattr(cli, name)):
            calls.append((_name, n))
            return _estimate(sd, n)
        monkeypatch.setattr(cli, name, spy)
    code, _, _ = run(capsys, "compare", "--model", "roots", "--grid", "10:20:5")
    assert code == 0
    assert calls == [(name, n) for n in (10, 15, 20)
                     for name in ("log_estimate_khintchine", "log_estimate_explicit")]
