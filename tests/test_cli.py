import json

import pytest
from mpmath import mp, mpf

from subexp.cli import CSV_HEADER, main
from subexp.errors import TruncationWarning


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


def test_predict_rejects_n_zero(capsys):
    code, _, _ = run(capsys, "predict", "--model", "standard", "--n", "0")
    assert code == 2


def test_exact_listing(capsys):
    code, out, _ = run(capsys, "exact", "--model", "standard", "--N", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "0 1"
    assert lines[-1] == "10 42"


def test_exact_oracle_flag(capsys):
    code, out, err = run(capsys, "exact", "--model", "standard", "--N", "30",
                         "--oracle")
    assert code == 0
    assert "oracle check passed" in err
    code, _, err = run(capsys, "exact", "--model", "roots", "--N", "30", "--oracle")
    assert code == 0
    assert "direct product" in err


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
    code, out, _ = run(capsys, "compare", "--model", "standard", "--N", "5",
                       "--grid", "10:20:5")
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


def test_determinism(capsys):
    a = run(capsys, "compare", "--model", "roots", "--geom", "20:160:2")
    b = run(capsys, "compare", "--model", "roots", "--geom", "20:160:2")
    assert a == b
    a = run(capsys, "spectrum", "--model", "congruent", "--a", "3", "--b", "2")
    b = run(capsys, "spectrum", "--model", "congruent", "--a", "3", "--b", "2")
    assert a == b


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "roots: kappa = -8/9 OK" in out
    assert "congruent(2,1): exponent at n=1000 is pi*sqrt(2n/(3a)) OK" in out
    assert "Hardy-Ramanujan" in out
    assert "FAIL" not in out


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


def test_custom_spectrum_schema_error(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"poles": []}))
    code, _, err = run(capsys, "spectrum", "--model", "custom", "--spec", str(spec))
    assert code == 3
    code, _, _ = run(capsys, "spectrum", "--model", "custom", "--spec",
                     str(tmp_path / "absent.json"))
    assert code == 3


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


def test_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("SUBEXP_PRECISION", "44")
    code, _, _ = run(capsys, "verify")
    assert code == 0
    assert mp.dps == 44
    monkeypatch.setenv("SUBEXP_PRECISION", "not-a-number")
    code, _, _ = run(capsys, "verify")
    assert code == 2


def test_unknown_command(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
