"""Byte-for-byte stdout and exit code of preset CLI commands.

Each case's stdout is stored in tests/golden/<name>.out with its exit
code on the first line.  After an intended output change, rewrite the
files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from mpmath import mp

from subexp.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "spectrum_standard": ["spectrum", "--model", "standard"],
    "spectrum_roots": ["spectrum", "--model", "roots"],
    "spectrum_congruent_3_1": ["spectrum", "--model", "congruent", "--a", "3",
                               "--b", "1"],
    "predict_standard_100": ["predict", "--model", "standard", "--n", "100"],
    "predict_roots_1000_log10": ["predict", "--model", "roots", "--n", "1000",
                                 "--log10"],
    "predict_congruent_10_7_explicit": ["predict", "--model", "congruent", "--a",
                                        "10", "--b", "7", "--n", "100000",
                                        "--formula", "explicit"],
    "exact_standard_oracle": ["exact", "--model", "standard", "--N", "60",
                              "--oracle"],
    "exact_roots_oracle": ["exact", "--model", "roots", "--N", "40", "--oracle"],
    "compare_roots_grid": ["compare", "--model", "roots", "--grid", "10:100:15"],
    "compare_congruent_geom_log10": ["compare", "--model", "congruent", "--a",
                                     "3", "--b", "1", "--geom", "10:1000:3",
                                     "--log10"],
    "verify": ["verify"],
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return f"exit {code}\n" + out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_preset_stdout_is_unchanged(name):
    want = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert _run(CASES[name]) == want


def test_custom_spectrum_prints_derived_theta(tmp_path):
    # theta = h0 + euler_gamma*A0 is printed even when the document has none
    doc = {"poles": [{"rho": 1, "h": 1.5}], "A0": -0.5, "h0": -0.9,
           "d_neg": [0.04]}
    spec = tmp_path / "custom.json"
    spec.write_text(json.dumps(doc))
    out = _run(["spectrum", "--model", "custom", "--spec", str(spec)])
    lines = out.splitlines()
    assert lines[:7] == [
        "exit 0",
        "model: custom",
        "r: 1",
        "pole 1: rho = 1.0  h = 1.5",
        "A0: -0.5",
        "h0: -0.9",
        "theta: " + mp.nstr(mp.mpf(-0.9) - mp.euler / 2, 15),
    ]
    assert lines[7].startswith("D(-l), l = 1..1: ")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_text(_run(argv), encoding="utf-8")
