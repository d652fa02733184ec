"""The error contract over the whole public surface and the CLI.

Every callable in subexp.__all__, and ModelSpec.b and ModelSpec.weights,
returns or raises a SubexpError whatever scalar it is given, and a value of
the wrong type always raises: a bool, float, str or anything but an int for
an int parameter; a bool, str, None, complex or tuple for a real one.
subexp.cli.main exits 0, 2, 3 or 4 and prints nothing to stdout unless it
exits 0.  Valid draws stay small (N <= 50, n <= 1e8, --precision <= 60), so
that no case computes for long.
"""

import contextlib
import io
import json
import math
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import subexp
from subexp import (
    EXPONENTIAL,
    MULTISET,
    SELECTION,
    BaseFunction,
    ExactSeries,
    KhintchineSolution,
    LambdaSeries,
    LogEstimate,
    ModelSpec,
    Pole,
    SpectralData,
    SubexpError,
    TruncationWarning,
    custom_model,
    derive_spectrum,
    exact_coefficients,
    kappa,
    khintchine_lhs,
    lambda_coeffs,
    llt_condition_report,
    load_custom_spectrum,
    log_estimate_explicit,
    log_estimate_khintchine,
    make_preset,
    pentagonal_oracle,
    product_dp,
    q_constant,
    remainder_delta,
    solve_delta,
    to_decimal,
    to_mpf,
    validate_spectrum,
)
from subexp.cli import main
from subexp.model import QuasiPolynomial

BIG = 10**400
HUGE = 10**5000  # past the int-to-str limit (4300 digits), where its repr raises
_DOC = {"poles": [{"rho": 1, "h": 1}], "A0": 0, "h0": 0, "d_neg": [0]}
# each value lies outside the domain of some parameter
POOL = (None, True, False, 2.5, math.nan, math.inf, -math.inf, "5", "x",
        Fraction(5, 2), 1j, -3, BIG, (), (1, 2, 3), ((1, 2, 3),))

MODELS = (
    make_preset("standard"),
    make_preset("roots"),
    make_preset("congruent", 3, 1),
    custom_model([1, Fraction(1, 2), 2]),  # b_j undefined beyond j = 3
    custom_model([1, 0, 2, 1], base=SELECTION),
    ModelSpec("rule", MULTISET, lambda j: j % 3),
    ModelSpec("exp", EXPONENTIAL, lambda j: Fraction(1, j)),
)
SPECTRA = tuple(derive_spectrum(m) for m in MODELS[:3]) + (
    SpectralData("ineligible", ((1.5, 1), (2, 1)), 0, 0, (0,)),
)
ESTIMATES = tuple(f(sd, 1000) for sd in SPECTRA[:3]
                  for f in (log_estimate_khintchine, log_estimate_explicit))


def not_int(v):
    # every int parameter starts at 0 or above, and no size passes sys.maxsize
    return type(v) is not int or not 0 <= v <= sys.maxsize


def not_real(v):
    return v is None or isinstance(v, (bool, str, complex, tuple))


def not_datum(v):  # a spectrum field or a weight, where a numeric str is data
    return v is None or v == "x" or isinstance(v, (bool, complex, tuple))


def never(v):
    return False


def param(valid, hostile, pool=POOL):
    """A parameter: a draw from the pool or from its valid values, and the
    predicate that says a drawn value must raise."""
    return st.one_of(st.sampled_from(pool), valid), hostile


def fixed(values):
    return st.sampled_from(values), never


N = param(st.integers(0, 50), not_int)
SD = fixed(SPECTRA)
WHOLE_N = st.one_of(st.integers(1, 10**8), st.integers(1, 10**8).map(float))
BASE_VALUES = ("multiset", "selection", "exponential")
BASE = param(st.sampled_from(list(BaseFunction)),
             lambda v: not isinstance(v, BaseFunction))
WEIGHTS = (st.one_of(st.sampled_from(POOL), st.lists(
    st.one_of(st.sampled_from(POOL), st.integers(0, 5)), max_size=4)),
           lambda w: not isinstance(w, (list, tuple)) or any(map(not_datum, w)))
PRESET_KINDS = ("standard", "roots", "congruent")
PRESET_PARAM = param(st.one_of(st.none(), st.integers(1, 12)),  # None but for congruent
                     lambda v: v is not None and not_int(v))


def _spectral_data(A0, h0, h, d):
    return SpectralData("x", ((1, 1), (3, h)), A0, h0, (d, 0))


def _document(rho, h, A0, d):
    return load_custom_spectrum({"poles": [{"rho": rho, "h": h}], "A0": A0,
                                 "h0": 0, "d_neg": [d]})


# callable -> (function, parameters); a record type has no domain to check
CALLS = {
    "BaseFunction": (BaseFunction, [param(st.sampled_from(BASE_VALUES),
                                          lambda v: v not in BASE_VALUES)]),
    "ModelSpec": (lambda kind, base: ModelSpec(kind, base, lambda j: 1),
                  [param(st.just("m"), lambda v: not isinstance(v, str)), BASE]),
    "ModelSpec.b": (lambda m, j: m.b(j), [fixed(MODELS),
                                           param(st.integers(-1, 60), not_int)]),
    "ModelSpec.weights": (lambda m, N: m.weights(N), [fixed(MODELS), N]),
    "custom_model": (custom_model, [WEIGHTS, BASE]),
    "make_preset": (make_preset, [param(st.sampled_from(PRESET_KINDS),
                                        lambda v: v not in PRESET_KINDS),
                                  PRESET_PARAM, PRESET_PARAM]),
    "lambda_coeffs": (lambda_coeffs, [fixed(MODELS), N]),
    "llt_condition_report": (llt_condition_report,
                             [fixed(MODELS), N, param(st.integers(0, 70), not_int)]),
    "exact_coefficients": (exact_coefficients, [fixed(MODELS), N]),
    "pentagonal_oracle": (pentagonal_oracle, [N]),
    "product_dp": (product_dp, [fixed(MODELS), N]),
    "derive_spectrum": (derive_spectrum, [fixed(MODELS),
                                          param(st.integers(0, 22), not_int)]),
    "SpectralData": (_spectral_data, [param(st.floats(-2, 2), not_datum)] * 4),
    "load_custom_spectrum": (_document, [param(st.floats(0.5, 3), not_datum)] * 4),
    "validate_spectrum": (validate_spectrum, [SD]),
    "kappa": (kappa, [SD]),
    "q_constant": (q_constant, [SD]),
    "khintchine_lhs": (khintchine_lhs, [SD, param(st.floats(1e-6, 10), not_real)]),
    "solve_delta": (solve_delta, [SD, param(WHOLE_N, not_real)]),
    "log_estimate_khintchine": (log_estimate_khintchine, [SD, param(WHOLE_N, not_real)]),
    "log_estimate_explicit": (log_estimate_explicit, [SD, param(WHOLE_N, not_real)]),
    "remainder_delta": (remainder_delta, [SD, param(st.floats(0, 1), not_real)]),
    "to_decimal": (to_decimal, [fixed(ESTIMATES)]),
    "to_mpf": (to_mpf, [param(st.floats(allow_nan=True), not_datum)]),
    **{name: (record, [param(st.none(), never)])
       for name, record in [("Pole", lambda v: Pole(v, v)),
                            ("KhintchineSolution", lambda v: KhintchineSolution(
                                v, v, (v, v), 0, 0)),
                            ("LogEstimate", lambda v: LogEstimate("x", v, v, {})),
                            ("ExactSeries", ExactSeries),
                            ("LambdaSeries", LambdaSeries)]},
}


def test_the_table_covers_every_public_callable():
    errors = {name for name in subexp.__all__
              if isinstance(getattr(subexp, name), type)
              and issubclass(getattr(subexp, name), Warning | SubexpError)}
    public = {name for name in subexp.__all__ if callable(getattr(subexp, name))}
    assert public - errors == set(CALLS) - {"ModelSpec.b", "ModelSpec.weights"}


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_every_call_returns_or_raises_a_subexp_error(name, data):
    function, params = CALLS[name]
    args = [data.draw(strategy) for strategy, _ in params]
    must_raise = any(hostile(arg) for (_, hostile), arg in zip(params, args))
    dps = mp.dps
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            function(*args)
    except SubexpError:
        return
    finally:
        mp.dps = dps
    assert not must_raise, f"{name}{tuple(args)!r} returned"


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    """--spec paths: a valid document first, then ones that exit 3."""
    root = tmp_path_factory.mktemp("specs")
    valid = {"poles": [{"rho": 1, "h": 1.6449}], "A0": -0.5, "h0": -0.9189,
             "d_neg": [0.0417], "weights": [1, 1, 1, 1]}
    files = {"valid": json.dumps(valid).encode(),
             "bool": json.dumps(dict(valid, A0=True)).encode(),
             "nan": json.dumps(dict(valid, h0=math.nan)).encode(),
             "weights": json.dumps(dict(valid, weights=[1, True])).encode(),
             "list": b"[]", "text": b"not json", "binary": b"\xff\xfe\x00"}
    for name, data in files.items():
        (root / f"{name}.json").write_bytes(data)
    return [str(root / f"{name}.json") for name in files] + [
        str(root / "missing.json"), str(root)]


def _words(valid, pool=POOL):
    return st.one_of(st.sampled_from(pool).map(str), valid.map(str))


@st.composite
def _argv(draw, specs):
    """A subcommand with its required options and some of the others, each
    value from the pool or valid."""
    command = draw(st.sampled_from(["spectrum", "predict", "exact", "compare", "verify"]))
    required = {"predict": {"--n": _words(WHOLE_N.map(int))},
                "exact": {"--N": _words(st.integers(0, 50))},
                "compare": {draw(st.sampled_from(["--grid", "--geom"])): st.lists(
                    _words(st.integers(1, 50)), min_size=1, max_size=4).map(
                    ":".join)}}.get(command, {})
    optional = {"--precision": _words(st.integers(15, 60)), **{
        "spectrum": {"--require-eligible": None},
        "predict": {"--log10": None, "--formula": _words(
            st.sampled_from(["khintchine", "explicit", "both"]))},
        "exact": {"--oracle": None},
        "compare": {"--log10": None}}.get(command, {})}
    if command != "verify":
        required["--model"] = _words(st.sampled_from(
            ["standard", "roots", "congruent", "custom"]))
        optional.update({"--a": _words(st.integers(1, 12)),
                         "--b": _words(st.integers(1, 12)),
                         "--spec": st.sampled_from(specs)})
    argv = [command]
    for flag, value in {**required, **optional}.items():
        if flag in required or draw(st.booleans()):
            argv += [flag] if value is None else [flag, draw(value)]
    return argv


def _run(argv):
    """main(argv) -> (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_cli_exits_0_2_3_or_4_with_no_output_after_a_failure(specs, data):
    argv = data.draw(_argv(specs))
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert code == 0 or out == "", (argv, code, out)


def test_each_bad_spec_file_exits_3_with_no_output(specs):
    assert _run(["spectrum", "--model", "custom", "--spec", specs[0]])[0] == 0
    for path in specs[1:]:  # a UnicodeDecodeError on the binary one used to escape
        assert _run(["spectrum", "--model", "custom", "--spec", path])[:2] == (3, "")


@pytest.mark.parametrize("call", [
    lambda: lambda_coeffs(MODELS[0], True),
    lambda: lambda_coeffs(MODELS[0], 2.0),
    lambda: llt_condition_report(MODELS[0], 32.0, 2),
    lambda: llt_condition_report(MODELS[0], 32, True),
    lambda: MODELS[0].b(2.5),
    lambda: MODELS[0].weights(-1),
    lambda: khintchine_lhs(SPECTRA[0], True),
    lambda: khintchine_lhs(SPECTRA[0], "x"),
    lambda: SpectralData("x", ((1, 1),), True, 0, (0,)),
    lambda: BaseFunction("x"),
    lambda: lambda_coeffs(MODELS[0], BIG),
    lambda: MODELS[0].weights(BIG),
    lambda: llt_condition_report(MODELS[0], BIG, 2),
] + [lambda f=f, v=v: f(SPECTRA[0], v)
     for f in (solve_delta, remainder_delta, log_estimate_khintchine,
               log_estimate_explicit)
     for v in (None, 1j)] + [
    # a value whose repr passes the int-to-str limit, shown in the message
    lambda: make_preset("standard", HUGE),
    lambda: make_preset(HUGE),
    lambda: custom_model(HUGE),
    lambda: custom_model([[HUGE]]),
    lambda: ModelSpec("m", HUGE, lambda j: 1),
    lambda: ModelSpec("m", MULTISET, lambda j: [HUGE]).b(1),
    lambda: ModelSpec(HUGE, MULTISET, lambda j: 1 / 0).b(1),
    lambda: QuasiPolynomial(1, ((HUGE, 0, 1),)),
    lambda: SpectralData("x", ((1, 1),), 0, 0, HUGE),
    lambda: SpectralData("x", (([HUGE], 1),), 0, 0, (0,)),
    lambda: load_custom_spectrum(dict(_DOC, theta=[HUGE])),
    lambda: load_custom_spectrum(dict(_DOC, theta=HUGE)),
    lambda: to_mpf([HUGE]),
    lambda: remainder_delta(SPECTRA[0], [HUGE]),
    lambda: khintchine_lhs(SPECTRA[0], [HUGE]),
    lambda: solve_delta(SPECTRA[0], [HUGE]),
    lambda: derive_spectrum(ModelSpec(HUGE, MULTISET, lambda j: 1)),
    lambda: load_custom_spectrum(dict(_DOC, label=HUGE)),
    lambda: BaseFunction(HUGE),
    # a kind or label that is no str, refused where it enters
    lambda: make_preset([1]),
    lambda: load_custom_spectrum(dict(_DOC, label=[1])),
    lambda: SpectralData(None, ((1, 1),), 0, 0, (0,)),
    # params that are no tuple, refused where the model is built
    lambda: derive_spectrum(ModelSpec("m", MULTISET, QuasiPolynomial(1, ((1, 0, 1),)),
                                      params=5)),
],
    ids=["lambda-True", "lambda-float", "llt-float", "llt-bool", "b-float",
         "weights-negative", "lhs-bool", "lhs-str", "spectral-bool",
         "base-unknown", "lambda-huge", "weights-huge", "llt-huge"] + [f"{f}-{v}" for f in ("solve", "series", "khintchine",
                                                 "explicit")
                            for v in ("None", "complex")] + [
        f"unshowable-{name}" for name in (
            "preset-a", "preset-kind", "weights", "weight-entry", "base", "b-value",
            "kind", "rule-term", "d_neg", "pole", "theta-list", "theta-disagrees",
            "to_mpf", "series", "lhs", "solve", "derive-kind", "label", "base-value")]
    + ["preset-kind-list", "label-list", "spectral-label-none", "params-int"])
def test_each_former_hole_raises_a_subexp_error(call):
    dps = mp.dps
    try:
        with pytest.raises(SubexpError):
            call()
    finally:
        mp.dps = dps


def test_derive_spectrum_shows_each_param_in_its_label():
    # str(HUGE) raised a bare ValueError; shown prints make_preset's ints as str does
    rule = QuasiPolynomial(1, ((1, 0, 1),))
    sd = derive_spectrum(ModelSpec("m", MULTISET, rule, params=(HUGE, 3)))
    assert sd.label == f"m(an int of {HUGE.bit_length()} bits,3)"


def test_spectral_data_names_a_label_that_is_no_str():
    with pytest.raises(subexp.SpectrumDataError,
                       match=r"^label=None not a str; A0='x' not a real number$"):
        SpectralData(None, ((1, 1),), "x", 0, (0,))
    with pytest.raises(subexp.SpectrumDataError,
                       match=f"^label=an int of {HUGE.bit_length()} bits not a str$"):
        SpectralData(HUGE, ((1, 1),), 0, 0, (0,))


def test_model_spec_refuses_params_that_are_no_tuple():
    rule = QuasiPolynomial(1, ((1, 0, 1),))
    for params in (5, [3, 1], "31", None):
        with pytest.raises(subexp.InvalidParametersError, match="^model params not a tuple: "):
            ModelSpec("m", MULTISET, rule, params=params)


def test_a_bool_is_no_number_in_spectral_data():
    with pytest.raises(subexp.SpectrumDataError, match="^A0=True not a real number$"):
        SpectralData("x", ((1, 1),), True, 0, (0,))
    # numeric strs are data there, as in a JSON document
    assert SpectralData("x", (("1", "1"),), "0", 0, (0,)).A0 == 0
