import subexp

# every name the package exports; a new one is a deliberate API change
PUBLIC = {
    # the pipeline: model, exact counts, spectrum, solver, estimates
    "BaseFunction", "EXPONENTIAL", "MULTISET", "SELECTION", "ModelSpec",
    "LambdaSeries", "custom_model", "lambda_coeffs", "llt_condition_report",
    "make_preset",
    "ExactSeries", "exact_coefficients", "pentagonal_oracle", "product_dp",
    "Pole", "SpectralData", "derive_spectrum", "load_custom_spectrum",
    "validate_spectrum",
    "KhintchineSolution", "khintchine_lhs", "solve_delta",
    "LogEstimate", "kappa", "log_estimate_explicit", "log_estimate_khintchine",
    "q_constant", "remainder_delta", "to_decimal",
    "to_mpf",
    # errors and warnings
    "CustomModelError", "DomainError", "IneligibleSpectrumError",
    "InexactDivisionError", "InvalidParametersError", "NoBracketError",
    "NonConvergenceError", "SpectrumDataError",
    "SpectrumSchemaError", "SubexpError", "TruncationWarning",
    "UndefinedWeightError",
}


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 42
    assert len(subexp.__all__) == len(set(subexp.__all__))
    assert set(subexp.__all__) == PUBLIC
    assert all(hasattr(subexp, name) for name in PUBLIC)
