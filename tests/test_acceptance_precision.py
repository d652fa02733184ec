"""The acceptance criteria of test_acceptance at other working precisions.

test_acceptance runs each criterion at the default 38 digits.  Here each
one runs again at 20 and at 60 digits, with the three preset spectra
derived at that precision, so no estimate reuses constants rounded at
another one.
"""

import pytest
from mpmath import mp

import test_acceptance as acceptance
from subexp.spectrum import derive_spectrum

CRITERIA = sorted(name for name in vars(acceptance) if name.startswith("test_"))
SPECTRA = {"STD": "STD_MODEL", "ROOTS": "ROOTS_MODEL", "CONG": "CONG_MODEL"}


@pytest.mark.parametrize("dps", (20, 60))
@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion_at_precision(monkeypatch, criterion, dps):
    with mp.workdps(dps):
        for spectrum, model in SPECTRA.items():
            monkeypatch.setattr(acceptance, spectrum,
                                derive_spectrum(getattr(acceptance, model)))
        getattr(acceptance, criterion)()
