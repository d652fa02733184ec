"""Regenerate perfbench/reference.json, the stored correctness references.

    python3 perfbench/make_reference.py

The references are what the benchmark checks the program against:

* for the three counted models, the sha256 of c_0..c_1000, c_100 and the
  exact log c_n at the anchor points n = 100 and 1000;
* for every spectrum the benchmark uses, both log estimates at a fixed set
  of n.

Every exact prefix is first cross-checked against an independent counting
algorithm (pentagonal recurrence or direct product), so a reference can only
be written when two algorithms agree.  The estimates cannot be cross-checked
that way: regenerate only at a commit whose estimates are known to be right,
and review the diff of the JSON.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from mpmath import mp  # noqa: E402

import workloads  # noqa: E402
from subexp import asymptotics, exact, spectrum  # noqa: E402

PREFIX_N = 1000


def main() -> int:
    counted = {}
    for label in workloads.COUNTED:
        model = workloads.preset(label)
        series = exact.exact_coefficients(model, PREFIX_N)
        if label == "standard":
            other = exact.pentagonal_oracle(PREFIX_N)
        else:
            other = exact.product_dp(model, PREFIX_N)
        digest = workloads.series_sha256(series)
        if workloads.series_sha256(other) != digest:
            print(f"{label}: recurrence and oracle disagree", file=sys.stderr)
            return 1
        counted[label] = {
            "N": PREFIX_N,
            "sha256": digest,
            "c_100": series[100],
            "log_c": {str(n): mp.nstr(mp.log(series[n]), 30)
                      for n in workloads.ANCHORS},
        }
    estimates = {}
    for label in workloads.SWEEP_LABELS:
        sd = spectrum.derive_spectrum(workloads.preset(label))
        estimates[label] = {
            str(n): [
                mp.nstr(asymptotics.log_estimate_khintchine(sd, n).log_value, 30),
                mp.nstr(asymptotics.log_estimate_explicit(sd, n).log_value, 30),
            ]
            for n in workloads.REFERENCE_NS
        }
    doc = {"dps": mp.dps, "exact": counted, "estimates": estimates}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
