"""Span tracing from outside the program, for the per-layer metrics.

Tracer.active() replaces the module attributes that the program's callers
look up (for example `subexp.asymptotics.solve_delta`, which
`log_estimate_khintchine` calls) with wrappers that record one span per
call, and puts the originals back on exit.  Spans are kept in memory and
timed by the benchmark's calibrated clock: a span's self time is its
duration minus the durations of the spans it directly encloses.  Counts
that the layers return (solver iterations, coefficient widths) are read
from their results at the same boundaries.
"""

import json
import warnings
from collections import Counter
from contextlib import contextmanager
from functools import wraps

from mpmath import mpf

from subexp import asymptotics, cli, errors, exact, khintchine, spectrum

# (module, attribute, span name).  A function that callers reach through
# two modules is wrapped in each, under one name.
PATCHES = (
    (cli, "main", "cli.main"),
    (cli, "exact_coefficients", "exact.exact_coefficients"),
    (exact, "exact_coefficients", "exact.exact_coefficients"),
    (cli, "product_dp", "exact.product_dp"),
    (exact, "product_dp", "exact.product_dp"),
    (cli, "pentagonal_oracle", "exact.pentagonal_oracle"),
    (exact, "pentagonal_oracle", "exact.pentagonal_oracle"),
    (exact, "lambda_coeffs", "model.lambda_coeffs"),
    (cli, "derive_spectrum", "spectrum.derive_spectrum"),
    (spectrum, "derive_spectrum", "spectrum.derive_spectrum"),
    (spectrum, "riemann_zeta", "specfun.riemann_zeta"),
    (spectrum, "riemann_zeta_deriv", "specfun.riemann_zeta_deriv"),
    (spectrum, "hurwitz_zeta", "specfun.hurwitz_zeta"),
    (spectrum, "hurwitz_zeta_deriv0", "specfun.hurwitz_zeta_deriv0"),
    (spectrum, "euler_gamma", "specfun.euler_gamma"),
    (cli, "log_estimate_khintchine", "asymptotics.log_estimate_khintchine"),
    (asymptotics, "log_estimate_khintchine", "asymptotics.log_estimate_khintchine"),
    (cli, "log_estimate_explicit", "asymptotics.log_estimate_explicit"),
    (asymptotics, "log_estimate_explicit", "asymptotics.log_estimate_explicit"),
    (asymptotics, "solve_delta", "khintchine.solve_delta"),
    (asymptotics, "remainder_delta", "asymptotics.remainder_delta"),
    (khintchine, "khintchine_lhs", "khintchine.khintchine_lhs"),
)

# per traced pass; the unit of every per-layer metric
UNITS = {
    "exact.exact_coefficients.self_s": "s",
    "exact.exact_coefficients.calls": "count",
    "exact.products": "count",
    "exact.ns_per_product": "ns",
    "exact.coeff_bits_max": "bits",
    "exact.coeff_bits_sum": "bits",
    "exact.product_dp.self_s": "s",
    "exact.product_dp.calls": "count",
    "exact.pentagonal_oracle.self_s": "s",
    "model.lambda_coeffs.self_s": "s",
    "model.lambda_coeffs.calls": "count",
    "khintchine.solve_delta.self_s": "s",
    "khintchine.solve_delta.calls": "count",
    "khintchine.khintchine_lhs.self_s": "s",
    "khintchine.iterations": "count",
    "khintchine.newton_steps": "count",
    "khintchine.bisection_steps": "count",
    "khintchine.lhs_evals": "count",
    "khintchine.newton_frac": "frac",
    "khintchine.residual_over_tol_max": "ratio",
    "asymptotics.log_estimate_khintchine.self_s": "s",
    "asymptotics.log_estimate_explicit.self_s": "s",
    "asymptotics.remainder_delta.self_s": "s",
    "asymptotics.remainder_delta.calls": "count",
    "asymptotics.truncation_warnings": "count",
    "spectrum.derive_spectrum.self_s": "s",
    "spectrum.derive_spectrum.calls": "count",
    "specfun.self_s": "s",
    "specfun.calls": "count",
    "cli.main.self_s": "s",
    "cli.rows": "count",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "frac",
}


def recurrence_products(model, N: int) -> int:
    """Products k*Lambda_k * c_(n-k) with k*Lambda_k != 0, over n = 1..N.

    For a multiset model with a_j = 1, k*Lambda_k = sum over j | k of
    j*b_j, which is nonzero exactly when some divisor j has b_j > 0.
    """
    nonzero = [False] * (N + 1)
    for j in range(1, N + 1):
        if model.b(j):
            nonzero[j::j] = [True] * len(range(j, N + 1, j))
    products = seen = 0
    for k in range(1, N + 1):
        seen += nonzero[k]
        products += seen
    return products


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # (span id, parent id or -1, name, start ns, end ns)
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self._stack = []  # [span id, ns covered by child spans] per open span
        self._next_id = 0
        self._products = {}
        self._hooks = {
            "exact.exact_coefficients": self._on_series,
            "khintchine.solve_delta": self._on_solution,
        }

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        stack = self._stack
        now = self.clock.now

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = int(now() * 1e9)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = int(now() * 1e9)
                stack.pop()
                self.self_ns[name] += end - start - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += end - start
                self.spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _on_series(self, args, series) -> None:
        model, N = args[0], args[1]
        key = (model.kind, model.params, N)
        if key not in self._products:
            self._products[key] = recurrence_products(model, N)
        self.counts["exact.products"] += self._products[key]
        bits = [abs(int(c)).bit_length() for c in series]
        self.counts["exact.coeff_bits_sum"] += sum(bits)
        self.maxima["exact.coeff_bits_max"] = max(
            self.maxima["exact.coeff_bits_max"], max(bits))

    def _on_solution(self, args, sol) -> None:
        n = args[1]
        self.counts["khintchine.iterations"] += sol.iterations
        self.counts["khintchine.newton_steps"] += sol.newton_steps
        self.counts["khintchine.bisection_steps"] += sol.bisection_steps
        # the tolerance solve_delta documents: max(1e-10*n, 1e-12)
        tol = max(mpf("1e-10") * n, mpf("1e-12"))
        self.maxima["khintchine.residual_over_tol_max"] = max(
            self.maxima["khintchine.residual_over_tol_max"],
            float(abs(sol.residual) / tol))

    @contextmanager
    def active(self):
        """Trace every patched layer, and count truncation warnings."""
        saved = []
        for module, attr, name in PATCHES:
            # a layer the program no longer reaches this way is not traced
            if hasattr(module, attr):
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield self
            self.counts["asymptotics.truncation_warnings"] += sum(
                issubclass(w.category, errors.TruncationWarning) for w in caught)
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_metrics(self, passes: int, extra: dict) -> dict:
        """Per-pass layer metrics; `extra` supplies the ones measured outside."""
        def self_s(*names):
            return sum(self.self_ns[n] for n in names) / 1e9 / passes

        def per_pass(value):
            return value / passes

        specfun = [n for n in self.calls if n.startswith("specfun.")]
        exact_ns = self.self_ns["exact.exact_coefficients"]
        products = self.counts["exact.products"]
        steps = self.counts["khintchine.newton_steps"] + self.counts[
            "khintchine.bisection_steps"]
        values = {
            "exact.exact_coefficients.self_s": self_s("exact.exact_coefficients"),
            "exact.exact_coefficients.calls": per_pass(
                self.calls["exact.exact_coefficients"]),
            "exact.products": per_pass(products),
            "exact.ns_per_product": exact_ns / products if products else 0.0,
            "exact.coeff_bits_max": self.maxima["exact.coeff_bits_max"],
            "exact.coeff_bits_sum": per_pass(self.counts["exact.coeff_bits_sum"]),
            "exact.product_dp.self_s": self_s("exact.product_dp"),
            "exact.product_dp.calls": per_pass(self.calls["exact.product_dp"]),
            "exact.pentagonal_oracle.self_s": self_s("exact.pentagonal_oracle"),
            "model.lambda_coeffs.self_s": self_s("model.lambda_coeffs"),
            "model.lambda_coeffs.calls": per_pass(self.calls["model.lambda_coeffs"]),
            "khintchine.solve_delta.self_s": self_s("khintchine.solve_delta"),
            "khintchine.solve_delta.calls": per_pass(
                self.calls["khintchine.solve_delta"]),
            "khintchine.khintchine_lhs.self_s": self_s("khintchine.khintchine_lhs"),
            "khintchine.iterations": per_pass(self.counts["khintchine.iterations"]),
            "khintchine.newton_steps": per_pass(
                self.counts["khintchine.newton_steps"]),
            "khintchine.bisection_steps": per_pass(
                self.counts["khintchine.bisection_steps"]),
            "khintchine.lhs_evals": per_pass(self.calls["khintchine.khintchine_lhs"]),
            "khintchine.newton_frac": (
                self.counts["khintchine.newton_steps"] / steps if steps else 0.0),
            "khintchine.residual_over_tol_max": self.maxima[
                "khintchine.residual_over_tol_max"],
            "asymptotics.log_estimate_khintchine.self_s": self_s(
                "asymptotics.log_estimate_khintchine"),
            "asymptotics.log_estimate_explicit.self_s": self_s(
                "asymptotics.log_estimate_explicit"),
            "asymptotics.remainder_delta.self_s": self_s("asymptotics.remainder_delta"),
            "asymptotics.remainder_delta.calls": per_pass(
                self.calls["asymptotics.remainder_delta"]),
            "asymptotics.truncation_warnings": per_pass(
                self.counts["asymptotics.truncation_warnings"]),
            "spectrum.derive_spectrum.self_s": self_s("spectrum.derive_spectrum"),
            "spectrum.derive_spectrum.calls": per_pass(
                self.calls["spectrum.derive_spectrum"]),
            "specfun.self_s": self_s(*specfun),
            "specfun.calls": per_pass(sum(self.calls[n] for n in specfun)),
            "cli.main.self_s": self_s("cli.main"),
        }
        values.update(extra)
        return {name: {"value": values[name], "unit": unit}
                for name, unit in UNITS.items()}

    def write(self, path, meta: dict) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "meta": meta,
            "columns": ["id", "parent", "name", "start_ns", "end_ns"],
            "names": names,
            "spans": [[i, p, index[n], a, b] for i, p, n, a, b in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
