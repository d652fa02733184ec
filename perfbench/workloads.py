"""The four benchmark workloads: seeded inputs, one timed pass, and checks.

A workload draws all of its inputs from the seed when it is built, warms
up in setup(), and then repeats run_pass() with the same inputs.  Every
call into the program is one op on the Recorder: an op fails when it
raises, when a check on its output fails, or when it leaves mpmath's
global precision changed.  verify() runs after the timed passes and
checks the workload's spectra against the stored references.

The program is always reached through module attributes
(`exact.exact_coefficients(...)`, not a name imported from the package),
so the tracer and the tests can wrap or replace those attributes.
"""

import hashlib
import io
import json
import math
import random
from contextlib import contextmanager, redirect_stdout
from functools import cache
from math import gcd
from pathlib import Path

from mpmath import mp, mpf

from subexp import asymptotics, cli, exact, model, spectrum

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# the models whose coefficients the benchmark counts
COUNTED = ("standard", "congruent(3,1)", "roots")
# n at which stored exact log c_n anchors the accuracy metrics
ANCHORS = (100, 1000)
# n at which both log estimates of every spectrum are stored
REFERENCE_NS = (10, 100, 1000, 10**5, 10**8)
SWEEP_LABELS = ("standard", "roots") + tuple(
    f"congruent({a},{b})"
    for a in range(2, 13)
    for b in range(1, a)
    if gcd(a, b) == 1
)

# |got - stored| allowed for a log estimate.  Dropping or mis-scaling any
# term of either formula moves log c_n by far more; the numerics fixes
# planned for the correction series and the solver move it by ~1e-9.
ESTIMATE_TOL = mpf("1e-6")
# |exact - predicted| allowed for log c_n at n >= 100 on a counted model;
# the largest seen is 0.046 (roots at n = 100, Khintchine form)
AGREEMENT_TOL = mpf("0.1")
# |Khintchine - explicit| allowed for n in [10, 1e8] on any swept spectrum;
# the largest seen is 0.31 (congruent(12,11) at n = 10)
FORMULA_GAP_TOL = mpf(1)
CSV_HEADER = (
    "n,exact_log,pred_khintchine_log,pred_explicit_log,"
    "ratio_khintchine,ratio_explicit"
)


@cache
def reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def preset(label: str):
    """The preset model behind a spectrum label such as 'congruent(3,1)'."""
    if label.startswith("congruent("):
        a, b = (int(x) for x in label[len("congruent("):-1].split(","))
        return model.make_preset("congruent", a, b)
    return model.make_preset(label)


def series_sha256(series) -> str:
    """sha256 of c_0..c_N written as comma-separated decimals."""
    return hashlib.sha256(",".join(map(str, series)).encode()).hexdigest()


class Mismatch(Exception):
    """An output that fails its check."""


class Recorder:
    """Ops attempted and failed, program time, and estimate latencies.

    Program time is read from a calibrated CPU-time clock (clock.py): the
    program is single-threaded and does no I/O, and on a shared virtual
    machine wall time also counts the time the host runs other guests.
    """

    def __init__(self, dps: int, clock):
        self.dps = dps
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.failures = []  # the first few failure messages
        self.busy_s = 0.0  # time inside program calls, reset per pass
        self.pair_s = []  # one (Khintchine + explicit) pair per entry
        self.err = {"khintchine": 0.0, "explicit": 0.0}
        self.sentinels = {}

    @contextmanager
    def op(self, what: str):
        self.attempted += 1
        problem = None
        try:
            yield
        except Exception as exc:  # any failure of the program is counted, not fatal
            problem = f"{type(exc).__name__}: {exc}"
        if mp.dps != self.dps:
            problem = problem or f"mp.dps drifted from {self.dps} to {mp.dps}"
            mp.dps = self.dps
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{what}: {problem}")

    @staticmethod
    def expect(ok: bool, what: str) -> None:
        if not ok:
            raise Mismatch(what)

    def start(self) -> float:
        return self.clock.now()

    def stop(self, started: float) -> float:
        elapsed = self.clock.now() - started
        self.busy_s += elapsed
        return elapsed

    def agreement(self, n: int, exact_log, kh, ex) -> None:
        """Record |exact - predicted| log c_n and check it, for n >= 100."""
        if n < 100:
            return
        d_kh = abs(exact_log - kh)
        d_ex = abs(exact_log - ex)
        self.err["khintchine"] = max(self.err["khintchine"], float(d_kh))
        self.err["explicit"] = max(self.err["explicit"], float(d_ex))
        self.expect(
            d_kh <= AGREEMENT_TOL and d_ex <= AGREEMENT_TOL,
            f"exact vs predicted log c_{n}: {float(d_kh):.3g}, {float(d_ex):.3g}",
        )


def check_estimates(rec: Recorder, label: str, n: int, kh, ex) -> None:
    want_kh, want_ex = (mpf(x) for x in reference()["estimates"][label][str(n)])
    rec.expect(
        abs(kh - want_kh) <= ESTIMATE_TOL and abs(ex - want_ex) <= ESTIMATE_TOL,
        f"{label} n={n}: estimates ({mp.nstr(kh, 15)}, {mp.nstr(ex, 15)}) vs "
        f"stored ({mp.nstr(want_kh, 15)}, {mp.nstr(want_ex, 15)})",
    )


class Workload:
    name = ""
    sizes = {}
    labels = ()  # spectra whose stored references verify() checks
    cli_rows = 0  # CSV rows and bytes the last pass read from cli.main
    cli_stdout_bytes = 0

    def __init__(self, seed: int, size: str = "full"):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.size = self.sizes[size]
        self.spectra = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec: Recorder) -> None:
        raise NotImplementedError

    def _estimate_pair(self, rec: Recorder, sd, n: int):
        rec.clock.calibrate()
        started = rec.start()
        kh = asymptotics.log_estimate_khintchine(sd, n)
        ex = asymptotics.log_estimate_explicit(sd, n)
        rec.clock.calibrate()
        rec.pair_s.append(rec.stop(started))
        return kh.log_value, ex.log_value

    def verify(self, rec: Recorder) -> None:
        """Stored-reference checks for every spectrum the workload used."""
        stored_exact = reference()["exact"]
        for label in self.labels:
            sd = self.spectra[label]
            for n in REFERENCE_NS:
                with rec.op(f"reference {label} n={n}"):
                    kh = asymptotics.log_estimate_khintchine(sd, n).log_value
                    ex = asymptotics.log_estimate_explicit(sd, n).log_value
                    check_estimates(rec, label, n, kh, ex)
                    if label in stored_exact and n in ANCHORS:
                        exact_log = mpf(stored_exact[label]["log_c"][str(n)])
                        rec.agreement(n, exact_log, kh, ex)


class _Count(Workload):
    """Shared pass of the two counting workloads.

    For each counted model: derive its spectrum, count c_0..c_N by the
    recurrence, check the result against the stored prefix hash and c_100
    and against an independent algorithm, then compare log c_n with both
    predictions at the anchors and at seeded n in [101, N].
    """

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.N = self.size["N"] + self.rng.randrange(-8, 9)
        self.ns = {
            label: ANCHORS
            + tuple(sorted(self.rng.randrange(101, self.N + 1)
                           for _ in range(self.size["pairs"])))
            for label in self.labels
        }
        self.models = {}

    def _oracle(self, label: str):
        """(independent algorithm, its length) for one counted model."""
        raise NotImplementedError

    def setup(self) -> None:
        for label in self.labels:
            m = preset(label)
            self.models[label] = m
            self.spectra[label] = sd = spectrum.derive_spectrum(m)
            exact.exact_coefficients(m, 200)
            oracle, _ = self._oracle(label)
            oracle(200)
            asymptotics.log_estimate_khintchine(sd, 100)
            asymptotics.log_estimate_explicit(sd, 100)

    def run_pass(self, rec: Recorder) -> None:
        stored = reference()["exact"]
        N = self.N
        for label in self.labels:
            m = self.models[label]
            sd = series = None
            with rec.op(f"derive_spectrum {label}"):
                started = rec.start()
                sd = spectrum.derive_spectrum(m)
                rec.stop(started)
            with rec.op(f"exact_coefficients {label} N={N}"):
                started = rec.start()
                series = exact.exact_coefficients(m, N)
                rec.stop(started)
                rec.expect(len(series) == N + 1, f"length {len(series)}")
                ref = stored[label]
                rec.expect(series_sha256(series[i] for i in range(ref["N"] + 1))
                           == ref["sha256"], f"c_0..c_{ref['N']} hash")
                rec.expect(series[100] == ref["c_100"], f"c_100 = {series[100]}")
                rec.sentinels[f"{label} N={N}"] = series_sha256(series)
            oracle, oracle_n = self._oracle(label)
            with rec.op(f"oracle {label} N={oracle_n}"):
                started = rec.start()
                other = oracle(oracle_n)
                rec.stop(started)
                rec.expect(
                    series_sha256(other)
                    == series_sha256(series[i] for i in range(oracle_n + 1)),
                    f"recurrence and oracle disagree on c_0..c_{oracle_n}",
                )
            for n in self.ns[label]:
                with rec.op(f"estimates {label} n={n}"):
                    exact_log = mp.log(series[n])
                    kh, ex = self._estimate_pair(rec, sd, n)
                    if n in ANCHORS:
                        check_estimates(rec, label, n, kh, ex)
                    rec.agreement(n, exact_log, kh, ex)


class CountNarrow(_Count):
    """standard and congruent(3,1) at N ~ 5000: c_N is at most 250 bits."""

    name = "count-narrow"
    sizes = {"full": {"N": 5000, "pairs": 200}, "toy": {"N": 1010, "pairs": 4}}
    labels = ("standard", "congruent(3,1)")

    def _oracle(self, label: str):
        if label == "standard":
            return (lambda n: exact.pentagonal_oracle(n)), self.N
        m = self.models[label]
        return (lambda n: exact.product_dp(m, n)), self.N


class CountWide(_Count):
    """roots at N ~ 5000 (c_N ~ 1080 bits), product_dp at N = 500."""

    name = "count-wide"
    sizes = {
        "full": {"N": 5000, "pairs": 400, "dp_N": 500},
        "toy": {"N": 1010, "pairs": 4, "dp_N": 60},
    }
    labels = ("roots",)

    def _oracle(self, label: str):
        m = self.models[label]
        return (lambda n: exact.product_dp(m, n)), self.size["dp_N"]


class PredictSweep(Workload):
    """Derive every spectrum, then both estimates at seeded n in [10, 1e8]."""

    name = "predict-sweep"
    sizes = {
        "full": {"labels": SWEEP_LABELS, "per_label": 16},
        "toy": {"labels": SWEEP_LABELS[:4], "per_label": 2},
    }

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        self.labels = self.size["labels"]
        # log-uniform in [10, 1e8], one draw in each of k equal slices so that
        # every seed covers all eight decades (solver cost depends on n)
        lo, hi = math.log(10), math.log(1e8)
        k = self.size["per_label"]
        self.ns = {
            label: tuple(round(math.exp(lo + (hi - lo) * (i + self.rng.random()) / k))
                         for i in range(k))
            for label in self.labels
        }
        self.models = {}

    def setup(self) -> None:
        for label in self.labels:
            self.models[label] = m = preset(label)
            self.spectra[label] = sd = spectrum.derive_spectrum(m)
            asymptotics.log_estimate_khintchine(sd, 1000)
            asymptotics.log_estimate_explicit(sd, 1000)

    def run_pass(self, rec: Recorder) -> None:
        for label in self.labels:
            sd = None
            with rec.op(f"derive_spectrum {label}"):
                started = rec.start()
                sd = spectrum.derive_spectrum(self.models[label])
                rec.stop(started)
            for n in self.ns[label]:
                with rec.op(f"estimates {label} n={n}"):
                    kh, ex = self._estimate_pair(rec, sd, n)
                    rec.expect(mp.isfinite(kh) and mp.isfinite(ex), "not finite")
                    rec.expect(abs(kh - ex) <= FORMULA_GAP_TOL,
                               f"formulas differ by {mp.nstr(kh - ex, 5)}")


class _PairTimer:
    """Times the estimate pairs that cli.main makes, while installed.

    cli.main calls the Khintchine estimate and then the explicit one for
    each row, with nothing in between; a pair runs from the start of the
    first call to the end of the second.
    """

    def __init__(self, clock):
        self.clock = clock
        self.pairs = []
        self._started = 0.0

    @contextmanager
    def installed(self):
        kh, ex = cli.log_estimate_khintchine, cli.log_estimate_explicit

        def timed_kh(*args, **kwargs):
            self.clock.calibrate()
            self._started = self.clock.now()
            return kh(*args, **kwargs)

        def timed_ex(*args, **kwargs):
            result = ex(*args, **kwargs)
            self.clock.calibrate()
            self.pairs.append(self.clock.now() - self._started)
            return result

        cli.log_estimate_khintchine, cli.log_estimate_explicit = timed_kh, timed_ex
        try:
            yield self
        finally:
            cli.log_estimate_khintchine, cli.log_estimate_explicit = kh, ex


class CompareCli(Workload):
    """`subexp compare --model roots` over ~2000 consecutive n, in process."""

    name = "compare-cli"
    sizes = {"full": {"start": 10, "rows": 2000}, "toy": {"start": 85, "rows": 30}}
    labels = ("roots",)

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        start = self.size["start"] + self.rng.randrange(11)
        self.grid = range(start, start + self.size["rows"])
        self.argv = ["compare", "--model", "roots",
                     "--grid", f"{start}:{self.grid[-1]}:1"]

    def setup(self) -> None:
        self.spectra["roots"] = spectrum.derive_spectrum(preset("roots"))
        with redirect_stdout(io.StringIO()):
            cli.main(["compare", "--model", "roots", "--grid", "100:110:1"])

    def run_pass(self, rec: Recorder) -> None:
        out = io.StringIO()
        with rec.op("cli " + " ".join(self.argv)):
            with _PairTimer(rec.clock).installed() as timer, redirect_stdout(out):
                started = rec.start()
                code = cli.main(self.argv)
                rec.stop(started)
            rec.pair_s.extend(timer.pairs)
            rec.expect(code == 0, f"exit code {code}")
        text = out.getvalue()
        lines = text.splitlines()
        self.cli_rows = len(lines) - 1
        self.cli_stdout_bytes = len(text.encode())
        with rec.op("csv shape"):
            rec.expect(lines[:1] == [CSV_HEADER], "header")
            rec.expect(len(lines) == len(self.grid) + 1, f"{len(lines)} lines")
        stored = reference()["exact"]["roots"]["log_c"]
        for n, line in zip(self.grid, lines[1:]):
            with rec.op(f"csv row n={n}"):
                cells = line.split(",")
                rec.expect(len(cells) == 6 and int(cells[0]) == n, "row shape")
                exact_log, kh, ex, ratio_kh, ratio_ex = (mpf(c) for c in cells[1:])
                for ratio, pred in ((ratio_kh, kh), (ratio_ex, ex)):
                    rec.expect(abs(ratio / mp.exp(exact_log - pred) - 1) <= 1e-9,
                               "ratio column disagrees with the log columns")
                rec.agreement(n, exact_log, kh, ex)
                if n in ANCHORS:
                    rec.expect(abs(exact_log - mpf(stored[str(n)])) <= 1e-9,
                               "exact_log differs from the stored value")
                    check_estimates(rec, "roots", n, kh, ex)


WORKLOADS = {w.name: w for w in (CountNarrow, CountWide, PredictSweep, CompareCli)}
