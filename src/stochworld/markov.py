"""The Markov check: Pearson's chi-squared test of whether a longer context
predicts a trajectory's next symbol better than its last symbol alone.  The
p-value is in closed form, so the module needs neither numpy nor scipy."""

import math
from collections import Counter
from numbers import Real
from typing import Optional

from .core import Trajectory, Value, checked_int, dyadic
from .errors import ModelError


class SymbolTest(Value):
    _fields = ("symbol", "p_value", "flagged", "contexts_tested", "contexts_skipped")

    def __init__(self, symbol: str, p_value: Optional[float], flagged: bool, contexts_tested: int,
                 contexts_skipped: int):
        self._set(symbol, p_value, flagged, contexts_tested, contexts_skipped)


class MarkovReport(Value):
    _fields = ("order", "significance", "tests", "inconclusive")

    def __init__(self, order: int, significance: float, tests: tuple = (), inconclusive: bool = False):
        self._set(order, significance, tests, inconclusive)

    @property
    def flagged(self) -> tuple:
        return tuple(t for t in self.tests if t.flagged)

    @property
    def improvable(self) -> bool:
        """True when some longer context significantly improves prediction."""
        return bool(self.flagged)


def _chi2_tail(k: int, x: float) -> float:
    """P(χ² ≥ x) for k ≥ 1 degrees of freedom, Q(k/2, x/2), in closed form
    (Abramowitz and Stegun, 26.4.4-5): with h = x/2, a = (k mod 2)/2, e^-h
    times the sum of h^(j+a) / Γ(j+a+1) over j < k // 2, plus erfc(√h) for
    odd k.  Each term is the one before times h / (j+a+1), all carried at one
    scale 2^exp, so none under- or overflows; e^-h is e^(-h/2^p), h/2^p ≤ 708
    exact, squared p times.  erfc is corrected to first order by h - (√h)²,
    exact in ints; beyond h = 708 it is below 1e-309, and e^-h / √(πh) ·
    (1 - 1/(2h)), its asymptotic series, stands in for it."""
    h, a, total = x / 2, k % 2 / 2, 0.0
    p = (math.ceil(h / 708) - 1).bit_length() if h > 708 else 0
    mant, exp = math.frexp(math.exp(-math.ldexp(h, -p)))
    for _ in range(p):
        mant, e = math.frexp(mant * mant)
        exp = 2 * exp + e
    if a:
        root = math.sqrt(h)
        if p:
            total = mant / math.sqrt(math.pi * h) * (1 - 0.5 / h)
        else:
            unit, (h_int, root_int) = dyadic((h, root))
            residual = (h_int * unit - root_int * root_int) / (unit * unit) / (2 * root) if root else 0.0
            total = math.ldexp(math.erfc(root), -exp) - 2 / math.sqrt(math.pi) * mant * residual
        mant *= 2 / math.sqrt(math.pi) * root
    for j in range(k // 2):
        total += mant
        mant *= h / (j + a + 1)
        if mant > 2.0**960:
            mant, total, exp = math.ldexp(mant, -960), math.ldexp(total, -960), exp + 960
    return math.ldexp(total, exp)


def _chi2_p_value(table) -> float:
    """p-value of Pearson's uncorrected chi-squared test of independence on counts with no empty row or column."""
    rows, cols = [sum(row) for row in table], [sum(col) for col in zip(*table)]
    n = sum(rows)
    terms = ((o - e) ** 2 / e for r, row in zip(rows, table) for c, o in zip(cols, row) for e in [r * c / n])
    return _chi2_tail((len(rows) - 1) * (len(cols) - 1), math.fsum(terms))


def check_markov(
    trajectory: Trajectory, order: int = 1, significance: float = 0.01, min_count: int = 50
) -> MarkovReport:
    """Chi-squared comparison of next-symbol distributions conditioned on
    one symbol versus a longer context ending in it.

    A flagged symbol means the standard chain can be improved by splitting
    that state.  Contexts with fewer than ``min_count`` occurrences are
    skipped; if every context is skipped the report is inconclusive.

    One pass counts every window of ``order + 2`` symbols: a context of
    ``order + 1`` symbols, ending in the tested one, and the next symbol.
    Each symbol's table is then built from those counts, its rows and
    columns sorted, so the cost is O(n) for n steps plus one table per
    symbol.
    """
    order = checked_int(order, "Markov check order", 1)
    min_count = checked_int(min_count, "Markov check minimum count", 0)
    if not isinstance(significance, Real) or math.isnan(significance):
        raise ModelError(f"the Markov check needs a significance that is a number, got {significance!r}")
    seq = trajectory.obs
    rows: dict = {}  # symbol -> context -> next symbol -> count
    for window, count in Counter(zip(*(seq[k:] for k in range(order + 2)))).items():
        ctx = window[:-1]
        rows.setdefault(ctx[-1], {}).setdefault(ctx, {})[window[-1]] = count
    tests = []
    for sym in sorted(set(seq)):
        counts = rows.get(sym, {})
        usable = {c: cnt for c, cnt in counts.items() if sum(cnt.values()) >= min_count}
        skipped = len(counts) - len(usable)
        cols = sorted({o for cnt in usable.values() for o in cnt})
        if len(usable) < 2 or len(cols) < 2:
            tests.append(SymbolTest(sym, None, False, 0, len(counts)))
            continue
        p_value = _chi2_p_value([[cnt.get(o, 0) for o in cols] for _, cnt in sorted(usable.items())])
        tests.append(SymbolTest(sym, p_value, p_value < significance, len(usable), skipped))
    inconclusive = all(t.p_value is None for t in tests) if tests else True
    return MarkovReport(order, significance, tuple(tests), inconclusive)
