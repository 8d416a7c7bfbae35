"""Print the crossover table behind _sublinear.CROSSOVER and MIN_X.

For each (x, q, filter) row it times both census engines by direct calls on
one core, the sublinear engine (_sublinear.class_totals) and the segment
sieve (census._sieve_totals), on the same primes <= sqrt(x), built outside
the timer, and prints the median of REPEAT runs of each as a Markdown
table.  "ratio" is sublinear over sieve time; "picked" is the engine that
_sublinear.preferred chooses under the default memory budget.  The rule
should never pick the engine that is more than 1.5x slower.

    PYTHONPATH=src python tools/crossover_table.py
"""

from __future__ import annotations

import math
import statistics
import time

from sigmalab import CensusFilter, DEFAULT_MEMORY_BUDGET, build_modulus
from sigmalab import _sublinear
from sigmalab._scan import primes_up_to
from sigmalab.census import _grading, _sieve_totals

ALL = CensusFilter.all_integers()
REPEAT = 3  # runs per engine and row


def pk(t: int) -> CensusFilter:
    return CensusFilter.pk_threshold(2, t)


ROWS = [
    *((1 << 15, q, f) for q, f in [(5, ALL), (16, ALL), (15, pk(10)), (29, ALL)]),
    *((1 << 16, q, f) for q, f in [(5, ALL), (16, ALL), (15, pk(10)), (29, ALL)]),
    *((1 << 17, q, f) for q, f in [(5, ALL), (16, ALL), (15, pk(10)), (29, ALL)]),
    *((1 << 18, q, f) for q, f in [(5, ALL), (16, ALL), (15, pk(10)), (29, ALL), (41, ALL)]),
    *((10**6, q, f) for q, f in [(5, ALL), (7, ALL), (16, ALL), (15, pk(100)), (41, ALL),
                                 (47, ALL), (61, ALL), (70, pk(70)), (101, ALL), (151, ALL),
                                 (211, ALL), (307, ALL)]),
    *((10**7, q, f) for q, f in [(5, ALL), (7, ALL), (16, ALL), (15, pk(1000)), (41, ALL),
                                 (61, ALL), (70, pk(70)), (101, ALL), (109, ALL), (127, ALL),
                                 (151, ALL), (211, ALL), (307, ALL)]),
]


def median_time(call) -> float:
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def power(x: int) -> str:
    return f"2^{x.bit_length() - 1}" if x & (x - 1) == 0 else f"10^{round(math.log10(x))}"


def main() -> None:
    print("| x | q, filter | φ(q)·(k+1) | φ(q)·(1+(k+1)·α(q)) | sublinear s | sieve s "
          "| ratio | picked |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for x, q, f in ROWS:
        m = build_modulus(q)
        m.units  # build the lazy table outside the timer
        grades, t = _grading(f)
        primes = primes_up_to(math.isqrt(x))
        coprime = f.kind == "coprime-only"
        sub = median_time(lambda: _sublinear.class_totals(x, m, primes, grades, t, coprime))
        sieve = median_time(lambda: _sieve_totals(x, m, f, primes, 1))
        picked = _sublinear.preferred(x, m, grades, t, DEFAULT_MEMORY_BUDGET)
        name = "all" if f.kind == "all" else f"P₂ > {f.threshold}"
        work = m.phi * (1 + grades * float(m.alpha))
        print(f"| {power(x)} | {q}, {name} | {m.phi * grades} | {work:.0f} | {sub:.4f} "
              f"| {sieve:.4f} | {sub / sieve:.2f} | {'sublinear' if picked else 'sieve'} |",
              flush=True)


if __name__ == "__main__":
    main()
