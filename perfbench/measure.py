"""Machine-speed probe and quantile estimates.

The machine a run lands on changes speed by 10-25 % over seconds to
minutes (shared hosts), far more than the changes the benchmark has to
resolve.  So every timed command is followed by `probe()`, a fixed slice
of pure-Python work that does not touch the package, and times are
scaled by PROBE_NOMINAL_S over the median of nearby probes (in-process
commands) or of the run's probes (commands in other processes): times
read as seconds on the machine running at the speed it had when the
benchmark was defined.  Raw times are kept in the notes.

Quantiles use the Harrell-Davis estimator, a Beta-weighted mean of all
order statistics, because the command times spread over three decades
and a single order statistic jumps between neighbouring documents.
"""

import math
import statistics
import time

# median time of a probe run between commands on the 2-core x86-64
# machine the benchmark was defined on (Python 3.11); only ratios to it
# matter
PROBE_NOMINAL_S = 0.0035

LOCAL_PROBES = 6

_A = {(i, j): (i * 7 + j * 3) % 11 - 5 for i in range(10) for j in range(10)}


def probe():
    """Seconds taken by one fixed slice of dict, tuple and integer work."""
    start = time.perf_counter()
    out = {}
    for (i, j), x in _A.items():
        for (k, m), y in _A.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    return time.perf_counter() - start


def scale(probes):
    """Factor taking this run's times to the nominal machine speed."""
    return PROBE_NOMINAL_S / statistics.median(probes)


def nominal(seconds, status, speed):
    """A command's time at nominal speed.  A missed deadline stays as
    measured: it cost wall-clock time, not work."""
    return seconds if status == "deadline" else seconds * speed


def nominal_times(records, probes, local):
    """Times of (..., status, seconds, ...) command records at nominal
    speed.  probes[i] ran right after command i.  With local, each
    command is scaled by the median of the LOCAL_PROBES probes around it,
    which follows the speed changes within a run; use it only where the
    probe runs in the process that ran the command."""
    speed = scale(probes)
    out = []
    for i, (_, _, status, seconds, _) in enumerate(records):
        if local:
            half = LOCAL_PROBES // 2
            speed = scale(probes[max(0, i - half): i + half])
        out.append(nominal(seconds, status, speed))
    return out


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a - 1 + m2) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile of values."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))
