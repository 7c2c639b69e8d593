"""Workload composition, seeded sampling and point (de)serialisation.

A workload is a fixed list of pools.  Each pool is one identity's grid from
``verify.default_grid`` and the number of points drawn from it per run.
Counts are given for a run of ``NOMINAL_SECONDS`` and scale linearly with
``--seconds``, so the amount of work in a run is fixed by its arguments and
not by the speed of the commit under test.  A pool marked ``full`` is taken
whole at every size.

Sampling is stratified.  A pool is first sorted by the parameters that set
a point's cost most (``cost_key``; a grid keeps its own order among points
that tie), and a pool of size N split into n equal runs of consecutive
sorted points gives one point from each run.  A generator seeded by
(workload, identity, seed) gives the first of every two runs a point at a
random position u within it, and the second the point at 1 - u (antithetic
pairs), so a pair's cost varies less than two independent draws' would.
So every seed draws the same mix of costly and cheap points, and seeds
differ in the points within each stratum.

The sample then runs in a seeded random order.  Run identity by identity, a
per-point statistic such as the median is set by the few seconds in which
one identity's block runs, and the reference machine's speed drifts on that
scale; interleaved, every identity's points span the whole run.

This module imports ``dedsums`` only inside its functions, so a worker can
time the import itself as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

NOMINAL_SECONDS = 30
DEFAULT_SEED = 0

# (identity id, default_grid keyword overrides, points per nominal run or "full")
WORKLOADS = {
    # Default traffic: small moduli and small b, c.  The full rp3 grid keeps
    # all 20 known-red corollary points in every run.
    "charsum": [
        ("rp1", {}, 1200),
        ("lek2", {"ks": (3, 4, 5, 7), "coprime": False}, 900),
        ("cck-rp", {}, 450),
        ("berndt-dkr", {}, 60),
        ("rp2", {}, 450),
        ("lek3", {}, 450),
        ("rp3", {}, "full"),
    ],
    # Same layers, wider inputs: direct sums up to 210 terms, less memo reuse,
    # caches that grow with the number of distinct arguments.
    "charsum-wide": [
        ("rp1", {"ks": (5, 7), "bc_max": 30, "coprime": False}, 415),
        ("lek2", {"ks": (5, 7), "bc_max": 30, "coprime": False}, 575),
    ],
    # Rational-only identities: piecewise product integrals, the closed
    # multinomial formula, rational direct sums and mpmath quadrature.
    "rational": [
        ("further-eq20", {}, 495),
        ("further-weighted", {}, 435),
        ("further-c1k", {}, 110),
        ("further-bc1", {}, 110),
        ("em-theorem", {}, 495),
        ("int-32-oracle", {}, 180),
        ("int-17", {}, 40),
        ("int-24", {}, 100),
        ("int-28", {}, 100),
        ("int-23", {}, 8),
        ("int-36", {}, 250),
        ("remark-apostol", {}, 250),
        ("classical-dr", {"bc_max": 60}, 975),
        ("apostol-dr1", {"bc_max": 24}, 750),
        ("raabe", {}, 150),
        ("laplace-16", {}, 100),
        ("laplace-product", {}, 10),
        ("laplace-char", {}, 10),
    ],
}

# The traced-time share predicted to exceed one half on each workload: the
# cyclotomic layers' self time, or the piecewise product integrals' time.
PREDICTED_MAJORITY = {"charsum": "trace.cyclotomic_share",
                      "charsum-wide": "trace.cyclotomic_share",
                      "rational": "trace.ppi_share"}


def cost_key(point: dict) -> tuple:
    """Sort key that puts points of like cost together: the characters'
    modulus, then c and b divided by their gcd, then p.  A direct character
    sum runs over modulus * c terms, and on charsum-wide the modulus and
    c / gcd(b, c) were the parameters a point's time followed most closely."""
    k = max((getattr(v, "modulus", 0) for v in point.values()), default=0)
    b, c = point.get("b", 0), point.get("c", 0)
    if isinstance(b, int) and isinstance(c, int) and b and c:
        g = math.gcd(b, c)
        b, c = b // g, c // g
    return (k, c if isinstance(c, int) else 0, b if isinstance(b, int) else 0,
            point.get("p", 0))


def build_pools(workload: str) -> list[list[dict]]:
    """Every grid the workload draws from: the library's work in set-up."""
    from dedsums.verify import default_grid

    return [default_grid(rid, **kw) for rid, kw, _ in WORKLOADS[workload]]


def draw_sample(workload: str, pools: list[list[dict]], seed: int,
                seconds: float) -> list[tuple[str, dict]]:
    """The seeded, stratified sample of the pools, in its seeded order."""
    sample = []
    for (rid, _, take), grid in zip(WORKLOADS[workload], pools):
        grid = sorted(grid, key=cost_key)
        rng = random.Random(f"{workload}/{rid}/{seed}")
        n = len(grid) if take == "full" else max(1, round(take * seconds / NOMINAL_SECONDS))
        n = min(n, len(grid))
        bounds = [j * len(grid) // n for j in range(n + 1)]
        u = 0.0
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            u = rng.random() if j % 2 == 0 else 1 - u
            sample.append((rid, grid[min(hi - 1, lo + int(u * (hi - lo)))]))
    random.Random(f"{workload}/order/{seed}").shuffle(sample)
    return sample


def build_sample(workload: str, seed: int, seconds: float) -> list[tuple[str, dict]]:
    return draw_sample(workload, build_pools(workload), seed, seconds)


# ---------------------------------------------------------------------------
# Points cross process boundaries as tagged JSON, so every parameter keeps its
# exact type (a Fraction stays a Fraction, a tuple stays a tuple).
# ---------------------------------------------------------------------------

def encode_value(value):
    from dedsums import DirichletCharacter, Polynomial

    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Fraction):
        return {"q": str(value)}
    if isinstance(value, DirichletCharacter):
        return {"chi": [value.modulus, value.label]}
    if isinstance(value, Polynomial):
        return {"poly": [encode_value(c) for c in value.coeffs]}
    if isinstance(value, tuple):
        return {"tuple": [encode_value(v) for v in value]}
    raise TypeError(f"cannot encode parameter of type {type(value).__name__}")


def encode_point(rid: str, params: dict) -> list:
    return [rid, {k: encode_value(v) for k, v in params.items()}]


def point_key(encoded: list) -> str:
    """Seed-independent identity of a point, used to look up its reference."""
    text = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


class Decoder:
    """Rebuilds parameters; characters are the shared instances that
    ``enumerate_characters`` hands out, as they are in a grid."""

    def __init__(self):
        self._chars = {}

    def _char(self, k: int, label: str):
        from dedsums import enumerate_characters

        if k not in self._chars:
            self._chars[k] = {c.label: c for c in enumerate_characters(k)}
        return self._chars[k][label]

    def value(self, obj):
        from dedsums import Polynomial

        if not isinstance(obj, dict):
            return obj
        (tag, body), = obj.items()
        if tag == "q":
            return Fraction(body)
        if tag == "chi":
            return self._char(*body)
        if tag == "poly":
            return Polynomial([self.value(c) for c in body])
        if tag == "tuple":
            return tuple(self.value(v) for v in body)
        raise ValueError(f"unknown parameter tag {tag!r}")

    def point(self, encoded: list) -> tuple[str, dict]:
        rid, params = encoded
        return rid, {k: self.value(v) for k, v in params.items()}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n points beyond it."""
    return max(0, (100 * n - 1000) // n)
