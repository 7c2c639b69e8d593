"""Per-layer tracing from outside the library.

``Tracer.install`` replaces public functions and methods of each dedsums
layer with timing wrappers.  A module-level function is replaced in every
dedsums module that binds it (``from .bernoulli import periodic_bernoulli``
makes a second binding), a method under every class attribute that holds it
(``__radd__ = __add__``).  Nothing under ``src/`` changes.

Every wrapped call pushes a frame; its self time is its duration minus the
time of wrapped calls made inside it, and is charged to its layer.  Time
spent outside any wrapped call of a point is charged to the caller's layer,
so the layers' self times add up to the points' total time.  Coarse calls
(points, direct sums, integrals, Laplace transforms) also record a span;
fine-grained ones only feed counters.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

LAYERS = ("verify", "dedekind", "exactnum", "dirichlet", "charbernoulli",
          "bernoulli", "integrals", "laplace")

# Every metric of a traced run, with its unit.  The trace.* and
# verify.points_per_s entries compare the traced run with the untraced one.
PER_LAYER = {
    "verify.points": "count", "verify.self_s": "s", "verify.points_per_s": "1/s",
    "dedekind.sum_calls": "count", "dedekind.sum_terms": "count", "dedekind.self_s": "s",
    "exactnum.cyclo_add_calls": "count", "exactnum.cyclo_mul_calls": "count",
    "exactnum.cyclo_mul_rational_share": "share", "exactnum.embed_calls": "count",
    "exactnum.cyclo_new": "count", "exactnum.self_s": "s",
    "dirichlet.char_evals": "count", "dirichlet.char_eval_s": "s",
    "dirichlet.unit_share": "share", "dirichlet.self_s": "s",
    "charbernoulli.gen_function_calls": "count", "charbernoulli.gen_function_s": "s",
    "charbernoulli.gen_function_hit_rate": "share",
    "charbernoulli.gen_function_cache_entries": "count",
    "charbernoulli.gen_number_calls": "count", "charbernoulli.self_s": "s",
    "bernoulli.periodic_calls": "count", "bernoulli.periodic_s": "s",
    "bernoulli.poly_value_hit_rate": "share", "bernoulli.poly_value_cache_entries": "count",
    "bernoulli.ppi_calls": "count", "bernoulli.ppi_s": "s", "bernoulli.poly_mul_calls": "count",
    "bernoulli.self_s": "s",
    "integrals.formula_calls": "count", "integrals.formula_s": "s", "integrals.direct_s": "s",
    "integrals.self_s": "s",
    "laplace.calls": "count", "laplace.s": "s", "laplace.self_s": "s",
    "trace.cyclotomic_share": "share", "trace.ppi_share": "share",
    "trace.untraced_points_per_s": "1/s", "trace.overhead": "ratio",
    "trace.traced_wall_s": "s", "trace.untraced_loop_s": "s",
    "trace.accounted_share": "share", "trace.split_confirmed": "bool",
}
# Layer groups whose share of the traced time the workloads predict.
CYCLOTOMIC_LAYERS = ("exactnum", "dirichlet", "charbernoulli")


@dataclass(frozen=True)
class Hook:
    target: str                    # "module:function" or "module:Class.attribute"
    layer: str
    count: Optional[str] = None    # counter bumped once per call
    timed: Optional[str] = None    # inclusive time of the outermost such call
    span: bool = False
    observe: Optional[Callable] = None   # observe(stats, args, result)


# Terms of each literal direct sum, from its arguments.
_SUM_TERMS = {
    "classical_dedekind_sum": lambda b, c: c,
    "apostol_sum": lambda p, b, c: c,
    "char_pair_sum": lambda p, b, c, chi1, chi2: c * chi1.modulus,
    "hat_sum": lambda p, b, c, chi1, chi2: c * chi1.modulus * chi2.modulus,
    "tilde_sum": lambda p, b, c, chi1, chi2: c * chi1.modulus,
    "char_weighted_power_sum": lambda p, b, c, chi1, chi2: c * chi1.modulus - 1,
    "tilde_weighted_power_sum": lambda p, b, c, chi1, chi2: c * chi1.modulus,
}


def _hooks(exactnum) -> list[Hook]:
    cyclo = exactnum.CyclotomicNumber
    is_rational, is_zero = cyclo.is_rational, cyclo.is_zero

    def rational_mul(stats, args, result):
        a, b = args
        if (isinstance(b, (int, Fraction)) or is_rational(a)
                or (isinstance(b, cyclo) and is_rational(b))):
            stats["exactnum.cyclo_mul_rational"] += 1

    def order_changing(stats, args, result):
        if args[1] != args[0].order:
            stats["exactnum.embed_calls"] += 1

    def unit(stats, args, result):
        if not is_zero(result):
            stats["dirichlet.char_units"] += 1

    def sum_hook(name):
        terms = _SUM_TERMS[name]

        def observe(stats, args, result):
            stats["dedekind.sum_terms"] += terms(*args)
        return Hook(f"dedekind:{name}", "dedekind", count="dedekind.sum_calls",
                    span=True, observe=observe)

    def plain(layer, module, names, **kw):
        return [Hook(f"{module}:{n}", layer, **kw) for n in names.split()]

    return [
        Hook("verify:verify_identity", "verify", count="verify.points", span=True),
        *plain("verify", "verify", "verify_euler_maclaurin laplace_check"),
        *[sum_hook(n) for n in _SUM_TERMS],
        Hook("exactnum:CyclotomicNumber.__init__", "exactnum", count="exactnum.cyclo_new"),
        Hook("exactnum:CyclotomicNumber.__add__", "exactnum", count="exactnum.cyclo_add_calls"),
        Hook("exactnum:CyclotomicNumber.__mul__", "exactnum", count="exactnum.cyclo_mul_calls",
             observe=rational_mul),
        Hook("exactnum:CyclotomicNumber.embed", "exactnum", observe=order_changing),
        *plain("exactnum", "exactnum",
               "CyclotomicNumber.__sub__ CyclotomicNumber.__rsub__ CyclotomicNumber.__neg__ "
               "CyclotomicNumber.__truediv__ CyclotomicNumber.__rtruediv__ "
               "CyclotomicNumber.inverse CyclotomicNumber.__pow__ CyclotomicNumber.__eq__ "
               "CyclotomicNumber.is_zero CyclotomicNumber.is_rational "
               "CyclotomicNumber.to_rational CyclotomicNumber.__complex__ "
               "CyclotomicNumber.from_rational CyclotomicNumber.zero CyclotomicNumber.one "
               "CyclotomicNumber._coerce cyclo_root scalars_equal scalar_to_json as_complex"),
        Hook("dirichlet:DirichletCharacter.__call__", "dirichlet", count="dirichlet.char_evals",
             timed="dirichlet.char_eval_s", observe=unit),
        *plain("dirichlet", "dirichlet",
               "DirichletCharacter.conjugate DirichletCharacter.is_primitive "
               "DirichletCharacter.is_principal DirichletCharacter.__eq__ "
               "DirichletCharacter.__hash__ DirichletCharacter.order "
               "DirichletCharacter.parity DirichletCharacter.conductor "
               "DirichletCharacter.label enumerate_characters character_from_label"),
        Hook("charbernoulli:gen_bernoulli_function", "charbernoulli",
             count="charbernoulli.gen_function_calls", timed="charbernoulli.gen_function_s"),
        Hook("charbernoulli:gen_bernoulli_number", "charbernoulli",
             count="charbernoulli.gen_number_calls"),
        Hook("charbernoulli:gen_bernoulli_poly", "charbernoulli"),
        Hook("bernoulli:periodic_bernoulli", "bernoulli", count="bernoulli.periodic_calls",
             timed="bernoulli.periodic_s"),
        Hook("bernoulli:bernoulli_poly_value", "bernoulli", count="bernoulli.poly_value_calls"),
        Hook("bernoulli:piecewise_product_integral", "bernoulli", count="bernoulli.ppi_calls",
             timed="bernoulli.ppi_s", span=True),
        Hook("bernoulli:Polynomial.__mul__", "bernoulli", count="bernoulli.poly_mul_calls"),
        *plain("bernoulli", "bernoulli",
               "bernoulli_number bernoulli_poly fractional_part Polynomial.__init__ "
               "Polynomial.__add__ Polynomial.__sub__ Polynomial.__rsub__ Polynomial.__neg__ "
               "Polynomial.__truediv__ Polynomial.__eq__ Polynomial.is_zero Polynomial.eval "
               "Polynomial.integral_over Polynomial.integrate_from_zero "
               "Polynomial.compose_affine Polynomial.derivative "
               "PeriodicFactor.breakpoints PeriodicFactor.local_poly"),
        Hook("integrals:product_integral_formula", "integrals", count="integrals.formula_calls",
             timed="integrals.formula_s", span=True),
        Hook("integrals:product_integral_direct", "integrals", timed="integrals.direct_s",
             span=True),
        *plain("integrals", "integrals",
               "product_integral_direct_poly two_factor_reciprocity "
               "two_factor_constant_sum_poly equal_slope_reciprocity reflective_slope_integral "
               "char_two_factor_reciprocity permutation_invariance_check "
               "bernoulli_pair_identity_polys", span=True),
        *plain("laplace", "laplace",
               "periodic_laplace_numeric periodic_laplace_closed periodic_laplace_series "
               "product_laplace_numeric product_laplace_closed char_laplace_numeric "
               "char_laplace_closed", count="laplace.calls", timed="laplace.s", span=True),
    ]


class Tracer:
    """Wrapper state: a frame stack for self times, counters, and spans."""

    def __init__(self):
        self.frames = [[0.0]]        # [0] collects the time of top-level calls
        self.self_s = defaultdict(float)
        self.stats = defaultdict(float)
        self.depth = defaultdict(int)
        self.spans: list = []
        self.span_stack: list = [None]

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "dedsums" or name.startswith("dedsums.")}
        for hook in _hooks(modules["dedsums.exactnum"]):
            tracer._patch(modules, hook)
        return tracer

    def _patch(self, modules, hook: Hook) -> None:
        modname, _, attr = hook.target.partition(":")
        owner = modules[f"dedsums.{modname}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, hook))
            elif isinstance(raw, property):
                new = property(self._wrap(raw.fget, hook))
            else:
                new = self._wrap(raw, hook)
            for name, value in list(cls.__dict__.items()):
                if value is raw:
                    setattr(cls, name, new)
            return
        raw = getattr(owner, attr)
        new = self._wrap(raw, hook)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, name, new)

    def _wrap(self, fn, hook: Hook):
        frames, self_s, stats, depth = self.frames, self.self_s, self.stats, self.depth
        spans, span_stack = self.spans, self.span_stack
        layer, count, timed, observe, span = (hook.layer, hook.count, hook.timed,
                                              hook.observe, hook.span)
        name = hook.target
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if span:
                sid = len(spans)
                spans.append(None)
                span_stack.append(sid)
            if timed:
                outer = depth[timed] == 0
                depth[timed] += 1
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if observe:
                    observe(stats, args, result)
                return result
            finally:
                t1 = clock()
                frames.pop()
                dur = t1 - t0
                frames[-1][0] += dur
                self_s[layer] += dur - frame[0]
                if count:
                    stats[count] += 1
                if timed:
                    depth[timed] -= 1
                    if outer:
                        stats[timed] += dur
                if span:
                    span_stack.pop()
                    spans[sid] = (sid, span_stack[-1], span_stack[1] if len(span_stack) > 1
                                  else sid, name, t0, t1)

        return wrapper

    def points_s(self) -> float:
        """Total time of the top-level (point) calls."""
        return self.frames[0][0]


class CacheProbe:
    """Misses and entries of a memo cache: an ``lru_cache`` function, or a
    plain dict that gains one entry per miss."""

    def __init__(self, cache):
        self.obj = cache
        self.start_misses = self.misses()

    def misses(self) -> int:
        if hasattr(self.obj, "cache_info"):
            return self.obj.cache_info().misses
        return len(self.obj)

    def entries(self) -> int:
        if hasattr(self.obj, "cache_info"):
            return self.obj.cache_info().currsize
        return len(self.obj)

    def hit_rate(self, calls: float) -> float:
        return 1 - (self.misses() - self.start_misses) / calls if calls else 0.0


def layer_metrics(tracer: Tracer, probes: dict) -> dict:
    """Per-layer metrics of one traced run, without the run-level ones."""
    st = tracer.stats
    out = {f"{layer}.self_s": tracer.self_s[layer] for layer in LAYERS}
    for name in ("verify.points", "dedekind.sum_calls", "dedekind.sum_terms",
                 "exactnum.cyclo_add_calls", "exactnum.cyclo_mul_calls",
                 "exactnum.embed_calls", "exactnum.cyclo_new", "dirichlet.char_evals",
                 "dirichlet.char_eval_s", "charbernoulli.gen_function_calls",
                 "charbernoulli.gen_function_s", "charbernoulli.gen_number_calls",
                 "bernoulli.periodic_calls", "bernoulli.periodic_s", "bernoulli.ppi_calls",
                 "bernoulli.ppi_s", "bernoulli.poly_mul_calls", "integrals.formula_calls",
                 "integrals.formula_s", "integrals.direct_s", "laplace.calls", "laplace.s"):
        out[name] = st[name]
    def share(part, whole):
        return st[part] / st[whole] if st[whole] else 0.0

    out["exactnum.cyclo_mul_rational_share"] = share("exactnum.cyclo_mul_rational",
                                                     "exactnum.cyclo_mul_calls")
    out["dirichlet.unit_share"] = share("dirichlet.char_units", "dirichlet.char_evals")
    gen, poly = probes["gen_function"], probes["poly_value"]
    out["charbernoulli.gen_function_hit_rate"] = gen.hit_rate(
        st["charbernoulli.gen_function_calls"])
    out["charbernoulli.gen_function_cache_entries"] = gen.entries()
    out["bernoulli.poly_value_hit_rate"] = poly.hit_rate(st["bernoulli.poly_value_calls"])
    out["bernoulli.poly_value_cache_entries"] = poly.entries()
    total = tracer.points_s()
    cyclo = sum(tracer.self_s[layer] for layer in CYCLOTOMIC_LAYERS)
    out["trace.cyclotomic_share"] = cyclo / total if total else 0.0
    out["trace.ppi_share"] = st["bernoulli.ppi_s"] / total if total else 0.0
    return out
