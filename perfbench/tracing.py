"""Outside-in per-layer tracing of the dresplit library.

The tracer wraps the public functions of each layer and rebinds every name
under which the library's modules hold them (``from .x import f`` copies the
function into the importing module, so patching only the home module would
miss those calls).  Each wrapped call is a span; a span's self time is its
duration minus the time covered by the spans it caused.  Counters are
recorded at the same boundaries.  Nothing in the library is edited.
"""

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from dresplit import adaptive, expaction, lowrank, schemes, study, subflows
from dresplit.errors import StepTooLarge, ToleranceNotMet
from spec import PER_LAYER_UNITS, WORKLOAD_NAMES

QUADRATURE = "subflows.quadrature"

# Layers that must record calls on their home workloads; zero calls there
# means a wrapper was bypassed (for example by a new by-name import).
ADAPTIVE = ("adaptive_n10", "study_adaptivity_n10")
HOME = {
    "expaction.calls": WORKLOAD_NAMES,
    "lowrank.compress.calls": WORKLOAD_NAMES,
    "lowrank.combine.calls": WORKLOAD_NAMES,
    "subflows.quadratic_flow.calls": WORKLOAD_NAMES,
    "subflows.affine_flow.calls": WORKLOAD_NAMES,
    "subflows.quadrature.init_calls": WORKLOAD_NAMES,
    "subflows.quadrature.update_calls": ADAPTIVE,
    "schemes.additive_step.calls": WORKLOAD_NAMES,
    "schemes.lie_chain.calls": WORKLOAD_NAMES,
    "adaptive.steps": WORKLOAD_NAMES,
    "adaptive.pool_resets": ADAPTIVE,
    "study.refine.calls": ("study_adaptivity_n10",),
}


class Tracer:
    """Span and counter recorder for one solve at a time.

    install() wraps the layers, reset() starts a new solve, stats() returns
    the per-layer metrics of the solve since the last reset, uninstall()
    restores the library.
    """

    def __init__(self):
        self._patches = []
        self.stack = []  # one [span name, child seconds] frame per open span
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.count = Counter()
        self.seen_t = set()
        self.lambda_max = 0.0

    def reset(self):
        # Cleared in place: the installed hooks hold these containers.
        for store in (self.stack, self.self_s, self.total_s, self.count, self.seen_t):
            store.clear()
        self.lambda_max = 0.0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, span, before=None, after=None, errors=()):
        """Wrap fn; span None records counters only and times nothing."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            if span is None:
                result = fn(*args, **kwargs)
            else:
                frame = [span, 0.0]
                tracer.stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except errors as exc:
                    tracer.count[type(exc).__name__] += 1
                    raise
                finally:
                    elapsed = perf_counter() - start
                    tracer.stack.pop()
                    if tracer.stack:
                        tracer.stack[-1][1] += elapsed
                    tracer.self_s[span] += elapsed - frame[1]
                    tracer.total_s[span] += elapsed
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def _rebind(self, original, wrapper):
        """Replace original by wrapper under every name in every library module."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dresplit" and not mod_name.startswith("dresplit."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"{original.__name__} is bound in no library module")

    def _patch_attr(self, owner, attr, wrapper_factory):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        c = self.count

        def on_exp(op, t, v, *rest, **kw):
            c["expaction.calls"] += 1
            c["expaction.columns"] += v.shape[1] if getattr(v, "ndim", 1) == 2 else 1
            key = (id(op), float(t))
            if key in self.seen_t:
                c["expaction.repeats"] += 1
            else:
                self.seen_t.add(key)

        def on_compress_in(factor, *rest, **kw):
            c["lowrank.compress.calls"] += 1
            c["lowrank.compress.cols_in"] += factor.rank

        def on_compress_out(result, *args, **kw):
            c["lowrank.compress.cols_out"] += result.rank

        def on_combine(terms, *rest, **kw):
            c["lowrank.combine.calls"] += 1
            c["lowrank.combine.terms"] += len(terms)

        def counter(name):
            def bump(*args, **kw):
                c[name] += 1
            return bump

        def on_init(*args, **kw):
            c["subflows.quadrature.init_calls"] += 1
            if self.stack and self.stack[-1][0] == QUADRATURE:
                c["subflows.quadrature.resets"] += 1  # band exit inside an update

        def on_state(state, *args, **kw):
            if not (self.stack and self.stack[-1][0] == QUADRATURE):
                c["subflows.quadrature.fresh_blocks"] += state.fresh_blocks
            stability = float(abs(state.weights).sum()) / state.h
            self.lambda_max = max(self.lambda_max, stability)

        def on_trajectory(traj, *args, **kw):
            c["adaptive.steps"] += len(traj.records)
            c["adaptive.rejections"] += sum(r.rejections for r in traj.records)

        w = self._wrap
        self._rebind(expaction.exp_action,
                     w(expaction.exp_action, "expaction", on_exp, errors=(ToleranceNotMet,)))
        self._rebind(lowrank.compress,
                     w(lowrank.compress, "lowrank.compress", on_compress_in, on_compress_out))
        self._rebind(lowrank.combine, w(lowrank.combine, "lowrank.combine", on_combine))
        self._rebind(subflows.quadratic_flow,
                     w(subflows.quadratic_flow, "subflows.quadratic_flow",
                       counter("subflows.quadratic_flow.calls"), errors=(StepTooLarge,)))
        self._rebind(subflows.affine_flow,
                     w(subflows.affine_flow, "subflows.affine_flow",
                       counter("subflows.affine_flow.calls")))
        self._rebind(subflows.init_quadrature,
                     w(subflows.init_quadrature, QUADRATURE, on_init, on_state))
        self._rebind(subflows.update_quadrature,
                     w(subflows.update_quadrature, QUADRATURE,
                       counter("subflows.quadrature.update_calls"), on_state))
        self._rebind(schemes.additive_step,
                     w(schemes.additive_step, "schemes.additive_step",
                       counter("schemes.additive_step.calls")))
        self._rebind(schemes.lie_chain,
                     w(schemes.lie_chain, None, counter("schemes.lie_chain.calls")))
        for driver in (adaptive.integrate_fixed, adaptive.integrate_adaptive):
            self._rebind(driver, w(driver, "adaptive", after=on_trajectory))
        self._patch_attr(adaptive.QuadraturePool, "reset",
                         lambda fn: w(fn, None, counter("adaptive.pool_resets")))
        self._rebind(study.run_study, w(study.run_study, "study.driver"))
        # Inside the study module integrate_fixed is only the per-step
        # refinement (adaptivity studies), so that binding is the refine span.
        self._patch_attr(study, "integrate_fixed",
                         lambda fn: w(fn, "study.refine", counter("study.refine.calls")))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def stats(self, solve_s: float, est_reliability: float | None) -> dict:
        """BENCHMARK.json's per-layer metrics of the solve since the last reset."""
        c = self.count
        calls = c["expaction.calls"]
        steps, rejections = c["adaptive.steps"], c["adaptive.rejections"]
        out = {name: c[name] for name, unit in PER_LAYER_UNITS.items() if unit == "count"}
        out.update({
            "expaction.self_s": self.self_s["expaction"],
            "expaction.repeat_t_frac": c["expaction.repeats"] / calls if calls else 0.0,
            "expaction.tol_failures": c["ToleranceNotMet"],
            "lowrank.compress.self_s": self.self_s["lowrank.compress"],
            "lowrank.combine.self_s": self.self_s["lowrank.combine"],
            "subflows.quadratic_flow.self_s": self.self_s["subflows.quadratic_flow"],
            "subflows.quadratic_flow.step_too_large": c["StepTooLarge"],
            "subflows.affine_flow.self_s": self.self_s["subflows.affine_flow"],
            "subflows.quadrature.lambda_max": self.lambda_max,
            "subflows.quadrature.self_s": self.self_s[QUADRATURE],
            "schemes.additive_step.self_s": self.self_s["schemes.additive_step"],
            "adaptive.accept_frac": steps / (steps + rejections) if steps else 0.0,
            "adaptive.self_s": self.self_s["adaptive"],
            "study.refine_s": self.total_s["study.refine"],
            "study.driver_s": self.self_s["study.driver"],
            "study.est_reliability": est_reliability if est_reliability is not None else 0.0,
            "trace.solve_s": solve_s,
        })
        return out


def missing_layers(workload: str, stats: dict) -> list:
    """Layers with zero calls on a workload that is their home."""
    return [name for name, homes in HOME.items() if workload in homes and not stats[name]]
