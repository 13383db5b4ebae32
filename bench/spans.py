"""Span recorder that times calls into aplab's modules from outside them.

``instrument(recorder)`` wraps the public functions and stepper
methods the benchmark reports on, for the rest of the process. Functions are
replaced in every aplab module namespace that holds them (``from .grid import
sample`` makes one copy per importing module), methods on their class.

Spans stay in memory: (id, parent id, name, start, end, self time). Self time
is the duration minus the time covered by direct child spans. A call whose
span name equals the open span's is folded into it, so the IMEX step that a
micro-macro step runs inside itself stays part of the micro-macro step.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []  # [span id, name, child time] per open span

    def wrap(self, fn, name, note=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call args.

        ``note(recorder, args, result)`` runs after the span closes and
        updates counters.
        """
        rec = self
        clock = time.perf_counter
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if fixed else name(args)
            stack = rec._stack
            if stack and stack[-1][1] == label:
                return fn(*args, **kwargs)
            span_id = len(rec.spans) + len(stack)
            frame = [span_id, label, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                rec.spans.append((span_id, parent, label, start, end, duration - frame[2]))
            if note is not None:
                note(rec, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = {}
        for _, _, name, start, end, self_s in self.spans:
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + self_s)
        return {name: {"calls": c, "s": t, "self_s": s} for name, (c, t, s) in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            t0 = min((s[3] for s in self.spans), default=0.0)
            for span_id, parent, name, start, end, self_s in sorted(self.spans):
                fh.write(f"{span_id},{parent},{name},{start - t0:.9f},"
                         f"{end - t0:.9f},{self_s:.9f}\n")


# ---------------------------------------------------------------------------
# what gets wrapped


def _note_solve_cyclic(rec, args, result):
    rec.counters["linalg.solve_cyclic.unknowns"] += result.size


def _note_factor(rec, args, result):
    # SuperLU's own count of the entries it stores for L and U; reading it
    # copies nothing, unlike ``lu.L.nnz + lu.U.nnz``.
    rec.counters["linalg.sparse_factor.lu_nnz"] += args[0]._lu.nnz


def _note_solve(rec, args, result):
    stats = result[1]
    rec.counters["linalg.sparse_solve.refine_iters"] += stats.iterations
    key = "linalg.sparse_solve.max_residual"
    rec.counters[key] = max(rec.counters[key], stats.residual_norm)


def _step_name(module):
    prefix = f"{module}.step."
    return lambda args: prefix + args[0].cfg.scheme.value


def _function_targets():
    m = sys.modules
    return [
        (m["aplab.grid"].sample, "grid.sample", None),
        (m["aplab.aligned"].exact_aligned, "aligned.reference", None),
        (m["aplab.aligned"].limit_aligned, "aligned.reference", None),
        (m["aplab.aligned_schemes"].make_aligned_stepper, "aligned_schemes.stepper_setup", None),
        (m["aplab.aligned_schemes"].upwind_x, "aligned_schemes.upwind_x", None),
        (m["aplab.aligned_schemes"].run_aligned, "aligned_schemes.run_aligned", None),
        (m["aplab.linalg"].solve_cyclic, "linalg.solve_cyclic", _note_solve_cyclic),
        (m["aplab.linalg"].cond2, "linalg.cond2", None),
        (m["aplab.rotating_schemes"].assemble_imp, "rotating_schemes.assemble", None),
        (m["aplab.rotating_schemes"].assemble_lagrange_rot, "rotating_schemes.assemble", None),
        (m["aplab.rotating_schemes"].run_rotating, "rotating_schemes.run_rotating", None),
        (m["aplab.analysis"].cond_sweep, "analysis.cond_sweep", None),
        (m["aplab.analysis"].error_eta, "analysis.error", None),
        (m["aplab.analysis"].error_gamma, "analysis.error", None),
        (m["aplab.analysis"].fit_loglog_slope, "analysis.fit_loglog_slope", None),
    ]


def _method_targets():
    m = sys.modules
    aligned = m["aplab.aligned_schemes"]
    rotating = m["aplab.rotating_schemes"]
    linalg = m["aplab.linalg"]
    targets = [
        (m["aplab.grid"].Field2D, "__post_init__", "grid.Field2D", None),
        (linalg.SparseFactor, "__init__", "linalg.sparse_factor", _note_factor),
        (linalg.SparseFactor, "solve", "linalg.sparse_solve", _note_solve),
        (linalg.SparseFactor, "raw_solve", "linalg.sparse_raw_solve", None),
    ]
    for cls in (aligned.ImexStepper, aligned.FourierStepper, aligned.MicroMacroStepper,
                aligned.LagrangeAlignedStepper):
        targets.append((cls, "step", _step_name("aligned_schemes"), None))
    for cls in (rotating.ImpStepper, rotating.LagrangeRotatingStepper):
        targets.append((cls, "__init__", "rotating_schemes.stepper_setup", None))
        targets.append((cls, "step", _step_name("rotating_schemes"), None))
    return targets


def instrument(recorder: SpanRecorder) -> None:
    """Route the traced functions and methods through ``recorder``."""
    modules = [mod for name, mod in sys.modules.items()
               if mod is not None and (name == "aplab" or name.startswith("aplab."))]
    for fn, name, note in _function_targets():
        wrapped = recorder.wrap(fn, name, note)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
    for cls, attr, name, note in _method_targets():
        setattr(cls, attr, recorder.wrap(cls.__dict__[attr], name, note))
