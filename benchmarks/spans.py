"""Span timer for the traced runs: wraps public polcascade calls in place.

Each wrapped call adds its duration, a call count and a work count to its
span. A layer's busy time counts only the outermost call of that layer, so
``parse_stack_text`` running inside ``parse_spec`` is not counted twice.
Standard library only, so importing it costs nothing measurable before the
timed imports of numpy and polcascade.
"""

import functools
import time


class Spans:
    def __init__(self):
        self.spans = {}  # "layer.name" -> {"calls", "seconds", "stages", "photons"}
        self.busy = {}  # layer -> seconds spent in outermost calls
        self._depth = {}  # layer -> current nesting depth

    def wrap(self, fn, name, work=None):
        """Return ``fn`` timed under span ``name`` ("layer.function").

        ``work(args, kwargs, result)`` returns (stages, photons) for the call.
        """
        layer = name.split(".", 1)[0]
        span = self.spans.setdefault(name, {"calls": 0, "seconds": 0.0, "stages": 0, "photons": 0})

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            depth = self._depth.get(layer, 0)
            self._depth[layer] = depth + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth[layer] = depth
                span["calls"] += 1
                span["seconds"] += elapsed
                if depth == 0:
                    self.busy[layer] = self.busy.get(layer, 0.0) + elapsed
            if work is not None:
                stages, photons = work(args, kwargs, result)
                span["stages"] += stages
                span["photons"] += photons
            return result

        return timed

    def patch(self, owner, attr, name, work=None):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, work))

    def patch_classmethod(self, cls, attr, name, work=None):
        setattr(cls, attr, staticmethod(self.wrap(getattr(cls, attr), name, work)))

    def record(self):
        return {"spans": self.spans, "busy": self.busy}


def stack_len(args, kwargs, result):
    return len(result), 0


def spec_len(args, kwargs, result):
    return len(result.filters_deg), 0


def rendered_len(args, kwargs, result):
    # first argument: a MonteCarloReport or a CascadeTrace, one row per stage
    rendered = args[0]
    return len(rendered.config.stack if hasattr(rendered, "config") else rendered.stages), 0


def trace_len(args, kwargs, result):
    return len(result.stages), 0


def compare_len(args, kwargs, result):
    return len(result.stage_differences), 0


def mc_work(args, kwargs, result):
    return len(result.config.stack), result.photon_count


def patch_library(spans, cli, core, engines_ns):
    """Wrap the public calls the CLI and the sweep make.

    ``engines_ns`` is the namespace the caller looks the engine functions
    up in: ``polcascade.cli`` for the CLI, ``polcascade`` for the sweep.
    """
    spans.patch_classmethod(core.FilterStack, "from_degrees", "core.from_degrees", stack_len)
    spans.patch(cli, "parse_stack_text", "cli.parse_stack_text", stack_len)
    spans.patch(engines_ns, "run_classical", "engines.run_classical", trace_len)
    spans.patch(engines_ns, "run_quantum_exact", "engines.run_quantum_exact", trace_len)
    spans.patch(engines_ns, "compare", "engines.compare", compare_len)
    spans.patch(engines_ns, "run_monte_carlo", "engines.run_monte_carlo", mc_work)
