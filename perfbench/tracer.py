"""Spans around the calls into conekit's public functions.

The tracer replaces each traced function at every place it is bound: its
home module and every module that imported it by name (``cli._comass``,
``gluing.comass``, ``obstruction.comass`` and ``products.check_area_minimizing``
are such copies).  Modules are reached through ``importlib.import_module``
because the package attribute ``conekit.comass`` is the function, not the
submodule.  The sampled curvature infimum ``p_fn`` is wrapped on every model
that ``products.curvature_model`` returns.

Spans stay in memory as (name, start, end, parent, job, tag, restarts) and
are written out once, when the run ends.
"""

import importlib
import json
import sys
import time

# module -> public functions traced in it
TARGETS = {
    "exterior": ("pullback", "evaluate", "gram_norm"),
    "comass": ("comass",),
    "gluing": ("verify_gluing_bound",),
    "lawlor": ("check_area_minimizing", "vanishing_angle"),
    "products": ("minimal_product", "curvature_model", "normal_radius",
                 "replication_search"),
    "obstruction": ("hemisphere_test", "constant_calibration_obstruction"),
    "serialization": ("read_json", "write_json", "write_csv"),
    "cli": ("main",),
}

# import sites that must end up wrapped: (module, attribute, traced name)
REQUIRED_SITES = (
    ("cli", "_comass", "comass.comass"),
    ("gluing", "comass", "comass.comass"),
    ("obstruction", "comass", "comass.comass"),
    ("products", "check_area_minimizing", "lawlor.check_area_minimizing"),
)

P_FN = "lawlor.p_fn"


def _comass_tag(args, kwargs):
    phi = args[0] if args else kwargs["phi"]
    return f"n{phi.n}m{phi.m}"


def _control_tag(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("control", "F")


TAGGERS = {
    "comass.comass": _comass_tag,
    "lawlor.check_area_minimizing": _control_tag,
}


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def wrap(self, name, fn):
        tagger = TAGGERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    tagger(args, kwargs) if tagger else None, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "comass.comass":
                span[6] = result.restarts_used
            elif name == "products.curvature_model":
                # frozen dataclass: swap the field without re-running checks
                object.__setattr__(result, "p_fn", self.wrap(P_FN, result.p_fn))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every TARGETS function at all of its binding sites in the
        conekit package and its modules."""
        modules = {name: importlib.import_module(f"conekit.{name}") for name in TARGETS}
        for mod_name, funcs in TARGETS.items():
            for func in funcs:
                original = getattr(modules[mod_name], func)
                wrapper = self.wrap(f"{mod_name}.{func}", original)
                for mod in [*modules.values(), sys.modules["conekit"]]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        for mod_name, attr, name in REQUIRED_SITES:
            if not hasattr(getattr(modules[mod_name], attr), "__wrapped__"):
                raise RuntimeError(f"conekit.{mod_name}.{attr} was not wrapped as {name}")

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [s[2] - s[1] - c for s, c in zip(spans, child)]
