"""Per-layer spans for the traced run, installed from outside substal.

Each traced function is wrapped by rebinding every ``substal.*`` module
attribute that is the original object, so by-name imports such as
``cli.satisfiable`` or ``logic.point_frame`` reach the wrapper too.  A
class is traced through its ``__init__``.  A recursive function records
only its outermost span.  A name substal no longer has is reported as
absent, never as an error.

Hot per-point helpers (``apply_point``, ``point_index``, the ``subst``
methods) are left unwrapped; their time shows in the caller's span.
"""

import sys
import time

# (module, attribute) pairs, each reported as <module>.<attribute>.self_s
TRACED = [
    ("cli", "run"),
    ("terms", "parse"), ("terms", "sigma_axioms"), ("terms", "eval_term"),
    ("logic", "satisfiable"), ("logic", "unfold"), ("logic", "prop_sat"),
    ("logic", "model_check"),
    ("monoid", "monoid_table"), ("monoid", "enumerate_monoid"),
    ("monoid", "canonical_word"),
    ("setalg", "algebra_from_json"),
    ("frames", "frame_from_json"), ("frames", "frame_check"),
    ("frames", "point_frame"), ("frames", "atom_frame"),
    ("represent", "complete_representation"), ("represent", "represent_at"),
    ("represent", "hom_report"), ("represent", "atom_cover_report"),
    ("represent", "check_complete_additivity"), ("represent", "check_quasi"),
    ("represent", "SubMonoidCtx"),
    ("gallery", "not_a_variety_witness"), ("gallery", "product_identities"),
    ("gallery", "counter2_truncation"),
]

# counters beyond self time and calls: name -> (counter, f(result) -> amount)
RESULT_COUNTERS = {
    "logic.prop_sat": ("sat", lambda result: result is not None),
    "frames.point_frame": ("worlds",
                           lambda result: getattr(result, "num_worlds", 0)),
}


PACKAGE = "substal"


def find_caches():
    """Every functools cache in substal, found once each among the module
    attributes and the attributes of classes, as sorted (name, cache)
    pairs named <module>.<qualified name>."""
    found = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == PACKAGE or key.startswith(PACKAGE + ".")):
            continue
        for value in list(vars(module).values()):
            members = [value]
            if isinstance(value, type):
                members += list(vars(value).values())
            for obj in members:
                if callable(getattr(obj, "cache_clear", None)):
                    owner = getattr(obj, "__module__", None) or key
                    name = "%s.%s" % (owner.removeprefix(PACKAGE + "."),
                                      getattr(obj, "__qualname__", "?"))
                    found[id(obj)] = (name, obj)
    return sorted(found.values(), key=lambda pair: pair[0])


class Tracer:
    def __init__(self):
        self.absent = []
        self._rebound = []      # (owner, attribute, original)
        self._stack = []        # child time of each open span
        self._active = set()
        self.reset()

    def reset(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {}

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for mod_name, attr in TRACED:
            name = "%s.%s" % (mod_name, attr)
            module = sys.modules.get("%s.%s" % (PACKAGE, mod_name))
            original = getattr(module, attr, None) if module else None
            if original is None:
                self.absent.append(name)
                continue
            if isinstance(original, type):
                init = original.__dict__.get("__init__")
                if init is None:
                    self.absent.append(name)
                    continue
                self._rebind(original, "__init__", init, self._wrap(name, init))
            else:
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, original, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound = []

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._rebound.append((owner, attr, original))

    def _wrap(self, name, fn):
        counter = RESULT_COUNTERS.get(name)
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
                self.calls[name] = self.calls.get(name, 0) + 1
                active.discard(name)
            if counter is not None:
                key = "%s.%s" % (name, counter[0])
                self.counts[key] = self.counts.get(key, 0) + counter[1](result)
            return result

        return traced
