"""Traced mode: spans around the public functions of every modscramble module.

While a Tracer is entered, each listed function is replaced by a wrapper in
every ``modscramble`` module namespace that binds it, so calls the library
makes internally (``unscramble`` -> ``plan_unscramble`` -> ``period``) get
their caller's span as parent. ``ImageGrid`` is traced through its
``__post_init__``, which is where a grid copies its pixels. Leaving the
Tracer puts every original back. The library source is not changed.

Spans are kept in memory as ``[name, op, parent, start_ns, end_ns]`` and
written out once, at the end of the run.
"""

import functools
import json
import sys
import time
from collections import defaultdict

#: Functions that get a span, by the module that defines them.
SPANNED = {
    "pnm": ("read_pnm", "write_pnm", "load_pnm", "save_pnm"),
    "keyfile": ("loads_key", "read_key_file"),
    "maps": ("validate", "power_mod", "inverse_mod", "build_map"),
    "scramble": ("scramble", "unscramble", "period", "plan_unscramble"),
    "analysis": ("equivalence_classes", "orbit_signature", "pattern_equivalent",
                 "period_survey", "enumerate_unimodular", "standard_family_maps"),
    "attacks": ("apply_attack", "recovery_experiment", "mse", "psnr", "changed_pixels"),
    "cli": ("main",),
}

#: Functions called in tight loops (a million times in one period search):
#: their calls are counted, without a span.
COUNTED = {"maps": ("mat_mul_mod",), "sequences": ("term",)}


def _attack_span_name(args):
    """apply_attack(img, spec) gets one span name per attack kind."""
    return f"attacks.apply_attack.{args[1].kind}"


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name == "modscramble" or name.startswith("modscramble.")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)  # counted functions, by "module.function"
        self.amounts = defaultdict(int)  # bytes, pixels and states seen at span boundaries
        self.op = -1  # index of the operation the next spans belong to
        self._stack = []
        self._patches = []

    # ---------------------------------------------------------------- wrappers

    def _spanned(self, fn, name, after=None):
        """Wrap fn in a span; name is a string or a function of the call's args."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name_of(args), self.op, stack[-1] if stack else -1, clock(), 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][4] = clock()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, key, amount_of):
        amounts = self.amounts

        def after(args, result):
            amounts[key] += amount_of(args, result)

        return after

    def _after_hooks(self):
        pixels = self._add("scramble.pixels_moved", lambda args, _: args[0].side ** 2)
        return {
            "scramble.scramble": pixels,
            "scramble.unscramble": pixels,
            "pnm.read_pnm": self._add("pnm.bytes", lambda args, _: len(args[0])),
            "pnm.write_pnm": self._add("pnm.bytes", lambda _, result: len(result)),
            "analysis.orbit_signature": self._add(
                "analysis.orbit_states", lambda _, result: len(result.states)),
        }

    # ---------------------------------------------------------------- install

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap_everywhere(self, module, function, make_wrapper):
        original = getattr(sys.modules[f"modscramble.{module}"], function)
        wrapper = make_wrapper(original)
        for namespace in _package_modules():
            if namespace.__dict__.get(function) is original:
                self._patch(namespace, function, wrapper)

    def __enter__(self):
        hooks = self._after_hooks()
        for module, functions in SPANNED.items():
            for function in functions:
                key = f"{module}.{function}"
                name = _attack_span_name if key == "attacks.apply_attack" else key
                self._wrap_everywhere(module, function, lambda fn, name=name, after=hooks.get(key):
                                      self._spanned(fn, name, after))
        for module, functions in COUNTED.items():
            for function in functions:
                self._wrap_everywhere(module, function,
                                      lambda fn, name=f"{module}.{function}": self._counted(fn, name))
        grid = sys.modules["modscramble.scramble"].ImageGrid
        self._patch(grid, "__post_init__", self._spanned(
            grid.__post_init__, "scramble.ImageGrid",
            self._add("scramble.ImageGrid.bytes", lambda args, _: args[0].pixels.nbytes)))
        return self

    def __exit__(self, *exc_info):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # ---------------------------------------------------------------- results

    def _self_ns(self):
        child = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, _, _, start, end) in enumerate(self.spans)]

    def totals(self):
        """{span name: [calls, total ns, self ns]} over every span."""
        out = defaultdict(lambda: [0, 0, 0])
        for (name, _, _, start, end), own in zip(self.spans, self._self_ns()):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
        return out

    def self_ns_by_op(self, ops):
        """{span name: self ns} summed over the spans of the given operations."""
        ops = set(ops)
        out = defaultdict(int)
        for (name, op, _, _, _), own in zip(self.spans, self._self_ns()):
            if op in ops:
                out[name] += own
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
