"""The scenario format: one table of the keys of a scenario and of its sections.

``SECTIONS`` gives each key's JSON type, default and range, by section and
kind.  The stepper and continuation keys, types and defaults are the fields
of their config classes and their ranges are ``SOLVER_RANGES`` (``fields``);
the classes hold themselves to that table, as a scenario is held.  ``check``
refuses an unknown key, a value of the wrong type (booleans, NaN and
Infinity are no numbers) or out of range with a ScenarioError naming the
section and the key.
"""

from __future__ import annotations

import collections
import dataclasses
import numbers
import sys

from .errors import ScenarioError

REQUIRED = object()
# type: a name in TYPES, or names joined by "|"; range: a name in RANGES, or None
Key = collections.namedtuple("Key", "type default range", defaults=(REQUIRED, None))


def _number(v):     # NaN, infinities and ints past the largest float compare False
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _integer(v):
    return isinstance(v, numbers.Integral) and _number(v)


def _array(v, depth):
    """Whether ``v`` is a rectangular array, ``depth`` deep, of finite numbers."""
    v = v.tolist() if hasattr(v, "tolist") else v      # a numpy array of a library caller
    if not isinstance(v, (list, tuple)):
        return False
    return (all(map(_number, v)) if depth == 1 else
            all(_array(row, depth - 1) for row in v) and len(set(map(len, v))) <= 1)


# JSON type or range: (how a message names it, the test a value passes)
TYPES = {"number": ("a finite number", _number), "integer": ("an integer", _integer),
         "string": ("a string", lambda v: isinstance(v, str)),
         "null": ("null", lambda v: v is None),
         "object": ("a JSON object", lambda v: isinstance(v, dict)),
         "numbers": ("an array of numbers", lambda v: _array(v, 1)),
         "2-vector": ("an array of two numbers", lambda v: _array(v, 1) and len(v) == 2),
         "terms": ("an array of [c, px, py] terms with integers px, py >= 0",
                   lambda v: _array(v, 2) and all(len(t) == 3 and all(
                       _integer(p) and p >= 0 for p in t[1:]) for t in v)),
         "2-D array": ("a rectangular 2-D array of numbers", lambda v: _array(v, 2))}
N_RADIAL, N_ANGULAR = (8, 1024), (16, 2048)     # the grid sizes' bounds; n_angular is even
DT_FLOOR = 1e-14    # the stepper's smallest step: a given dt below it is refused
RANGES = {"positive": ("positive", lambda v: v > 0),
          "non-negative": ("non-negative (0 runs to max_time)", lambda v: v >= 0),
          "step": (f"at least {DT_FLOOR:g}, the stepper's smallest step",
                   lambda v: v >= DT_FLOOR),
          "(0, 1)": ("in (0, 1)", lambda v: 0 < v < 1),
          "even": ("a positive even integer", lambda v: v > 0 and v % 2 == 0),
          "non-empty": ("non-empty", lambda v: len(v) > 0),
          "n_radial": ("an integer in [%d, %d]" % N_RADIAL,
                       lambda v: N_RADIAL[0] <= v <= N_RADIAL[1]),
          "n_angular": ("an even integer in [%d, %d]" % N_ANGULAR,
                        lambda v: N_ANGULAR[0] <= v <= N_ANGULAR[1] and v % 2 == 0)}

# section -> kind -> key -> Key; a section without kinds has the one kind None
SECTIONS = {
    "metric": {None: {"id": Key("string", "flat")}},
    "domain": {
        "disk": {"radius": Key("number", 1.0, "positive"), "center": Key("2-vector", (0.0, 0.0))},
        "ellipse": {"a": Key("number", range="positive"), "b": Key("number", range="positive"),
                    "center": Key("2-vector", (0.0, 0.0))},
        "smooth_convex": {"r0": Key("number", 1.0, "positive"), "amp": Key("number", 0.0),
                          "k": Key("integer", 2, "even"), "phase": Key("number", 0.0)},
        "chart_circle": {"r0": Key("number", range="positive")}},
    "phi": {
        "constant": {"value": Key("number")},
        "fourier": {"a0": Key("number", 0.0), "cos": Key("numbers", ()), "sin": Key("numbers", ())},
        "table": {"values": Key("numbers", range="non-empty")}},
    "u0": {
        "constant": {"value": Key("number", 0.0)},
        "polynomial": {"terms": Key("terms", ())},
        "sampled": {"values": Key("2-D array")}},
    "grid": {None: {"n_radial": Key("integer", range="n_radial"),
                    "n_angular": Key("integer", range="n_angular")}},
}
KINDS = {"domain": REQUIRED, "phi": REQUIRED, "u0": "constant"}     # the default kind

SCENARIO = {None: {"name": Key("string", "scenario"), "seed_label": Key("string", None),
                   "metric": Key("object"), "domain": Key("object"), "phi": Key("object"),
                   "u0": Key("object", {}), "grid": Key("object"), "stepper": Key("object", {}),
                   "continuation": Key("object", {})}}

# the ranges of the solver sections, whose keys are the fields of their config classes
SOLVER_RANGES = {"stepper": {"dt": "step", "tol_speed": "non-negative", "max_time": "positive",
                             "snapshot_interval": "positive"},
                 "continuation": {"eps_min": "(0, 1)"}}
_ANNOTATED = {"float": "number", "int": "integer", "tuple": "numbers", "None": "null"}


def fields(name, cls) -> dict:
    """The table of section ``name``, whose keys are the fields of the dataclass
    ``cls`` (annotations are strings: ``from __future__ import annotations``)
    and whose ranges are ``SOLVER_RANGES[name]``."""
    ranges = SOLVER_RANGES[name]
    return {None: {f.name: Key("|".join(_ANNOTATED[t] for t in f.type.split(" | ")),
                               f.default, ranges.get(f.name)) for f in dataclasses.fields(cls)}}


def check(name, spec, table=None) -> dict:
    """``spec``, section ``name`` (None: the scenario itself), with the default of
    every key it leaves out, once it fits ``table`` (default: SECTIONS[name])."""
    where = f"scenario section '{name}'" if name else "scenario"
    table = SECTIONS[name] if table is None else table
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    out = {} if None in table else {"kind": spec.get("kind", KINDS[name])}
    kind = out.get("kind")
    if out and not (isinstance(kind, str) and kind in table):
        raise ScenarioError(f"{where}: 'kind' must be one of {', '.join(table)}, not "
                            f"{'None (it is missing)' if kind is REQUIRED else repr(kind)}")
    unknown = sorted(set(spec) - set(table[kind]) - set(out))
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))} "
                            f"(known: {', '.join(sorted({*table[kind], *out}))})")
    for key, (types, default, limit) in table[kind].items():
        value = out[key] = spec.get(key, default)
        if value is REQUIRED or key in spec and not any(TYPES[t][1](value)
                                                        for t in types.split("|")):
            raise ScenarioError(f"{where}: '{key}' must be "
                                f"{' or '.join(TYPES[t][0] for t in types.split('|'))}, not "
                                f"{'None (it is missing)' if value is REQUIRED else repr(value)}")
        if limit and value is not None and not RANGES[limit][1](value):  # null: no range
            raise ScenarioError(f"{where}: {f'{kind} {key}' if kind else repr(key)} must be "
                                f"{RANGES[limit][0]}, not {value!r}")
    return out
