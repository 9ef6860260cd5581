"""The traced run wraps substal from outside and survives missing names.

Run from the repository root:

    python3 -m pytest verdictbench
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import spans  # noqa: E402
from substal import cli, logic, monoid, represent  # noqa: E402


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def test_by_name_imports_are_wrapped_and_restored():
    original = logic.satisfiable
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.satisfiable is logic.satisfiable is not original
        assert _run(["valid", "-n", "3", "s[0,1] s[0,1] p0 -> p0"]) == 0
    finally:
        tracer.uninstall()
    assert cli.satisfiable is logic.satisfiable is original
    assert tracer.absent == []
    # one outermost unfold and one prop_sat per kernel partition of n = 3
    assert tracer.calls["logic.unfold"] == tracer.calls["logic.prop_sat"] == 5
    assert tracer.calls["logic.satisfiable"] == 1
    assert tracer.counts.get("logic.prop_sat.sat", 0) == 0
    for name in ("cli.run", "logic.satisfiable", "logic.unfold", "terms.parse"):
        assert tracer.self_s[name] >= 0.0


def test_self_time_excludes_nested_spans():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _run(["sat", "-n", "2", "--mode", "diag", "~d(0,1) & s[0,1] p0"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["frames.point_frame.worlds"] == 4
    assert tracer.counts["logic.prop_sat.sat"] == 1
    nested = sum(t for name, t in tracer.self_s.items() if name != "cli.run")
    assert nested > 0.0
    assert tracer.self_s["cli.run"] >= 0.0


def test_classes_are_traced_through_init():
    init = vars(represent.SubMonoidCtx)["__init__"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        represent.SubMonoidCtx(2, monoid.enumerate_monoid(2, "transpositions"))
    finally:
        tracer.uninstall()
    assert tracer.calls["represent.SubMonoidCtx"] == 1
    assert vars(represent.SubMonoidCtx)["__init__"] is init


def test_missing_functions_are_absent_not_errors():
    saved = logic.prop_sat
    del logic.prop_sat
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        logic.prop_sat = saved
    assert tracer.absent == ["logic.prop_sat"]


def test_caches_are_found_by_their_home_module():
    caches = dict(spans.find_caches())
    assert caches["monoid.monoid_table"] is monoid.monoid_table
    monoid.monoid_table(2, "transpositions")
    caches["monoid.monoid_table"].cache_clear()
    assert monoid.monoid_table.cache_info().currsize == 0
