"""The span recorder: nesting, self time, errors and restoring."""

import dataclasses
import sys
import types

import pytest

import run
import spans
import workloads
from spans import Recorder, Span, self_ns


def _span(i, parent, start, end):
    return Span(i, parent, 0, f"s{i}", None, 0, start, end)


def test_self_time_subtracts_the_children_it_covers():
    got = self_ns([
        _span(0, None, 0, 100),
        _span(1, 0, 10, 30),
        _span(2, 0, 40, 70),
        _span(3, 2, 50, 60),  # grandchild: counts against span 2 only
    ])
    assert got == {0: 50, 1: 20, 2: 20, 3: 10}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    got = self_ns([
        _span(0, None, 0, 60),
        _span(1, 0, 0, 50),
        _span(2, 0, 25, 75),  # overlaps span 1 and outlives its parent
    ])
    assert got[0] == 0


def test_recorder_nests_spans_and_restores_every_binding():
    def inner(x):
        return x + 1

    def outer(x):
        return ns.inner(x) * 2

    ns = types.SimpleNamespace(inner=inner, outer=outer)
    other = types.SimpleNamespace(inner=inner)  # binds the name by import
    ticks = iter(range(0, 1000, 10))
    rec = Recorder({"m.inner": inner, "m.outer": outer},
                   namespaces=[ns, other], clock=lambda: next(ticks))
    with rec.tracing(7):
        assert ns.outer(1) == 4
        assert other.inner(0) == 1
    assert (ns.inner, ns.outer, other.inner) == (inner, outer, inner)
    assert [(s.name, s.parent, s.iteration) for s in rec.spans] == [
        ("m.outer", None, 7), ("m.inner", 0, 7), ("m.inner", None, 7)]
    # outer runs 0..30 around inner's 10..20
    assert self_ns(rec.spans) == {0: 20, 1: 10, 2: 10}


def test_recorder_records_an_exception_leaving_a_span():
    def boom():
        raise ValueError("bad")

    ns = types.SimpleNamespace(boom=boom)
    rec = Recorder({"m.boom": boom}, namespaces=[ns])
    with pytest.raises(ValueError), rec.tracing(0):
        ns.boom()
    assert rec.spans[0].error == "ValueError"
    assert ns.boom is boom


def test_untraced_pass_calls_the_unwrapped_functions(tmp_path):
    from softedge import cli

    wl = dataclasses.replace(workloads.WORKLOADS["ssm_64k"], n=256)
    functions = spans.layer_functions()
    rec = Recorder(functions)
    argvs = wl.setup_argvs(tmp_path, 0) + wl.stage_argvs(tmp_path, 0)
    with rec.tracing(0):
        assert run.run_iteration(cli, argvs)[2] is None
    traced = len(rec.spans)
    assert traced > 0
    wrappers = {id(w) for w in rec._wrappers.values()}
    for name, mod in list(sys.modules.items()):
        if name.startswith("softedge"):
            assert not any(id(v) in wrappers for v in vars(mod).values()), name
    assert run.run_iteration(cli, argvs)[2] is None
    assert len(rec.spans) == traced
