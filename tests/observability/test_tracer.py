"""Tracer invariants: well-nested span trees, one span per executed pass,
and true zero-cost when tracing is disabled."""

from __future__ import annotations

import pytest

from repro.diagnostics import PassGuard
from repro.ir.transforms import standard_cleanup_pipeline
from repro.observability import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    use_tracer,
)

from ..conftest import build_axpy_module, lowered_gemm_ir


def assert_well_nested(span: Span) -> None:
    """Every child's [start, end] interval lies inside its parent's."""
    assert span.duration is not None, f"span {span.name!r} never closed"
    for child in span.children:
        assert child.start >= span.start - 1e-9
        assert child.end <= span.end + 1e-9
        assert_well_nested(child)


class TestSpanTree:
    def test_nesting_follows_with_blocks(self):
        t = Tracer()
        with t.span("outer", category="flow"):
            with t.span("inner-a", category="stage"):
                with t.span("leaf", category="pass"):
                    pass
            with t.span("inner-b", category="stage"):
                pass
        assert [r.name for r in t.roots] == ["outer"]
        outer = t.roots[0]
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert [c.name for c in outer.children[0].children] == ["leaf"]
        assert_well_nested(outer)

    def test_sibling_spans_do_not_overlap_parent_stack(self):
        t = Tracer()
        with t.span("root"):
            with t.span("first"):
                pass
            assert t.current.name == "root"
            with t.span("second"):
                assert t.current.name == "second"
        assert t.current is None
        first, second = t.roots[0].children
        assert first.end <= second.start + 1e-9

    def test_span_survives_exception(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("outer"):
                with t.span("boom"):
                    raise ValueError("x")
        # Both spans closed (duration set) despite the unwind.
        assert_well_nested(t.roots[0])
        assert t.current is None

    def test_args_and_set(self):
        t = Tracer()
        with t.span("s", category="stage", kernel="gemm") as span:
            span.set(rewrites=3)
        assert t.roots[0].args == {"kernel": "gemm", "rewrites": 3}

    def test_find_and_by_category(self):
        t = Tracer()
        with t.span("a", category="flow"):
            with t.span("b", category="pass"):
                pass
            with t.span("b", category="pass"):
                pass
        assert len(t.find("b")) == 2
        assert [s.name for s in t.by_category("flow")] == ["a"]

    def test_roundtrip_through_dicts(self):
        t = Tracer()
        with t.span("outer", category="flow", kernel="gemm"):
            with t.span("inner", category="pass"):
                pass
        data = t.roots[0].to_dict()
        rebuilt = Span.from_dict(data)
        assert rebuilt.to_dict() == data
        assert rebuilt.children[0].name == "inner"
        assert_well_nested(rebuilt)


class TestPassSpans:
    def test_every_executed_pass_has_exactly_one_span(self, axpy_module):
        pm = standard_cleanup_pipeline()
        tracer = Tracer()
        with use_tracer(tracer):
            pm.run(axpy_module)
        executed = [s.name for s in pm.history]
        pass_spans = [s.name for s in tracer.by_category("pass")]
        # Same multiset: CSE/DCE run twice in the pipeline and must get
        # two spans, every other pass exactly one.
        assert sorted(pass_spans) == sorted(executed)

    def test_pass_spans_nest_and_carry_rewrites(self, axpy_module):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("cleanup", category="stage"):
                stats = standard_cleanup_pipeline().run(axpy_module)
        root = tracer.roots[0]
        assert_well_nested(root)
        assert stats, "cleanup pipeline ran no passes"
        # Each pass span carries the pass's rewrite count verbatim.
        span_rewrites = [
            s.args.get("rewrites") for s in root.by_category("pass")
        ]
        assert span_rewrites == [st.rewrites for st in stats]

    def test_each_pass_followed_by_verify_child_span(self):
        # A guarded manager verifies after every pass: one verify span
        # under every pass span.
        _, module = lowered_gemm_ir()
        tracer = Tracer()
        with use_tracer(tracer):
            pm = standard_cleanup_pipeline()
            pm.guard = PassGuard(kind="ir")
            pm.run(module)
        pass_spans = tracer.by_category("pass")
        assert len(pass_spans) == len(pm.history)
        for span in pass_spans:
            assert [c.name for c in span.children] == ["verify"]
        assert len(tracer.find("verify")) == len(pass_spans)

    def test_unguarded_run_verifies_once_under_last_pass(self, axpy_module):
        tracer = Tracer()
        with use_tracer(tracer):
            pm = standard_cleanup_pipeline()
            pm.run(axpy_module)
        pass_spans = tracer.by_category("pass")
        assert len(pass_spans) == len(pm.history)
        verifies = tracer.find("verify")
        assert len(verifies) == 1
        assert pass_spans[-1].children == verifies
        assert all(not span.children for span in pass_spans[:-1])


class TestDisabledTracer:
    def test_default_tracer_is_the_null_singleton(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled

    def test_disabled_run_records_no_spans(self, axpy_module):
        # No use_tracer: pipeline runs against NULL_TRACER.
        before = list(NULL_TRACER.roots)
        standard_cleanup_pipeline().run(axpy_module)
        assert list(NULL_TRACER.roots) == before == []
        assert list(NULL_TRACER.walk()) == []

    def test_null_span_context_is_shared(self):
        # Zero-cost-when-disabled hinges on span() allocating nothing.
        t = NullTracer()
        assert t.span("a") is t.span("b", category="pass", kernel="gemm")

    def test_null_span_swallows_annotations(self):
        with NULL_TRACER.span("x") as span:
            span.set(rewrites=7)
        assert span.args == {}

    def test_use_tracer_restores_previous(self):
        t = Tracer()
        assert get_tracer() is NULL_TRACER
        with use_tracer(t):
            assert get_tracer() is t
        assert get_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError("x")
        assert get_tracer() is NULL_TRACER
