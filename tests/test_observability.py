"""Observability: sinks, the activation stack, and emission from solve_rpca."""

from __future__ import annotations

import pytest

from repro.core.solvers import solve_rpca
from repro.observability import (
    Instrumentation,
    SolveSpan,
    active,
    emit_count,
    emit_time,
    instrumented,
    timed,
)

MB = 1024 * 1024


def _span(**overrides):
    base = dict(
        solver="ialm", rows=10, cols=64, iterations=100, rank=3,
        residual=1e-8, converged=True, seconds=0.01,
    )
    base.update(overrides)
    return SolveSpan(**base)


class TestInstrumentation:
    def test_counters_accumulate(self):
        instr = Instrumentation()
        instr.count("x")
        instr.count("x", 4)
        assert instr.counters == {"x": 5}

    def test_timers_accumulate(self):
        instr = Instrumentation()
        instr.add_time("t", 0.5)
        with instr.timed("t"):
            pass
        assert instr.timers["t"] >= 0.5

    def test_span_aggregates(self):
        instr = Instrumentation()
        instr.record_span(_span())
        instr.record_span(_span(iterations=60))
        assert instr.solves == 2
        assert instr.solve_iterations == 160
        assert instr.solve_seconds == pytest.approx(0.02)

    def test_reset_keeps_name(self):
        instr = Instrumentation("keeper")
        instr.count("x")
        instr.record_span(_span())
        instr.reset()
        assert instr.name == "keeper"
        assert instr.solves == 0 and not instr.counters

    def test_report_contains_everything(self):
        instr = Instrumentation("rep")
        instr.record_span(_span())
        instr.count("engine.solve.cold")
        instr.add_time("engine.solve_seconds", 0.25)
        text = instr.report()
        assert "instrumentation report [rep]" in text
        assert "solves: 1," in text and "ialm" in text
        assert "engine.solve.cold" in text
        assert "engine.solve_seconds" in text

    def test_report_empty(self):
        assert "none recorded" in Instrumentation().report()


class TestActivationStack:
    def test_no_sink_is_noop(self):
        assert active() == ()
        emit_count("free")  # must not raise
        emit_time("free", 1.0)

    def test_nested_sinks_both_receive(self):
        outer, inner = Instrumentation("outer"), Instrumentation("inner")
        with instrumented(outer):
            with instrumented(inner):
                emit_count("n")
                with timed("t"):
                    pass
        assert outer.counters["n"] == 1 and inner.counters["n"] == 1
        assert "t" in outer.timers and "t" in inner.timers

    def test_same_sink_twice_counts_once(self):
        sink = Instrumentation()
        with instrumented(sink), instrumented(sink):
            emit_count("n")
        assert sink.counters["n"] == 1

    def test_stack_unwinds_on_error(self):
        sink = Instrumentation()
        with pytest.raises(RuntimeError):
            with instrumented(sink):
                raise RuntimeError("boom")
        assert active() == ()

    def test_default_sink_created(self):
        with instrumented() as sink:
            emit_count("n")
        assert sink.counters["n"] == 1


class TestSolveRpcaEmission:
    def test_span_emitted_with_context(self, tiny_trace):
        a = tiny_trace.tp_matrix(8 * MB).data
        sink = Instrumentation()
        with instrumented(sink):
            res = solve_rpca(a, solver="ialm", context="unit-test")
        (span,) = sink.spans
        assert span.solver == "ialm"
        assert (span.rows, span.cols) == a.shape
        assert span.iterations == res.iterations
        assert span.converged == res.converged
        assert span.context == "unit-test"
        assert span.seconds > 0

    def test_no_sink_no_span(self, tiny_trace):
        a = tiny_trace.tp_matrix(8 * MB).data
        res = solve_rpca(a, solver="row_constant")
        assert res.constant_row is not None  # solve itself unaffected

    def test_legacy_warm_flag_is_dropped_on_restore(self, tiny_trace):
        # States captured when solves could be warm carry a ``warm`` flag
        # per span; restoring or merging one drops it.
        a = tiny_trace.tp_matrix(8 * MB).data
        sink = Instrumentation()
        with instrumented(sink):
            solve_rpca(a, solver="ialm")
        state = sink.state_dict()
        state["spans"] = [dict(span, warm=True) for span in state["spans"]]
        restored = Instrumentation()
        restored.restore_state(state)
        restored.merge(state)
        assert restored.spans == sink.spans * 2
