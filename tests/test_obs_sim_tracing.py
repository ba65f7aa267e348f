"""Span tracing in the simulator: complete, exact, and perturbation-free.

Tracing follows the sanitizer's read-only contract: a traced run must
produce a :class:`SimulationResult` equal to the untraced run, down to
the exported CSV bytes, while the span log it emits must account for
every request and reproduce the run's aggregate delay *exactly* (the
tracer observes the same floats the accounting path adds up).

A traced run takes the compiled core where it can, and the classes
whose tests depend on the core run a second time on the references
(``...OnTheReference``, as a machine without a C compiler runs them).
"""

import hashlib
import io

import pytest

from repro.analysis.sweep import result_row, write_csv
from repro.cluster import ClusterConfig, ClusterSimulator, run_simulation
from repro.obs import SpanWriter, read_span_log
from repro.obs.span import parse_span_log
from repro.obs.tracer import SimTracer
from repro.sim import SanitizerError
from repro.workload import cgi_mix_trace, synthesize_trace
from tests.native_core import native_available, reference_core, require_native

CACHE = 256 * 1024


def _trace(n_requests=1500, seed=7):
    return synthesize_trace(n_requests, 150, 4 * 10**6, 1.0, seed=seed)


def _run_traced(tmp_path, trace, name="spans.jsonl", **kwargs):
    path = tmp_path / name
    result = run_simulation(trace, trace_out=path, **kwargs)
    return result, read_span_log(path)


KWARGS = dict(policy="lard/r", num_nodes=3, node_cache_bytes=CACHE)


class _OnTheReference:
    """Mixed into a test class: its tests again, on ``fastpath.py`` and
    ``engine.py``."""

    core = "python"

    @pytest.fixture(autouse=True)
    def _reference_core(self):
        with reference_core():
            yield


class TestReadOnlyContract:
    def test_traced_result_equals_untraced(self, tmp_path):
        trace = _trace()
        plain = run_simulation(trace, **KWARGS)
        traced, log = _run_traced(tmp_path, trace, **KWARGS)
        assert traced == plain
        assert len(log.spans) == len(trace)

    def test_traced_csv_is_byte_identical(self, tmp_path):
        trace = _trace()
        plain = run_simulation(trace, **KWARGS)
        traced, _ = _run_traced(tmp_path, trace, **KWARGS)
        paths = [
            write_csv([result_row(result, {"run": 0})], tmp_path / f"{tag}.csv")
            for tag, result in (("plain", plain), ("traced", traced))
        ]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("policy", ["lard", "wrr", "wrr/gms", "lb"])
    def test_every_policy_unperturbed(self, tmp_path, policy):
        trace = _trace(800)
        kwargs = dict(policy=policy, num_nodes=3, node_cache_bytes=CACHE)
        plain = run_simulation(trace, **kwargs)
        traced, log = _run_traced(tmp_path, trace, **kwargs)
        assert traced == plain
        assert len(log.spans) == 800

    def test_persistent_connections_unperturbed(self, tmp_path):
        trace = _trace(1000)
        kwargs = dict(
            policy="lard/r",
            num_nodes=3,
            node_cache_bytes=CACHE,
            requests_per_connection=4,
            persistent_policy="rehandoff",
        )
        plain = run_simulation(trace, **kwargs)
        traced, log = _run_traced(tmp_path, trace, **kwargs)
        assert traced == plain
        assert len(log.spans) == 1000


# sha256 of the JSONL span log (spans with phases, outcomes, dispatch
# loads, plus 0.05 s samples) recorded on a7b00b5, where traced runs had
# their own copies of ``serve`` and ``_connection``: the merged lifecycle
# is checked against what those produced, not against itself.
# The ``cgi`` digest was taken on a7b00b5 plus the one-word ``"dynamic"``
# addition to ``OUTCOMES`` (unpatched, tracing a CGI trace died with
# ``SchemaError: unknown span outcome: 'dynamic'``).
_PARENT_SPAN_LOG_SHA256 = {
    "lard/r": "af7462af35b0c3ef543b17e4d1044420fbc5e04f008a0c519e68255ec074566d",
    "wrr/gms": "4ac6260a3b821d0384b2479c03957b91cdabb365f5d6b2358bf60b0a8331c360",
    "lb/gc": "2c818ffb824fb3f4afc00f54e6610be6f2d198ac448f06731f83346c81ed60de",
    "cgi": "4cd16259fa712e8ee65a5e34a9c6e88b1b289355d3be991b5af23efb5df470c0",
}


def _cgi_trace():
    return cgi_mix_trace(
        num_requests=1500,
        num_targets=150,
        total_bytes=4 * 10**6,
        zipf_alpha=1.0,
        dynamic_fraction=0.15,
        cpu_cost_s=0.02,
        seed=7,
    )


class TestMatchesParentLifecycle:
    core = "native" if native_available() else "python"

    @pytest.mark.parametrize("case", sorted(_PARENT_SPAN_LOG_SHA256))
    def test_span_log_bytes_match_parent(self, case):
        trace = _cgi_trace() if case == "cgi" else _trace()
        policy = "lard/r" if case == "cgi" else case
        config = ClusterConfig(policy=policy, num_nodes=3, node_cache_bytes=CACHE)
        buf = io.StringIO()
        with SpanWriter(buf, source="sim") as writer:
            tracer = SimTracer(writer, sample_interval_s=0.05)
            sim = ClusterSimulator(trace, config, tracer=tracer)
            sim.run()
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == _PARENT_SPAN_LOG_SHA256[case]
        # GMS and LB/GC's hit hints are the reference's on either.
        assert sim.core == (self.core if case in ("lard/r", "cgi") else "python")

    def test_cgi_trace_traces_and_is_unperturbed(self, tmp_path):
        trace = _cgi_trace()
        plain = run_simulation(trace, **KWARGS)
        traced, log = _run_traced(tmp_path, trace, **KWARGS)
        assert traced == plain
        dynamic = sum(1 for span in log.spans if span.outcome == "dynamic")
        assert dynamic == plain.dynamic_requests > 0


class TestMatchesParentLifecycleOnTheReference(_OnTheReference, TestMatchesParentLifecycle):
    pass


class TestSpanContent:
    def test_delays_sum_to_total_exactly(self, tmp_path):
        trace = _trace()
        result, log = _run_traced(tmp_path, trace, **KWARGS)
        # Same floats, same addition order as the accounting path.
        assert sum(span.delay_s for span in log.spans) == result.total_delay_s

    def test_phases_partition_each_delay(self, tmp_path):
        _, log = _run_traced(tmp_path, _trace(), **KWARGS)
        for span in log.spans:
            assert sum(span.phases.values()) == pytest.approx(
                span.delay_s, abs=1e-9
            )

    def test_outcomes_match_cache_counters(self, tmp_path):
        result, log = _run_traced(tmp_path, _trace(), **KWARGS)
        hits = sum(1 for s in log.spans if s.outcome == "hit")
        assert hits == result.cache_hits
        assert all(s.outcome in {"hit", "miss", "coalesced"} for s in log.spans)

    def test_spans_carry_dispatch_context(self, tmp_path):
        _, log = _run_traced(tmp_path, _trace(500), **KWARGS)
        assert log.source == "sim"
        for span in log.spans:
            assert span.policy == "lard/r"
            assert 0 <= span.node < 3
            assert span.load is not None and len(span.load) == 3
            assert span.target.isdigit()  # synthetic targets are token ids

    def test_gms_outcomes_surface(self, tmp_path):
        _, log = _run_traced(
            tmp_path,
            _trace(1500),
            policy="wrr/gms",
            num_nodes=3,
            node_cache_bytes=CACHE,
        )
        outcomes = {span.outcome for span in log.spans}
        assert "gms_local" in outcomes or "gms_remote" in outcomes


class TestSpanContentOnTheReference(_OnTheReference, TestSpanContent):
    pass


class TestSampling:
    def test_samples_emitted_on_interval(self, tmp_path):
        path = tmp_path / "sampled.jsonl"
        result = run_simulation(
            _trace(), trace_out=path, sample_interval_s=0.05, **KWARGS
        )
        log = read_span_log(path)
        assert len(log.samples) >= 2
        times = [float(s["t"]) for s in log.samples]  # type: ignore[arg-type]
        assert times == sorted(times)
        assert times[-1] <= result.sim_time_s
        for sample in log.samples:
            assert len(sample["load"]) == 3  # type: ignore[arg-type]
            assert 0.0 <= float(sample["miss_ratio"]) <= 1.0  # type: ignore[arg-type]
            assert "cpu_queue" in sample and "disk_queue" in sample

    def test_sampling_does_not_perturb_result(self, tmp_path):
        trace = _trace()
        plain = run_simulation(trace, **KWARGS)
        sampled = run_simulation(
            trace, trace_out=tmp_path / "s.jsonl", sample_interval_s=0.05, **KWARGS
        )
        assert sampled == plain

    @pytest.mark.parametrize("interval", [float("nan"), float("inf"), 0.0, -0.05])
    def test_unusable_interval_rejected_at_construction(self, interval):
        """NaN and inf slipped past a ``<= 0`` guard and then never
        sampled; every unusable interval is now a ValueError up front."""
        with pytest.raises(ValueError, match="positive and finite"):
            SimTracer(SpanWriter(io.StringIO()), sample_interval_s=interval)

    def test_interval_without_span_log_rejected(self):
        with pytest.raises(ValueError, match="needs trace_out"):
            run_simulation(_trace(200), sample_interval_s=0.05, **KWARGS)

    def test_no_samples_without_interval(self, tmp_path):
        _, log = _run_traced(tmp_path, _trace(400), **KWARGS)
        assert log.samples == []


class TestSamplingOnTheReference(_OnTheReference, TestSampling):
    pass


class TestRunThatEndsEarly:
    """The lifecycle writes its spans as rows, which the writer formats
    a chunk at a time; a run that dies must still leave every finished
    span in a log closed by ``with SpanWriter(...)``."""

    core = "native" if native_available() else "python"

    def _traced(self, writer, **config):
        tracer = SimTracer(writer)
        sim = ClusterSimulator(
            _trace(), ClusterConfig(**KWARGS, **config), tracer=tracer
        )
        return tracer, sim

    def _check(self, path, tracer, sim):
        log = read_span_log(path)
        finished = sim.frontend.completed
        assert 0 < finished < len(sim.trace)
        # Part of a chunk was still waiting to be formatted.
        assert finished % len(tracer.ints)
        assert len({span.req for span in log.spans}) == len(log.spans) == finished
        assert tracer.spans_finished == finished

    def test_stalled_run_keeps_every_finished_span(self, tmp_path):
        path = tmp_path / "stalled.jsonl"
        with SpanWriter(path, source="sim") as writer:
            tracer, sim = self._traced(writer)
            # Stopped from inside the run, by the 700th policy decision:
            # an event scheduled from outside would keep the run off the
            # compiled core.
            choose, calls = sim.frontend.choose, []

            def choose_then_stop(*args):
                calls.append(None)
                if len(calls) == 700:
                    sim.engine.stop()
                return choose(*args)

            sim.frontend.choose = choose_then_stop
            with pytest.raises(RuntimeError, match="simulation stalled"):
                sim.run()
        assert sim.core == self.core
        self._check(path, tracer, sim)

    def test_sanitizer_violation_keeps_every_finished_span(self, tmp_path):
        path = tmp_path / "violation.jsonl"
        with SpanWriter(path, source="sim") as writer:
            tracer, sim = self._traced(writer, sanitize=True, sanitize_interval=1)

            def corrupt():
                sim.frontend.in_flight = -1

            sim.engine.schedule(1.0, corrupt)
            with pytest.raises(SanitizerError, match="in_flight is negative"):
                sim.run()
        self._check(path, tracer, sim)


class TestRunThatEndsEarlyOnTheReference(_OnTheReference, TestRunThatEndsEarly):
    pass


# -- the compiled core writes the reference's span log ------------------------------

#: name -> (trace, ClusterConfig fields, sample interval): the paths a
#: span row has to time, on each core.
_BOTH_CORES = {
    "persistent-sticky": (_trace, dict(requests_per_connection=4), None),
    "persistent-rehandoff": (
        _trace, dict(requests_per_connection=3, persistent_policy="rehandoff"), None
    ),
    "cgi": (_cgi_trace, dict(), None),
    "chunked": (
        lambda: synthesize_trace(1500, 60, 40 * 10**6, 1.0, seed=5), dict(), None
    ),
    "coalesced-and-not": (_trace, dict(coalesce_reads=False), None),
    "sampled": (_trace, dict(), 0.01),
    "1024-nodes": (
        lambda: synthesize_trace(3000, 2000, 64 * 10**6, 1.0, seed=3),
        dict(num_nodes=1024, policy="wrr"),
        0.2,
    ),
}


def _span_log(trace, fields, interval):
    buf = io.StringIO()
    with SpanWriter(buf, source="sim") as writer:
        config = ClusterConfig(**{**KWARGS, **fields})
        sim = ClusterSimulator(trace, config, tracer=SimTracer(writer, interval))
        sim.run()
    return sim, buf.getvalue()


@pytest.mark.parametrize("case", sorted(_BOTH_CORES))
def test_compiled_and_reference_span_logs_are_byte_equal(case):
    require_native()
    make_trace, fields, interval = _BOTH_CORES[case]
    trace = make_trace()
    compiled, compiled_log = _span_log(trace, fields, interval)
    with reference_core():
        reference, reference_log = _span_log(trace, fields, interval)
    assert (compiled.core, reference.core) == ("native", "python")
    assert compiled_log == reference_log
    assert compiled_log.count('"kind":"span"') == len(trace)
    if interval is not None:
        assert compiled_log.count('"kind":"sample"') >= 2


def test_the_cases_drive_every_path_the_core_times():
    """The cases above are only a proof if, between them, they reach
    every outcome the compiled core writes, every phase it times and
    reads of several disk chunks."""
    outcomes, phases = set(), set()
    for case in ("cgi", "chunked", "coalesced-and-not", "persistent-sticky"):
        make_trace, fields, interval = _BOTH_CORES[case]
        sim, log = _span_log(make_trace(), fields, interval)
        parsed = parse_span_log(log.splitlines())
        outcomes.update(span.outcome for span in parsed.spans)
        phases.update(name for span in parsed.spans for name in span.phases)
        if case == "chunked":
            assert sim.nodes[0].costs.disk_chunk_bytes < max(
                span.size for span in parsed.spans
            )
    assert outcomes == {"hit", "miss", "coalesced", "dynamic"}
    assert phases == {"establish", "queue", "disk", "cpu", "teardown"}
