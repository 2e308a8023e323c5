"""The one ``--progress`` printer: formatting, throttling, campaign
allocation lines, and the REPRO_LOG gate.

Also pins the clock-source invariant for the whole distributed
runtime: progress elapsed times and lease deadlines must come from
monotonic clocks (``time.perf_counter()`` / ``time.monotonic()``),
never ``time.time()`` — an NTP step or a suspended laptop must not
produce negative elapsed values or spurious lease expiries.  The pin
is a source-level scan, so a regression cannot hide behind timing.
"""

import ast
import inspect
import io

import pytest

from repro.distribute.progress import ChunkProgress
from repro.telemetry.log import ENV_VAR


@pytest.fixture(autouse=True)
def normal_log_level(monkeypatch):
    """Printer tests assume the default gate unless they say otherwise."""
    monkeypatch.delenv(ENV_VAR, raising=False)


class TestChunkProgress:
    def test_emits_formatted_lines(self):
        stream = io.StringIO()
        progress = ChunkProgress(stream=stream, min_interval=0)
        progress(3, 10)
        progress(10, 10)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[progress] chunks 3/10 elapsed ")
        assert lines[1].startswith("[progress] chunks 10/10 elapsed ")

    def test_throttle_suppresses_intermediate_but_never_final(self):
        stream = io.StringIO()
        progress = ChunkProgress(stream=stream, min_interval=3600)
        progress(1, 10)  # first call is past the -inf sentinel
        progress(2, 10)  # throttled
        progress(10, 10)  # final: always emitted
        lines = stream.getvalue().splitlines()
        assert [line.split()[2] for line in lines] == ["1/10", "10/10"]

    def test_allocation_lines_bypass_throttle(self):
        stream = io.StringIO()
        progress = ChunkProgress(stream=stream, min_interval=3600)
        progress(1, 16)  # consumes the throttle slot
        progress.allocation(
            2, [("muse+2", 500, 1500, 0.12), ("rs+4", 250, 750, 0.3)]
        )
        progress(2, 16)  # still throttled: allocations leave it alone
        lines = stream.getvalue().splitlines()
        assert len(lines) == 4
        assert lines[1] == (
            f"[campaign] round 2: 2 point(s) allocated, "
            f"elapsed {lines[1].split()[-1].rstrip('s')}s"
        )
        assert "[campaign]   point muse+2: +500 trials (-> 1500)" in lines[2]
        assert lines[2].endswith("ci-half 0.12")
        assert "[campaign]   point rs+4: +250 trials (-> 750)" in lines[3]

    def test_silent_gate_mutes_everything(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "silent")
        stream = io.StringIO()
        progress = ChunkProgress(stream=stream, min_interval=0)
        progress(5, 10)
        progress(10, 10)
        progress.allocation(1, [("a", 10, 10, 0.5)])
        assert stream.getvalue() == ""


class TestMonotonicClockPin:
    def test_no_wall_clock_timing_in_the_distributed_runtime(self):
        """``time.time()`` must not appear anywhere in the runtime's
        timing paths (progress, leases, straggler timeouts, wire)."""
        import repro.distribute.cache
        import repro.distribute.chaos
        import repro.distribute.checkpoint
        import repro.distribute.coordinator
        import repro.distribute.local
        import repro.distribute.progress
        import repro.distribute.queue
        import repro.distribute.wire
        import repro.distribute.worker

        modules = [
            repro.distribute.cache,
            repro.distribute.chaos,
            repro.distribute.checkpoint,
            repro.distribute.coordinator,
            repro.distribute.local,
            repro.distribute.progress,
            repro.distribute.queue,
            repro.distribute.wire,
            repro.distribute.worker,
        ]
        offenders = []
        for module in modules:
            tree = ast.parse(inspect.getsource(module))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "time"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "time"
                ):
                    offenders.append(f"{module.__name__}:{node.lineno}")
        assert offenders == []
