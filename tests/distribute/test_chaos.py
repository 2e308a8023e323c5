"""Deterministic fault injection: the chaos matrix.

Two layers:

* unit tests for the spec parser and the pure-function
  :class:`FaultPlan` schedule (same seed + scope → same faults);
* the acceptance matrix — for **every fault class**, a loopback run
  under injected chaos folds a tally **byte-identical** to the
  ``jobs=1`` in-process run at the same seed, and the degradation
  paths (total fleet loss, poison chunk) leave a durable, resumable
  partial state instead of a hung or empty run.

Seeds for the probabilistic classes are *probed* (cheaply, through the
same pure schedule the runtime evaluates) so every assertion about "at
least one fault fired" is deterministic, not statistical.
"""

import json
import threading
import time

import pytest

from repro.core.codes import muse_80_69
from repro.distribute import (
    PARTIAL_RESULTS_NAME,
    CheckpointJournal,
    DistributedDegraded,
    DistributedSession,
    parse_chaos,
    resolve_chaos,
)
from repro.distribute.chaos import (
    CHAOS_ENV,
    ChaosSpec,
    FaultPlan,
    FaultRule,
    describe,
    plan_for,
)
from repro.orchestrate import CodeRef, derive_key
from repro.orchestrate.plan import Chunk
from repro.orchestrate.worker import ChunkTask, MuseSimSpec
from repro.reliability.monte_carlo import MuseMsedSimulator

SEED = 5


def simulator():
    return MuseMsedSimulator(
        muse_80_69(),
        backend="auto",
        code_ref=CodeRef("repro.core.codes:muse_80_69"),
    )


def fire_events(spec: str, scope: str, kind: str, limit: int) -> list[int]:
    """The 1-based event indices at which ``kind`` fires for ``scope``
    — probing the exact schedule the runtime will evaluate."""
    plan = FaultPlan(parse_chaos(spec), scope)
    return [index for index in range(1, limit + 1) if plan.should(kind)]


def probe_seed(kind: str, rate: float, scope: str = "local-0") -> int:
    """A chaos seed under which ``kind`` fires for ``scope`` within the
    first 8 events (so small runs provably inject at least one fault)."""
    for seed in range(100):
        spec = f"seed={seed},{kind}={rate}"
        if any(event <= 8 for event in fire_events(spec, scope, kind, 8)):
            return seed
    raise AssertionError(f"no seed fires {kind} early")  # pragma: no cover


class TestParseChaos:
    def test_probabilistic_rules(self):
        spec = parse_chaos("seed=7,reset=0.1,dup=0.25")
        assert spec.seed == 7
        assert spec.kinds == ("reset", "dup")
        assert spec.rule("reset") == FaultRule(probability=0.1)
        assert spec.rule("dup") == FaultRule(probability=0.25)
        assert spec.rule("crash") is None

    def test_at_rule(self):
        assert parse_chaos("crash=@2").rule("crash") == FaultRule(at=2)

    def test_hang_duration(self):
        spec = parse_chaos("hang=0.1:0.8")
        assert spec.rule("hang") == FaultRule(probability=0.1)
        assert spec.hang_seconds == 0.8

    def test_round_trips_through_describe(self):
        spec = parse_chaos("seed=3,reset=0.1,crash=@2,hang=0.5:0.1")
        assert parse_chaos(describe(spec)) == spec

    @pytest.mark.parametrize(
        "bad",
        ["bogus=0.5", "reset=1.5", "reset=-0.1", "crash=@0", "reset",
         "seed=x", "hang=0.1:-1"],
    )
    def test_bad_specs_rejected_with_context(self, bad):
        with pytest.raises(ValueError, match="--chaos"):
            parse_chaos(bad)

    def test_resolve_reads_environment(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "seed=9,dup=0.5")
        assert resolve_chaos(None) == parse_chaos("seed=9,dup=0.5")
        monkeypatch.setenv(CHAOS_ENV, "")
        assert resolve_chaos(None) is None

    def test_plan_for_without_rules_is_off(self):
        assert plan_for("seed=5", "w") is None
        assert plan_for(None, "w") is None
        assert plan_for(ChaosSpec(), "w") is None


class TestFaultPlanDeterminism:
    def test_same_seed_and_scope_replays_identically(self):
        seed = probe_seed("reset", 0.3, scope="w")
        spec = f"seed={seed},reset=0.3"
        first = fire_events(spec, "w", "reset", 50)
        assert first  # the probe guarantees an early firing
        assert fire_events(spec, "w", "reset", 50) == first

    def test_scopes_fail_at_different_points(self):
        for seed in range(100):
            spec = f"seed={seed},reset=0.3"
            if fire_events(spec, "local-0", "reset", 50) != fire_events(
                spec, "local-1", "reset", 50
            ):
                return
        raise AssertionError("scopes never diverged")  # pragma: no cover

    def test_seed_changes_the_schedule(self):
        assert any(
            fire_events("seed=0,reset=0.3", "w", "reset", 50)
            != fire_events(f"seed={seed},reset=0.3", "w", "reset", 50)
            for seed in range(1, 100)
        )

    def test_at_rule_fires_exactly_once(self):
        assert fire_events("crash=@3", "w", "crash", 20) == [3]

    def test_unconfigured_kind_never_fires_nor_counts(self):
        plan = FaultPlan(parse_chaos("seed=1,reset=0.5"), "w")
        assert not any(plan.should("crash") for _ in range(10))
        assert plan.events("crash") == 0

    def test_probability_bounds(self):
        assert fire_events("reset=0.0", "w", "reset", 100) == []
        assert fire_events("reset=1.0", "w", "reset", 20) == list(
            range(1, 21)
        )


class TestChaosParity:
    """The acceptance matrix: injected faults never change the tally."""

    def parity_run(self, chaos, workers=1, trials=600, chunk_size=50,
                   lease_timeout=60.0, **session_kwargs):
        sim = simulator()
        serial = sim.run(trials, seed=SEED, chunk_size=chunk_size)
        with DistributedSession(
            local_workers=workers,
            chaos=chaos,
            lease_timeout=lease_timeout,
            **session_kwargs,
        ) as session:
            chaotic = sim.run(
                trials, seed=SEED, chunk_size=chunk_size, executor=session
            )
            assert chaotic == serial
            return session

    def test_connection_resets_rejoin_and_fold_identically(self):
        seed = probe_seed("reset", 0.3)
        session = self.parity_run(f"seed={seed},reset=0.3")
        assert session.rejoins >= 1  # the blip cost a lease, not a worker

    def test_torn_frames_drop_the_worker_not_the_run(self):
        seed = probe_seed("torn", 0.3)
        session = self.parity_run(f"seed={seed},torn=0.3")
        assert session.protocol_errors >= 1
        assert session.rejoins >= 1  # the torn worker reconnected

    def test_duplicate_results_fold_exactly_once(self):
        seed = probe_seed("dup", 0.5)
        self.parity_run(f"seed={seed},dup=0.5")

    def test_hung_workers_lose_their_leases_not_the_tally(self):
        session = self.parity_run(
            "hang=1.0:0.35",
            workers=2,
            trials=400,
            chunk_size=100,
            lease_timeout=0.15,
        )
        assert session._queue.requeues >= 1  # straggler leases stolen

    def test_crashed_worker_is_stolen_from(self):
        """local-0 dies early (probed seed); local-1 finishes the run."""
        # 15 chunks total, so the survivor sees at most 15 crash events:
        # probe for a seed where local-0 dies in its first 4 tasks and
        # local-1 never fires inside that window.
        for seed in range(500):
            spec = f"seed={seed},crash=0.2"
            if fire_events(spec, "local-0", "crash", 4) and not fire_events(
                spec, "local-1", "crash", 15
            ):
                break
        else:  # pragma: no cover
            raise AssertionError("no asymmetric crash seed found")
        session = self.parity_run(spec, workers=2, trials=1500,
                                  chunk_size=100)
        assert not session.worker_processes[0].is_alive()

    def test_fault_cocktail_still_folds_identically(self):
        self.parity_run(
            "seed=11,reset=0.15,torn=0.1,dup=0.2", workers=2
        )

    def test_torn_journal_salvages_and_resumes_identically(self, tmp_path):
        """The ``journal`` class: a run whose journal tears mid-append
        still folds correctly; the *next* run salvages the valid prefix
        and re-simulates only the lost chunks."""
        sim = simulator()
        serial = sim.run(600, seed=SEED, chunk_size=50)
        key = derive_key(SEED)
        with DistributedSession(
            local_workers=1,
            checkpoint=CheckpointJournal.open(tmp_path, key),
            chaos="journal=@2",
        ) as session:
            chaotic = sim.run(600, seed=SEED, chunk_size=50,
                              executor=session)
        assert chaotic == serial  # the tear broke durability, not folds

        journal = CheckpointJournal.open(tmp_path, key, resume=True)
        assert journal.salvage is not None
        assert journal.salvage.records_kept == 1  # prefix before the tear
        assert journal.salvage.corrupt_path.exists()
        with DistributedSession(
            local_workers=1, checkpoint=journal
        ) as session:
            resumed = sim.run(600, seed=SEED, chunk_size=50,
                              executor=session)
        assert resumed == serial
        assert len(journal) == 12  # healed: every chunk journalled again


class TestDegradedFleet:
    def test_total_fleet_loss_leaves_a_resumable_partial_run(
        self, tmp_path
    ):
        """Every worker crashes (``crash=@2``): the run degrades with a
        durable partial-results report instead of hanging, and a chaos-
        free ``--resume`` finishes it byte-identically."""
        sim = simulator()
        serial = sim.run(800, seed=SEED, chunk_size=100)
        key = derive_key(SEED)
        with DistributedSession(
            local_workers=2,
            checkpoint=CheckpointJournal.open(tmp_path, key),
            chaos="crash=@2",
        ) as session:
            with pytest.raises(DistributedDegraded) as excinfo:
                sim.run(800, seed=SEED, chunk_size=100, executor=session)
        assert "--resume" in str(excinfo.value)
        report_path = excinfo.value.report_path
        assert report_path == tmp_path / PARTIAL_RESULTS_NAME
        report = json.loads(report_path.read_text())
        assert report["resumable"] is True
        assert report["key"] == key
        assert report["batch"]["total"] == 8
        assert sum(g["chunks"] for g in report["groups"].values()) >= 1

        journal = CheckpointJournal.open(tmp_path, key, resume=True)
        assert len(journal) >= 1  # the crashed fleet's folds survived
        with DistributedSession(
            local_workers=2, checkpoint=journal
        ) as session:
            resumed = sim.run(800, seed=SEED, chunk_size=100,
                              executor=session)
        assert resumed == serial

    def test_degraded_without_checkpoint_says_so(self):
        sim = simulator()
        with DistributedSession(
            local_workers=1, chaos="crash=@1"
        ) as session:
            with pytest.raises(DistributedDegraded, match="checkpoint"):
                sim.run(200, seed=SEED, chunk_size=50, executor=session)


class TestPoisonChunk:
    """A chunk that fails on every worker aborts the run with the whole
    failure history — and still leaves a resumable partial state."""

    def test_poison_chunk_accumulates_errors_and_degrades(self, tmp_path):
        key = derive_key(SEED)
        task = ChunkTask(
            group=0,
            spec=MuseSimSpec(code=CodeRef("repro.core.codes:muse_80_69")),
            chunk=Chunk(0, 50),
            key=key,
        )
        journal = CheckpointJournal.open(tmp_path, key)
        caught = {}
        with DistributedSession(checkpoint=journal) as session:

            def drive():
                try:
                    session.run_tasks([task])
                except DistributedDegraded as exc:
                    caught["exc"] = exc

            thread = threading.Thread(target=drive)
            thread.start()
            for attempt in range(1, 4):
                deadline = time.monotonic() + 5.0
                while True:
                    reply = session._handle_message("w", {"op": "next"})
                    if reply["op"] == "tasks":
                        break
                    assert time.monotonic() < deadline, "never claimed"
                    time.sleep(0.01)
                [[task_id, _, _]] = reply["chunks"]
                session._handle_message(
                    "w",
                    {
                        "op": "results",
                        "results": [
                            {"id": task_id, "error": f"boom-{attempt}"}
                        ],
                    },
                )
            thread.join(timeout=5.0)
            assert not thread.is_alive()

        message = str(caught["exc"])
        assert "3 attempts" in message
        for attempt in (1, 2, 3):  # every attempt's error is surfaced
            assert f"boom-{attempt}" in message
        assert session._queue.requeues == 3
        report = json.loads(
            (tmp_path / PARTIAL_RESULTS_NAME).read_text()
        )
        assert report["resumable"] is True
        assert report["requeues"] == 3
        assert "boom-1" in report["reason"]
