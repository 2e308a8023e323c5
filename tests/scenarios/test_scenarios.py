"""Fault-scenario registry and its determinism contract.

The acceptance contract this file pins:

* every registered scenario's scalar reference (``corrupt_word``) and
  numpy batch (``corrupt_batch``) produce **byte-identical** corrupted
  words, for both code families, on chunks with non-zero start;
* per scenario, the folded tally is invariant across chunk splits,
  ``jobs=2`` process pools, every available decode backend, and a
  2-worker distributed loopback session — at a fixed seed;
* native ``mbu`` chunks run in the fused kernels (no corruption batch
  is generated) and still tally the scalar reference stream, and a
  native msed build never loads the scenario registry;
* the campaign scheduler escalates zero-event cells of a
  non-splittable scenario to a Clopper-Pearson tail bound instead of
  importance splitting.
"""

import pytest

from repro.core.codes import muse_80_69
from repro.distribute import DistributedSession
from repro.engine import available_backends
from repro.orchestrate import CodeRef, derive_key
from repro.orchestrate.plan import Chunk
from repro.reliability.monte_carlo import MuseMsedSimulator, RsMsedSimulator
from repro.reliability.sampling.scheduler import (
    CampaignPolicy,
    CampaignRunner,
)
from repro.reliability.sampling.sequential import AdaptivePolicy
from repro.rs.reed_solomon import rs_144_128
from repro.scenarios import (
    Scenario,
    register_scenario,
    resolve_scenario,
    scenario_names,
    scenario_stream_key,
    scenario_summaries,
)

SEED = 99
BUILTINS = ("msed", "mbu", "stuck", "rowfail", "scrub", "wear")
FAULTS = tuple(n for n in BUILTINS if n != "msed")


def muse_simulator(scenario, **kwargs):
    return MuseMsedSimulator(
        muse_80_69(),
        scenario=scenario,
        code_ref=CodeRef("repro.core.codes:muse_80_69"),
        **kwargs,
    )


def rs_simulator(scenario, **kwargs):
    return RsMsedSimulator(
        rs_144_128(),
        scenario=scenario,
        code_ref=CodeRef("repro.rs.reed_solomon:rs_144_128"),
        **kwargs,
    )


class TestRegistry:
    def test_builtins_registered_msed_first(self):
        names = scenario_names()
        assert names[0] == "msed"
        assert set(BUILTINS) <= set(names)
        assert len(names) >= 6

    def test_msed_is_the_splitting_scenario(self):
        assert resolve_scenario("msed").supports_splitting
        for name in FAULTS:
            assert not resolve_scenario(name).supports_splitting

    def test_fault_scenarios_ship_both_implementations(self):
        for name in FAULTS:
            scenario = resolve_scenario(name)
            assert scenario.corrupt_batch is not None
            assert scenario.corrupt_word is not None

    def test_summaries_cover_every_name(self):
        summaries = scenario_summaries()
        assert set(summaries) == set(scenario_names())
        assert all(summaries.values())

    def test_duplicate_registration_refused(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("mbu", lambda: Scenario("mbu", "dup"))

    def test_bad_slug_refused(self):
        with pytest.raises(ValueError, match="slug"):
            register_scenario("no spaces!", lambda: Scenario("x", "y"))

    def test_unknown_scenario_lists_registered_names(self):
        with pytest.raises(ValueError, match="mbu"):
            resolve_scenario("definitely-not-registered")

    def test_factory_name_mismatch_refused(self):
        from repro import scenarios as registry

        register_scenario(
            "tmp-mismatch", lambda: Scenario("other", "wrong name")
        )
        try:
            with pytest.raises(ValueError, match="named"):
                resolve_scenario("tmp-mismatch")
        finally:
            registry._FACTORIES.pop("tmp-mismatch", None)
            registry._RESOLVED.pop("tmp-mismatch", None)

    def test_stream_keys_differ_by_name(self):
        key = derive_key(SEED)
        keys = {scenario_stream_key(key, name) for name in BUILTINS}
        assert len(keys) == len(BUILTINS)


class TestScalarBatchParity:
    """corrupt_word is the reference; corrupt_batch must match it bit
    for bit — on a chunk that does not start at trial 0, so the trial
    indexing (not just the draw function) is exercised."""

    CHUNK = Chunk(start=7, size=48)
    KEY = 0xDEAD_BEEF

    @pytest.mark.parametrize("name", FAULTS)
    def test_muse_words_identical(self, name):
        from repro.engine.limbs import limbs_to_ints
        from repro.orchestrate.corruption import (
            muse_scenario_chunk,
            muse_scenario_word,
        )

        code = muse_80_69()
        scenario = resolve_scenario(name)
        batch = muse_scenario_chunk(scenario, code, self.CHUNK, self.KEY)
        for i in range(self.CHUNK.size):
            scalar = muse_scenario_word(
                scenario, code, self.CHUNK.start + i, self.KEY
            )
            assert limbs_to_ints(batch[i : i + 1])[0] == scalar

    @pytest.mark.parametrize("name", FAULTS)
    def test_rs_words_identical(self, name):
        from repro.orchestrate.corruption import (
            rs_scenario_chunk,
            rs_scenario_word,
        )

        code = rs_144_128()
        scenario = resolve_scenario(name)
        batch = rs_scenario_chunk(scenario, code, self.CHUNK, self.KEY)
        for i in range(self.CHUNK.size):
            scalar = rs_scenario_word(
                scenario, code, self.CHUNK.start + i, self.KEY
            )
            assert list(batch[i]) == list(scalar)

    def test_msed_has_no_word_reference(self):
        from repro.orchestrate.corruption import muse_scenario_word

        with pytest.raises(ValueError, match="msed"):
            muse_scenario_word(resolve_scenario("msed"), muse_80_69(), 0, 1)


class TestTallyInvariance:
    """The (chunk_size, jobs, backend, workers)-invariance contract,
    per scenario."""

    @pytest.mark.parametrize("name", FAULTS)
    def test_chunk_split_and_jobs(self, name):
        simulator = muse_simulator(name)
        whole = simulator.run(trials=400, seed=SEED)
        split = simulator.run(trials=400, seed=SEED, chunk_size=61)
        pooled = simulator.run(trials=400, seed=SEED, chunk_size=61, jobs=2)
        assert whole == split == pooled

    @pytest.mark.parametrize("name", FAULTS)
    def test_rs_chunk_split(self, name):
        simulator = rs_simulator(name)
        whole = simulator.run(trials=240, seed=SEED)
        split = simulator.run(trials=240, seed=SEED, chunk_size=53)
        assert whole == split

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("name", ("mbu", "scrub", "wear"))
    @pytest.mark.parametrize("family", ("muse", "rs"))
    def test_backends_fold_identically(self, family, name, backend):
        simulator = muse_simulator if family == "muse" else rs_simulator
        reference = simulator(name, backend="scalar").run(
            trials=120, seed=SEED
        )
        assert (
            simulator(name, backend=backend).run(trials=120, seed=SEED)
            == reference
        )

    @pytest.mark.parametrize("name", FAULTS)
    def test_scalar_sequential_matches_batch(self, name):
        """The scalar reference loop tallies the *same* stream as the
        batch path."""
        simulator = muse_simulator(name)
        batch = simulator.run(trials=150, seed=SEED)
        sequential = (
            muse_simulator(name, backend="scalar")
            ._scenario_sequential(
                resolve_scenario(name), Chunk(0, 150), derive_key(SEED)
            )
            .freeze()
        )
        assert sequential == batch

    @pytest.mark.parametrize("name", FAULTS)
    def test_rs_scalar_sequential_matches_batch(self, name):
        simulator = rs_simulator(name)
        batch = simulator.run(trials=120, seed=SEED)
        sequential = (
            rs_simulator(name, backend="scalar")
            ._scenario_sequential(
                resolve_scenario(name), Chunk(0, 120), derive_key(SEED)
            )
            .freeze()
        )
        assert sequential == batch

    def test_two_worker_loopback_identical(self):
        """One session, every fault scenario: the distributed fold must
        be byte-identical to the serial tally."""
        serial = {
            name: muse_simulator(name).run(trials=200, seed=SEED, chunk_size=64)
            for name in FAULTS
        }
        with DistributedSession(local_workers=2) as session:
            for name in FAULTS:
                distributed = muse_simulator(name).run(
                    trials=200, seed=SEED, chunk_size=64, executor=session
                )
                assert distributed == serial[name], name

    def test_scenarios_differ_from_each_other(self):
        """Sanity: distinct scenarios at one seed are distinct streams
        (otherwise every invariance test above is vacuous)."""
        tallies = {
            name: muse_simulator(name).run(trials=300, seed=SEED)
            for name in FAULTS
        }
        assert len({repr(t) for t in tallies.values()}) == len(FAULTS)

    def test_unknown_scenario_fails_at_run(self):
        simulator = muse_simulator("not-a-scenario")
        with pytest.raises(ValueError, match="registered"):
            simulator.run(trials=10, seed=1)


@pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend unavailable (no C compiler, or disabled)",
)
class TestFusedRoute:
    """Which path ``run_chunk`` takes: native replays mbu in the fused
    kernels, everything else generates the corrupted chunk first."""

    CHUNK = Chunk(start=31, size=160)

    @staticmethod
    def _generators(monkeypatch, replacement):
        """Wrap the one family-generic generator ``run_chunk`` calls."""
        from repro.reliability import monte_carlo

        monkeypatch.setattr(
            monte_carlo,
            "scenario_chunk",
            replacement(monte_carlo.scenario_chunk),
        )

    def _reference(self, simulator, name):
        return (
            simulator(name, backend="scalar")
            ._scenario_sequential(
                resolve_scenario(name), self.CHUNK, derive_key(SEED)
            )
            .freeze()
        )

    @pytest.mark.parametrize("family", ("muse", "rs"))
    def test_native_mbu_never_generates(self, family, monkeypatch):
        def refuse(generate):
            def refused(*args, **kwargs):
                raise AssertionError("native mbu generated its batch")

            return refused

        self._generators(monkeypatch, refuse)
        simulator = muse_simulator if family == "muse" else rs_simulator
        tally = simulator("mbu", backend="native").run_chunk(
            self.CHUNK, derive_key(SEED)
        )
        assert tally.freeze() == self._reference(simulator, "mbu")

    def test_native_msed_build_never_loads_the_registry(self):
        """Every chunk of a native msed Table-IV build runs fused, so a
        fresh interpreter never imports ``repro.scenarios`` (which
        would raise the build's peak RSS)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        probe = (
            "import sys\n"
            "from repro.reliability.monte_carlo import build_table_iv\n"
            "build_table_iv(trials=512, backend='native')\n"
            "print('repro.scenarios' in sys.modules)\n"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", probe],
            env={
                **os.environ,
                "PYTHONPATH": src + (os.pathsep + path if path else ""),
            },
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        ).stdout.strip()
        assert loaded == "False"

    @pytest.mark.parametrize(
        "backend,name",
        [("numpy", "mbu"), ("native", "stuck"), ("native", "scrub")],
    )
    @pytest.mark.parametrize("family", ("muse", "rs"))
    def test_unfused_routes_generate(self, family, backend, name, monkeypatch):
        calls = []

        def count(generate):
            def counted(family, scenario, *args, **kwargs):
                calls.append(scenario.name)
                return generate(family, scenario, *args, **kwargs)

            return counted

        self._generators(monkeypatch, count)
        simulator = muse_simulator if family == "muse" else rs_simulator
        tally = simulator(name, backend=backend).run_chunk(
            self.CHUNK, derive_key(SEED)
        )
        assert calls == [name]
        assert tally.freeze() == self._reference(simulator, name)


class TestCampaignEscalation:
    def test_zero_event_scenario_cell_gets_clopper_pearson_bound(self):
        """mbu on MUSE(80,69) yields zero silent events at this seed
        (pinned); the campaign must escalate — but to an exact CP tail
        bound, not the msed-stream importance splitter."""
        simulator = muse_simulator("mbu")
        policy = CampaignPolicy(
            base=AdaptivePolicy(
                metric="silent", initial_trials=256, max_trials=2000
            ),
            escalate_after=500,
        )
        [outcome] = CampaignRunner(policy).run([simulator], seed=7)
        assert outcome.escalated
        assert outcome.escalation == "Clopper-Pearson tail bound"
        assert outcome.tail_bound is not None
        assert outcome.tail_bound.lo == 0.0
        assert outcome.tail_bound.hi > 0.0
        assert "Clopper-Pearson" in outcome.describe()

    def test_msed_still_escalates_to_importance_splitting(self):
        simulator = muse_simulator("msed")
        policy = CampaignPolicy(
            base=AdaptivePolicy(
                metric="silent", initial_trials=256, max_trials=2000
            ),
            escalate_after=500,
        )
        [outcome] = CampaignRunner(policy).run([simulator], seed=7)
        if outcome.escalated:
            assert outcome.escalation == "importance splitting"
