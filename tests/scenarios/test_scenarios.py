"""The fault-scenario table and its determinism contract.

The acceptance contract this file pins:

* every fault scenario's scalar reference (``corrupt_word``) and
  numpy batch (``corrupt_batch``) produce **byte-identical** corrupted
  words, for both code families, on chunks with non-zero start;
* per scenario, the folded tally is invariant across chunk splits,
  ``jobs=2`` process pools, every available decode backend, and a
  2-worker distributed loopback session — at a fixed seed;
* native ``mbu`` chunks run in the fused kernels (no corruption batch
  is generated) and still tally the scalar reference stream, and a
  native msed build never loads the scenario table;
* scenario cells take the campaign's one path: a zero-event cell runs
  to its ceiling and reports the policy's interval there.
"""

import pytest

from repro.core.codes import muse_80_69
from repro.distribute import DistributedSession
from repro.engine import available_backends
from repro.orchestrate import CodeRef, derive_key
from repro.orchestrate.plan import Chunk
from repro.reliability.monte_carlo import MuseMsedSimulator, RsMsedSimulator
from repro.reliability.sampling.intervals import clopper_pearson_interval
from repro.reliability.sampling.scheduler import (
    CampaignPolicy,
    CampaignRunner,
)
from repro.reliability.sampling.sequential import AdaptivePolicy
from repro.rs.reed_solomon import rs_144_128
from repro.scenarios import (
    SCENARIOS,
    resolve_scenario,
    scenario_names,
    scenario_stream_key,
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

    def test_fault_scenarios_ship_both_implementations(self):
        for name in FAULTS:
            scenario = resolve_scenario(name)
            assert scenario.corrupt_batch is not None
            assert scenario.corrupt_word is not None

    def test_summaries_cover_every_name(self):
        summaries = {
            name: scenario.summary for name, scenario in SCENARIOS.items()
        }
        assert set(summaries) == set(scenario_names())
        assert all(summaries.values())

    def test_unknown_scenario_lists_registered_names(self):
        with pytest.raises(ValueError, match="mbu"):
            resolve_scenario("definitely-not-registered")

    def test_table_keys_are_the_scenario_names(self):
        """A name is spec-fingerprint material, so the key a scenario is
        found under must be the name it hashes its stream from."""
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert resolve_scenario(name) is scenario

    def test_names_are_slugs(self):
        """Names double as CLI ``--scenario`` choices."""
        for name in scenario_names():
            assert name and name == name.lower()
            assert name.replace("-", "").replace("_", "").isalnum()

    def test_sub_stream_tags_distinct(self):
        """Tags under one scenario key never collide, and the shared
        choice/replacement helpers draw from the msed stream's tags."""
        from repro.orchestrate import corruption
        from repro.scenarios import library

        tags = {
            name: value
            for name, value in vars(library).items()
            if name.startswith("S_") and isinstance(value, int)
        }
        assert len(tags) >= 11
        assert len(set(tags.values())) == len(tags)
        assert tags["S_CHOICE"] == corruption.STREAM_CHOICE
        assert tags["S_VALUE"] == corruption.STREAM_VALUE

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


class TestCampaignZeroEvent:
    def test_zero_event_scenario_cell_gets_clopper_pearson_bound(self):
        """mbu on MUSE(80,69) yields zero silent events at this seed
        (pinned); the campaign runs the cell to its ceiling and reports
        the policy's exact Clopper-Pearson bound there."""
        simulator = muse_simulator("mbu")
        base = AdaptivePolicy(
            metric="silent",
            kind="clopper-pearson",
            initial_trials=256,
            max_trials=2000,
        )
        [outcome] = CampaignRunner(CampaignPolicy(base=base)).run(
            [simulator], seed=7
        )
        assert outcome.result.count("silent") == 0
        assert not outcome.converged
        assert outcome.trials_used == base.max_trials
        assert outcome.interval() == clopper_pearson_interval(0, 2000)
        assert outcome.interval().hi > 0.0
        assert "hit trial ceiling" in outcome.describe()

    def test_scenario_cells_share_the_fixed_runs_stream(self):
        """msed and fault cells run through the one campaign path: each
        point's tally is its fixed run of the same length."""
        simulators = [
            muse_simulator("msed"),
            muse_simulator("mbu"),
            rs_simulator("stuck"),
        ]
        base = AdaptivePolicy(
            ci_target=0.3, metric="failure", initial_trials=200,
            max_trials=3000,
        )
        outcomes = CampaignRunner(CampaignPolicy(base=base)).run(
            simulators, seed=7, chunk_size=128
        )
        for simulator, outcome in zip(simulators, outcomes):
            assert outcome.result == simulator.run(
                trials=outcome.trials_used, seed=7
            )
