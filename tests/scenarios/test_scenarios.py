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
* each fault scenario's scalar reference does to a stored word what
  its fault model says (burst shape, stuck levels, row, upset count,
  wear), and is a pure function of seed and trial;
* scenario cells take the campaign's one path: a zero-event cell runs
  to its ceiling and reports the policy's interval there.
"""

import random
import statistics

import pytest

from repro.core.codes import muse_80_69
from repro.distribute import DistributedSession
from repro.engine import available_backends
from repro.orchestrate import CodeRef, derive_key
from repro.orchestrate.plan import Chunk
from repro.reliability.monte_carlo import MuseMsedSimulator, RsMsedSimulator
from repro.reliability.sampling.intervals import wilson_interval
from repro.reliability.sampling.scheduler import CampaignRunner
from repro.reliability.sampling.sequential import AdaptivePolicy
from repro.orchestrate.corruption import MUSE, RS
from repro.rs.reed_solomon import rs_144_128, rs_for_channel
from repro.scenarios import (
    SCENARIOS,
    WordSymbolView,
    resolve_scenario,
    scenario_names,
    scenario_stream_key,
)
from repro.scenarios.library import (
    MBU_MAX_BURST,
    S_FBIT,
    S_FSYM,
    S_FVAL,
    SCRUB_MAX_READS,
    STUCK_FAULTS,
    WEAR_TRIAL_CAP,
    _chosen_sorted_word,
    _draw,
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


#: The word shapes the fault models are checked on: MUSE(80,69)'s 20
#: 4-bit symbols, RS(144,128)'s 18 bytes, and the 5-bit RS code whose
#: one 4-bit symbol exercises clipping to a short symbol.
WIDTHS = {
    "muse": MUSE.widths(muse_80_69()),
    "rs": RS.widths(rs_144_128()),
    "rs-partial": RS.widths(rs_for_channel(5, 144)),
}
MODEL_TRIALS = range(3, 403)


def corrupt(name, widths, trial, k_symbols=2, seed=SEED):
    """``name``'s scalar reference applied to a clean row of ``widths``
    (random, fixed per trial): the clean and the delivered symbols."""
    rng = random.Random(trial)
    clean = [rng.getrandbits(width) for width in widths]
    delivered = list(clean)
    view = WordSymbolView(
        trial=trial, widths=widths,
        get=delivered.__getitem__, put=delivered.__setitem__,
    )
    resolve_scenario(name).corrupt_word(
        scenario_stream_key(derive_key(seed), name), view, k_symbols
    )
    return clean, delivered


def flip_masks(name, widths, trial, k_symbols=2):
    clean, delivered = corrupt(name, widths, trial, k_symbols)
    return [a ^ b for a, b in zip(clean, delivered)]


def popcount(masks) -> int:
    return sum(bin(mask).count("1") for mask in masks)


class TestFaultModels:
    """What each fault scenario does to a stored word, checked on its
    scalar reference (the batch path matches it bit for bit, above)."""

    @pytest.mark.parametrize("k_symbols", (1, 3))
    @pytest.mark.parametrize("shape", WIDTHS)
    def test_mbu_bursts_adjacent_bits_inside_k_symbols(
        self, shape, k_symbols
    ):
        widths = WIDTHS[shape]
        for trial in MODEL_TRIALS:
            masks = flip_masks("mbu", widths, trial, k_symbols)
            hit = [index for index, mask in enumerate(masks) if mask]
            assert len(hit) == k_symbols
            for index in hit:
                mask = masks[index]
                burst = mask >> ((mask & -mask).bit_length() - 1)
                length = burst.bit_length()
                assert burst == (1 << length) - 1  # one adjacent run
                assert 2 <= length <= min(MBU_MAX_BURST, widths[index])
                assert mask >> widths[index] == 0  # inside its symbol

    @pytest.mark.parametrize("shape", WIDTHS)
    def test_stuck_cells_win_over_the_transient_replacement(self, shape):
        """The k replaced symbols change, the stuck cells read their
        forced level (the later fault on a shared cell wins), and
        nothing else moves."""
        widths = WIDTHS[shape]
        skey = scenario_stream_key(derive_key(SEED), "stuck")
        for trial in MODEL_TRIALS:
            clean, delivered = corrupt("stuck", widths, trial, k_symbols=2)
            forced = {}
            for fault in range(STUCK_FAULTS):
                index = _draw(skey, S_FSYM, fault, trial) % len(widths)
                bit = _draw(skey, S_FBIT, fault, trial) % widths[index]
                forced[index, bit] = _draw(skey, S_FVAL, fault, trial) & 1
            for (index, bit), level in forced.items():
                assert delivered[index] >> bit & 1 == level
            replaced = set(_chosen_sorted_word(skey, trial, len(widths), 2))
            stuck = {index for index, _ in forced}
            changed = {
                index
                for index, (a, b) in enumerate(zip(clean, delivered))
                if a != b
            }
            assert replaced - stuck <= changed <= replaced | stuck

    @pytest.mark.parametrize("shape", WIDTHS)
    def test_rowfail_flips_one_row_in_every_symbol(self, shape):
        widths = WIDTHS[shape]
        widest = widths.index(max(widths))
        rows = set()
        for trial in MODEL_TRIALS:
            masks = flip_masks("rowfail", widths, trial)
            row = masks[widest].bit_length() - 1
            assert masks == [1 << (row % width) for width in widths]
            rows.add(row)
        assert rows == set(range(max(widths)))  # every row fails somewhere

    @pytest.mark.parametrize("name", ("rowfail", "scrub", "wear"))
    def test_whole_word_scenarios_ignore_k(self, name):
        widths = WIDTHS["muse"]
        for trial in MODEL_TRIALS[:100]:
            assert corrupt(name, widths, trial, 1) == corrupt(
                name, widths, trial, 4
            )

    @pytest.mark.parametrize("shape", WIDTHS)
    def test_scrub_upsets_are_single_bits_up_to_the_cap(self, shape):
        widths = WIDTHS[shape]
        for trial in MODEL_TRIALS:
            upsets = popcount(flip_masks("scrub", widths, trial))
            assert 1 <= upsets <= SCRUB_MAX_READS

    def test_scrub_read_count_is_a_capped_geometric(self):
        """Reads between scrubs are 1 + Geometric(1/4), capped at 8, and
        each read's upset lands on a distinct bit: P(1 upset) = 1/4,
        P(8) = (3/4)^7 and the mean is 4 (1 - (3/4)^8)."""
        widths = WIDTHS["rs"]
        upsets = [
            popcount(flip_masks("scrub", widths, trial))
            for trial in range(4_000)
        ]
        assert upsets.count(1) / len(upsets) == pytest.approx(0.25, abs=0.03)
        assert upsets.count(SCRUB_MAX_READS) / len(upsets) == pytest.approx(
            0.75**7, abs=0.03
        )
        assert statistics.mean(upsets) == pytest.approx(
            4 * (1 - 0.75**8), abs=0.15
        )

    @pytest.mark.parametrize("shape", WIDTHS)
    def test_wear_disturbs_every_word(self, shape):
        """Even a low-wear trial with no cell past its threshold fails
        its most-worn cell."""
        widths = WIDTHS[shape]
        for trial in MODEL_TRIALS:
            assert any(flip_masks("wear", widths, trial))

    def test_wear_flip_rate_rises_with_writes(self):
        """Each cell flips with probability 2^-8 (1 + t / 50,000), t
        capped at 10^7: about one flip per 80-bit word at first, about
        seven at t = 10^6, and most of the word at the cap."""
        widths = WIDTHS["muse"]

        def mean_flips(start):
            return statistics.mean(
                popcount(flip_masks("wear", widths, trial))
                for trial in range(start, start + 200)
            )

        early = mean_flips(0)
        middle = mean_flips(1_000_000)
        worn = mean_flips(WEAR_TRIAL_CAP)
        assert early < 1.5 < middle < 10 < worn

    @pytest.mark.parametrize("name", FAULTS)
    def test_reference_is_a_pure_function_of_seed_and_trial(self, name):
        widths = WIDTHS["rs"]
        trials = MODEL_TRIALS[:50]
        first = [corrupt(name, widths, trial) for trial in trials]
        again = [corrupt(name, widths, trial) for trial in trials]
        reseeded = [
            corrupt(name, widths, trial, seed=SEED + 1) for trial in trials
        ]
        assert first == again
        assert first != reseeded


class TestCampaignZeroEvent:
    def test_zero_event_scenario_cell_gets_wilson_bound(self):
        """mbu on MUSE(80,69) yields zero silent events at this seed
        (pinned); the campaign runs the cell to its ceiling and reports
        the policy's Wilson bound there."""
        simulator = muse_simulator("mbu")
        policy = AdaptivePolicy(
            metric="silent", initial_trials=256, max_trials=2000
        )
        [outcome] = CampaignRunner(policy).run([simulator], seed=7)
        assert outcome.result.count("silent") == 0
        assert not outcome.converged
        assert outcome.trials_used == policy.max_trials
        assert outcome.interval() == wilson_interval(0, 2000)
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
        policy = AdaptivePolicy(
            ci_target=0.3, metric="failure", initial_trials=200,
            max_trials=3000,
        )
        outcomes = CampaignRunner(policy).run(
            simulators, seed=7, chunk_size=128
        )
        for simulator, outcome in zip(simulators, outcomes):
            assert outcome.result == simulator.run(
                trials=outcome.trials_used, seed=7
            )
