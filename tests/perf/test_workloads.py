"""Synthetic workload tests."""

import pytest

from repro.perf.workloads import (
    SPEC2017_PROFILES,
    TraceGenerator,
    WorkloadProfile,
    profile_by_name,
)


class TestProfiles:
    def test_all_22_benchmarks_present(self):
        assert len(SPEC2017_PROFILES) == 22
        names = {p.name for p in SPEC2017_PROFILES}
        assert "519.lbm_r" in names
        assert "505.mcf_r" in names
        assert "548.exchange2_r" in names

    def test_memory_bound_profiles_have_big_working_sets(self):
        """lbm/mcf/fotonik3d must dwarf the 8MB LLC; leela/exchange2
        must fit inside it — the ordering Figure 6 depends on."""
        llc = 8 * 1024  # kB
        for name in ("519.lbm_r", "505.mcf_r", "549.fotonik3d_r", "503.bwaves_r"):
            assert profile_by_name(name).working_set_kb > 10 * llc
        for name in ("541.leela_r", "548.exchange2_r", "511.povray_r"):
            assert profile_by_name(name).working_set_kb < llc

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            profile_by_name("600.nonesuch")

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("bad", 100, stream_fraction=1.5, write_fraction=0.1,
                            mem_per_kilo_inst=100)
        with pytest.raises(ValueError):
            WorkloadProfile("bad", 100, stream_fraction=0.5, write_fraction=-0.1,
                            mem_per_kilo_inst=100)


class TestTraceGenerator:
    def test_deterministic_under_seed(self):
        profile = profile_by_name("505.mcf_r")
        first = list(TraceGenerator(profile, seed=3).operations(500))
        second = list(TraceGenerator(profile, seed=3).operations(500))
        assert first == second

    def test_trace_does_not_depend_on_hash_salt(self):
        """Two interpreters with differently salted str hashes generate
        the same trace at the same seed."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        probe = (
            "from repro.perf.workloads import TraceGenerator, "
            "profile_by_name\n"
            "ops = TraceGenerator(profile_by_name('505.mcf_r'), seed=3)"
            ".operations(50)\n"
            "print([(op.address, op.is_write) for op in ops])"
        )
        traces = [
            subprocess.run(
                [sys.executable, "-c", probe],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": salt},
                capture_output=True, text=True, check=True,
            ).stdout
            for salt in ("1", "2")
        ]
        assert traces[0] == traces[1]

    def test_different_seeds_differ(self):
        profile = profile_by_name("505.mcf_r")
        first = list(TraceGenerator(profile, seed=3).operations(500))
        second = list(TraceGenerator(profile, seed=4).operations(500))
        assert first != second

    def test_addresses_stay_in_working_set(self):
        profile = profile_by_name("541.leela_r")
        limit = (
            TraceGenerator.BASE_ADDRESS
            + TraceGenerator.HOT_REGION_BYTES
            + profile.working_set_kb * 1024
        )
        for op in TraceGenerator(profile).operations(2000):
            assert TraceGenerator.BASE_ADDRESS <= op.address < limit

    def test_write_fraction_approximate(self):
        profile = profile_by_name("519.lbm_r")  # write_fraction 0.45
        ops = list(TraceGenerator(profile).operations(5000))
        write_share = sum(op.is_write for op in ops) / len(ops)
        assert abs(write_share - profile.write_fraction) < 0.05

    def test_op_count_exact(self):
        profile = profile_by_name("502.gcc_r")
        assert sum(1 for _ in TraceGenerator(profile).operations(123)) == 123

    @pytest.mark.parametrize(
        "profile", SPEC2017_PROFILES, ids=lambda profile: profile.name
    )
    def test_trace_follows_its_profile(self, profile):
        """Every Figure 6/7 benchmark's trace: the instruction gap its
        memory intensity implies, addresses inside the hot region plus
        its working set, and its store share."""
        ops = list(TraceGenerator(profile, seed=5).operations(3000))
        (gap,) = {op.gap_instructions for op in ops}
        # One memory op (plus its gap) per 1000 / MPKI instructions.
        assert abs(gap + 1 - 1000 / profile.mem_per_kilo_inst) <= 0.5
        limit = (
            TraceGenerator.BASE_ADDRESS
            + TraceGenerator.HOT_REGION_BYTES
            + profile.working_set_kb * 1024
        )
        assert all(
            TraceGenerator.BASE_ADDRESS <= op.address < limit for op in ops
        )
        write_share = sum(op.is_write for op in ops) / len(ops)
        assert write_share == pytest.approx(profile.write_fraction, abs=0.05)
