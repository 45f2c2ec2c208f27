"""Generated workloads: the (name, seed, scale) determinism contract.

The content-addressed store keys results by RunSpec digest, and worker
processes rebuild programs from nothing but the workload *name* plus
``scale`` -- so these tests pin the properties that make that safe for
``gen:...`` workloads: every instance validates as a program, stays
inside the footprint budget, rebuilds byte-identically (fresh
materialization, any process), and produces identical payloads in-process
(``--jobs 1``) and across local worker processes (``--jobs 2``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import RunSpec, make_executor
from repro.isa import program_digest
from repro.isa.validate import validate_program
from repro.workloads import (
    GEN_PREFIX, WorkloadSpec, get_workload, register,
)
from repro.workloads import generators as gen

# --- strategies -------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**31 - 1)
scales = st.sampled_from([0.05, 0.25, 1.0, 3.7])

gen_names = st.one_of(
    st.builds("gen:kernel:{}:s{}".format,
              st.sampled_from(sorted(gen.KERNEL_MENU)), seeds),
    st.builds("gen:ptrgraph:s{}".format, seeds),
    st.builds("gen:phasemix:s{}".format, seeds),
    st.builds("gen:thrash:{}:s{}".format,
              st.sampled_from(gen.THRASH_MACHINES), seeds),
    st.builds(lambda pair, s: f"gen:pair:{pair[0]}+{pair[1]}:s{s}",
              st.sampled_from(gen.PAIR_ROSTER), seeds),
)


def fresh_build(name, scale):
    """Materialize from scratch, bypassing the generated-spec cache."""
    gen._GENERATED.pop(name, None)
    return gen.get_generated(name).build(scale)


# --- the determinism contract (hypothesis) ----------------------------------


class TestGeneratorProperties:

    @settings(max_examples=40, deadline=None)
    @given(name=gen_names, scale=scales)
    def test_generated_program_validates_within_footprint(self, name,
                                                          scale):
        program = fresh_build(name, scale)
        validate_program(program)
        assert program.data.size <= gen.FOOTPRINT_LIMIT

    @settings(max_examples=40, deadline=None)
    @given(name=gen_names, scale=scales)
    def test_rebuild_is_byte_identical(self, name, scale):
        first = program_digest(fresh_build(name, scale))
        second = program_digest(fresh_build(name, scale))
        assert first == second

    @settings(max_examples=25, deadline=None)
    @given(name=gen_names)
    def test_footprint_is_scale_independent(self, name):
        small = fresh_build(name, 0.05)
        large = fresh_build(name, 4.0)
        assert small.data.size == large.data.size
        assert small.data.symbols == large.data.symbols


# --- name grammar -----------------------------------------------------------


class TestNameGrammar:

    @pytest.mark.parametrize("bad", [
        "gen:",
        "gen:bogusfamily:s0",
        "gen:kernel:s0",                       # missing kernel
        "gen:kernel:no_such_kernel:s0",
        "gen:kernel:stream_sum:s0:extra",
        "gen:ptrgraph:pentium4:s0",            # family takes no params
        "gen:phasemix:s",                      # malformed seed
        "gen:phasemix:12",                     # seed without 's'
        "gen:thrash:s0",                       # missing machine
        "gen:thrash:cray1:s0",                 # unknown machine
        "gen:pair:treeadd:s0",                 # no '+'
        "gen:pair:treeadd+nope:s0",            # unknown member
    ])
    def test_malformed_names_raise(self, bad):
        with pytest.raises(ValueError):
            gen.get_generated(bad)

    def test_pair_members_must_be_registered(self):
        # A generated member inside a pair name trips the grammar...
        with pytest.raises(ValueError):
            gen.get_generated("gen:pair:gen:ptrgraph:s0+treeadd:s0")
        # ...and the pair builder rejects generated members explicitly.
        with pytest.raises(ValueError, match="registered"):
            gen.build_pair_program("gen:ptrgraph:s0", "treeadd",
                                   seed=0, scale=0.1)

    def test_parse_roundtrip(self):
        family, params, seed = gen.parse_generated_name(
            "gen:pair:em3d+ft:s17")
        assert (family, params, seed) == ("pair", ("em3d+ft",), 17)

    def test_non_generated_name_rejected_by_parser(self):
        with pytest.raises(ValueError):
            gen.parse_generated_name("treeadd")


# --- registry integration ---------------------------------------------------


class TestRegistryIntegration:

    def test_get_workload_materializes_generated_names(self):
        spec = get_workload("gen:ptrgraph:s42")
        assert spec.group == "GEN"
        assert spec.name == "gen:ptrgraph:s42"
        # Cached: the same spec object comes back.
        assert get_workload("gen:ptrgraph:s42") is spec

    def test_register_rejects_gen_prefix(self):
        with pytest.raises(ValueError, match="reserved"):
            register(WorkloadSpec(name=f"{GEN_PREFIX}sneaky:s0",
                                  group="GEN", builder=lambda s: None))

    def test_unknown_workload_error_mentions_generators(self):
        with pytest.raises(ValueError, match="gen:"):
            get_workload("definitely-not-a-workload")

    def test_default_population_is_unique_and_parseable(self):
        names = gen.default_generated_names()
        assert len(names) == len(set(names))
        for name in names:
            gen.parse_generated_name(name)
        for family in gen.FAMILIES:
            members = gen.family_names(family)
            assert members, family
            assert all(n in names for n in members)

    def test_family_names_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown generator family"):
            gen.family_names("nope")


# --- executors --------------------------------------------------------------


class TestExecutorDeterminism:
    """A generated spec is rebuilt from its name inside worker
    processes; serial and parallel execution must agree bit-for-bit."""

    def test_serial_and_parallel_payloads_identical(self):
        specs = [
            RunSpec.native("gen:kernel:compute_loop:s0", 0.05,
                           "pentium4", 16),
            RunSpec.native("gen:ptrgraph:s0", 0.05, "pentium4", 16),
        ]
        serial = make_executor(1).execute(specs)
        parallel = make_executor(2).execute(specs)
        assert serial == parallel
