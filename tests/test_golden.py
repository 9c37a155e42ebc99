"""Golden digests: run reports and final registers must stay bit-identical.

Each corpus runs under every configuration below with a per-program seed.
A digest hashes the canonical JSON of every run report plus the run's final
registers.  A refactor or optimisation that claims "no output change" must
leave every digest untouched; a deliberate behaviour change updates only
the digests it explains.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from mtesim import ALWAYS_ARM, SimConfig, Simulation, WorkloadSpec, generate_workload, parse_program

PROGRAMS_PER_CORPUS = 20

GENERATED = {
    "intra": WorkloadSpec(kind="intra"),
    "cross_adjacent": WorkloadSpec(kind="cross"),
    "cross_non_adjacent": WorkloadSpec(kind="cross", adjacent=False),
    "uaf_reuse0": WorkloadSpec(kind="uaf", reuse_cycles=0),
    "uaf_reuse3": WorkloadSpec(kind="uaf", reuse_cycles=3),
    "double_free": WorkloadSpec(kind="double_free"),
    "benign48": WorkloadSpec(kind="benign", accesses=48),
}

HANDWRITTEN = {
    # benign tripwire hit right before `ret`, then an overflow the retired
    # tripwire can no longer see
    "ret_edge": (
        "alloc r0 23\n"
        "ld r1 [r0, #16] w4 p1\n"
        "ret\n"
        "st r2 [r0, #17] w8 p1\n"
        "halt\n"
    ),
    # allow-listed overread of the short granule
    "overread": (
        "alloc r0 40\n"
        "ld r1 [r0, #32] w16 p1 overread_ok\n"
        "mov r2 1\n"
        "halt\n"
    ),
}

CONFIGS = {
    "off": SimConfig(mode="off", tripwires=False),
    "async": SimConfig(mode="async", tripwires=False),
    "sync_no_tripwires": SimConfig(tripwires=False),
    "sync_sampled": SimConfig(alloc_threshold=2, sampling_rate=2),
    "sync_always_arm": SimConfig(alloc_threshold=ALWAYS_ARM),
    "always_arm_access2": SimConfig(alloc_threshold=ALWAYS_ARM, access_threshold=2),
    "always_arm_overread_skip": SimConfig(alloc_threshold=ALWAYS_ARM, overread_skip=True),
}

EXPECTED = {
    "intra": "adfda9e700ff22a781b3b5973c2bd1af9e7cce8ace070aeff3af3460e122a2eb",
    "cross_adjacent": "7444e394b14671a8211824b857c49d77deda7bb07d7d183c6fee91fddfe71866",
    "cross_non_adjacent": "9b2b3bc731819825288b9c2692c586baa04ccefbbcdc98b9b74380380fde73fb",
    "uaf_reuse0": "5c4734c380c9d859a5055654e53b0070c380b5e6aa407800def1ec06fd93a23f",
    # changed once on purpose: a reused region whose free-time tag equals the
    # new short granule's addressable count now gets a fresh tag draw
    "uaf_reuse3": "08298b47b74e555eb923a30a3bc23c57d3c8ccffff5221eb1e88be9fbf6c1436",
    "double_free": "10feba16c1ebb0833adcddf1e8478508d535bf2fb0b2eeec1e03aa1ff2ac68d3",
    "benign48": "8dc2d66428610d40eecf05eb444dfb2b7038012e6f85ddedece89a8a0265f2d4",
    "ret_edge": "59af0e78c9e1b54d396dd0e272dad5cfa285cc301e1903a04f1e7ae59daca282",
    "overread": "dd9dedd56fe7d4245d8de3a0426784239e362915f515f4c8039481f47ed0e1a3",
}


def corpus(name):
    if name in GENERATED:
        spec = replace(GENERATED[name], count=PROGRAMS_PER_CORPUS, seed=11)
        return generate_workload(spec)
    return [parse_program(HANDWRITTEN[name])] * PROGRAMS_PER_CORPUS


def corpus_digest(name):
    h = hashlib.sha256()
    for i, program in enumerate(corpus(name)):
        for cname, config in CONFIGS.items():
            sim = Simulation(program, replace(config, seed=f"golden/{name}/{i}"))
            report = sim.run()
            h.update(f"{cname}/{i}\n".encode())
            h.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
            h.update(repr(sim.machine.regs).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(EXPECTED))
def test_corpus_digest_unchanged(name):
    assert corpus_digest(name) == EXPECTED[name]
