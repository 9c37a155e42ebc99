"""Golden digests: run reports, final registers and final memory must stay bit-identical.

Each corpus runs under every configuration below with a per-program seed.
The report digest hashes the canonical JSON of every run report plus the
run's final registers.  The memory digest hashes each run's final memory
image: nonzero data bytes and nonzero granule tags, sorted by address, so
it does not depend on how memory stores untouched or zeroed locations.  A
refactor or optimisation that claims "no output change" must leave every
digest untouched; a deliberate behaviour change updates only the digests
it explains.
"""

import functools
import hashlib
import json
from dataclasses import replace

import pytest

from mtesim import ALWAYS_ARM, SimConfig, Simulation, WorkloadSpec, generate_workload, parse_program
from mtesim.memory import GRANULE_SIZE

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

# final memory images, recorded before the short-granule metadata code was
# gathered into one place; that refactor had to write exactly the same bytes
EXPECTED_MEMORY = {
    "intra": "4898d6c6d1a0bc9833629b5529306104fd5574a731d9543bcb7cd13ae8b5577c",
    "cross_adjacent": "d9d5d42d8b6baf2c593312f82192398375743079dea7aa7d59ac4c688a9d1678",
    "cross_non_adjacent": "0e9b7bc7e960befdebc784bfebd6d1d697a6ce80f39f3722837e6aa23a5b3902",
    "uaf_reuse0": "85133ea5a44d3564cb41bd2e6ba1feae6ba907436dfedae302018be30d09ecb4",
    "uaf_reuse3": "69dcbd25b925fc310eb58e5ecbca033b64f1fbe5aab2fe777849a042bf0a9579",
    "double_free": "35d8a37aa2a72480452dd54dc8a4e98e290c441f7ac5c1aaec271172e056c705",
    "benign48": "f588c41ddb7d595d88235ed790a3da075c45da4e4e337decb315fe9d6613427f",
    "ret_edge": "47ae1d5ede484083cfe85d9f883fb00d1241e725182e877f0f3ce1f23082d0d0",
    "overread": "1e6e48e658162736c1f38f2923c64b25d0cfb7ffd8df5b22f052c7c5ba3703e8",
}


def corpus(name):
    if name in GENERATED:
        spec = replace(GENERATED[name], count=PROGRAMS_PER_CORPUS, seed=11)
        return generate_workload(spec)
    return [parse_program(HANDWRITTEN[name])] * PROGRAMS_PER_CORPUS


def memory_image(mem):
    """Nonzero data bytes and nonzero granule tags, each sorted by address."""
    data = sorted((a, b) for a, b in mem.data.items() if b)
    tags = sorted((g * GRANULE_SIZE, t) for g, t in mem.tags.items() if t)
    return data, tags


@functools.lru_cache(maxsize=None)
def corpus_digests(name):
    """(report digest, memory digest) of one corpus under every config."""
    reports, memory = hashlib.sha256(), hashlib.sha256()
    for i, program in enumerate(corpus(name)):
        for cname, config in CONFIGS.items():
            sim = Simulation(program, replace(config, seed=f"golden/{name}/{i}"))
            report = sim.run()
            label = f"{cname}/{i}\n".encode()
            reports.update(label)
            reports.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
            reports.update(repr(sim.machine.regs).encode())
            memory.update(label)
            memory.update(repr(memory_image(sim.mem)).encode())
    return reports.hexdigest(), memory.hexdigest()


@pytest.mark.parametrize("name", list(EXPECTED))
def test_corpus_digest_unchanged(name):
    assert corpus_digests(name)[0] == EXPECTED[name]


@pytest.mark.parametrize("name", list(EXPECTED_MEMORY))
def test_memory_digest_unchanged(name):
    assert corpus_digests(name)[1] == EXPECTED_MEMORY[name]
