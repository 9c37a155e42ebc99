"""Golden digests: run reports, final registers and final memory must stay bit-identical.

Each corpus runs under every configuration below with a per-program seed.
The report digest hashes the canonical JSON of every run report plus the
run's final registers.  The memory digest hashes each run's final memory
image: nonzero data bytes and nonzero granule tags, sorted by address, so
it does not depend on how memory stores untouched or zeroed locations.
The program digest hashes the rendered text of each generated corpus.  A
refactor or optimisation that claims "no output change" must leave every
digest untouched; a deliberate behaviour change updates only the digests
it explains.
"""

import functools
import hashlib
import json
from dataclasses import replace

import pytest

from mtesim import (ALWAYS_ARM, SimConfig, Simulation, WorkloadSpec, generate_workload,
                    parse_program, render_program)

PROGRAMS_PER_CORPUS = 20

GENERATED = {
    "intra": WorkloadSpec(kind="intra"),
    "cross_adjacent": WorkloadSpec(kind="cross"),
    "cross_non_adjacent": WorkloadSpec(kind="cross", adjacent=False),
    "uaf_reuse0": WorkloadSpec(kind="uaf", reuse_cycles=0),
    "uaf_reuse3": WorkloadSpec(kind="uaf", reuse_cycles=3),
    "double_free": WorkloadSpec(kind="double_free"),
    "benign48": WorkloadSpec(kind="benign", accesses=48),
    # the benchmark's churn-uaf shape: every cycle retags regions of up to 64 granules
    "uaf_churn32": WorkloadSpec(kind="uaf", reuse_cycles=32,
                                size_distribution=((47, 1), (256, 1), (520, 1), (777, 1),
                                                   (1023, 1))),
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

# The `async` config's reports of the cross and uaf corpora moved once on
# purpose: an async report is kind AsyncTagCheckFault with no address or
# tags, and its registers are those of the kernel entry.  The sync reports
# of the three uaf corpora moved once on purpose: a bug's label reads
# memory, not the allocator, so no use-after-free reads as an overflow.
EXPECTED = {
    "intra": "adfda9e700ff22a781b3b5973c2bd1af9e7cce8ace070aeff3af3460e122a2eb",
    "cross_adjacent": "6346a41c46c8cb939a1d62fedc691e7d60de41991b5409a0981462135c32ce33",
    "cross_non_adjacent": "2ed11fd394d6a14ed37787d45c39724997c6d54fcf7a6ba6b52ec0b2f7097f7f",
    "uaf_reuse0": "08402354a567919eed7ca3159c8dbbb2a2a498d1d7e1cff2bb5c83b96e32e054",
    # changed once on purpose: a reused region whose free-time tag equals the
    # new short granule's addressable count now gets a fresh tag draw
    "uaf_reuse3": "73baa42d07a286a23556c7c88253ec76523c532c8330b96b121ad3bfc59f86c9",
    "double_free": "10feba16c1ebb0833adcddf1e8478508d535bf2fb0b2eeec1e03aa1ff2ac68d3",
    "benign48": "8dc2d66428610d40eecf05eb444dfb2b7038012e6f85ddedece89a8a0265f2d4",
    "ret_edge": "59af0e78c9e1b54d396dd0e272dad5cfa285cc301e1903a04f1e7ae59daca282",
    "overread": "dd9dedd56fe7d4245d8de3a0426784239e362915f515f4c8039481f47ed0e1a3",
    "uaf_churn32": "cb26b35e51abb7c41f8f7968f0b92dcae4c8ea8a26b048d20529d22c5ce190f4",
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
    "uaf_churn32": "cda5da474b4d4f9b207d37976d52f56182c610eff83e24cd7958a92a35e2692a",
}

# rendered text of each generated corpus, recorded while the generator still
# rendered text and parsed it back; building instructions directly must not
# change a single program
EXPECTED_PROGRAMS = {
    "intra": "ee8602bea7d6d1347bcdeffa3f9047564cc56e6907d616f2ed6564638e897a1d",
    "cross_adjacent": "b3c2e67e05612052411adb8832b73ea0496d147e914f4dffd650fd8c1ec2f79f",
    "cross_non_adjacent": "7870b7223309b0c1f143f3429b9238d45da11350ce5ab720f16c894acdf847aa",
    "uaf_reuse0": "d0119a72bd293619780eadaaa9b862060f1986f570d2805e9f3dda2a484ffcd7",
    "uaf_reuse3": "5926594260c4ba8e6fe9adf7ab956a3a7851077e5acf258e3931fdac5cb8db75",
    "double_free": "98438841f3d2b29790739cbe168eda46a9c050e1d4f9d87665807599fee717bf",
    "benign48": "327e23a2b318fb05897caca5ff916388c8049df93c65037ab6ad6ae23d004642",
    "uaf_churn32": "d0f7cfd8f01743857a3c02dd7fc5151b220e398591d65d59961a881d36c728d0",
}


def corpus(name):
    if name in GENERATED:
        spec = replace(GENERATED[name], count=PROGRAMS_PER_CORPUS, seed=11)
        return generate_workload(spec)
    return [parse_program(HANDWRITTEN[name])] * PROGRAMS_PER_CORPUS


def memory_image(mem):
    """Nonzero data bytes and nonzero granule tags, each sorted by address."""
    return mem.nonzero_bytes(), mem.nonzero_tags()


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


@pytest.mark.parametrize("name", list(EXPECTED_PROGRAMS))
def test_program_digest_unchanged(name):
    programs = corpus(name)
    digest = hashlib.sha256()
    for program in programs:
        digest.update(render_program(program).encode())
    assert digest.hexdigest() == EXPECTED_PROGRAMS[name]


@pytest.mark.parametrize("name", list(EXPECTED))
def test_corpus_digest_unchanged(name):
    assert corpus_digests(name)[0] == EXPECTED[name]


@pytest.mark.parametrize("name", list(EXPECTED_MEMORY))
def test_memory_digest_unchanged(name):
    assert corpus_digests(name)[1] == EXPECTED_MEMORY[name]
