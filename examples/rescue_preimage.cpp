/**
 * @file
 * The paper's flagship Jellyfish workload, end to end: prove knowledge of
 * a Rescue hash preimage with a real HyperPlonk proof, then project the
 * "2^12 Rescue Hashes" batch (Table VII row) on the modeled accelerator.
 *
 * Rescue's x^5 / x^(1/5) S-boxes are why high-degree gates pay off: each
 * S-box is ONE Jellyfish row (degree-5 constraint) vs three Vanilla rows.
 */
#include <cstdio>

#include "gadgets/rescue.hpp"
#include "hyperplonk/prover.hpp"
#include "hyperplonk/verifier.hpp"
#include "sim/baseline.hpp"
#include "sim/chip.hpp"

using namespace zkphire;
using namespace zkphire::gadgets;
using ff::Fr;

int
main()
{
    // ---- 1. A real preimage proof ---------------------------------------
    Fr a = Fr::fromU64(20260608), b = Fr::fromU64(271828);
    Fr digest = rescueHash(a, b);
    std::printf("digest = %s...\n",
                digest.toBig().toHex().substr(0, 20).c_str());

    RescuePreimageCircuit pc = buildRescuePreimageCircuit(a, b);
    std::printf("circuit: %zu Jellyfish rows, %zu copy constraints "
                "(8 double rounds, width 3)\n",
                pc.circuit.numRows(), pc.circuit.copies().size());

    ff::Rng rng(99);
    unsigned mu = 0;
    while ((1u << mu) < pc.circuit.numRows())
        ++mu;
    pcs::Srs srs = pcs::Srs::generate(mu, rng);
    auto keys = hyperplonk::setup(pc.circuit, srs);
    // Default rt::Config: ZKPHIRE_THREADS (or hardware concurrency) decides.
    hyperplonk::ProverStats stats;
    auto proof = hyperplonk::prove(keys.pk, pc.circuit, &stats);
    auto res = hyperplonk::verify(keys.vk, proof);
    std::printf("proof: %.1f ms on this host, %zu B, verifier says %s\n",
                stats.totalMs(), proof.sizeBytes(),
                res.ok ? "ACCEPTED" : res.error.c_str());
    if (!res.ok)
        return 1;

    // ---- 2. The paper's 2^12-hash batch on the accelerator --------------
    // 2^12 Rescue hashes ~= 2^20 Jellyfish gates (Table VII).
    std::printf("\nprojected batch of 2^12 Rescue hashes (2^20 Jellyfish "
                "gates):\n");
    sim::ChipConfig chip = sim::ChipConfig::exemplar();
    sim::CpuModel cpu;
    auto wl = sim::ProtocolWorkload::jellyfish(20);
    auto run = sim::simulateProtocol(chip, wl);
    double cpu_ms = cpu.protocolMs(wl);
    std::printf("  zkPHIRE exemplar: %.2f ms (paper: 7.114 ms)\n",
                run.totalMs);
    std::printf("  32-thread CPU   : %.0f ms (paper: 11532 ms)\n", cpu_ms);
    std::printf("  speedup         : %.0fx (paper: 1621x)\n",
                cpu_ms / run.totalMs);
    std::printf("  per hash        : %.2f us, %.1f hashes proven per "
                "second per chip\n",
                run.totalMs * 1000.0 / 4096.0, 4096.0 * 1000.0 / run.totalMs);
    return 0;
}
