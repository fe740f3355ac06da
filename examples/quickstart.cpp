/**
 * @file
 * Quickstart: build a small Vanilla HyperPlonk circuit, prove it through
 * the engine's session API (ProverContext + ProofService), verify it, and
 * print sizes/timings.
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 *
 * The circuit proves knowledge of x such that x^3 + x + 5 == 35 (the
 * classic toy statement) without revealing x = 3.
 */
#include <cstdio>

#include "engine/service.hpp"
#include "hyperplonk/verifier.hpp"

using namespace zkphire;
using namespace zkphire::hyperplonk;
using ff::Fr;

int
main()
{
    // ---- 1. Build the circuit (prover side knows x = 3) ----------------
    Circuit circuit(GateSystem::Vanilla);
    Fr x = Fr::fromU64(3);

    Cell x_sq = circuit.addMultiplication(x, x); // x^2
    Cell x_cu = circuit.addMultiplication(circuit.witness(x_sq), x); // x^3
    // Wire: x_sq output feeds x_cu's left input.
    circuit.copy(x_sq, Cell{0, x_cu.row});
    Cell sum1 =
        circuit.addAddition(circuit.witness(x_cu), x); // x^3 + x
    circuit.copy(x_cu, Cell{0, sum1.row});
    Cell sum2 = circuit.addAddition(circuit.witness(sum1),
                                    Fr::fromU64(5)); // x^3 + x + 5
    circuit.copy(sum1, Cell{0, sum2.row});
    circuit.addConstant(Fr::fromU64(35)); // pin the expected output
    // Tie the computed result to the pinned constant via a subtraction
    // gate: (x^3 + x + 5) - 35 == 0  <=>  w1 + qC == w3 with w3 = 0.
    Fr result = circuit.witness(sum2);
    Fr sel[5] = {Fr::one(), Fr::zero(), Fr::zero(), Fr::zero(),
                 Fr::fromI64(-35)};
    Fr wit[3] = {result, Fr::zero(), Fr::zero()};
    std::size_t check_row = circuit.addRow(sel, wit);
    circuit.copy(sum2, Cell{0, check_row});

    unsigned mu = circuit.padToPowerOfTwo();
    std::printf("circuit: %zu rows (mu = %u), %zu copy constraints\n",
                circuit.numRows(), mu, circuit.copies().size());
    std::printf("gates satisfied: %s, wiring satisfied: %s\n",
                circuit.gatesSatisfied() ? "yes" : "NO",
                circuit.copiesSatisfied() ? "yes" : "NO");

    // ---- 2. A prover session: SRS + context + preprocessing -------------
    // The ProverContext owns the preprocessed keys, the compiled gate-plan
    // cache, and the runtime config (default: ZKPHIRE_THREADS or hardware
    // concurrency) for every proof made through it.
    ff::Rng rng(42);
    pcs::Srs srs = pcs::Srs::generate(mu, rng);
    engine::ProverContext ctx(srs);
    const Keys &keys = ctx.preprocess(circuit);
    std::printf("setup done: %u selector + %u sigma commitments\n",
                unsigned(keys.vk.selectorComms.size()),
                unsigned(keys.vk.sigmaComms.size()));

    // ---- 3. Prove through the service -----------------------------------
    // One lane = a sequential service; pass lanes = N to keep N proofs in
    // flight. Results are byte-identical either way.
    engine::ProofService service(ctx, /*lanes=*/1);
    engine::ProofRequest request{&keys.pk, &circuit, nullptr};
    engine::ProofResult job = service.proveAll({request})[0];
    if (!job.ok) {
        std::printf("proving failed: %s\n", job.error.c_str());
        return 1;
    }
    HyperPlonkProof proof = std::move(job.proof);
    ProverStats stats = job.stats;
    std::printf("\nproof generated in %.2f ms\n", stats.totalMs());
    std::printf("  witness commit %.2f | gate identity %.2f | wire "
                "identity %.2f | batch eval %.2f | opening %.2f (ms)\n",
                stats.witnessCommitMs, stats.gateIdentityMs,
                stats.wireIdentityMs, stats.batchEvalMs, stats.openingMs);
    std::printf("  MSM work: %llu point adds, %llu doubles, %llu "
                "batched-affine adds (%llu batch inversions)\n",
                (unsigned long long)stats.msm.pointAdds,
                (unsigned long long)stats.msm.pointDoubles,
                (unsigned long long)stats.msm.affineAdds,
                (unsigned long long)stats.msm.batchInversions);
    std::printf("  MSM phases: recode %.2f | buckets %.2f | fold %.2f (ms)\n",
                stats.msm.recodeMs, stats.msm.bucketMs, stats.msm.foldMs);
    std::printf("  %s\n", proof.sizeBreakdown().toString().c_str());

    // ---- 4. Verify -------------------------------------------------------
    auto res = verify(keys.vk, proof);
    std::printf("\nverification: %s\n",
                res.ok ? "ACCEPTED" : ("REJECTED: " + res.error).c_str());

    // ---- 5. A cheating prover is caught ----------------------------------
    HyperPlonkProof bad = proof;
    bad.wAtZp[0] += Fr::one();
    auto bad_res = verify(keys.vk, bad);
    std::printf("tampered proof: %s (%s)\n",
                bad_res.ok ? "ACCEPTED (BUG!)" : "rejected",
                bad_res.error.c_str());
    return res.ok && !bad_res.ok ? 0 : 1;
}
