/**
 * @file
 * HyperPlonk verifier.
 *
 * Replays the Fiat-Shamir transcript, verifies both ZeroChecks, checks the
 * N/D fraction consistency against the wiring identity polynomials (id
 * computed locally, sigma bound by commitment), recomputes the product-tree
 * views p1/p2 from the shifted evaluations of phi and pi, verifies the one
 * OpenCheck (the grand-product root among its claims), and finally
 * verifies the batched PCS opening. Returns a structured result naming the
 * first check that failed, which the negative tests rely on.
 */
#ifndef ZKPHIRE_HYPERPLONK_VERIFIER_HPP
#define ZKPHIRE_HYPERPLONK_VERIFIER_HPP

#include <string>

#include "hyperplonk/prover.hpp"

namespace zkphire::hyperplonk {

/** Verification outcome. */
struct VerifyResult {
    bool ok = false;
    std::string error; ///< Empty on success; names the failed check.
};

/** Verify a HyperPlonk proof against a verifying key. */
VerifyResult verify(const VerifyingKey &vk, const HyperPlonkProof &proof);

} // namespace zkphire::hyperplonk

#endif // ZKPHIRE_HYPERPLONK_VERIFIER_HPP
