/**
 * @file
 * HyperPlonk proof object and size accounting.
 *
 * The proof mirrors the paper's five prover steps: witness commitments,
 * Gate Identity ZeroCheck, Wire Identity (commitments to the grand-product
 * halves phi and pi + PermCheck ZeroCheck), Batch Evaluations (one
 * OpenCheck over mu-variable claims, the product-tree claims among them),
 * and the final batched PCS opening. Size accounting assumes the standard
 * compressed encodings (48 B G1 points, 32 B field elements), giving the
 * "few KB" proofs the paper reports.
 */
#ifndef ZKPHIRE_HYPERPLONK_PROOF_HPP
#define ZKPHIRE_HYPERPLONK_PROOF_HPP

#include <array>
#include <string>
#include <vector>

#include "pcs/mkzg.hpp"
#include "sumcheck/opencheck.hpp"
#include "sumcheck/zerocheck.hpp"

namespace zkphire::hyperplonk {

/** Per-component proof size breakdown (bytes, compressed encodings). */
struct ProofSizeBreakdown {
    std::size_t commitments = 0;
    std::size_t gateZeroCheck = 0;
    std::size_t permZeroCheck = 0;
    std::size_t openChecks = 0;
    std::size_t pcsOpenings = 0;
    std::size_t auxEvals = 0;
    std::size_t total() const
    {
        return commitments + gateZeroCheck + permZeroCheck + openChecks +
               pcsOpenings + auxEvals;
    }
    std::string toString() const;
};

/** A complete HyperPlonk proof. */
struct HyperPlonkProof {
    // Step 1: witness commitments.
    std::vector<pcs::Commitment> witnessComms;
    // Step 3: wire-identity commitments to the two mu-variable halves of
    // the product tree v(y_0, y') = (1-y_0)*phi(y') + y_0*pi(y').
    pcs::Commitment phiComm;
    pcs::Commitment piComm;
    // Steps 2-3: ZeroChecks.
    sumcheck::ZerocheckProof gateZC;
    sumcheck::ZerocheckProof permZC;
    // Auxiliary claimed evaluations at the PermCheck point z_p.
    std::vector<ff::Fr> wAtZp;
    std::vector<ff::Fr> sigmaAtZp;
    // phi(z'',0), phi(z'',1), pi(z'',0), pi(z'',1) with z'' = z_p minus its
    // first coordinate: the PermCheck views v(z_p,0) and v(z_p,1) are
    // affine in these.
    std::array<ff::Fr, 4> shiftEvals;
    // Step 4: the batched evaluation reduction.
    sumcheck::OpencheckProof openA;
    // Step 5: the PCS opening of the batched polynomial.
    pcs::OpeningProof pcsA;

    ProofSizeBreakdown sizeBreakdown() const;
    std::size_t sizeBytes() const { return sizeBreakdown().total(); }
};

} // namespace zkphire::hyperplonk

#endif // ZKPHIRE_HYPERPLONK_PROOF_HPP
