/**
 * @file
 * OpenCheck: batching many (polynomial, point, value) evaluation claims into
 * a single SumCheck (paper §IV-A, Table I row 24).
 *
 * Given claims P_i(z_i) = y_i, the verifier samples eta and both sides run
 * SumCheck over
 *     g(x) = Sum_i eta^i * P_i(x) * eq(x, z_i)
 * whose hypercube sum equals Sum_i eta^i * y_i. After the SumCheck, all
 * claims collapse to evaluations of the P_i at ONE common point (the round
 * challenges), which a single batched PCS opening then certifies — this is
 * what keeps HyperPlonk proofs at 4-5 KB.
 *
 * The prover runs the rounds over g regrouped by distinct point or by
 * distinct table, whichever needs fewer slots (DESIGN.md "Factored
 * OpenCheck"); the round messages are the same bytes as the 2k-slot
 * batch, and the final evaluations are supplied in claim order.
 */
#ifndef ZKPHIRE_SUMCHECK_OPENCHECK_HPP
#define ZKPHIRE_SUMCHECK_OPENCHECK_HPP

#include <vector>

#include "sumcheck/prover.hpp"
#include "sumcheck/verifier.hpp"

namespace zkphire::sumcheck {

/** One evaluation claim to be batched. */
struct EvalClaim {
    poly::Mle table;        // prover side: the polynomial (verifier: empty)
    std::vector<Fr> point;  // z_i
    Fr value;               // y_i
};

/** OpenCheck proof. */
struct OpencheckProof {
    SumcheckProof sc;
    std::size_t sizeBytes() const { return sc.sizeBytes(); }
};

struct OpencheckProverOutput {
    OpencheckProof proof;
    std::vector<Fr> challenges; // the single common opening point
    /** P_i evaluations at the common point (to be PCS-opened). */
    std::vector<Fr> polyEvals;
};

/** Prove a batch of evaluation claims. All points must have equal dims.
 *  The proof's final slot evaluations are P_i(r) for every claim, then
 *  eq(r, z_i), in claim order. cfg covers the table builds as well as the
 *  inner sumcheck. */
OpencheckProverOutput proveOpen(std::vector<EvalClaim> claims,
                                hash::Transcript &tr,
                                const rt::Config &cfg = {});

struct OpencheckVerifyResult {
    bool ok = false;
    std::string error;
    std::vector<Fr> challenges;
    std::vector<Fr> polyEvals; // claimed P_i(challenges), PCS-bound later
};

/**
 * Verify an OpenCheck proof against claims (tables not needed; only points
 * and values). eq(x, z_i) evaluations at the challenge point are recomputed
 * by the verifier.
 */
OpencheckVerifyResult verifyOpen(const std::vector<EvalClaim> &claims,
                                 const OpencheckProof &proof,
                                 unsigned num_vars, hash::Transcript &tr);

} // namespace zkphire::sumcheck

#endif // ZKPHIRE_SUMCHECK_OPENCHECK_HPP
