#include "hyperplonk/verifier.hpp"

#include "hyperplonk/protocol_common.hpp"

namespace zkphire::hyperplonk {

using sumcheck::EvalClaim;

VerifyResult
verify(const VerifyingKey &vk, const HyperPlonkProof &proof)
{
    VerifyResult res;
    auto fail = [&res](std::string msg) {
        res.ok = false;
        res.error = std::move(msg);
        return res;
    };

    const unsigned k = numWitnessCols(vk.sys);
    const unsigned num_sel = numSelectorCols(vk.sys);
    if (proof.witnessComms.size() != k)
        return fail("wrong number of witness commitments");
    if (proof.wAtZp.size() != k || proof.sigmaAtZp.size() != k)
        return fail("wrong number of auxiliary evaluations");
    // The grand product sits in pi(1,..,1,0), which needs one variable.
    if (vk.mu == 0)
        return fail("circuits need at least two rows");

    hash::Transcript tr = detail::beginTranscript(
        vk.sys, vk.mu, vk.selectorComms, vk.sigmaComms);

    // ---- Step 1: absorb witness commitments ---------------------------
    for (const auto &c : proof.witnessComms)
        pcs::appendG1(tr, "w_comm", c.point);

    // ---- Step 2: Gate Identity ZeroCheck ------------------------------
    const gates::Gate &gate = coreGate(vk.sys);
    auto gate_res = sumcheck::verifyZero(gate.expr, proof.gateZC, vk.mu, tr);
    if (!gate_res.ok)
        return fail("gate ZeroCheck: " + gate_res.error);
    const std::vector<Fr> &z_g = gate_res.challenges;

    // ---- Step 3: Wire Identity ----------------------------------------
    Fr beta = tr.challengeFr("beta");
    Fr gamma = tr.challengeFr("gamma");
    pcs::appendG1(tr, "phi_comm", proof.phiComm.point);
    pcs::appendG1(tr, "pi_comm", proof.piComm.point);
    Fr alpha = tr.challengeFr("alpha");

    gates::Gate perm_gate = gates::permCoreGate(k, alpha);
    auto perm_res =
        sumcheck::verifyZero(perm_gate.expr, proof.permZC, vk.mu, tr);
    if (!perm_res.ok)
        return fail("perm ZeroCheck: " + perm_res.error);
    const std::vector<Fr> &z_p = perm_res.challenges;
    // Slot order: pi p1 p2 phi D1..Dk N1..Nk.
    const std::vector<Fr> &pe = perm_res.slotEvals;
    // p1 = v(z_p,0), p2 = v(z_p,1) with v(z_0, z'', b) = (1-z_0)*phi(z'',b)
    // + z_0*pi(z'',b); the shift evals are claims of the OpenCheck below.
    const auto &sh = proof.shiftEvals;
    const Fr z0 = z_p[0], w0 = Fr::one() - z0;
    if (pe[1] != w0 * sh[0] + z0 * sh[2] || pe[2] != w0 * sh[1] + z0 * sh[3])
        return fail("product-tree views inconsistent with shift evaluations");

    // N/D fraction consistency: D_j = w_j + beta*sigma_j + gamma and
    // N_j = w_j + beta*id_j + gamma at z_p, with id_j computed locally.
    for (unsigned j = 0; j < k; ++j) {
        Fr d_expect = proof.wAtZp[j] + beta * proof.sigmaAtZp[j] + gamma;
        if (pe[4 + j] != d_expect)
            return fail("fraction denominator inconsistent at column " +
                        std::to_string(j));
        Fr n_expect =
            proof.wAtZp[j] + beta * evalIdMle(j, vk.mu, z_p) + gamma;
        if (pe[4 + k + j] != n_expect)
            return fail("fraction numerator inconsistent at column " +
                        std::to_string(j));
    }

    // ---- Step 4: Batch Evaluations ------------------------------------
    tr.appendFrVec("w_zp", proof.wAtZp);
    tr.appendFrVec("sigma_zp", proof.sigmaAtZp);
    tr.appendFrVec("shift_zp", proof.shiftEvals);

    std::vector<EvalClaim> claims_a = detail::buildClaimsA(
        vk.mu, num_sel, k, z_g, z_p, proof.gateZC.sc.finalSlotEvals,
        proof.wAtZp, proof.sigmaAtZp, pe[3], pe[0], proof.shiftEvals);
    auto open_a_res =
        sumcheck::verifyOpen(claims_a, proof.openA, vk.mu, tr);
    if (!open_a_res.ok)
        return fail("OpenCheck: " + open_a_res.error);

    // ---- Step 5: PCS opening -------------------------------------------
    Fr rho = tr.challengeFr("rho_a");
    std::vector<pcs::Commitment> comms_a;
    for (const pcs::Commitment *c : detail::claimOrderA<pcs::Commitment>(
             vk.selectorComms, proof.witnessComms, vk.sigmaComms,
             proof.phiComm, proof.piComm))
        comms_a.push_back(*c);
    if (!pcs::verifyBatchOpening(*vk.srs, comms_a, open_a_res.challenges,
                                 open_a_res.polyEvals, rho, proof.pcsA))
        return fail("PCS batch opening failed");

    res.ok = true;
    return res;
}

} // namespace zkphire::hyperplonk
