/**
 * @file
 * Transcript layout and claim ordering shared by the HyperPlonk prover and
 * verifier. Both sides must absorb the same messages in the same order for
 * Fiat-Shamir to produce matching challenges, so the common structure lives
 * here in one place.
 */
#ifndef ZKPHIRE_HYPERPLONK_PROTOCOL_COMMON_HPP
#define ZKPHIRE_HYPERPLONK_PROTOCOL_COMMON_HPP

#include <span>
#include <vector>

#include "hash/transcript.hpp"
#include "hyperplonk/circuit.hpp"
#include "hyperplonk/permutation.hpp"
#include "pcs/mkzg.hpp"
#include "sumcheck/grand_product.hpp"
#include "sumcheck/opencheck.hpp"

namespace zkphire::hyperplonk::detail {

using sumcheck::EvalClaim;

/** Start the protocol transcript, binding circuit shape and preprocessing. */
inline hash::Transcript
beginTranscript(GateSystem sys, unsigned mu,
                std::span<const pcs::Commitment> selector_comms,
                std::span<const pcs::Commitment> sigma_comms)
{
    hash::Transcript tr("zkphire-hyperplonk-v2");
    tr.appendU64("gate_system", sys == GateSystem::Vanilla ? 0 : 1);
    tr.appendU64("mu", mu);
    for (const auto &c : selector_comms)
        pcs::appendG1(tr, "selector_comm", c.point);
    for (const auto &c : sigma_comms)
        pcs::appendG1(tr, "sigma_comm", c.point);
    return tr;
}

/** The claimed polynomials in buildClaimsA order: T is Mle for the prover
 *  and pcs::Commitment for the verifier. */
template <class T>
std::vector<const T *>
claimOrderA(std::span<const T> selectors, std::span<const T> witness,
            std::span<const T> sigma, const T &phi, const T &pi)
{
    std::vector<const T *> out;
    out.reserve(selectors.size() + 3 * witness.size() + 7);
    for (const T &s : selectors)
        out.push_back(&s);
    for (const T &w : witness)
        out.push_back(&w);
    for (const T &w : witness)
        out.push_back(&w);
    for (const T &s : sigma)
        out.push_back(&s);
    for (const T *p : {&phi, &pi, &phi, &phi, &pi, &pi, &pi})
        out.push_back(p);
    return out;
}

/** (z'', b): z_p without its first coordinate, with b appended last. */
inline std::vector<ff::Fr>
shiftedPoint(std::span<const ff::Fr> z_p, unsigned b)
{
    std::vector<ff::Fr> pt(z_p.begin() + 1, z_p.end());
    pt.push_back(b ? ff::Fr::one() : ff::Fr::zero());
    return pt;
}

/**
 * The mu-variable evaluation claims, in canonical order:
 * selectors@z_g, w@z_g, w@z_p, sigma@z_p, phi@z_p, pi@z_p, then
 * phi@(z'',0), phi@(z'',1), pi@(z'',0), pi@(z'',1) (shift_evals) and
 * pi(1,..,1,0) = 1, the grand product (DESIGN.md "Grand product as two
 * mu-variable halves"). Tables are left empty (the prover splices them in
 * afterwards).
 */
inline std::vector<EvalClaim>
buildClaimsA(unsigned mu, unsigned num_selectors, unsigned num_witnesses,
             std::span<const ff::Fr> z_g, std::span<const ff::Fr> z_p,
             std::span<const ff::Fr> gate_slot_evals,
             std::span<const ff::Fr> w_at_zp,
             std::span<const ff::Fr> sigma_at_zp, const ff::Fr &phi_at_zp,
             const ff::Fr &pi_at_zp, std::span<const ff::Fr, 4> shift_evals)
{
    std::vector<EvalClaim> claims;
    claims.reserve(num_selectors + 3 * num_witnesses + 7);
    auto add = [&](std::span<const ff::Fr> pt, const ff::Fr &val) {
        EvalClaim c;
        c.point.assign(pt.begin(), pt.end());
        c.value = val;
        claims.push_back(std::move(c));
    };
    for (unsigned s = 0; s < num_selectors; ++s)
        add(z_g, gate_slot_evals[s]);
    for (unsigned j = 0; j < num_witnesses; ++j)
        add(z_g, gate_slot_evals[num_selectors + j]);
    for (unsigned j = 0; j < num_witnesses; ++j)
        add(z_p, w_at_zp[j]);
    for (unsigned j = 0; j < num_witnesses; ++j)
        add(z_p, sigma_at_zp[j]);
    add(z_p, phi_at_zp);
    add(z_p, pi_at_zp);
    const std::vector<ff::Fr> shifted[2] = {shiftedPoint(z_p, 0),
                                            shiftedPoint(z_p, 1)};
    add(shifted[0], shift_evals[0]);
    add(shifted[1], shift_evals[1]);
    add(shifted[0], shift_evals[2]);
    add(shifted[1], shift_evals[3]);
    add(sumcheck::rootProductPoint(mu - 1), ff::Fr::one());
    return claims;
}

} // namespace zkphire::hyperplonk::detail

#endif // ZKPHIRE_HYPERPLONK_PROTOCOL_COMMON_HPP
