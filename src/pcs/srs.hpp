/**
 * @file
 * Structured reference string for the multilinear KZG (PST13) commitment
 * scheme HyperPlonk uses: the Lagrange-basis G1 points
 * L_i = eq(tau, bits(i)) * G for every polynomial size up to maxVars and
 * every variable suffix (the bases the per-variable quotient proofs are
 * committed under). tau is kept as the *simulation trapdoor*: the testing
 * verifier checks the KZG identity in G1 with tau instead of a pairing (see
 * DESIGN.md substitutions); a production deployment would discard it.
 */
#ifndef ZKPHIRE_PCS_SRS_HPP
#define ZKPHIRE_PCS_SRS_HPP

#include <vector>

#include "ec/g1.hpp"
#include "hash/transcript.hpp"

namespace zkphire::pcs {

using ec::G1Affine;
using ec::G1Jacobian;
using ff::Fr;

/** Lagrange bases for one polynomial size mu. */
struct LevelBases {
    /** suffix[s] = basis over (tau_s .. tau_{mu-1}), size 2^(mu-s); suffix[0]
     *  commits mu-variable polynomials, suffix[mu] = {G}. */
    std::vector<std::vector<G1Affine>> suffix;
};

/** Universal SRS for polynomials of up to maxVars variables. generate()
 *  builds every level; they are immutable after, so readers need no lock. */
class Srs
{
  public:
    /** Run the (simulated) universal setup ceremony and derive every level
     *  (DESIGN.md "SRS derivation"). */
    static Srs generate(unsigned max_vars, ff::Rng &rng);

    unsigned maxVars() const { return unsigned(tauVec.size()); }
    const std::vector<Fr> &tau() const { return tauVec; }

    /** Lagrange bases for mu-variable polynomials, mu <= maxVars(). */
    const LevelBases &basesFor(unsigned mu) const { return levels.at(mu); }

    /** The G1 generator the bases are built over. */
    const G1Affine &generator() const { return ec::g1Generator(); }

  private:
    std::vector<Fr> tauVec;
    std::vector<LevelBases> levels; ///< levels[mu], mu = 0..maxVars.
};

/** Absorb a G1 point into a Fiat-Shamir transcript (x || y || inf byte). */
void appendG1(hash::Transcript &tr, std::string_view label, const G1Affine &p);

} // namespace zkphire::pcs

#endif // ZKPHIRE_PCS_SRS_HPP
