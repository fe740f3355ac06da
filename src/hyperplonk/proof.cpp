#include "hyperplonk/proof.hpp"

#include <sstream>

namespace zkphire::hyperplonk {

namespace {

constexpr std::size_t kFrBytes = 32;
/** Compressed G1 encoding (x coordinate + sign bit packed), as in BLS12-381
 *  serialization standards. */
constexpr std::size_t kPointBytes = 48;

std::size_t
sumcheckBytes(const sumcheck::SumcheckProof &sc)
{
    std::size_t field_elems = 1; // claimed sum
    for (const auto &round : sc.roundEvals) {
        // Standard optimization: s(1) = claim - s(0) is derivable, so one
        // evaluation per round need not be sent.
        field_elems += round.size() - 1;
    }
    field_elems += sc.finalSlotEvals.size();
    return field_elems * kFrBytes;
}

} // namespace

ProofSizeBreakdown
HyperPlonkProof::sizeBreakdown() const
{
    ProofSizeBreakdown b;
    b.commitments = (witnessComms.size() + 2) * kPointBytes;
    b.gateZeroCheck = sumcheckBytes(gateZC.sc);
    b.permZeroCheck = sumcheckBytes(permZC.sc);
    b.openChecks = sumcheckBytes(openA.sc);
    b.pcsOpenings = pcsA.quotients.size() * kPointBytes;
    b.auxEvals =
        (wAtZp.size() + sigmaAtZp.size() + shiftEvals.size()) * kFrBytes;
    return b;
}

std::string
ProofSizeBreakdown::toString() const
{
    std::ostringstream os;
    os << "proof size " << total() << " B ("
       << "commitments " << commitments << ", gate ZC " << gateZeroCheck
       << ", perm ZC " << permZeroCheck << ", OpenChecks " << openChecks
       << ", PCS " << pcsOpenings << ", aux evals " << auxEvals << ")";
    return os.str();
}

} // namespace zkphire::hyperplonk
