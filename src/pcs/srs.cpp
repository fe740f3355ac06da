#include "pcs/srs.hpp"

#include "ec/batch_add.hpp"
#include "ec/fixed_base.hpp"
#include "poly/mle.hpp"
#include "rt/parallel.hpp"

namespace zkphire::pcs {

/** out[j] = in[j*stride] + in[j*stride + gap]: two-point segment sums. */
static std::vector<G1Affine>
pairSums(std::span<const G1Affine> in, std::size_t stride, std::size_t gap)
{
    std::vector<G1Affine> out(in.size() / 2);
    rt::parallelForChunks(
        0, out.size(),
        [&](std::size_t b, std::size_t e) {
            std::vector<std::uint32_t> enc, off{0}; // even: not negated
            for (std::size_t j = b; j < e; ++j) {
                enc.push_back(std::uint32_t(2 * j * stride));
                enc.push_back(std::uint32_t(2 * (j * stride + gap)));
                off.push_back(std::uint32_t(enc.size()));
            }
            ec::BatchAffineScratch scratch;
            ec::batchAffineSegmentSumsIndexed(
                in, enc, off, std::span(out).subspan(b, e - b), scratch);
        },
        0, 256);
    return out;
}

Srs
Srs::generate(unsigned max_vars, ff::Rng &rng)
{
    Srs srs;
    for (unsigned i = 0; i < max_vars; ++i)
        srs.tauVec.push_back(Fr::random(rng));
    // One fixed-base sweep builds the top basis eq(tau, bits(i)) * G. Each eq
    // factor sums to one over {0,1}: summing over the highest variable gives
    // the next smaller level, over the lowest (index bit 0) the next suffix.
    const poly::Mle eq = poly::Mle::eqTable(srs.tauVec);
    const ec::FixedBaseMul genMul(ec::g1Generator());
    std::vector<G1Jacobian> jac(eq.size());
    rt::parallelFor(0, jac.size(),
                    [&](std::size_t i) { jac[i] = genMul.mul(eq[i]); });
    srs.levels.resize(max_vars + 1);
    for (unsigned mu = max_vars + 1; mu-- > 0;) {
        std::vector<std::vector<G1Affine>> &sfx = srs.levels[mu].suffix;
        sfx.push_back(mu == max_vars ? ec::batchToAffine(jac)
                                     : pairSums(srs.levels[mu + 1].suffix[0],
                                                1, std::size_t(1) << mu));
        for (unsigned s = 0; s < mu; ++s)
            sfx.push_back(pairSums(sfx[s], 2, 1));
    }
    return srs;
}

void
appendG1(hash::Transcript &tr, std::string_view label, const G1Affine &p)
{
    std::uint8_t bytes[2 * 48 + 1] = {};
    if (!p.infinity) {
        p.x.toBig().toBytesLe(bytes);
        p.y.toBig().toBytesLe(bytes + 48);
        bytes[96] = 1;
    }
    tr.appendBytes(label, bytes);
}

} // namespace zkphire::pcs
