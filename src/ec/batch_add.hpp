/**
 * @file
 * Batched affine point addition (Montgomery-trick bucket accumulation).
 *
 * A Jacobian mixed addition costs 7M + 4S in Fq; an affine addition costs
 * 1I + 2M + 1S, which is cheaper whenever the inversion is amortized over
 * a large batch — Montgomery's trick turns B inversions into one true
 * inversion plus 3B multiplications, bringing the per-addition cost down
 * to ~6 Fq multiplications. The paper's MSM unit (and SZKP's bucket PEs)
 * exploit exactly this: bucket accumulation is a huge set of independent
 * additions whose slope denominators can be inverted together.
 *
 * batchAffineSegmentSumsIndexed reduces many independent point lists
 * ("segments", one per MSM bucket) to their sums with pairwise halving
 * rounds; each round classifies every pair (identity / cancellation /
 * doubling / generic add), batch-inverts all slope denominators in one
 * shot, and applies the affine formulas. The pairing order is fixed by the
 * segment layout, so results are deterministic regardless of thread count,
 * and inverses are canonical field values, so the output is bit-identical
 * to a serial affine evaluation.
 *
 * Two implementations sit behind the one entry point. The scalar one runs
 * a pair at a time on the 6-limb Montgomery kernels. The AVX-512 IFMA one
 * (src/ec/batch_add_ifma.hpp) runs every round eight pairs at a time in a
 * radix-2^52 lane domain: slopes staged with lane subtractions, the batch
 * inversion as eight interleaved lane chains closed by one scalar
 * inversion (so a round still pays one), and a pair with an identity
 * operand or equal x sent through the scalar classify/apply below. An
 * affine sum is a unique pair of canonical coordinates, so both produce
 * the same bytes and the same BatchAffineStats; the lanes are picked at
 * run time (ifma::selected()). Callers that reuse one point array across
 * many reductions (the MSM windows) convert it to lane form once and pass
 * the converted table.
 */
#ifndef ZKPHIRE_EC_BATCH_ADD_HPP
#define ZKPHIRE_EC_BATCH_ADD_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "ec/batch_add_ifma.hpp"
#include "ec/g1.hpp"

namespace zkphire::ec {

/** Op counts from a batched-affine reduction. */
struct BatchAffineStats {
    std::uint64_t affineAdds = 0;      ///< Slope-based pair additions.
    std::uint64_t batchInversions = 0; ///< Batch-inversion rounds (1 true
                                       ///< field inversion each).
};

/** Reusable scratch for the segment-sum reductions (grown once, reused). */
struct BatchAffineScratch {
    std::vector<std::uint32_t> len;
    std::vector<std::uint8_t> kind;
    /** Slope numerators while staging; the finished slopes (numer *
     *  denom^{-1}, one fused mulVec pass) after the round resolves. */
    std::vector<ff::Fq> numer;
    std::vector<ff::Fq> denom;
    std::vector<ff::Fq> prefix;
    std::vector<G1Affine> buf;      ///< Indexed round-0 output buffer.
    std::vector<std::uint32_t> off; ///< Its compacted segment offsets.

    /** Lane path: the round buffers (ping-pong, laid out by off), the
     *  converted entries of an affine input, each round's pair source and
     *  destination slots, and per group of eight pairs the lane chains'
     *  prefix products (then the inverses), denominators and scalar-path
     *  lanes. */
    ifma::MappedArray<ifma::LaneAffine> lanes[2];
    ifma::MappedArray<ifma::LaneAffine> entries;
    std::vector<std::uint32_t> pairSrc, pairDst;
    ifma::MappedArray<ifma::FqX8> chain, chainDen;
    std::vector<std::uint8_t> chainSpecial;
};

/**
 * The point array an indexed reduction reads: affine points, or the same
 * points already in lane form. A lane table exists only where the lanes
 * are supported, and the reduction then always takes them; from affine
 * points it takes them when ifma::selected().
 */
struct PointTable {
    std::span<const G1Affine> affine;
    std::span<const ifma::LaneAffine> lanes;

    PointTable(std::span<const G1Affine> p) : affine(p) {}
    PointTable(std::span<const ifma::LaneAffine> p) : lanes(p) {}
};

/**
 * Segment sums over ENCODED point references: entry e refers to
 * points[e >> 1], negated when (e & 1). Segment s is enc[off[s] ..
 * off[s+1]); out[s] receives its sum (the identity for empty segments).
 * All the special cases of the affine group law are handled (identity
 * operands, P + (-P), doubling), so duplicated points and identity entries
 * are fine. The first halving round reads the point array directly and
 * writes its (half-size, compacted) results into the scratch buffers, so
 * the caller's scatter pass moves 4-byte indices instead of ~100-byte
 * points — the MSM bucket scatter is bandwidth-bound and this is what
 * makes the shared point walk pay off.
 *
 * @param out   One slot per segment; out.size() + 1 == off.size().
 * @param stats Optional op-count accumulation.
 */
void batchAffineSegmentSumsIndexed(PointTable points,
                                   std::span<const std::uint32_t> enc,
                                   std::span<const std::uint32_t> off,
                                   std::span<G1Affine> out,
                                   BatchAffineScratch &scratch,
                                   BatchAffineStats *stats = nullptr);

namespace detail {

enum PairKind : std::uint8_t {
    kKeepA = 0, ///< rhs is the identity: result = lhs.
    kKeepB = 1, ///< lhs is the identity: result = rhs.
    kInf = 2,   ///< lhs == -rhs: result = identity.
    kSlope = 3, ///< Generic add or doubling: needs a slope inverse.
};

/**
 * Classify one pair, staging slope numerator/denominator for the batched
 * inversion when the pair needs one. Denominators are nonzero by
 * construction: a generic add has x2 != x1 and a doubling has y != 0 (a
 * zero y falls into the cancellation case, since then -y == y).
 */
// zkphire-lint: ct-exempt(identity/cancellation classification is what batched-affine MSM buckets require; scalar-shaped timing is inherent to Pippenger)
inline std::uint8_t
classifyPair(const G1Affine &a, const G1Affine &b, BatchAffineScratch &s)
{
    if (b.infinity)
        return kKeepA;
    if (a.infinity)
        return kKeepB;
    if (a.x == b.x) {
        if (a.y == b.y && !a.y.isZero()) {
            // Doubling: lambda = 3x^2 / 2y.
            ff::Fq sq = a.x.square();
            s.numer.push_back(sq.dbl() + sq);
            s.denom.push_back(a.y.dbl());
            return kSlope;
        }
        return kInf;
    }
    // Generic: lambda = (y2 - y1) / (x2 - x1).
    s.numer.push_back(b.y - a.y);
    s.denom.push_back(b.x - a.x);
    return kSlope;
}

/** Apply a classified pair; di indexes the round's resolved slopes. */
inline G1Affine
applyPair(std::uint8_t kind, const G1Affine &a, const G1Affine &b,
          const BatchAffineScratch &s, std::size_t &di)
{
    switch (kind) {
    case kKeepA:
        return a;
    case kKeepB:
        return b;
    case kInf:
        return G1Affine{};
    default: {
        const ff::Fq &lam = s.numer[di];
        ++di;
        ff::Fq x3 = lam.square() - a.x - b.x;
        return G1Affine{x3, lam * (a.x - x3) - a.y, false};
    }
    }
}

/** Lay out scratch.off (each segment's round-0 output slots) and release
 *  oversized scratch; returns the slot count. Both implementations start
 *  with it. */
std::size_t prepareSegments(std::span<const std::uint32_t> off,
                            BatchAffineScratch &scratch);

/** The two implementations of batchAffineSegmentSumsIndexed, which picks
 *  one; benches and tests call them directly to compare. The lane one
 *  (src/ec/batch_add_ifma.cpp) requires ifma::cpuSupported(). */
void segmentSumsScalar(std::span<const G1Affine> points,
                       std::span<const std::uint32_t> enc,
                       std::span<const std::uint32_t> off,
                       std::span<G1Affine> out, BatchAffineScratch &scratch,
                       BatchAffineStats *stats);
void segmentSumsLanes(PointTable points, std::span<const std::uint32_t> enc,
                      std::span<const std::uint32_t> off,
                      std::span<G1Affine> out, BatchAffineScratch &scratch,
                      BatchAffineStats *stats);

} // namespace detail

} // namespace zkphire::ec

#endif // ZKPHIRE_EC_BATCH_ADD_HPP
