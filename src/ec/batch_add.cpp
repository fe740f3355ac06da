#include "ec/batch_add.hpp"

#include <cassert>

#include "ff/batch_inverse.hpp"
#include "ff/vec_ops.hpp"

namespace zkphire::ec {

namespace {

using ff::Fq;
using detail::applyPair;
using detail::classifyPair;

/**
 * Resolve this round's staged slopes: one true field inversion for every
 * denominator (Montgomery's trick), then one fused element-wise multiply
 * turns numer[] into the finished slopes lambda = numer * denom^{-1} —
 * a single ff::mulVec pass over the unrolled Fq kernel instead of a
 * per-pair multiply scattered through the apply loop.
 */
void
resolveRound(BatchAffineScratch &scratch, BatchAffineStats *stats)
{
    if (scratch.denom.empty())
        return;
    ff::batchInverseSerialInPlace(std::span<Fq>(scratch.denom),
                                  scratch.prefix);
    ff::mulVec(scratch.numer.data(), scratch.numer.data(),
               scratch.denom.data(), scratch.denom.size());
    if (stats) {
        stats->affineAdds += scratch.denom.size();
        ++stats->batchInversions;
    }
}

// zkphire-lint: ct-exempt(sign-bit decode of public point table entries)
inline G1Affine
decodeEntry(std::span<const G1Affine> points, std::uint32_t e)
{
    const G1Affine &p = points[e >> 1];
    if ((e & 1) == 0 || p.infinity)
        return p;
    return G1Affine{p.x, p.y.neg(), false};
}

/**
 * Halving rounds over materialized points, in place: pair (2j, 2j+1) of
 * each segment lands at slot j, an odd tail passes through (writes trail
 * the read frontier, j <= 2j, so compaction is safe). scratch.len must
 * hold the current segment lengths; runs until every length is <= 1.
 */
void
reduceSegments(std::span<G1Affine> buf, std::span<const std::uint32_t> off,
               bool again, BatchAffineScratch &scratch,
               BatchAffineStats *stats)
{
    const std::size_t num_segs = scratch.len.size();
    while (again) {
        scratch.kind.clear();
        scratch.numer.clear();
        scratch.denom.clear();
        for (std::size_t s = 0; s < num_segs; ++s) {
            const std::size_t base = off[s];
            const std::size_t pairs = scratch.len[s] / 2;
            for (std::size_t j = 0; j < pairs; ++j)
                scratch.kind.push_back(classifyPair(
                    buf[base + 2 * j], buf[base + 2 * j + 1], scratch));
        }
        resolveRound(scratch, stats);

        again = false;
        std::size_t pi = 0, di = 0;
        for (std::size_t s = 0; s < num_segs; ++s) {
            const std::size_t base = off[s];
            const std::size_t L = scratch.len[s];
            const std::size_t pairs = L / 2;
            for (std::size_t j = 0; j < pairs; ++j, ++pi)
                buf[base + j] = applyPair(scratch.kind[pi], buf[base + 2 * j],
                                          buf[base + 2 * j + 1], scratch, di);
            if (L % 2 == 1 && L > 1)
                buf[base + L / 2] = buf[base + L - 1];
            scratch.len[s] = static_cast<std::uint32_t>((L + 1) / 2);
            again |= scratch.len[s] > 1;
        }
    }
}

} // namespace

void
batchAffineSegmentSumsIndexed(PointTable table,
                              std::span<const std::uint32_t> enc,
                              std::span<const std::uint32_t> off,
                              std::span<G1Affine> out,
                              BatchAffineScratch &scratch,
                              BatchAffineStats *stats)
{
    if (!table.lanes.empty() || ifma::selected())
        detail::segmentSumsLanes(table, enc, off, out, scratch, stats);
    else
        detail::segmentSumsScalar(table.affine, enc, off, out, scratch, stats);
}

namespace detail {

std::size_t
prepareSegments(std::span<const std::uint32_t> off, BatchAffineScratch &scratch)
{
    // Round 0 reads the shared point array through the encoded entries and
    // writes compacted half-size segments into a scratch buffer laid out by
    // scratch.off; the remaining rounds then run over that.
    const std::size_t num_segs = off.size() - 1;
    scratch.off.resize(num_segs + 1);
    scratch.off[0] = 0;
    for (std::size_t s = 0; s < num_segs; ++s) {
        const std::uint32_t L = off[s + 1] - off[s];
        scratch.off[s + 1] = scratch.off[s] + (L + 1) / 2;
    }
    // Scratch is caller-retained (thread-local in the MSM); cap the
    // high-water mark so one huge job doesn't pin peak-size buffers for
    // the life of a long-running prover process.
    const std::size_t need = scratch.off[num_segs];
    const auto trim = [](auto &v, std::size_t bound) {
        if (v.capacity() > 4 * bound + 1024) {
            v.clear();
            v.shrink_to_fit();
        }
    };
    trim(scratch.buf, need);
    trim(scratch.numer, need);
    trim(scratch.denom, need);
    trim(scratch.prefix, need);
    trim(scratch.pairSrc, need);
    trim(scratch.pairDst, need);
    trim(scratch.chainSpecial, need / ifma::kLanes);
    const auto unmap = [](auto &v, std::size_t bound) {
        if (v.capacity() > 4 * bound + 1024)
            v.release();
    };
    for (auto &v : scratch.lanes)
        unmap(v, need);
    unmap(scratch.entries, off[num_segs]);
    unmap(scratch.chain, need / ifma::kLanes);
    unmap(scratch.chainDen, need / ifma::kLanes);
    return need;
}

void
segmentSumsScalar(std::span<const G1Affine> points,
                  std::span<const std::uint32_t> enc,
                  std::span<const std::uint32_t> off, std::span<G1Affine> out,
                  BatchAffineScratch &scratch, BatchAffineStats *stats)
{
    const std::size_t num_segs = out.size();
    assert(off.size() == num_segs + 1);
    const std::size_t need = prepareSegments(off, scratch);
    if (scratch.buf.size() < need)
        scratch.buf.resize(need);

    scratch.kind.clear();
    scratch.numer.clear();
    scratch.denom.clear();
    for (std::size_t s = 0; s < num_segs; ++s) {
        const std::size_t base = off[s];
        const std::size_t pairs = (off[s + 1] - base) / 2;
        for (std::size_t j = 0; j < pairs; ++j)
            scratch.kind.push_back(
                classifyPair(decodeEntry(points, enc[base + 2 * j]),
                             decodeEntry(points, enc[base + 2 * j + 1]),
                             scratch));
    }
    resolveRound(scratch, stats);

    scratch.len.resize(num_segs);
    bool again = false;
    std::size_t pi = 0, di = 0;
    for (std::size_t s = 0; s < num_segs; ++s) {
        const std::size_t base = off[s];
        const std::size_t L = off[s + 1] - base;
        const std::size_t pairs = L / 2;
        G1Affine *dst = scratch.buf.data() + scratch.off[s];
        for (std::size_t j = 0; j < pairs; ++j, ++pi)
            dst[j] = applyPair(scratch.kind[pi],
                               decodeEntry(points, enc[base + 2 * j]),
                               decodeEntry(points, enc[base + 2 * j + 1]),
                               scratch, di);
        if (L % 2 == 1)
            dst[L / 2] = decodeEntry(points, enc[base + L - 1]);
        scratch.len[s] = std::uint32_t((L + 1) / 2);
        again |= scratch.len[s] > 1;
    }

    reduceSegments(scratch.buf, scratch.off, again, scratch, stats);
    for (std::size_t s = 0; s < num_segs; ++s)
        out[s] = scratch.len[s] ? scratch.buf[scratch.off[s]] : G1Affine{};
}

} // namespace detail

} // namespace zkphire::ec
