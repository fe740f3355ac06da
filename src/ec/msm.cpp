#include "ec/msm.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <numeric>
#include <vector>

#include "ec/batch_add.hpp"
#include "ec/glv.hpp"
#include "ec/recode.hpp"
#include "rt/failpoint.hpp"
#include "rt/parallel.hpp"

namespace zkphire::ec {

G1Jacobian
msmNaive(std::span<const Fr> scalars, std::span<const G1Affine> points)
{
    assert(scalars.size() == points.size());
    G1Jacobian acc = G1Jacobian::identity();
    for (std::size_t i = 0; i < scalars.size(); ++i)
        acc = acc.add(G1Jacobian::fromAffine(points[i]).mulScalar(scalars[i]));
    return acc;
}

unsigned
pippengerAutoWindow(std::size_t n)
{
    unsigned bits = 1;
    while ((std::size_t(1) << bits) < n)
        ++bits;
    int c = int(bits) - 3;
    if (c < 1)
        c = 1;
    if (c > 16)
        c = 16;
    return unsigned(c);
}

namespace {

/**
 * Signed-digit window argmin over c in [2, 16] for n walk points fed in
 * num_chunks chunks: the suffix-sum aggregation runs once per chunk per
 * window (MsmAccumulator merges the per-chunk sums), so its term scales
 * with the chunk count; num_chunks = 1 is the one-shot choice.
 */
unsigned
windowArgmin(std::size_t n, std::size_t scalar_bits, bool batch_affine,
             std::size_t num_chunks)
{
    // Argmin of the per-window cost in Fq-multiplication units (prices in
    // ec::msm_cost, re-fit to the fixed-limb kernel overhaul and shared
    // with sim::CpuModel): every dense point pays one bucket add per
    // window and each of the 2^(c-1) buckets one mixed + one full
    // aggregation add in the suffix sum. Wider windows mean fewer passes
    // over the points but more aggregation work; the halved bucket count
    // shifts the optimum ~1 bit wider than the unsigned choice. The cost
    // depends only on (n, scalar_bits, batch_affine) — never on per-column
    // dense counts — so a batch run and each column's solo run always
    // agree on c. The GLV caller passes (2n, glv::kHalfBits): the point
    // term doubles while the window count per c roughly halves, which
    // nudges the optimum ~1 bit wider than the full-width choice at the
    // same n.
    const double bucket_add_cost =
        batch_affine ? msm_cost::kBatchAffineAdd : msm_cost::kMixedAdd;
    double best_cost = 0;
    unsigned best = 2;
    for (unsigned c = 2; c <= 16; ++c) {
        double nw = double(signedDigitWindows(scalar_bits, c));
        double buckets = double(std::size_t(1) << (c - 1));
        double cost = nw * (double(n) * bucket_add_cost +
                            double(num_chunks) * buckets *
                                msm_cost::kAggPerBucket);
        if (best_cost == 0 || cost < best_cost) {
            best_cost = cost;
            best = c;
        }
    }
    return best;
}

} // namespace

unsigned
pippengerAutoWindowSignedBits(std::size_t n, std::size_t scalar_bits,
                              bool batch_affine)
{
    return windowArgmin(n, scalar_bits, batch_affine, 1);
}

unsigned
pippengerAutoWindowSigned(std::size_t n, bool batch_affine)
{
    return pippengerAutoWindowSignedBits(n, Fr::modulusBits(), batch_affine);
}

bool
msmGlvProfitable(std::size_t n, bool batch_affine)
{
    // Same op-count model as the window argmin, totaled for both scalar
    // structures. GLV wins while the halved window count outruns the
    // doubled point walk — but the c <= 16 window cap stops the GLV argmin
    // from widening past ceil((128+16)/16) = 9 windows, so beyond ~2^20
    // points the plain 255-bit slicing (16 passes over n) beats GLV's 9
    // passes over 2n, and the split turns itself off.
    const double bucket_add =
        batch_affine ? msm_cost::kBatchAffineAdd : msm_cost::kMixedAdd;
    const auto total = [&](std::size_t pts, std::size_t bits) {
        const unsigned c =
            pippengerAutoWindowSignedBits(pts, bits, batch_affine);
        const double nw = double(signedDigitWindows(bits, c));
        const double buckets = double(std::size_t(1) << (c - 1));
        return nw * (double(pts) * bucket_add +
                     buckets * msm_cost::kAggPerBucket) +
               double(bits) * msm_cost::kDouble;
    };
    // + n prices the one-time phi(P) materialization (one Fq mul/point).
    return total(2 * n, glv::kHalfBits) + double(n) <
           total(n, Fr::modulusBits());
}

namespace {

/** Per-window op counts, summed into MsmStats in window order. */
struct WindowAcc {
    std::uint64_t pointAdds = 0;
    std::uint64_t affineAdds = 0;
    std::uint64_t batchInversions = 0;
};

inline G1Affine
negAffine(const G1Affine &p)
{
    // zkphire-lint: ct-exempt(identity-encoding check, same profile as the group law)
    return p.infinity ? p : G1Affine{p.x, p.y.neg(), false};
}

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Jacobian bucket accumulation + suffix-sum aggregation for one (window,
 * column). Digits are read at digits[i * stride]; a negative digit adds
 * the negated point into bucket |d|. This is the per-window body of
 * Pippenger's loop; windows are independent, which is what the parallel
 * path exploits (the paper's MSM unit similarly processes bucket sets in
 * parallel PEs).
 */
G1Jacobian
windowSumJacobian(std::span<const G1Affine> points,
                  std::span<const std::uint32_t> dense_idx,
                  const std::int32_t *digits, std::size_t stride,
                  std::size_t num_buckets, WindowAcc &acc)
{
    std::vector<G1Jacobian> buckets(num_buckets, G1Jacobian::identity());
    for (std::uint32_t i : dense_idx) {
        const std::int32_t d = digits[std::size_t(i) * stride];
        if (d == 0)
            continue;
        const std::size_t b = std::size_t(d < 0 ? -d : d) - 1;
        buckets[b] = d > 0 ? buckets[b].addMixed(points[i])
                           : buckets[b].addMixed(negAffine(points[i]));
        ++acc.pointAdds;
    }
    // Suffix-sum aggregation: Sum_d d * bucket[d] with 2(B-1) adds.
    G1Jacobian running = G1Jacobian::identity();
    G1Jacobian sum = G1Jacobian::identity();
    for (std::size_t b = num_buckets; b-- > 0;) {
        running = running.add(buckets[b]);
        sum = sum.add(running);
        acc.pointAdds += 2;
    }
    return sum;
}

/**
 * Batched-affine bucket accumulation for `num_win` consecutive windows
 * across the selected columns (cols[jj] indexes the digit row; columns
 * below the batch-affine floor take the Jacobian path instead so each
 * column's representation matches its solo run): one pass over the digit
 * slabs scatters each point's 4-byte encoded reference (index + negation
 * bit for negative digits) into its (window, column, bucket) segment, one
 * segmented batched-affine reduction sums every bucket of every selected
 * (window, column) — reading the shared point array through the references
 * and amortizing each round's single true inversion over all
 * num_win * |cols| * B buckets — and a per-(window, column) suffix sum
 * aggregates the affine bucket values with mixed adds.
 *
 * The parallel path calls this per window (num_win = 1); the serial path
 * passes the whole window range, which ROUND-SYNCHRONIZES the batch
 * inversion across windows: every pairwise round resolves all windows'
 * slopes with ONE true inversion, cutting the inversion count by
 * ~num_windows x (decisive on the small MSMs of mKZG opening chains,
 * where inversions are a large fraction of total work). Per-segment
 * reduction order is fixed by the segment layout, so bucket sums — and
 * every downstream value — are bit-identical either way.
 *
 * Scratch lives in thread-locals: pool workers process many windows (and
 * many MSMs), so steady state allocates nothing; buffers whose capacity
 * exceeds ~4x the current job are released so one huge MSM doesn't pin
 * peak-size buffers per worker forever.
 */
void
windowSumBatchAffine(PointTable points,
                     std::span<const std::uint32_t> dense_idx,
                     const std::int32_t *digits, std::size_t stride,
                     std::size_t num_win, std::size_t k,
                     std::span<const std::uint32_t> cols,
                     std::size_t num_buckets, G1Jacobian *sums_out,
                     WindowAcc &acc)
{
    thread_local std::vector<std::uint32_t> off, cur, enc;
    thread_local std::vector<G1Affine> bucket_sums;
    thread_local BatchAffineScratch scratch;

    const std::size_t kk = cols.size();
    const std::size_t win_buckets = kk * num_buckets;
    const std::size_t total_buckets = num_win * win_buckets;
    // Same >4x-the-current-job release rule as enc below, applied to the
    // bucket-count-sized buffers too: a combined sparse call can have far
    // more segments (num_win * buckets) than entries, and these would
    // otherwise stay pinned at that peak for the worker's lifetime.
    const auto trim = [](auto &v, std::size_t bound) {
        if (v.capacity() > 4 * bound + 1024) {
            v.clear();
            v.shrink_to_fit();
        }
    };
    trim(off, total_buckets + 1);
    trim(cur, total_buckets + 1);
    trim(bucket_sums, total_buckets);
    off.assign(total_buckets + 1, 0);
    for (std::size_t w = 0; w < num_win; ++w) {
        const std::int32_t *wdig = digits + w * stride;
        std::uint32_t *woff = off.data() + w * win_buckets;
        for (std::uint32_t i : dense_idx) {
            const std::int32_t *row = wdig + std::size_t(i) * k;
            for (std::size_t jj = 0; jj < kk; ++jj) {
                const std::int32_t d = row[cols[jj]];
                if (d != 0)
                    ++woff[jj * num_buckets + std::size_t(d < 0 ? -d : d)];
            }
        }
    }
    for (std::size_t b = 0; b < total_buckets; ++b)
        off[b + 1] += off[b];

    if (enc.capacity() > 4 * std::size_t(off[total_buckets]) + 1024) {
        enc.clear();
        enc.shrink_to_fit();
    }
    if (enc.size() < off[total_buckets])
        enc.resize(off[total_buckets]);
    cur.assign(off.begin(), off.end() - 1);
    for (std::size_t w = 0; w < num_win; ++w) {
        const std::int32_t *wdig = digits + w * stride;
        std::uint32_t *wcur = cur.data() + w * win_buckets;
        for (std::uint32_t i : dense_idx) {
            const std::int32_t *row = wdig + std::size_t(i) * k;
            for (std::size_t jj = 0; jj < kk; ++jj) {
                const std::int32_t d = row[cols[jj]];
                if (d == 0)
                    continue;
                const std::size_t b =
                    jj * num_buckets + std::size_t(d < 0 ? -d : d) - 1;
                enc[wcur[b]++] = (i << 1) | std::uint32_t(d < 0);
            }
        }
    }

    bucket_sums.resize(total_buckets);
    BatchAffineStats bst;
    batchAffineSegmentSumsIndexed(
        points, std::span<const std::uint32_t>(enc.data(), off[total_buckets]),
        off, bucket_sums, scratch, &bst);
    acc.affineAdds += bst.affineAdds;
    acc.batchInversions += bst.batchInversions;

    for (std::size_t w = 0; w < num_win; ++w) {
        for (std::size_t jj = 0; jj < kk; ++jj) {
            G1Jacobian running = G1Jacobian::identity();
            G1Jacobian sum = G1Jacobian::identity();
            const G1Affine *wsums =
                bucket_sums.data() + w * win_buckets + jj * num_buckets;
            for (std::size_t b = num_buckets; b-- > 0;) {
                running = running.addMixed(wsums[b]);
                sum = sum.add(running);
                acc.pointAdds += 2;
            }
            sums_out[w * k + cols[jj]] = sum;
        }
    }
}

/** Window structure of one MSM, fixed from its total point count. */
struct MsmShape {
    bool sgn = true;
    bool glv = false;
    unsigned c = 0;
    std::size_t scalarBits = 0;
    std::size_t numWindows = 0;
    std::size_t numBuckets = 0;
};

/**
 * Structural choices for total_points points fed in num_chunks chunks.
 * GLV rides on the signed-digit pipeline: each dense scalar splits into two
 * ~128-bit halves (k = k1 + lambda*k2), the walk covers 2n points (phi(P_i)
 * materialized at index n + i), and the window count per pass halves. It
 * degrades transparently if the parameter self-checks fail or the op-count
 * model says the split loses at this size (the window cap makes plain
 * slicing cheaper past ~2^20 points).
 */
MsmShape
msmShape(std::size_t total_points, const MsmOptions &opts,
         std::size_t num_chunks)
{
    MsmShape sh;
    sh.sgn = opts.signedDigits;
    sh.glv = sh.sgn && opts.glv && glv::available() &&
             msmGlvProfitable(total_points, opts.batchAffine);
    sh.scalarBits = sh.glv ? glv::kHalfBits : Fr::modulusBits();
    const std::size_t n_ext = sh.glv ? 2 * total_points : total_points;
    sh.c = opts.windowBits ? opts.windowBits
           : sh.sgn ? windowArgmin(n_ext, sh.scalarBits, opts.batchAffine,
                                   num_chunks)
                    : pippengerAutoWindow(total_points);
    assert(sh.c >= 1 && sh.c <= 16);
    sh.numWindows = sh.sgn ? signedDigitWindows(sh.scalarBits, sh.c)
                           : (sh.scalarBits + sh.c - 1) / sh.c;
    sh.numBuckets = sh.sgn ? (std::size_t(1) << (sh.c - 1))
                           : (std::size_t(1) << sh.c) - 1;
    return sh;
}

/** Serial-loop decisions below are taken where a parallel region would run
 *  inline anyway: a one-thread budget, or inside a pool chunk (nested
 *  regions never fan out). */
bool
runsSerially()
{
    return rt::currentThreads() <= 1 || rt::ThreadPool::insideWorker();
}

/** Combined scatter entries above which windows reduce independently. */
constexpr std::size_t kCombineMaxEntries = std::size_t(1) << 16;

} // namespace

namespace detail {

/**
 * One MSM between its phases: the recoded digit slab and walk list of the
 * current chunk, the per-window bucket sums, and each column's running
 * trivial-scalar sum. msmBatchCore uses one per call; MsmAccumulator keeps
 * one across chunks so steady state reuses every buffer.
 */
struct MsmWork {
    MsmShape shape;
    MsmOptions opts;
    std::size_t k = 0;
    std::size_t stride = 0;
    std::vector<std::int32_t> digits;
    std::vector<std::uint8_t> klass;
    std::vector<std::uint32_t> denseOrig;
    std::vector<std::uint32_t> denseIdx;
    std::vector<G1Affine> extPoints;
    std::span<const G1Affine> walk;
    /** The walk in lane form when the bucket reduction runs on the IFMA
     *  lanes: converted once per MSM here instead of once per window. */
    ifma::MappedArray<ifma::LaneAffine> laneWalk;
    std::size_t walkSize = 0; ///< Extended walk length (n or 2n).
    bool lanes = false;
    std::span<const std::uint32_t> dense;
    std::vector<std::uint32_t> baCols, jacCols;
    std::vector<G1Jacobian> trivial; ///< Per-column {1}-scalar sums.
    std::vector<G1Jacobian> sums;    ///< num_windows * k window sums.
    std::vector<WindowAcc> wacc;

    MsmWork(const MsmShape &sh, const MsmOptions &o, std::size_t cols)
        : shape(sh), opts(o), k(cols),
          trivial(cols, G1Jacobian::identity())
    {
    }

    /** The walk the batched-affine columns reduce over. */
    PointTable walkTable() const
    {
        return lanes ? PointTable(std::span<const ifma::LaneAffine>(
                           laneWalk.data(), walkSize))
                     : PointTable(walk);
    }

    /** Combined entry count of the bucket phase (its cache footprint). */
    std::size_t entries() const
    {
        return shape.numWindows * dense.size() * baCols.size();
    }
};

} // namespace detail

namespace {

using detail::MsmWork;

/**
 * Phase 1: classify every scalar of cols and recode the dense ones into the
 * window-major digit slab (digit of point i, column j, window w at
 * (w*n_ext + i)*k + j, so a window reads one contiguous slab and a point's
 * k digits sit together). Trivial {0,1} scalars keep all-zero digits and
 * {1} scalars join their column's trivial sum. Under GLV the k1 half
 * recodes into point row i and the k2 half into the phi row n + i.
 */
void
recodeChunk(MsmWork &wk, std::span<const std::span<const Fr>> cols,
            std::span<const G1Affine> points, MsmStats *stats)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    // Secret-derived state (digits, point sums, the walk) is written
    // through these aliases only, so the shape and option fields the
    // branches below read stay public.
    std::vector<G1Jacobian> &trivial = wk.trivial;
    std::vector<G1Affine> &ext_points = wk.extPoints;
    std::span<const G1Affine> &walk = wk.walk;
    const MsmShape sh = wk.shape;
    const MsmOptions &opts = wk.opts;
    const std::size_t n = points.size();
    const std::size_t k = wk.k;
    const std::size_t n_ext = sh.glv ? 2 * n : n;
    const std::size_t stride = n_ext * k;
    const std::size_t slab = sh.numWindows * stride;
    wk.stride = stride;
    wk.digits.resize(std::max(wk.digits.size(), slab));
    std::fill_n(wk.digits.begin(), slab, 0);
    wk.klass.resize(std::max(wk.klass.size(), n * k));
    std::int32_t *digits = wk.digits.data();
    std::uint8_t *klass = wk.klass.data(); // 0 = zero, 1 = one, 2 = dense
    rt::parallelFor(
        0, n,
        [&](std::size_t i) {
            for (std::size_t j = 0; j < k; ++j) {
                const Fr &s = cols[j][i];
                // zkphire-lint: ct-exempt(trivial-scalar skip is the Pippenger win; scalar-shaped timing is inherent to bucket MSM)
                const std::uint8_t kl = s.isZero() ? 0 : s.isOne() ? 1 : 2;
                klass[i * k + j] = kl;
                if (kl != 2)
                    continue;
                const auto big = s.toBig();
                std::int32_t *dst = digits + i * k + j;
                if (sh.glv) {
                    ff::BigInt<4> k1, k2;
                    glv::decompose(big, k1, k2);
                    recodeSignedDigits(k1, sh.c, sh.numWindows, dst, stride);
                    recodeSignedDigits(k2, sh.c, sh.numWindows,
                                       digits + (n + i) * k + j, stride);
                } else if (sh.sgn) {
                    recodeSignedDigits(big, sh.c, sh.numWindows, dst, stride);
                } else {
                    for (std::size_t w = 0; w < sh.numWindows; ++w) {
                        const std::size_t lo = w * sh.c;
                        const unsigned width = unsigned(
                            std::min<std::size_t>(sh.c, sh.scalarBits - lo));
                        dst[w * stride] = std::int32_t(big.bits(lo, width));
                    }
                }
            }
        },
        /*grain=*/0, /*minGrain=*/256);

    // Serial sweep keeps each column's trivial accumulator in index order
    // (and so its exact Jacobian representation) at every thread count and,
    // chunks arriving in index order, across chunks. A point enters the
    // shared walk list if ANY column is dense there.
    std::vector<std::size_t> col_dense(k, 0);
    wk.denseOrig.clear();
    for (std::size_t i = 0; i < n; ++i) {
        bool any_dense = false;
        for (std::size_t j = 0; j < k; ++j) {
            switch (klass[i * k + j]) {
            case 0:
                if (stats)
                    ++stats->trivialScalars;
                break;
            case 1:
                trivial[j] = trivial[j].addMixed(points[i]);
                if (stats) {
                    ++stats->trivialScalars;
                    ++stats->pointAdds;
                }
                break;
            default:
                any_dense = true;
                // The batch-affine floor compares bucket-add entries, of
                // which a GLV-split scalar contributes two.
                col_dense[j] += sh.glv ? 2 : 1;
                if (stats)
                    ++stats->denseScalars;
                break;
            }
        }
        if (any_dense)
            wk.denseOrig.push_back(std::uint32_t(i));
    }

    // Path selection is per COLUMN on the column's own dense count, so a
    // sparse column inside a dense batch takes exactly the path (and so
    // produces exactly the Jacobian representation) its solo run would.
    wk.baCols.clear();
    wk.jacCols.clear();
    for (std::size_t j = 0; j < k; ++j) {
        if (sh.sgn && opts.batchAffine &&
            col_dense[j] >= opts.batchAffineMinPoints)
            wk.baCols.push_back(std::uint32_t(j));
        else
            wk.jacCols.push_back(std::uint32_t(j));
    }
    wk.lanes = !wk.baCols.empty() && ifma::selected();

    // The bucket walk list over extended indices, and (GLV only) the
    // extended point array: original points first, phi points at n + i —
    // filled only where some column is dense (one Fq mul each). On the
    // lanes the converted walk takes the extended array's place (phi is
    // one lane multiply by beta); the affine one is then built only for
    // the Jacobian columns.
    const std::size_t nd = wk.denseOrig.size();
    wk.dense = wk.denseOrig;
    walk = points;
    if (sh.glv) {
        wk.denseIdx.resize(2 * nd);
        for (std::size_t d = 0; d < nd; ++d) {
            wk.denseIdx[2 * d] = wk.denseOrig[d];
            wk.denseIdx[2 * d + 1] = std::uint32_t(n + wk.denseOrig[d]);
        }
        wk.dense = std::span<const std::uint32_t>(wk.denseIdx.data(), 2 * nd);
    }
    if (sh.glv && (!wk.lanes || !wk.jacCols.empty())) {
        ext_points.resize(std::max(ext_points.size(), 2 * n));
        std::copy(points.begin(), points.end(), ext_points.begin());
        rt::parallelFor(
            0, nd,
            [&](std::size_t d) {
                const std::uint32_t i = wk.denseOrig[d];
                ext_points[n + i] = glv::endomorphism(points[i]);
            },
            /*grain=*/0, /*minGrain=*/512);
        walk = std::span<const G1Affine>(ext_points.data(), 2 * n);
    }
    if (wk.lanes) {
        wk.laneWalk.reserve(n_ext);
        wk.walkSize = n_ext;
        rt::parallelForChunks(
            0, nd,
            [&](std::size_t b, std::size_t e) {
                ifma::convertWalk(
                    points,
                    std::span<const std::uint32_t>(wk.denseOrig).subspan(
                        b, e - b),
                    sh.glv ? n : 0,
                    std::span<ifma::LaneAffine>(wk.laneWalk.data(), n_ext));
            },
            /*grain=*/0, /*minGrain=*/256);
    }
    wk.sums.assign(sh.numWindows * k, G1Jacobian::identity());
    wk.wacc.assign(sh.numWindows, WindowAcc{});
    if (stats)
        stats->recodeMs += msSince(t0);
}

/**
 * Phase 2 for windows [w0, w1) in one serial call. Reducing several windows
 * in ONE segmented batched-affine call round-synchronizes the batch
 * inversion: each pairwise round then pays a single true inversion instead
 * of one per window (bit-identical; see windowSumBatchAffine). Below the
 * entry cap this is a measured 1.2-1.6x on the small MSMs of mKZG opening
 * chains (n <= ~2^11: ~200 inversions collapse to ~7); above it the
 * combined scatter's working set outgrows the cache and the per-round
 * inversions are noise next to the bucket adds, so windows reduce
 * independently.
 */
void
bucketWindows(MsmWork &wk, std::size_t w0, std::size_t w1)
{
    if (!wk.baCols.empty())
        windowSumBatchAffine(wk.walkTable(), wk.dense,
                             wk.digits.data() + w0 * wk.stride, wk.stride,
                             w1 - w0, wk.k, wk.baCols, wk.shape.numBuckets,
                             &wk.sums[w0 * wk.k], wk.wacc[w0]);
    for (std::size_t w = w0; w < w1 && !wk.jacCols.empty(); ++w)
        for (std::uint32_t j : wk.jacCols)
            wk.sums[w * wk.k + j] = windowSumJacobian(
                wk.walk, wk.dense, wk.digits.data() + w * wk.stride + j,
                wk.k, wk.shape.numBuckets, wk.wacc[w]);
}

/** Whether a serial bucket phase reduces all windows in one call. */
bool
combinesWindows(const MsmWork &wk)
{
    return !wk.baCols.empty() && wk.shape.numWindows > 1 &&
           wk.entries() <= kCombineMaxEntries;
}

/** Add the per-window op counts to stats, in window order. */
void
mergeWindowStats(const MsmWork &wk, MsmStats *stats)
{
    if (!stats)
        return;
    for (const WindowAcc &a : wk.wacc) {
        stats->pointAdds += a.pointAdds;
        stats->affineAdds += a.affineAdds;
        stats->batchInversions += a.batchInversions;
    }
}

/**
 * Phase 2: bucket accumulation, windows in parallel. Each window's sums are
 * computed by exactly the serial per-window sequence and the fold replays
 * the serial double-and-add order, so the result is bit-identical to a
 * single-threaded run. Below ~256 dense points the per-window work is
 * microseconds and pool dispatch would dominate (mKZG's opening loop
 * issues many shrinking MSMs down to n = 1), so the window loop runs
 * inline.
 */
void
bucketPhase(MsmWork &wk, MsmStats *stats)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    rt::ScopedConfig serial_small(
        {.threads = wk.dense.size() < 256 ? 1u : 0u});
    if (runsSerially() && combinesWindows(wk))
        bucketWindows(wk, 0, wk.shape.numWindows);
    else
        rt::parallelFor(
            0, wk.shape.numWindows,
            [&](std::size_t w) { bucketWindows(wk, w, w + 1); },
            /*grain=*/1);
    mergeWindowStats(wk, stats);
    if (stats)
        stats->bucketMs += msSince(t0);
}

/** Phase 3: fold windows from most significant down, c doublings between,
 *  independently per column, then add the column's trivial sum. */
std::vector<G1Jacobian>
foldWindows(const MsmShape &sh, std::span<const G1Jacobian> sums,
            std::span<const G1Jacobian> trivial, MsmStats *stats)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const std::size_t k = trivial.size();
    std::vector<G1Jacobian> out(k, G1Jacobian::identity());
    for (std::size_t j = 0; j < k; ++j) {
        G1Jacobian result = G1Jacobian::identity();
        for (std::size_t w = sh.numWindows; w-- > 0;) {
            // zkphire-lint: ct-exempt(skips doublings only while the fold accumulator is still the identity)
            if (!result.isIdentity() || w + 1 != sh.numWindows) {
                for (unsigned d = 0; d < sh.c; ++d) {
                    result = result.dbl();
                    if (stats)
                        ++stats->pointDoubles;
                }
            }
            result = result.add(sums[w * k + j]);
            if (stats)
                ++stats->pointAdds;
        }
        out[j] = result.add(trivial[j]);
    }
    if (stats)
        stats->foldMs += msSince(t0);
    return out;
}

/**
 * Shared multi-column Pippenger core. Column j's result equals an
 * independent single-column run exactly: per-column state (trivial
 * accumulator, bucket sets, window fold) never mixes across columns; only
 * the point walk, the digit slab, and the batch inversions are shared.
 */
std::vector<G1Jacobian>
msmBatchCore(std::span<const std::span<const Fr>> cols,
             std::span<const G1Affine> points, const MsmOptions &opts,
             MsmStats *stats)
{
    const std::size_t k = cols.size();
    const std::size_t n = points.size();
    if (k == 0 || n == 0)
        return std::vector<G1Jacobian>(k, G1Jacobian::identity());
#ifndef NDEBUG
    for (const auto &col : cols)
        assert(col.size() == n && "column/point length mismatch");
#endif
    MsmWork wk(msmShape(n, opts, 1), opts, k);
    recodeChunk(wk, cols, points, stats);
    bucketPhase(wk, stats);
    return foldWindows(wk.shape, wk.sums, wk.trivial, stats);
}

} // namespace

G1Jacobian
msmPippenger(std::span<const Fr> scalars, std::span<const G1Affine> points,
             const MsmOptions &opts, MsmStats *stats)
{
    assert(scalars.size() == points.size());
    const std::span<const Fr> col = scalars;
    return msmBatchCore(std::span<const std::span<const Fr>>(&col, 1), points,
                        opts, stats)[0];
}

std::vector<G1Jacobian>
msmBatch(std::span<const std::span<const Fr>> cols,
         std::span<const G1Affine> points, const MsmOptions &opts,
         MsmStats *stats)
{
    return msmBatchCore(cols, points, opts, stats);
}

std::vector<G1Jacobian>
msmMany(std::span<const MsmJob> jobs, const MsmOptions &opts, MsmStats *stats)
{
    using Clock = std::chrono::steady_clock;
    const std::size_t m = jobs.size();
    std::vector<G1Jacobian> out(m, G1Jacobian::identity());
    std::vector<MsmStats> job_stats(m);
    std::vector<std::unique_ptr<MsmWork>> split(m); // window-split jobs

    // Largest job first: the schedule hands tasks out in list order, so
    // the split jobs' window groups start first and the whole jobs fill
    // the tail.
    std::vector<std::size_t> order(m);
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return jobs[a].points.size() > jobs[b].points.size();
                     });

    // A job whose all-dense window scatter fits kTaskMaxEntries runs whole
    // as one task (serially on one worker, every window sharing each batch
    // inversion). A larger job is recoded here and split into groups of
    // consecutive windows, each group within the cap (one window once a
    // single window exceeds it), and each group shares its inversions.
    // The cap bounds the batched-affine scratch every worker keeps to
    // ~2 MB; at the serial path's 2^16 it is ~9 MB per worker, which
    // raised a 2-lane service's peak RSS by ~30%.
    constexpr std::size_t kTaskMaxEntries = std::size_t(1) << 14;
    struct Task {
        std::size_t job, w0, w1; ///< w0 == w1: the whole job.
    };
    std::vector<Task> tasks;
    for (std::size_t j : order) {
        const MsmJob &job = jobs[j];
        assert(job.scalars.size() == job.points.size());
        const std::size_t n = job.points.size();
        if (n == 0)
            continue;
        const MsmShape sh = msmShape(n, opts, 1);
        const std::size_t n_ext = sh.glv ? 2 * n : n;
        if (sh.numWindows * n_ext <= kTaskMaxEntries) {
            tasks.push_back({j, 0, 0});
            continue;
        }
        split[j] = std::make_unique<MsmWork>(sh, opts, 1);
        recodeChunk(*split[j],
                    std::span<const std::span<const Fr>>(&job.scalars, 1),
                    job.points, &job_stats[j]);
        const std::size_t group =
            std::max<std::size_t>(kTaskMaxEntries / n_ext, 1);
        for (std::size_t w = 0; w < sh.numWindows; w += group)
            tasks.push_back({j, w, std::min(sh.numWindows, w + group)});
    }

    const auto t0 = Clock::now();
    rt::parallelFor(
        0, tasks.size(),
        [&](std::size_t t) {
            const std::size_t j = tasks[t].job;
            if (tasks[t].w0 != tasks[t].w1) {
                bucketWindows(*split[j], tasks[t].w0, tasks[t].w1);
                return;
            }
            out[j] = msmBatchCore(
                std::span<const std::span<const Fr>>(&jobs[j].scalars, 1),
                jobs[j].points, opts, &job_stats[j])[0];
        },
        /*grain=*/1);
    const double schedule_ms = msSince(t0);

    for (std::size_t j = 0; j < m; ++j) {
        if (split[j]) {
            mergeWindowStats(*split[j], &job_stats[j]);
            out[j] = foldWindows(split[j]->shape, split[j]->sums,
                                 split[j]->trivial, &job_stats[j])[0];
        }
        if (stats) {
            // A whole job's phases ran inside the schedule, whose wall time
            // is its bucketMs; keep only its op counts.
            MsmStats s = job_stats[j];
            if (!split[j])
                s.recodeMs = s.bucketMs = s.foldMs = 0;
            *stats += s;
        }
    }
    if (stats)
        stats->bucketMs += schedule_ms;
    return out;
}

MsmAccumulator::MsmAccumulator(std::size_t total_points, std::size_t num_cols,
                               const MsmOptions &opts, MsmStats *stats,
                               std::size_t chunk_hint)
    : stats_(stats), totalN_(total_points), k_(num_cols)
{
    assert(total_points > 0 && num_cols > 0);
    // Structural choices (GLV split, window width) are fixed from the TOTAL
    // point count, exactly like a one-shot run over the concatenated chunks
    // would fix them — per-point bucket work is then identical; streaming
    // only adds the per-chunk window-sum merges. The window argmin charges
    // the suffix-sum aggregation once per chunk, which leaves the optimum
    // at the one-shot width until chunks get tiny (the added aggregation
    // stays a low-double-digit-percent overhead at the default 2^20-element
    // chunk).
    const std::size_t num_chunks =
        chunk_hint != 0 ? (total_points + chunk_hint - 1) / chunk_hint : 1;
    work_ = std::make_unique<detail::MsmWork>(
        msmShape(total_points, opts, num_chunks), opts, num_cols);
    c_ = work_->shape.c;
    windowSums_.assign(work_->shape.numWindows * k_, G1Jacobian::identity());
}

MsmAccumulator::~MsmAccumulator() = default;

void
MsmAccumulator::add(std::span<const std::span<const Fr>> cols,
                    std::span<const G1Affine> points)
{
    const std::size_t n = points.size();
    assert(cols.size() == k_ && "column count is fixed at construction");
    if (n == 0)
        return;
    rt::failpoint("msm.accum"); // before any bucket state is touched, so an
                                // injected throw leaves the accumulator
                                // observably unmodified
#ifndef NDEBUG
    for (const auto &col : cols)
        assert(col.size() == n && "column/point length mismatch");
#endif
    assert(seen_ + n <= totalN_ && "more points than announced at ctor");
    seen_ += n;

    // Recode and bucket this chunk into the reused work buffers, then merge
    // its window sums into the persistent ones. Window sums are linear in
    // the buckets and buckets are additive across chunks, so summing
    // per-chunk aggregates equals aggregating the merged buckets — the
    // group value matches the one-shot kernel's exactly.
    detail::MsmWork &wk = *work_;
    recodeChunk(wk, cols, points, stats_);
    bucketPhase(wk, stats_);
    for (std::size_t i = 0; i < windowSums_.size(); ++i)
        windowSums_[i] = windowSums_[i].add(wk.sums[i]);
    if (stats_)
        stats_->pointAdds += windowSums_.size(); // chunk-sum merges
}

void
MsmAccumulator::add(std::span<const Fr> scalars,
                    std::span<const G1Affine> points)
{
    assert(scalars.size() == points.size());
    const std::span<const Fr> col = scalars;
    add(std::span<const std::span<const Fr>>(&col, 1), points);
}

std::vector<G1Jacobian>
MsmAccumulator::finalize()
{
    assert(seen_ == totalN_ && "finalize before all chunks were added");
    // The one-shot kernel's fold, over the merged window sums.
    return foldWindows(work_->shape, windowSums_, work_->trivial, stats_);
}

} // namespace zkphire::ec
