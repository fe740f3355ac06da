/**
 * @file
 * BLS12-381 G1 group-law and MSM tests. The doubled-generator vector was
 * computed independently with Python bignums.
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <string>

#include "ec/batch_add.hpp"
#include "ec/g1.hpp"
#include "ec/glv.hpp"
#include "ec/msm.hpp"
#include "ec/recode.hpp"
#include "rt/parallel.hpp"

using namespace zkphire::ec;
using zkphire::ff::Fq;
using zkphire::ff::Fr;
using zkphire::ff::Rng;

TEST(G1, GeneratorOnCurve)
{
    EXPECT_TRUE(g1Generator().isOnCurve());
    EXPECT_FALSE(g1Generator().infinity);
}

TEST(G1, KnownDouble)
{
    G1Affine two_g =
        G1Jacobian::fromAffine(g1Generator()).dbl().toAffine();
    EXPECT_TRUE(two_g.isOnCurve());
    EXPECT_EQ(two_g.x.toBig().toHex(),
        "0x0572cbea904d67468808c8eb50a9450c9721db309128012543902d0ac358a62a"
        "e28f75bb8f1c7c42c39a8c5529bf0f4e");
    EXPECT_EQ(two_g.y.toBig().toHex(),
        "0x166a9d8cabc673a322fda673779d8e3822ba3ecb8670e461f73bb9021d5fd76a"
        "4c56d9d4cd16bd1bba86881979749d28");
}

TEST(G1, AddEqualsDouble)
{
    G1Jacobian g = G1Jacobian::fromAffine(g1Generator());
    EXPECT_EQ(g.add(g), g.dbl());
    EXPECT_EQ(g.addMixed(g1Generator()), g.dbl());
}

TEST(G1, IdentityLaws)
{
    G1Jacobian g = G1Jacobian::fromAffine(g1Generator());
    G1Jacobian id = G1Jacobian::identity();
    EXPECT_EQ(g.add(id), g);
    EXPECT_EQ(id.add(g), g);
    EXPECT_EQ(id.dbl(), id);
    EXPECT_EQ(g.add(g.neg()), id);
    EXPECT_TRUE(id.toAffine().infinity);
    EXPECT_EQ(id.addMixed(g1Generator()), g);
}

TEST(G1, GroupOrderAnnihilates)
{
    // r * G == identity: a strong end-to-end check of field + curve code.
    G1Jacobian g = G1Jacobian::fromAffine(g1Generator());
    // r = modulus of Fr; multiply by r via (r - 1) * G + G.
    Fr r_minus_1 = Fr::zero() - Fr::one();
    G1Jacobian almost = g.mulScalar(r_minus_1);
    EXPECT_TRUE(almost.add(g).isIdentity());
    // And (r-1) * G == -G.
    EXPECT_EQ(almost, g.neg());
}

TEST(G1, ScalarMulSmallValues)
{
    G1Jacobian g = G1Jacobian::fromAffine(g1Generator());
    G1Jacobian acc = G1Jacobian::identity();
    for (std::uint64_t k = 0; k <= 8; ++k) {
        EXPECT_EQ(g.mulScalar(Fr::fromU64(k)), acc) << "k=" << k;
        acc = acc.add(g);
    }
}

TEST(G1, ScalarMulDistributes)
{
    Rng rng(61);
    G1Jacobian g = G1Jacobian::fromAffine(g1Generator());
    Fr a = Fr::random(rng), b = Fr::random(rng);
    EXPECT_EQ(g.mulScalar(a).add(g.mulScalar(b)), g.mulScalar(a + b));
    EXPECT_EQ(g.mulScalar(a).mulScalar(b), g.mulScalar(a * b));
}

TEST(G1, AssociativityOnRandomPoints)
{
    Rng rng(62);
    G1Jacobian p = G1Jacobian::fromAffine(randomG1(rng));
    G1Jacobian q = G1Jacobian::fromAffine(randomG1(rng));
    G1Jacobian r = G1Jacobian::fromAffine(randomG1(rng));
    EXPECT_EQ(p.add(q).add(r), p.add(q.add(r)));
    EXPECT_EQ(p.add(q), q.add(p));
}

TEST(G1, AffineRoundTrip)
{
    Rng rng(63);
    G1Jacobian p = G1Jacobian::fromAffine(randomG1(rng));
    // Rescale Z to a random value; affine normalization must agree.
    Fq z = Fq::random(rng);
    G1Jacobian q{p.X * z.square(), p.Y * z.square() * z, p.Z * z};
    EXPECT_EQ(p, q);
    EXPECT_EQ(p.toAffine(), q.toAffine());
    EXPECT_TRUE(p.toAffine().isOnCurve());
}

class MsmSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MsmSizes, PippengerMatchesNaive)
{
    const std::size_t n = GetParam();
    Rng rng(1000 + n);
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng));
        points.push_back(randomG1(rng));
    }
    G1Jacobian expect = msmNaive(scalars, points);
    EXPECT_EQ(msmPippenger(scalars, points), expect);
    // Explicit window sizes must agree too.
    EXPECT_EQ(msmPippenger(scalars, points, {.windowBits = 4}), expect);
    EXPECT_EQ(msmPippenger(scalars, points, {.windowBits = 9}), expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MsmSizes,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 64));

TEST(Msm, SparseScalarsFastPath)
{
    Rng rng(71);
    const std::size_t n = 64;
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    for (std::size_t i = 0; i < n; ++i) {
        // ~90% of scalars in {0,1}, like witness MSMs in the paper.
        double u = rng.nextDouble();
        scalars.push_back(u < 0.6   ? Fr::zero()
                          : u < 0.9 ? Fr::one()
                                    : Fr::random(rng));
        points.push_back(randomG1(rng));
    }
    MsmStats stats;
    G1Jacobian got = msmPippenger(scalars, points, currentMsmOptions(), &stats);
    EXPECT_EQ(got, msmNaive(scalars, points));
    EXPECT_GT(stats.trivialScalars, n / 2);
    EXPECT_EQ(stats.trivialScalars + stats.denseScalars, n);
}

TEST(Msm, EmptyAndZeroInputs)
{
    EXPECT_TRUE(msmPippenger({}, {}).isIdentity());
    std::vector<Fr> scalars(5, Fr::zero());
    std::vector<G1Affine> points;
    Rng rng(72);
    for (int i = 0; i < 5; ++i)
        points.push_back(randomG1(rng));
    EXPECT_TRUE(msmPippenger(scalars, points).isIdentity());
}

TEST(Msm, StatsCountBucketWork)
{
    Rng rng(73);
    const std::size_t n = 32;
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng) + Fr::fromU64(2)); // force dense
        points.push_back(randomG1(rng));
    }
    MsmStats stats;
    msmPippenger(scalars, points, {.windowBits = 8}, &stats);
    EXPECT_EQ(stats.denseScalars, n);
    // 255-bit scalars, c=8 -> 32 windows; each dense scalar contributes at
    // most one bucket add per window.
    EXPECT_LE(stats.pointAdds, n * 32 + 32 * (2 * 255 + 1));
    EXPECT_GT(stats.pointDoubles, 0u);
}

namespace {

using Big = zkphire::ff::BigInt<Fr::numLimbs>;

/** Reconstruct sum_w d_w * 2^(c*w) from signed digits, top window down. */
Big
reconstructFromDigits(const std::vector<std::int32_t> &digits, unsigned c)
{
    Big acc;
    for (std::size_t w = digits.size(); w-- > 0;) {
        for (unsigned s = 0; s < c; ++s) {
            zkphire::ff::u64 carry = acc.shl1InPlace();
            EXPECT_EQ(carry, 0u) << "reconstruction overflowed";
        }
        std::int32_t d = digits[w];
        if (d >= 0) {
            acc.addInPlace(Big(zkphire::ff::u64(d)));
        } else {
            // Top-down partial sums of a balanced recoding are the scalar's
            // truncated prefixes plus the incoming carry, so they never go
            // negative: the subtraction must not borrow.
            zkphire::ff::u64 borrow =
                acc.subInPlace(Big(zkphire::ff::u64(-d)));
            EXPECT_EQ(borrow, 0u) << "negative partial sum";
        }
    }
    return acc;
}

std::vector<std::int32_t>
recode(const Fr &s, unsigned c)
{
    const std::size_t nw = signedDigitWindows(Fr::modulusBits(), c);
    std::vector<std::int32_t> digits(nw);
    recodeSignedDigits(s.toBig(), c, nw, digits.data(), 1);
    return digits;
}

} // namespace

TEST(Recode, SignedDigitsRoundTrip)
{
    Rng rng(80);
    std::vector<Fr> scalars = {Fr::zero(), Fr::one(), Fr::fromU64(2),
                               Fr::zero() - Fr::one(), // p - 1: dense bits
                               Fr::fromU64(0xffffffffffffffffull)};
    for (int i = 0; i < 24; ++i)
        scalars.push_back(Fr::random(rng));
    for (unsigned c : {1u, 2u, 5u, 8u, 13u, 16u}) {
        const std::int64_t half = std::int64_t(1) << (c - 1);
        for (const Fr &s : scalars) {
            auto digits = recode(s, c);
            for (std::int32_t d : digits) {
                EXPECT_GE(d, -half);
                EXPECT_LE(d, half);
            }
            EXPECT_EQ(reconstructFromDigits(digits, c), s.toBig())
                << "c=" << c << " s=" << s.toHexString();
        }
    }
}

TEST(Recode, BoundaryDigitStaysPositive)
{
    // A window value of exactly 2^(c-1) must not borrow (it has a bucket of
    // its own); only values above it carry into the next window.
    for (unsigned c : {2u, 8u}) {
        auto digits = recode(Fr::fromU64(1ull << (c - 1)), c);
        EXPECT_EQ(digits[0], std::int32_t(1) << (c - 1));
        for (std::size_t w = 1; w < digits.size(); ++w)
            EXPECT_EQ(digits[w], 0);
    }
}

TEST(Recode, TopWindowAbsorbsCarry)
{
    // p - 1 has a long run of high bits; with small c the carry ripples all
    // the way up and must terminate inside the allotted window count (the
    // recoder asserts this internally; the round-trip checks the value).
    Fr top = Fr::zero() - Fr::one();
    for (unsigned c : {2u, 3u, 4u})
        EXPECT_EQ(reconstructFromDigits(recode(top, c), c), top.toBig());
}

TEST(BatchAffine, SegmentSumsMatchJacobianOracle)
{
    Rng rng(81);
    G1Affine p = randomG1(rng);
    G1Affine q = randomG1(rng);
    G1Affine neg_p{p.x, p.y.neg(), false};
    // Segments exercising every pair class: empty, singleton, generic adds,
    // doubling (duplicate points), cancellation (P then -P), identity
    // entries in every position, and an odd-length tail.
    std::vector<std::vector<G1Affine>> segments = {
        {},
        {p},
        {p, q},
        {p, p},          // doubling
        {p, neg_p},      // cancellation -> identity
        {G1Affine{}, p}, // identity lhs
        {p, G1Affine{}}, // identity rhs
        {G1Affine{}, G1Affine{}},
        {p, q, p},       // odd tail
        {p, p, p, p},    // repeated doublings
        {p, neg_p, p, neg_p, q},
    };
    for (int i = 0; i < 3; ++i) { // and a few random fat segments
        std::vector<G1Affine> seg;
        for (int j = 0; j < 9 + i; ++j)
            seg.push_back(j % 4 == 0 ? p : randomG1(rng));
        segments.push_back(std::move(seg));
    }

    std::vector<G1Affine> buf;
    std::vector<std::uint32_t> off = {0};
    for (const auto &seg : segments) {
        buf.insert(buf.end(), seg.begin(), seg.end());
        off.push_back(std::uint32_t(buf.size()));
    }
    // Entry 2*i references buf[i], not negated.
    std::vector<std::uint32_t> enc(buf.size());
    for (std::size_t i = 0; i < buf.size(); ++i)
        enc[i] = std::uint32_t(2 * i);
    std::vector<G1Affine> sums(segments.size());
    BatchAffineScratch scratch;
    BatchAffineStats stats;
    batchAffineSegmentSumsIndexed(std::span<const G1Affine>(buf), enc, off,
                                  sums, scratch, &stats);
    EXPECT_GT(stats.affineAdds, 0u);
    EXPECT_GT(stats.batchInversions, 0u);

    for (std::size_t s = 0; s < segments.size(); ++s) {
        G1Jacobian expect = G1Jacobian::identity();
        for (const G1Affine &a : segments[s])
            expect = expect.addMixed(a);
        EXPECT_EQ(G1Jacobian::fromAffine(sums[s]), expect) << "segment " << s;
    }
}

TEST(Msm, ModesAgreeWithNaive)
{
    Rng rng(82);
    const std::size_t n = 200;
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    G1Affine base = randomG1(rng);
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(i % 9 == 0 ? Fr::one()
                          : i % 10 == 0 ? Fr::zero()
                                        : Fr::random(rng));
        // Repeated points drive doubling/cancellation in shared buckets.
        points.push_back(i % 4 == 0 ? base : randomG1(rng));
    }
    G1Jacobian expect = msmNaive(scalars, points);

    MsmOptions unsigned_mode{.signedDigits = false, .batchAffine = false};
    MsmOptions signed_jac{.signedDigits = true, .batchAffine = false};
    MsmOptions signed_ba{.signedDigits = true, .batchAffine = true,
                         .batchAffineMinPoints = 0};
    for (unsigned c : {0u, 4u, 9u}) {
        unsigned_mode.windowBits = signed_jac.windowBits =
            signed_ba.windowBits = c;
        EXPECT_EQ(msmPippenger(scalars, points, unsigned_mode), expect);
        EXPECT_EQ(msmPippenger(scalars, points, signed_jac), expect);
        EXPECT_EQ(msmPippenger(scalars, points, signed_ba), expect);
    }
}

TEST(Msm, BatchAffineCountsAffineAdds)
{
    Rng rng(83);
    const std::size_t n = 600; // above the default batch-affine floor
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    G1Affine base = randomG1(rng);
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng) + Fr::fromU64(2));
        points.push_back(i % 8 == 0 ? randomG1(rng) : base);
    }
    MsmStats stats;
    G1Jacobian got = msmPippenger(scalars, points, currentMsmOptions(), &stats);
    EXPECT_EQ(got, msmNaive(scalars, points));
    EXPECT_GT(stats.affineAdds, 0u);
    EXPECT_GT(stats.batchInversions, 0u);
    EXPECT_EQ(stats.denseScalars, n);
}

TEST(Msm, BatchMatchesIndependentColumns)
{
    Rng rng(84);
    const std::size_t n = 320;
    std::vector<G1Affine> points;
    G1Affine base = randomG1(rng);
    for (std::size_t i = 0; i < n; ++i)
        points.push_back(i % 16 == 0 ? randomG1(rng) : base);
    points[7] = G1Affine{}; // identity point among the inputs

    // Column shapes: dense, sparse 0/1-heavy (selector-like), all-zero.
    std::vector<std::vector<Fr>> cols(3, std::vector<Fr>(n));
    for (std::size_t i = 0; i < n; ++i) {
        cols[0][i] = Fr::random(rng);
        double u = rng.nextDouble();
        cols[1][i] = u < 0.5 ? Fr::zero() : u < 0.85 ? Fr::one()
                                                     : Fr::random(rng);
        cols[2][i] = Fr::zero();
    }
    std::vector<std::span<const Fr>> spans(cols.begin(), cols.end());

    for (const MsmOptions &opts :
         {MsmOptions{}, MsmOptions{.batchAffineMinPoints = 0},
          MsmOptions{.signedDigits = false, .batchAffine = false}}) {
        auto batch = msmBatch(spans, points, opts);
        ASSERT_EQ(batch.size(), cols.size());
        for (std::size_t j = 0; j < cols.size(); ++j) {
            G1Jacobian solo = msmPippenger(cols[j], points, opts);
            // Bit-identical, not just equal as curve points: a batch run
            // must replay each column's exact serial operation sequence.
            EXPECT_EQ(batch[j].X, solo.X) << "col " << j;
            EXPECT_EQ(batch[j].Y, solo.Y) << "col " << j;
            EXPECT_EQ(batch[j].Z, solo.Z) << "col " << j;
        }
    }
}

TEST(Msm, BatchSparseColumnKeepsSoloPath)
{
    // A sparse column batched alongside dense ones must take the same
    // bucket path (Jacobian, below the batch-affine floor) its solo run
    // takes — the per-column gate, not the union of dense indices,
    // decides — so results stay bit-identical to independent runs even
    // when the batch as a whole is large.
    Rng rng(87);
    const std::size_t n = 700; // dense cols above the default floor of 512
    std::vector<G1Affine> points;
    G1Affine base = randomG1(rng);
    for (std::size_t i = 0; i < n; ++i)
        points.push_back(i % 16 == 0 ? randomG1(rng) : base);

    std::vector<std::vector<Fr>> cols(3, std::vector<Fr>(n));
    for (std::size_t i = 0; i < n; ++i) {
        cols[0][i] = Fr::random(rng);
        cols[1][i] = Fr::random(rng);
        // ~40 dense entries: far below the floor on its own.
        cols[2][i] = i % 16 == 3 ? Fr::random(rng) : Fr::zero();
    }
    std::vector<std::span<const Fr>> spans(cols.begin(), cols.end());
    auto batch = msmBatch(spans, points);
    MsmStats stats;
    msmBatch(spans, points, MsmOptions{}, &stats);
    EXPECT_GT(stats.affineAdds, 0u); // dense columns did use batch-affine
    for (std::size_t j = 0; j < cols.size(); ++j) {
        G1Jacobian solo = msmPippenger(cols[j], points);
        EXPECT_EQ(batch[j].X, solo.X) << "col " << j;
        EXPECT_EQ(batch[j].Y, solo.Y) << "col " << j;
        EXPECT_EQ(batch[j].Z, solo.Z) << "col " << j;
    }
}

TEST(Msm, BatchEdgeCases)
{
    Rng rng(85);
    // k = 0.
    EXPECT_TRUE(msmBatch({}, {}).empty());
    // n = 0.
    std::vector<Fr> empty_col;
    std::vector<std::span<const Fr>> cols = {empty_col};
    EXPECT_TRUE(msmBatch(cols, {})[0].isIdentity());
    // n = 1.
    std::vector<Fr> one_col = {Fr::random(rng)};
    std::vector<G1Affine> one_point = {randomG1(rng)};
    cols = {one_col};
    EXPECT_EQ(msmBatch(cols, one_point)[0], msmNaive(one_col, one_point));
    // All-identity points, forced batched-affine.
    std::vector<Fr> scalars;
    std::vector<G1Affine> inf_points(40, G1Affine{});
    for (int i = 0; i < 40; ++i)
        scalars.push_back(Fr::random(rng));
    cols = {scalars};
    EXPECT_TRUE(
        msmBatch(cols, inf_points, MsmOptions{.batchAffineMinPoints = 0})[0]
            .isIdentity());
}

TEST(Msm, ParallelForwardsStats)
{
    Rng rng(86);
    const std::size_t n = 256;
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng));
        points.push_back(randomG1(rng));
    }
    MsmStats direct, via_parallel;
    msmPippenger(scalars, points, currentMsmOptions(), &direct);
    {
        zkphire::rt::ScopedConfig scope({.threads = 3});
        msmPippenger(scalars, points, currentMsmOptions(), &via_parallel);
    }
    // A window-parallel run must fill its stats sink exactly like a
    // default-config run, or the prover's MSM work is undercounted.
    EXPECT_EQ(via_parallel.pointAdds, direct.pointAdds);
    EXPECT_EQ(via_parallel.pointDoubles, direct.pointDoubles);
    EXPECT_EQ(via_parallel.affineAdds, direct.affineAdds);
    EXPECT_EQ(via_parallel.denseScalars, direct.denseScalars);
    EXPECT_GT(via_parallel.pointAdds, 0u);
}

TEST(Msm, ParallelMatchesSerial)
{
    Rng rng(74);
    const std::size_t n = 512;
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    G1Affine base = randomG1(rng);
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng));
        points.push_back(i % 16 == 0 ? randomG1(rng) : base);
    }
    G1Jacobian serial = msmPippenger(scalars, points);
    for (unsigned threads : {4u, 1u, 24u}) {
        zkphire::rt::ScopedConfig scope({.threads = threads});
        EXPECT_EQ(msmPippenger(scalars, points), serial) << threads;
    }
}

TEST(Msm, SerialInsidePoolWorker)
{
    // A worker runs nested regions inline, so an MSM inside a parallelFor
    // body must take the serial decisions too: one batch inversion shared
    // across all windows, not one per window.
    Rng rng(87);
    const std::size_t n = 256;
    std::vector<Fr> scalars;
    std::vector<G1Affine> points;
    for (std::size_t i = 0; i < n; ++i) {
        scalars.push_back(Fr::random(rng));
        points.push_back(randomG1(rng));
    }
    MsmStats serial;
    G1Jacobian expect;
    {
        zkphire::rt::ScopedConfig one({.threads = 1});
        expect = msmPippenger(scalars, points, currentMsmOptions(), &serial);
    }
    ASSERT_GT(serial.batchInversions, 0u);

    zkphire::rt::ThreadPool pool(4);
    zkphire::rt::ScopedConfig scope(
        zkphire::rt::Config{.threads = 4, .pool = &pool});
    std::vector<MsmStats> inner(4);
    std::vector<G1Jacobian> got(4);
    zkphire::rt::parallelFor(
        0, 4,
        [&](std::size_t i) {
            got[i] = msmPippenger(scalars, points, currentMsmOptions(),
                                  &inner[i]);
        },
        /*grain=*/1);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(got[i], expect) << i;
        EXPECT_EQ(inner[i].batchInversions, serial.batchInversions) << i;
        EXPECT_EQ(inner[i].affineAdds, serial.affineAdds) << i;
    }
}

TEST(Msm, ManyMatchesIndependentRuns)
{
    // Halving job sizes, as in an opening chain: the two largest split by
    // window, the rest run whole on one worker each.
    Rng rng(88);
    const std::size_t sizes[] = {4096, 2048, 700, 256, 33, 2, 1, 0};
    std::vector<std::vector<Fr>> scalars;
    std::vector<std::vector<G1Affine>> points;
    for (std::size_t n : sizes) {
        scalars.emplace_back();
        points.emplace_back();
        for (std::size_t i = 0; i < n; ++i) {
            scalars.back().push_back(i % 5 == 0 ? Fr::one() : Fr::random(rng));
            points.back().push_back(randomG1(rng));
        }
    }
    std::vector<MsmJob> jobs;
    for (std::size_t j = 0; j < scalars.size(); ++j)
        jobs.push_back({scalars[j], points[j]});
    for (unsigned threads : {1u, 4u}) {
        zkphire::rt::ThreadPool pool(threads);
        zkphire::rt::ScopedConfig scope(
            zkphire::rt::Config{.threads = threads, .pool = &pool});
        MsmStats stats;
        const std::vector<G1Jacobian> many = msmMany(jobs, currentMsmOptions(), &stats);
        ASSERT_EQ(many.size(), jobs.size());
        std::uint64_t dense = 0;
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            MsmStats solo;
            EXPECT_EQ(many[j], msmPippenger(scalars[j], points[j],
                                            currentMsmOptions(), &solo))
                << "threads " << threads << " job " << j;
            dense += solo.denseScalars;
        }
        EXPECT_EQ(stats.denseScalars, dense);
    }
}

// ---------------------------------------------------------------------------
// Eight-lane AVX-512 IFMA reduction (src/ec/batch_add_ifma.hpp): the lane
// arithmetic against Fq, and every consumer of the reduction bit-identical
// with the lanes on and off.
// ---------------------------------------------------------------------------

namespace {

using zkphire::ff::kernels::ScopedAsmKernels;
using zkphire::ff::kernels::ScopedGenericKernels;

/** Distinct points P + i*Q, plus repeats and negations of P every few
 *  entries so buckets meet doubling and cancellation pairs. */
std::vector<G1Affine>
laneTestPoints(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    const G1Affine p = randomG1(rng);
    const G1Affine q = randomG1(rng);
    std::vector<G1Jacobian> jac(n);
    G1Jacobian acc = G1Jacobian::fromAffine(p);
    for (std::size_t i = 0; i < n; ++i) {
        jac[i] = acc;
        acc = acc.addMixed(q);
    }
    std::vector<G1Affine> pts = batchToAffine(jac);
    for (std::size_t i = 0; i < n; i += 7)
        pts[i] = i % 14 == 0 ? p : G1Affine{p.x, p.y.neg(), false};
    return pts;
}

/** The counts of two MsmStats (timings excluded). */
void
expectSameCounts(const MsmStats &a, const MsmStats &b, const char *what)
{
    EXPECT_EQ(a.pointAdds, b.pointAdds) << what;
    EXPECT_EQ(a.pointDoubles, b.pointDoubles) << what;
    EXPECT_EQ(a.trivialScalars, b.trivialScalars) << what;
    EXPECT_EQ(a.denseScalars, b.denseScalars) << what;
    EXPECT_EQ(a.affineAdds, b.affineAdds) << what;
    EXPECT_EQ(a.batchInversions, b.batchInversions) << what;
}

void
expectSameCoords(const G1Jacobian &a, const G1Jacobian &b, const char *what)
{
    EXPECT_EQ(a.X, b.X) << what;
    EXPECT_EQ(a.Y, b.Y) << what;
    EXPECT_EQ(a.Z, b.Z) << what;
}

} // namespace

TEST(IfmaLanes, ArithmeticAndConversionsMatchFq)
{
    if (!ifma::cpuSupported())
        GTEST_SKIP() << "host lacks AVX512F/AVX512IFMA (or OS ZMM state)";
    using Big = Fq::Big;
    Big top = Fq::modulus(); // p - 1, p - 2: the largest canonical values
    top.limb[0] -= 1;
    Big top2 = top;
    top2.limb[0] -= 1;
    Big near381; // 2^380 and 2^380 - 1: the top bit of a 381-bit value
    near381.limb[5] = std::uint64_t(1) << 60;
    Big below381;
    for (std::size_t i = 0; i < 5; ++i)
        below381.limb[i] = ~std::uint64_t(0);
    below381.limb[5] = (std::uint64_t(1) << 60) - 1;
    std::vector<Fq> vals = {Fq::zero(),          Fq::one(),
                            Fq::fromU64(2),      Fq::fromBig(top),
                            Fq::fromBig(top2),   Fq::fromBig(near381),
                            Fq::fromBig(below381), Fq::zero() - Fq::one()};
    Rng rng(171);
    while (vals.size() < 64)
        vals.push_back(Fq::random(rng));

    // Every ordered pair of the 64 values, eight lanes at a time.
    for (std::size_t off = 0; off < vals.size(); ++off) {
        for (std::size_t b0 = 0; b0 < vals.size(); b0 += ifma::kLanes) {
            std::array<Fq, ifma::kLanes> a, b, got;
            for (std::size_t l = 0; l < ifma::kLanes; ++l) {
                a[l] = vals[b0 + l];
                b[l] = vals[(b0 + l + off) % vals.size()];
            }
            const ifma::FqX8 la = ifma::toLanes(a), lb = ifma::toLanes(b);
            ifma::fromLanes(la, got);
            for (std::size_t l = 0; l < ifma::kLanes; ++l) {
                ASSERT_EQ(got[l], a[l]) << "round trip, lane " << l;
                // The vector entry conversion equals the scalar one.
                const ifma::LaneAffine sc =
                    ifma::toLaneAffine(G1Affine{a[l], a[l], false});
                for (std::size_t j = 0; j < ifma::kLanes; ++j)
                    ASSERT_EQ(la.limb[j][l], sc.x[j]) << "limb " << j;
            }
            ifma::FqX8 prod, diff;
            ifma::mul(prod, la, lb);
            ifma::fromLanes(prod, got);
            for (std::size_t l = 0; l < ifma::kLanes; ++l)
                ASSERT_EQ(got[l], a[l] * b[l]) << "mul, lane " << l;
            ifma::sub(diff, la, lb);
            const ifma::FqX8 want = ifma::toLanes(
                std::array<Fq, ifma::kLanes>{a[0] - b[0], a[1] - b[1],
                                             a[2] - b[2], a[3] - b[3],
                                             a[4] - b[4], a[5] - b[5],
                                             a[6] - b[6], a[7] - b[7]});
            // Canonical: limb-for-limb equal to the entered difference.
            for (std::size_t j = 0; j < ifma::kLanes; ++j)
                for (std::size_t l = 0; l < ifma::kLanes; ++l)
                    ASSERT_EQ(diff.limb[j][l], want.limb[j][l])
                        << "sub, limb " << j << " lane " << l;
        }
    }
}

TEST(IfmaLanes, PointConversionsRoundTrip)
{
    if (!ifma::cpuSupported())
        GTEST_SKIP() << "host lacks AVX512F/AVX512IFMA (or OS ZMM state)";
    std::vector<G1Affine> pts = laneTestPoints(21, 172);
    pts[4] = G1Affine{}; // the identity converts to the marker and back
    std::vector<std::uint32_t> idx;
    for (std::uint32_t i = 0; i < pts.size(); i += 2) // a subset: others stay
        idx.push_back(i);
    const ifma::LaneAffine untouched = ifma::toLaneAffine(g1Generator());
    std::vector<ifma::LaneAffine> lanes(2 * pts.size(), untouched);
    ifma::convertWalk(pts, idx, pts.size(), lanes);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const bool conv = i % 2 == 0;
        const G1Affine want = conv ? pts[i] : g1Generator();
        const G1Affine phi = conv ? glv::endomorphism(pts[i]) : g1Generator();
        EXPECT_EQ(ifma::fromLaneAffine(lanes[i]), want) << i;
        EXPECT_EQ(ifma::fromLaneAffine(lanes[pts.size() + i]), phi) << i;
        EXPECT_EQ(ifma::fromLaneAffine(ifma::toLaneAffine(pts[i])), pts[i]);
    }
    EXPECT_TRUE(ifma::fromLaneAffine(lanes[4]).infinity);
}

TEST(IfmaLanes, SegmentSumsAndStatsMatchScalar)
{
    Rng rng(173);
    const G1Affine p = randomG1(rng);
    const std::vector<G1Affine> pts = laneTestPoints(300, 174);
    // Point table: index 0 is p, 1 the identity, then distinct points.
    std::vector<G1Affine> table = {p, G1Affine{}};
    table.insert(table.end(), pts.begin(), pts.end());
    const auto ref = [](std::uint32_t i, bool neg) {
        return (i << 1) | std::uint32_t(neg);
    };
    // Every pair class: doubling, cancellation (p, -p), identity on either
    // side, odd tails, repeated points, and long mixed segments.
    std::vector<std::vector<std::uint32_t>> base = {
        {},
        {ref(0, false)},
        {ref(0, false), ref(0, false)},
        {ref(0, false), ref(0, true)},
        {ref(1, false), ref(0, false)},
        {ref(0, true), ref(1, false)},
        {ref(1, false), ref(1, true)},
        {ref(0, false), ref(5, false), ref(0, false)},
        {ref(0, false), ref(0, false), ref(0, false), ref(0, false)},
        {ref(0, false), ref(0, true), ref(0, false), ref(0, true),
         ref(9, true)},
    };
    for (std::size_t num_segs : {3u, 13u, 37u, 101u}) {
        std::vector<std::uint32_t> enc, off = {0};
        for (std::size_t s = 0; s < num_segs; ++s) {
            std::vector<std::uint32_t> seg = base[s % base.size()];
            if (s >= base.size())
                for (std::size_t j = 0; j < 1 + (s * 7) % 23; ++j)
                    seg.push_back(ref(std::uint32_t(2 + (s * 31 + j * 17) %
                                                            pts.size()),
                                      (s + j) % 3 == 0));
            enc.insert(enc.end(), seg.begin(), seg.end());
            off.push_back(std::uint32_t(enc.size()));
        }
        const auto run = [&](bool lanes_on) {
            ScopedAsmKernels asm_scope(lanes_on);
            if (!lanes_on)
                EXPECT_FALSE(ifma::selected());
            std::vector<G1Affine> sums(num_segs);
            BatchAffineScratch scratch;
            BatchAffineStats st;
            batchAffineSegmentSumsIndexed(std::span<const G1Affine>(table),
                                          enc, off, sums, scratch, &st);
            return std::make_pair(sums, st);
        };
        const auto [on, st_on] = run(true);
        const auto [off_sums, st_off] = run(false);
        EXPECT_EQ(st_on.affineAdds, st_off.affineAdds) << num_segs;
        EXPECT_EQ(st_on.batchInversions, st_off.batchInversions) << num_segs;
        for (std::size_t s = 0; s < num_segs; ++s) {
            EXPECT_EQ(on[s].infinity, off_sums[s].infinity) << s;
            EXPECT_EQ(on[s].x, off_sums[s].x) << s;
            EXPECT_EQ(on[s].y, off_sums[s].y) << s;
            G1Jacobian expect = G1Jacobian::identity();
            for (std::uint32_t e = off[s]; e < off[s + 1]; ++e) {
                const G1Affine &pt = table[enc[e] >> 1];
                expect = expect.addMixed(
                    (enc[e] & 1) && !pt.infinity
                        ? G1Affine{pt.x, pt.y.neg(), false}
                        : pt);
            }
            EXPECT_EQ(G1Jacobian::fromAffine(off_sums[s]), expect) << s;
        }
        if (!ifma::cpuSupported())
            continue;
        // A pre-converted lane table (the MSM's form) gives the same.
        std::vector<ifma::LaneAffine> lane_table(table.size());
        std::vector<std::uint32_t> all(table.size());
        for (std::uint32_t i = 0; i < all.size(); ++i)
            all[i] = i;
        ifma::convertWalk(table, all, 0, lane_table);
        std::vector<G1Affine> sums(num_segs);
        BatchAffineScratch scratch;
        BatchAffineStats st;
        batchAffineSegmentSumsIndexed(
            std::span<const ifma::LaneAffine>(lane_table), enc, off, sums,
            scratch, &st);
        EXPECT_EQ(st.affineAdds, st_off.affineAdds);
        EXPECT_EQ(st.batchInversions, st_off.batchInversions);
        for (std::size_t s = 0; s < num_segs; ++s)
            EXPECT_EQ(sums[s], off_sums[s]) << s;
    }
}

TEST(IfmaLanes, MsmConsumersMatchWithLanesOnAndOff)
{
    const std::vector<G1Affine> pts = laneTestPoints(4096, 175);
    Rng rng(176);
    std::vector<Fr> col0, col1;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        col0.push_back(i % 11 == 0 ? Fr::one() : Fr::random(rng));
        col1.push_back(i % 3 == 0 ? Fr::zero() : Fr::random(rng));
    }
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 17; ++n)
        sizes.push_back(n);
    sizes.push_back(1000);
    sizes.push_back(4096);
    for (bool glv : {false, true}) {
        // A floor of 0 sends even one-point MSMs through the reduction.
        const MsmOptions opts{.glv = glv, .batchAffineMinPoints = 0};
        for (std::size_t n : sizes) {
            const std::span<const G1Affine> p(pts.data(), n);
            const std::span<const Fr> c0(col0.data(), n), c1(col1.data(), n);
            const std::span<const Fr> cols[] = {c0, c1};
            const std::vector<MsmJob> jobs = {{c0, p},
                                              {c1.first(n / 2), p.first(n / 2)}};
            struct Run {
                std::vector<G1Jacobian> batch, many, accum;
                MsmStats sb, sm, sa;
            };
            const auto run = [&](bool lanes_on) {
                ScopedAsmKernels asm_scope(lanes_on);
                Run r;
                r.batch = msmBatch(cols, p, opts, &r.sb);
                r.many = msmMany(jobs, opts, &r.sm);
                MsmAccumulator acc(n, 2, opts, &r.sa, (n + 1) / 2);
                for (std::size_t b = 0; b < n; b += (n + 1) / 2) {
                    const std::size_t e = std::min(n, b + (n + 1) / 2);
                    const std::span<const Fr> chunk[] = {
                        c0.subspan(b, e - b), c1.subspan(b, e - b)};
                    acc.add(chunk, p.subspan(b, e - b));
                }
                r.accum = acc.finalize();
                return r;
            };
            const Run on = run(true), off = run(false);
            const std::string what =
                "n=" + std::to_string(n) + " glv=" + std::to_string(glv);
            for (std::size_t j = 0; j < 2; ++j) {
                expectSameCoords(on.batch[j], off.batch[j], what.c_str());
                expectSameCoords(on.many[j], off.many[j], what.c_str());
                expectSameCoords(on.accum[j], off.accum[j], what.c_str());
            }
            expectSameCounts(on.sb, off.sb, what.c_str());
            expectSameCounts(on.sm, off.sm, what.c_str());
            expectSameCounts(on.sa, off.sa, what.c_str());
            if (n == 17 || n == 1000)
                EXPECT_EQ(off.batch[0], msmNaive(c0, p)) << what;
        }
    }
}

TEST(IfmaLanes, NeverSelectedUnderTheScalarSwitches)
{
    const bool want = ifma::cpuSupported() &&
                      zkphire::ff::kernels::asmKernelsEnabled() &&
                      !zkphire::ff::kernels::genericKernelsForced();
    EXPECT_EQ(ifma::selected(), want);
    if (!ifma::cpuSupported())
        EXPECT_FALSE(ifma::selected()) << "host without IFMA";
    const char *env = std::getenv("ZKPHIRE_ASM");
    if (env != nullptr && env[0] == '0')
        EXPECT_FALSE(ifma::selected()) << "ZKPHIRE_ASM=0";
    {
        ScopedAsmKernels asm_off(false);
        EXPECT_FALSE(ifma::selected());
    }
    {
        ScopedGenericKernels oracle(true);
        EXPECT_FALSE(ifma::selected());
        ScopedAsmKernels asm_on(true);
        EXPECT_FALSE(ifma::selected()) << "the generic oracle wins";
    }
    EXPECT_EQ(ifma::selected(), want);
}
