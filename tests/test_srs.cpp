/**
 * @file
 * SRS tests: the eagerly built Lagrange-basis levels against an independent
 * double-and-add oracle, thread-count independence of the fold tree, and
 * concurrent readers of a freshly generated SRS (the TSan leg runs this
 * suite; readers touching different levels first must not race).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "pcs/srs.hpp"
#include "rt/parallel.hpp"

using namespace zkphire;
using ec::G1Affine;
using ec::G1Jacobian;
using ff::Fr;
using ff::Rng;

namespace {

/** eq(t, bits(j)) = prod_k (bit k of j ? t_k : 1 - t_k), directly. */
Fr
eqAt(std::span<const Fr> t, std::size_t j)
{
    Fr acc = Fr::one();
    for (std::size_t k = 0; k < t.size(); ++k)
        acc *= ((j >> k) & 1) ? t[k] : Fr::one() - t[k];
    return acc;
}

} // namespace

TEST(Srs, FoldTreeMatchesDoubleAndAddOracle)
{
    const G1Jacobian g = G1Jacobian::fromAffine(ec::g1Generator());
    for (unsigned maxVars = 1; maxVars <= 8; ++maxVars) {
        Rng rng(0x5a5 + maxVars);
        const pcs::Srs srs = pcs::Srs::generate(maxVars, rng);
        const std::vector<Fr> &tau = srs.tau();
        for (unsigned l = 0; l <= maxVars; ++l) {
            const pcs::LevelBases &lv = srs.basesFor(l);
            ASSERT_EQ(lv.suffix.size(), l + 1u);
            for (unsigned s = 0; s <= l; ++s) {
                std::span<const Fr> t(tau.data() + s, l - s);
                ASSERT_EQ(lv.suffix[s].size(), std::size_t(1) << (l - s));
                for (std::size_t j = 0; j < lv.suffix[s].size(); ++j)
                    ASSERT_EQ(lv.suffix[s][j],
                              g.mulScalarPlain(eqAt(t, j)).toAffine())
                        << "maxVars " << maxVars << " level " << l
                        << " suffix " << s << " index " << j;
            }
            EXPECT_EQ(lv.suffix[l], std::vector<G1Affine>{ec::g1Generator()});
        }
        EXPECT_EQ(srs.basesFor(0).suffix[0],
                  std::vector<G1Affine>{ec::g1Generator()});
    }
}

TEST(Srs, LevelsIndependentOfThreadCount)
{
    auto build = [](unsigned threads) {
        rt::ScopedConfig pin({.threads = threads});
        Rng rng(0x7e5);
        return pcs::Srs::generate(11, rng);
    };
    const pcs::Srs serial = build(1), pooled = build(4);
    for (unsigned l = 0; l <= serial.maxVars(); ++l)
        EXPECT_EQ(serial.basesFor(l).suffix, pooled.basesFor(l).suffix)
            << "level " << l;
}

TEST(Srs, ConcurrentReadersOfFreshSrsMatchSerialReference)
{
    constexpr unsigned kMaxVars = 9;
    constexpr unsigned kThreads = 4;
    Rng refRng(0xc0c0);
    const pcs::Srs reference = pcs::Srs::generate(kMaxVars, refRng);
    Rng rng(0xc0c0);
    const pcs::Srs srs = pcs::Srs::generate(kMaxVars, rng);

    // Every thread first touches a different level, then walks the rest.
    std::vector<std::vector<pcs::LevelBases>> seen(kThreads);
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> readers;
    for (unsigned t = 0; t < kThreads; ++t)
        readers.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads)
                std::this_thread::yield();
            for (unsigned k = 0; k <= kMaxVars; ++k)
                seen[t].push_back(
                    srs.basesFor((kMaxVars - t + k) % (kMaxVars + 1)));
        });
    for (std::thread &r : readers)
        r.join();

    for (unsigned t = 0; t < kThreads; ++t)
        for (unsigned k = 0; k <= kMaxVars; ++k) {
            const unsigned l = (kMaxVars - t + k) % (kMaxVars + 1);
            EXPECT_EQ(seen[t][k].suffix, reference.basesFor(l).suffix)
                << "thread " << t << " level " << l;
        }
}
