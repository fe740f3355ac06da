/**
 * @file
 * Proof wire-format tests: round trip, verification of deserialized
 * proofs, and rejection of malformed / truncated / tampered encodings.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "hyperplonk/serialize.hpp"
#include "hyperplonk/verifier.hpp"

using namespace zkphire;
using namespace zkphire::hyperplonk;
using ff::Fr;
using ff::Rng;

namespace {

struct Fixture {
    Circuit circuit;
    Keys keys;
    HyperPlonkProof proof;
};

Fixture &
fixture()
{
    static Fixture *f = [] {
        static Rng rng(0xabcdef);
        static pcs::Srs srs = pcs::Srs::generate(7, rng);
        auto *fx = new Fixture{randomVanillaCircuit(5, rng), {}, {}};
        fx->keys = setup(fx->circuit, srs);
        fx->proof = prove(fx->keys.pk, fx->circuit);
        return fx;
    }();
    return *f;
}

} // namespace

TEST(Serialize, RoundTripPreservesEverything)
{
    const HyperPlonkProof &p = fixture().proof;
    auto bytes = serializeProof(p);
    EXPECT_GT(bytes.size(), 1000u);
    auto back = deserializeProof(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->witnessComms.size(), p.witnessComms.size());
    for (std::size_t i = 0; i < p.witnessComms.size(); ++i)
        EXPECT_TRUE(back->witnessComms[i] == p.witnessComms[i]);
    EXPECT_TRUE(back->phiComm == p.phiComm);
    EXPECT_TRUE(back->piComm == p.piComm);
    EXPECT_EQ(back->gateZC.sc.claimedSum, p.gateZC.sc.claimedSum);
    EXPECT_EQ(back->gateZC.sc.roundEvals, p.gateZC.sc.roundEvals);
    EXPECT_EQ(back->permZC.sc.roundEvals, p.permZC.sc.roundEvals);
    EXPECT_EQ(back->wAtZp, p.wAtZp);
    EXPECT_EQ(back->sigmaAtZp, p.sigmaAtZp);
    EXPECT_EQ(back->openA.sc.finalSlotEvals, p.openA.sc.finalSlotEvals);
    EXPECT_EQ(back->pcsA.quotients.size(), p.pcsA.quotients.size());
    for (std::size_t i = 0; i < p.pcsA.quotients.size(); ++i)
        EXPECT_EQ(back->pcsA.quotients[i], p.pcsA.quotients[i]) << i;
    EXPECT_EQ(back->shiftEvals, p.shiftEvals);
}

TEST(Serialize, DeserializedProofVerifies)
{
    auto bytes = serializeProof(fixture().proof);
    auto back = deserializeProof(bytes);
    ASSERT_TRUE(back.has_value());
    auto res = verify(fixture().keys.vk, *back);
    EXPECT_TRUE(res.ok) << res.error;
}

TEST(Serialize, RejectsBadMagic)
{
    auto bytes = serializeProof(fixture().proof);
    bytes[0] ^= 0xff;
    EXPECT_FALSE(deserializeProof(bytes).has_value());
}

TEST(Serialize, RejectsPreviousFormatVersion)
{
    auto bytes = serializeProof(fixture().proof);
    ASSERT_TRUE(deserializeProof(bytes).has_value());
    // The version is the little-endian u32 after the 4-byte magic.
    bytes[4] = 1;
    bytes[5] = bytes[6] = bytes[7] = 0;
    EXPECT_FALSE(deserializeProof(bytes).has_value());
}

TEST(Serialize, RejectsTruncation)
{
    auto bytes = serializeProof(fixture().proof);
    for (std::size_t cut :
         {bytes.size() - 1, bytes.size() / 2, std::size_t(8)}) {
        std::vector<std::uint8_t> t(bytes.begin(), bytes.begin() + cut);
        EXPECT_FALSE(deserializeProof(t).has_value()) << "cut " << cut;
    }
}

TEST(Serialize, RejectsTrailingGarbage)
{
    auto bytes = serializeProof(fixture().proof);
    bytes.push_back(0);
    EXPECT_FALSE(deserializeProof(bytes).has_value());
}

TEST(Serialize, RejectsOffCurvePoint)
{
    auto bytes = serializeProof(fixture().proof);
    // First commitment starts after magic+version+count = 12 bytes;
    // corrupt its x coordinate (keeps it < p with high probability on the
    // low byte, putting the point off the curve).
    bytes[12] ^= 0x01;
    EXPECT_FALSE(deserializeProof(bytes).has_value());
}

TEST(Serialize, RejectsNonCanonicalPointEncoding)
{
    const auto bytes = serializeProof(fixture().proof);
    // The first commitment occupies bytes [12, 109); its last byte is the
    // infinity flag, 1 for a finite point.
    ASSERT_EQ(bytes[12 + 96], 1);
    auto flag = bytes;
    flag[12 + 96] = 2; // same point with a flag other than 0 or 1
    EXPECT_FALSE(deserializeProof(flag).has_value());
    // The point at infinity is all zero bytes; stray coordinate bytes
    // under a 0 flag are a second encoding of it.
    auto inf = bytes;
    std::fill(inf.begin() + 12, inf.begin() + 12 + 97, 0);
    ASSERT_TRUE(deserializeProof(inf).has_value());
    inf[12] = 1;
    EXPECT_FALSE(deserializeProof(inf).has_value());
}

TEST(Serialize, RejectsNonCanonicalFieldElement)
{
    auto bytes = serializeProof(fixture().proof);
    // The gate ZeroCheck claimed sum follows the commitments: locate it by
    // structure (12 + (k+2)*97 bytes in).
    std::size_t k = fixture().proof.witnessComms.size();
    std::size_t off = 12 + (k + 2) * 97;
    // Set to r (the modulus) = non-canonical.
    auto r_bytes = ff::Fr::modulus();
    r_bytes.toBytesLe(bytes.data() + off);
    EXPECT_FALSE(deserializeProof(bytes).has_value());
}

TEST(Serialize, TamperedFieldElementFailsVerification)
{
    auto bytes = serializeProof(fixture().proof);
    std::size_t k = fixture().proof.witnessComms.size();
    std::size_t claim_off = 12 + (k + 2) * 97;
    bytes[claim_off] ^= 0x01; // still canonical w.h.p., but wrong value
    auto back = deserializeProof(bytes);
    if (back.has_value()) {
        EXPECT_FALSE(verify(fixture().keys.vk, *back).ok);
    }
}

TEST(Serialize, SizeMatchesUncompressedAccounting)
{
    const HyperPlonkProof &p = fixture().proof;
    auto bytes = serializeProof(p);
    // The wire format uses uncompressed 97 B points; the sizeBreakdown()
    // model assumes compressed 48 B points, so wire size is larger but
    // within ~2.2x.
    EXPECT_GT(bytes.size(), p.sizeBytes());
    EXPECT_LT(double(bytes.size()), 2.2 * double(p.sizeBytes()));
}

// PR-8 acceptance lock: proof bytes are identical across the MSM GLV
// split on/off and 1 vs 4 prover threads. Combined with the CI legs that
// re-run this suite under ZKPHIRE_ASM=0 and ZKPHIRE_THREADS=4, this
// covers the full {asm} x {GLV} x {threads} determinism matrix.
TEST(Serialize, BytesIdenticalAcrossGlvAndThreads)
{
    const auto baseline = serializeProof(fixture().proof);
    for (bool glv : {true, false}) {
        for (unsigned threads : {1u, 4u}) {
            ProveOptions opts;
            opts.rt.threads = threads;
            opts.msm.glv = glv;
            HyperPlonkProof p =
                prove(fixture().keys.pk, fixture().circuit, nullptr, opts);
            EXPECT_EQ(serializeProof(p), baseline)
                << "glv=" << glv << " threads=" << threads;
        }
    }
}

// Seeded byte-level mutation fuzzing of the wire format: every mutant of a
// valid proof (bit flips, byte rewrites, truncations, in-place splices,
// insertions and deletions) must be refused by deserializeProof or by
// verify, and none may crash (the suite also runs under ASan/UBSan).
TEST(Serialize, ByteMutantsAreRejected)
{
    const std::vector<std::uint8_t> original =
        serializeProof(fixture().proof);
    const std::size_t n = original.size();
    std::mt19937_64 gen(0x6d757461); // fixed seed: the run is reproducible
    auto below = [&](std::size_t bound) {
        return std::size_t(gen() % bound);
    };
    std::size_t mutants = 0, parsed = 0;
    std::vector<std::string> accepted;
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<std::uint8_t> m = original;
        const unsigned kind = unsigned(iter % 6);
        switch (kind) {
        case 0: { // flip one bit
            const std::size_t at = below(n);
            m[at] ^= std::uint8_t(1u << below(8));
            break;
        }
        case 1: { // rewrite one byte
            const std::size_t at = below(n);
            m[at] = std::uint8_t(gen());
            break;
        }
        case 2: // truncate
            m.resize(below(n));
            break;
        case 3: { // splice a segment of the proof over another place
            const std::size_t len = 1 + below(128);
            const std::size_t from = below(n - len);
            const std::size_t to = below(n - len);
            std::copy(original.begin() + std::ptrdiff_t(from),
                      original.begin() + std::ptrdiff_t(from + len),
                      m.begin() + std::ptrdiff_t(to));
            break;
        }
        case 4: { // insert a copied segment
            const std::size_t len = 1 + below(128);
            const std::size_t from = below(n - len);
            m.insert(m.begin() + std::ptrdiff_t(below(n + 1)),
                     original.begin() + std::ptrdiff_t(from),
                     original.begin() + std::ptrdiff_t(from + len));
            break;
        }
        default: { // delete a segment
            const std::size_t len = 1 + below(128);
            const std::size_t at = below(n - len);
            m.erase(m.begin() + std::ptrdiff_t(at),
                    m.begin() + std::ptrdiff_t(at + len));
            break;
        }
        }
        if (m == original)
            continue; // a splice onto identical bytes is no mutation
        ++mutants;
        const auto back = deserializeProof(m);
        if (!back)
            continue;
        ++parsed;
        if (verify(fixture().keys.vk, *back).ok && accepted.size() < 8)
            accepted.push_back("mutant " + std::to_string(iter) + " (kind " +
                               std::to_string(kind) + ")");
    }
    EXPECT_GT(mutants, 1900u);
    EXPECT_GT(parsed, 0u) << "no mutant reached the verifier";
    EXPECT_TRUE(accepted.empty()) << accepted.size()
                                  << " accepted, first: " << accepted[0];
}
