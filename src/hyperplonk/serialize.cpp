#include "hyperplonk/serialize.hpp"

#include <algorithm>

namespace zkphire::hyperplonk {

using ff::Fr;

namespace {

class Writer
{
  public:
    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out.push_back(std::uint8_t(v >> (8 * i)));
    }

    void
    fr(const Fr &x)
    {
        std::uint8_t bytes[32];
        x.toBytesLe(bytes);
        out.insert(out.end(), bytes, bytes + 32);
    }

    void
    frVec(const std::vector<Fr> &xs)
    {
        u32(std::uint32_t(xs.size()));
        for (const Fr &x : xs)
            fr(x);
    }

    void
    frVecVec(const std::vector<std::vector<Fr>> &xss)
    {
        u32(std::uint32_t(xss.size()));
        for (const auto &xs : xss)
            frVec(xs);
    }

    void
    point(const ec::G1Affine &p)
    {
        std::uint8_t bytes[97] = {};
        if (!p.infinity) {
            p.x.toBig().toBytesLe(bytes);
            p.y.toBig().toBytesLe(bytes + 48);
            bytes[96] = 1;
        }
        out.insert(out.end(), bytes, bytes + 97);
    }

    void
    pointVec(const std::vector<ec::G1Affine> &ps)
    {
        u32(std::uint32_t(ps.size()));
        for (const auto &p : ps)
            point(p);
    }

    void
    commitment(const pcs::Commitment &c)
    {
        point(c.point);
    }

    void
    sumcheck(const sumcheck::SumcheckProof &sc)
    {
        fr(sc.claimedSum);
        frVecVec(sc.roundEvals);
        frVec(sc.finalSlotEvals);
    }

    std::vector<std::uint8_t> out;
};

class Reader
{
  public:
    explicit Reader(std::span<const std::uint8_t> b) : buf(b) {}

    bool failed() const { return bad; }

    std::uint32_t
    u32()
    {
        if (pos + 4 > buf.size()) {
            bad = true;
            return 0;
        }
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(buf[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }

    Fr
    fr()
    {
        if (pos + 32 > buf.size()) {
            bad = true;
            return Fr::zero();
        }
        auto big = ff::BigInt<4>::fromBytesLe(buf.data() + pos);
        pos += 32;
        if (!(big < Fr::modulus())) {
            bad = true;
            return Fr::zero();
        }
        return Fr::fromBig(big);
    }

    std::vector<Fr>
    frVec(std::size_t max_len = 1 << 20)
    {
        std::uint32_t n = u32();
        if (n > max_len) {
            bad = true;
            return {};
        }
        std::vector<Fr> xs;
        xs.reserve(n);
        for (std::uint32_t i = 0; i < n && !bad; ++i)
            xs.push_back(fr());
        return xs;
    }

    std::vector<std::vector<Fr>>
    frVecVec()
    {
        std::uint32_t n = u32();
        if (n > (1u << 16)) {
            bad = true;
            return {};
        }
        std::vector<std::vector<Fr>> xss;
        xss.reserve(n);
        for (std::uint32_t i = 0; i < n && !bad; ++i)
            xss.push_back(frVec());
        return xss;
    }

    ec::G1Affine
    point()
    {
        ec::G1Affine p;
        if (pos + 97 > buf.size()) {
            bad = true;
            return p;
        }
        // One encoding per point: flag 1 with canonical coordinates on the
        // curve, or 97 zero bytes for infinity. Any other bytes would be a
        // second encoding of the same proof.
        const std::uint8_t inf = buf[pos + 96];
        if (inf > 1) {
            bad = true;
        } else if (inf == 0) {
            p.infinity = true;
            if (!std::all_of(buf.begin() + pos, buf.begin() + pos + 96,
                             [](std::uint8_t b) { return b == 0; }))
                bad = true;
        } else {
            auto x = ff::BigInt<6>::fromBytesLe(buf.data() + pos);
            auto y = ff::BigInt<6>::fromBytesLe(buf.data() + pos + 48);
            if (!(x < ff::Fq::modulus()) || !(y < ff::Fq::modulus())) {
                bad = true;
                pos += 97;
                return p;
            }
            p.x = ff::Fq::fromBig(x);
            p.y = ff::Fq::fromBig(y);
            p.infinity = false;
            if (!p.isOnCurve())
                bad = true;
        }
        pos += 97;
        return p;
    }

    std::vector<ec::G1Affine>
    pointVec(std::size_t max_len = 1 << 12)
    {
        std::uint32_t n = u32();
        if (n > max_len) {
            bad = true;
            return {};
        }
        std::vector<ec::G1Affine> ps;
        ps.reserve(n);
        for (std::uint32_t i = 0; i < n && !bad; ++i)
            ps.push_back(point());
        return ps;
    }

    pcs::Commitment
    commitment()
    {
        return pcs::Commitment{point()};
    }

    sumcheck::SumcheckProof
    sumcheckProof()
    {
        sumcheck::SumcheckProof sc;
        sc.claimedSum = fr();
        sc.roundEvals = frVecVec();
        sc.finalSlotEvals = frVec();
        return sc;
    }

    bool
    atEnd() const
    {
        return pos == buf.size();
    }

  private:
    std::span<const std::uint8_t> buf;
    std::size_t pos = 0;
    bool bad = false;
};

constexpr std::uint32_t kMagic = 0x7a6b5048; // "zkPH"
constexpr std::uint32_t kVersion = 2;

} // namespace

std::vector<std::uint8_t>
serializeProof(const HyperPlonkProof &proof)
{
    Writer w;
    w.u32(kMagic);
    w.u32(kVersion);
    w.u32(std::uint32_t(proof.witnessComms.size()));
    for (const auto &c : proof.witnessComms)
        w.commitment(c);
    w.commitment(proof.phiComm);
    w.commitment(proof.piComm);
    w.sumcheck(proof.gateZC.sc);
    w.sumcheck(proof.permZC.sc);
    w.frVec(proof.wAtZp);
    w.frVec(proof.sigmaAtZp);
    for (const Fr &x : proof.shiftEvals)
        w.fr(x);
    w.sumcheck(proof.openA.sc);
    w.pointVec(proof.pcsA.quotients);
    return std::move(w.out);
}

std::optional<HyperPlonkProof>
deserializeProof(std::span<const std::uint8_t> bytes)
{
    Reader r(bytes);
    if (r.u32() != kMagic || r.u32() != kVersion)
        return std::nullopt;
    HyperPlonkProof proof;
    std::uint32_t k = r.u32();
    if (k > 16 || r.failed())
        return std::nullopt;
    for (std::uint32_t i = 0; i < k; ++i)
        proof.witnessComms.push_back(r.commitment());
    proof.phiComm = r.commitment();
    proof.piComm = r.commitment();
    proof.gateZC.sc = r.sumcheckProof();
    proof.permZC.sc = r.sumcheckProof();
    proof.wAtZp = r.frVec(64);
    proof.sigmaAtZp = r.frVec(64);
    for (Fr &x : proof.shiftEvals)
        x = r.fr();
    proof.openA.sc = r.sumcheckProof();
    proof.pcsA.quotients = r.pointVec();
    if (r.failed() || !r.atEnd())
        return std::nullopt;
    return proof;
}

} // namespace zkphire::hyperplonk
