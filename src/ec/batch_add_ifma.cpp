#include "ec/batch_add_ifma.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <new>

#include <sys/mman.h>

#include "ec/batch_add.hpp"
#include "ec/glv.hpp"
#include "ff/batch_inverse.hpp"

#if defined(__x86_64__) && !defined(ZKPHIRE_NO_ASM) &&                      \
    (defined(__GNUC__) || defined(__clang__))
#define ZKPHIRE_HAVE_IFMA 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define ZKPHIRE_HAVE_IFMA 0
#endif

namespace zkphire::ec::ifma {

namespace {

using ff::Fq;
using u64 = std::uint64_t;

constexpr u64 kMask52 = (u64(1) << 52) - 1;

/** Split a 384-bit value (6 x 64) into 8 x 52-bit limbs. */
void
split52(const u64 *in, u64 *out)
{
    out[0] = in[0] & kMask52;
    out[1] = ((in[0] >> 52) | (in[1] << 12)) & kMask52;
    out[2] = ((in[1] >> 40) | (in[2] << 24)) & kMask52;
    out[3] = ((in[2] >> 28) | (in[3] << 36)) & kMask52;
    out[4] = ((in[3] >> 16) | (in[4] << 48)) & kMask52;
    out[5] = (in[4] >> 4) & kMask52;
    out[6] = ((in[4] >> 56) | (in[5] << 8)) & kMask52;
    out[7] = in[5] >> 44;
}

/** Join 8 x 52-bit limbs of a value below 2^384 into 6 x 64. */
void
join64(const u64 *in, u64 *out)
{
    out[0] = in[0] | (in[1] << 52);
    out[1] = (in[1] >> 12) | (in[2] << 40);
    out[2] = (in[2] >> 24) | (in[3] << 28);
    out[3] = (in[3] >> 36) | (in[4] << 16);
    out[4] = (in[4] >> 48) | (in[5] << 4) | (in[6] << 56);
    out[5] = (in[6] >> 8) | (in[7] << 44);
}

/** 2^32 and 2^-32 as field elements: the lane form of a is the raw
 *  Montgomery form of a * 2^32 (a * 2^416 = (a * 2^32) * 2^384). */
const Fq &
twoTo32()
{
    static const Fq v = Fq::fromU64(u64(1) << 32);
    return v;
}

const Fq &
twoToMinus32()
{
    static const Fq v = twoTo32().inverse();
    return v;
}

void
laneOf(const Fq &a, u64 *out)
{
    split52((a * twoTo32()).raw().limb.data(), out);
}

Fq
fqOf(const u64 *in)
{
    Fq::Big b;
    join64(in, b.limb.data());
    return Fq::fromRaw(b) * twoToMinus32();
}

} // namespace

void
MappedBytes::reserve(std::size_t n)
{
    if (n <= bytes_)
        return;
    release();
    void *p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    data_ = p;
    bytes_ = n;
}

void
MappedBytes::release()
{
    if (data_)
        ::munmap(data_, bytes_);
    data_ = nullptr;
    bytes_ = 0;
}

LaneAffine
toLaneAffine(const G1Affine &p)
{
    LaneAffine out{};
    // zkphire-lint: ct-exempt(identity-encoding check, same profile as the group law)
    if (p.infinity) {
        out.x[kLanes - 1] = kLaneInfinity;
        return out;
    }
    laneOf(p.x, out.x);
    laneOf(p.y, out.y);
    return out;
}

G1Affine
fromLaneAffine(const LaneAffine &p)
{
    // zkphire-lint: ct-exempt(identity-encoding check, same profile as the group law)
    if (p.x[kLanes - 1] & kLaneInfinity)
        return G1Affine{};
    return G1Affine{fqOf(p.x), fqOf(p.y), false};
}

bool
cpuSupported()
{
#if ZKPHIRE_HAVE_IFMA
    static const bool ok = [] {
        unsigned a = 0, b = 0, c = 0, d = 0;
        constexpr unsigned kOsxsave = 1u << 27;
        if (!__get_cpuid(1, &a, &b, &c, &d) || (c & kOsxsave) == 0)
            return false;
        if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
            return false;
        constexpr unsigned kAvx512f = 1u << 16;
        constexpr unsigned kAvx512Ifma = 1u << 21;
        if ((b & kAvx512f) == 0 || (b & kAvx512Ifma) == 0)
            return false;
        // XCR0: SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state enabled.
        unsigned lo = 0, hi = 0;
        __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
        constexpr unsigned kZmmState = 0xe6;
        return (lo & kZmmState) == kZmmState;
    }();
    return ok;
#else
    return false;
#endif
}

bool
selected()
{
    return cpuSupported() && ff::kernels::asmKernelsEnabled() &&
           !ff::kernels::genericKernelsForced();
}

#if ZKPHIRE_HAVE_IFMA

namespace {

#define ZKPHIRE_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))
#define ZKPHIRE_IFMA_INLINE                                                  \
    ZKPHIRE_IFMA_TARGET inline __attribute__((always_inline))

using V = __m512i;

/** Eight lane-form values in registers, limb-major (limb i in l[i]). */
struct Fe {
    V l[kLanes];
};

// p, -p^-1 mod 2^52 and the domain constants, as 52-bit limbs.
constexpr u64 kP[kLanes] = {0xeffffffffaaab, 0xfeb153ffffb9f, 0x6b0f6241eabff,
                            0x12bf6730d2a0f, 0x764774b84f385, 0x1ba7b6434bacd,
                            0x1ea397fe69a4b, 0x000000001a011};
constexpr u64 kPInv = 0x3fffcfffcfffd;
/** 2^416 mod p: the lane form of 1. */
constexpr u64 kOne[kLanes] = {0x6480ea8e9b9af, 0x65766c8fe444f, 0x8b540fea96f7d,
                              0x3b2ee82efd422, 0xa6723e5f0ade5, 0xff6eb6fdd4230,
                              0xe06ef23c24a25, 0x0000000014c8e};
/** 2^448 mod p: multiplying a Montgomery-form value by it enters. */
constexpr u64 kEnter[kLanes] = {
    0x7fde37dba9366, 0x4e27525bc342b, 0x1f5b1e9778489, 0xb872b2b91b9dc,
    0xb206f497dfcaf, 0x4137cc89a9b0b, 0xd9d20d7e39959, 0x000000000411c};
/** 2^384 mod p: multiplying a lane value by it leaves. */
constexpr u64 kLeave[kLanes] = {
    0x900000002fffd, 0x0bc40c0002760, 0x3c758baebf400, 0x57455f4898575,
    0xd77ce58537052, 0x071a97a256ec6, 0xec3fa80e4935c, 0x0000000015f65};

ZKPHIRE_IFMA_INLINE V
bcast(u64 c)
{
    return _mm512_set1_epi64(static_cast<long long>(c));
}

// Shifts through the vector extensions (and the permutes below in their
// zero-masking forms): GCC 12's unmasked shift and permute intrinsics pass
// an "undefined" source that -Wuninitialized reports at every call site.
ZKPHIRE_IFMA_INLINE V
shr52(V v)
{
    return V(__v8du(v) >> 52);
}

ZKPHIRE_IFMA_INLINE V
sar52(V v)
{
    return v >> 52;
}

ZKPHIRE_IFMA_INLINE Fe
constant(const u64 *c)
{
    Fe r;
    for (std::size_t j = 0; j < kLanes; ++j)
        r.l[j] = bcast(c[j]);
    return r;
}

/**
 * Lane Montgomery multiply (operand-scanning CIOS, radix 2^52): returns
 * a * b * 2^-416 mod p with normalized limbs, below p + 2^352 < 2p for
 * inputs below 2^384. Each accumulator column gathers at most ~9 * 2^54
 * before the final carry pass, well inside 64 bits, so carries are
 * deferred to one normalization at the end.
 */
ZKPHIRE_IFMA_INLINE Fe
mulFe(const Fe &a, const Fe &b)
{
    const V zero = _mm512_setzero_si512();
    V t[kLanes + 1];
    for (std::size_t j = 0; j <= kLanes; ++j)
        t[j] = zero;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kLanes; ++i) {
        const V bi = b.l[i];
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kLanes; ++j) {
            t[j] = _mm512_madd52lo_epu64(t[j], a.l[j], bi);
            t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], a.l[j], bi);
        }
        const V m = _mm512_madd52lo_epu64(zero, t[0], bcast(kPInv));
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kLanes; ++j) {
            t[j] = _mm512_madd52lo_epu64(t[j], bcast(kP[j]), m);
            t[j + 1] = _mm512_madd52hi_epu64(t[j + 1], bcast(kP[j]), m);
        }
        // The low 52 bits of t[0] are now zero: carry out, shift down.
        t[1] = _mm512_add_epi64(t[1], shr52(t[0]));
#pragma GCC unroll 8
        for (std::size_t j = 0; j < kLanes; ++j)
            t[j] = t[j + 1];
        t[kLanes] = zero;
    }
    const V mask = bcast(kMask52);
    Fe r;
    V c = zero;
    for (std::size_t j = 0; j + 1 < kLanes; ++j) {
        const V v = _mm512_add_epi64(t[j], c);
        c = shr52(v);
        r.l[j] = _mm512_and_si512(v, mask);
    }
    r.l[kLanes - 1] = _mm512_add_epi64(t[kLanes - 1], c);
    return r;
}

/**
 * d = a - b + (add ? p : 0) over normalized limbs, with signed carries;
 * the top limb is left unmasked, so its sign is the sign of the result.
 */
ZKPHIRE_IFMA_INLINE Fe
subRaw(const Fe &a, const Fe &b, bool add_p)
{
    const V mask = bcast(kMask52);
    Fe d;
    V c = _mm512_setzero_si512();
    for (std::size_t j = 0; j < kLanes; ++j) {
        V v = _mm512_sub_epi64(a.l[j], b.l[j]);
        if (add_p)
            v = _mm512_add_epi64(v, bcast(kP[j]));
        v = _mm512_add_epi64(v, c);
        if (j + 1 < kLanes) {
            c = sar52(v);
            v = _mm512_and_si512(v, mask);
        }
        d.l[j] = v;
    }
    return d;
}

/** a + p - b: in (0, 3p) for a < 2p and canonical b; a multiply input. */
ZKPHIRE_IFMA_INLINE Fe
subLazy(const Fe &a, const Fe &b)
{
    return subRaw(a, b, true);
}

/** Canonical a - b mod p of canonical inputs. */
ZKPHIRE_IFMA_INLINE Fe
subMod(const Fe &a, const Fe &b)
{
    const V zero = _mm512_setzero_si512();
    const V mask = bcast(kMask52);
    Fe d = subRaw(a, b, false);
    const __mmask8 neg = _mm512_cmplt_epi64_mask(d.l[kLanes - 1], zero);
    V c = zero;
    for (std::size_t j = 0; j < kLanes; ++j) {
        V v = _mm512_mask_add_epi64(d.l[j], neg, d.l[j], bcast(kP[j]));
        v = _mm512_add_epi64(v, c);
        if (j + 1 < kLanes) {
            c = shr52(v);
            v = _mm512_and_si512(v, mask);
        }
        d.l[j] = v;
    }
    return d;
}

/** Canonical form of a normalized value below 2p. */
ZKPHIRE_IFMA_INLINE Fe
reduceFe(const Fe &x)
{
    const Fe pm = constant(kP);
    Fe d = subRaw(x, pm, false);
    const __mmask8 below = _mm512_cmplt_epi64_mask(d.l[kLanes - 1],
                                                   _mm512_setzero_si512());
    for (std::size_t j = 0; j < kLanes; ++j)
        d.l[j] = _mm512_mask_blend_epi64(below, d.l[j], x.l[j]);
    return d;
}

/** Lanes where every limb of a equals that of b. */
ZKPHIRE_IFMA_INLINE __mmask8
equalLanes(const Fe &a, const Fe &b)
{
    __mmask8 eq = 0xff;
    for (std::size_t j = 0; j < kLanes; ++j)
        eq = static_cast<__mmask8>(eq &
                                   _mm512_cmpeq_epi64_mask(a.l[j], b.l[j]));
    return eq;
}

/** 8 x 8 transpose of 64-bit elements: rows (one value each) to limbs,
 *  and back. */
ZKPHIRE_IFMA_INLINE void
transpose(V *r)
{
    V t[kLanes], u[kLanes];
    for (std::size_t j = 0; j < kLanes; j += 2) {
        t[j] = _mm512_maskz_unpacklo_epi64(0xff, r[j], r[j + 1]);
        t[j + 1] = _mm512_maskz_unpackhi_epi64(0xff, r[j], r[j + 1]);
    }
    const V lo = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
    const V hi = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
    for (std::size_t h = 0; h < kLanes; h += 4) {
        u[h] = _mm512_permutex2var_epi64(t[h], lo, t[h + 2]);
        u[h + 2] = _mm512_permutex2var_epi64(t[h], hi, t[h + 2]);
        u[h + 1] = _mm512_permutex2var_epi64(t[h + 1], lo, t[h + 3]);
        u[h + 3] = _mm512_permutex2var_epi64(t[h + 1], hi, t[h + 3]);
    }
    for (std::size_t j = 0; j < 4; ++j) {
        r[j] = _mm512_maskz_shuffle_i64x2(0xff, u[j], u[j + 4], 0x44);
        r[j + 4] = _mm512_maskz_shuffle_i64x2(0xff, u[j], u[j + 4], 0xee);
    }
}

/** Gather eight 64-byte rows into limb-major registers. */
ZKPHIRE_IFMA_INLINE Fe
loadRows(const u64 *const *rows)
{
    Fe f;
    for (std::size_t l = 0; l < kLanes; ++l)
        f.l[l] = _mm512_load_si512(rows[l]);
    transpose(f.l);
    return f;
}

/** Limb-major registers back to rows: out[l] receives lane l. */
ZKPHIRE_IFMA_INLINE void
storeRows(Fe f, u64 *const *rows)
{
    transpose(f.l);
    for (std::size_t l = 0; l < kLanes; ++l)
        _mm512_store_si512(rows[l], f.l[l]);
}

ZKPHIRE_IFMA_INLINE Fe
loadFqX8(const FqX8 &v)
{
    Fe f;
    for (std::size_t j = 0; j < kLanes; ++j)
        f.l[j] = _mm512_load_si512(v.limb[j]);
    return f;
}

ZKPHIRE_IFMA_INLINE void
storeFqX8(FqX8 &v, const Fe &f)
{
    for (std::size_t j = 0; j < kLanes; ++j)
        _mm512_store_si512(v.limb[j], f.l[j]);
}

/** Enter the lane domain from eight Montgomery-form values (as rows). */
ZKPHIRE_IFMA_INLINE Fe
enterRows(const u64 *const *rows)
{
    return reduceFe(mulFe(loadRows(rows), constant(kEnter)));
}

/** Leave the lane domain: canonical Montgomery-form values, as rows. */
ZKPHIRE_IFMA_INLINE void
leaveRows(const Fe &v, u64 *const *rows)
{
    storeRows(reduceFe(mulFe(v, constant(kLeave))), rows);
}

/** beta (the GLV cube root of unity) in lane form. */
const u64 *
betaLanes()
{
    static const auto limbs = [] {
        std::array<u64, kLanes> b{};
        laneOf(glv::params().beta, b.data());
        return b;
    }();
    return limbs.data();
}

/**
 * Convert cnt <= 8 affine points: out[l] (and phi_out[l], the GLV image,
 * when phi_out is given) receive the lane form of *in[l].
 */
ZKPHIRE_IFMA_TARGET void
convertBlock(const G1Affine *const *in, std::size_t cnt,
             LaneAffine *const *out, LaneAffine *const *phi_out)
{
    alignas(64) u64 rx[kLanes][kLanes], ry[kLanes][kLanes];
    u64 *px[kLanes], *py[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
        const G1Affine &p = *in[l < cnt ? l : 0];
        split52(p.x.raw().limb.data(), rx[l]);
        split52(p.y.raw().limb.data(), ry[l]);
        px[l] = rx[l];
        py[l] = ry[l];
    }
    const Fe x = enterRows(px);
    storeRows(enterRows(py), py);
    if (phi_out) {
        storeRows(reduceFe(mulFe(x, constant(betaLanes()))), px);
        for (std::size_t l = 0; l < cnt; ++l) {
            std::copy_n(rx[l], kLanes, phi_out[l]->x);
            std::copy_n(ry[l], kLanes, phi_out[l]->y);
            phi_out[l]->x[kLanes - 1] |= u64(in[l]->infinity) << 63;
        }
    }
    storeRows(x, px);
    for (std::size_t l = 0; l < cnt; ++l) {
        std::copy_n(rx[l], kLanes, out[l]->x);
        std::copy_n(ry[l], kLanes, out[l]->y);
        out[l]->x[kLanes - 1] |= u64(in[l]->infinity) << 63;
    }
}

/** Convert cnt <= 8 lane points back to affine form. */
ZKPHIRE_IFMA_TARGET void
leaveBlock(const LaneAffine *const *in, std::size_t cnt,
           G1Affine *const *out)
{
    alignas(64) u64 rx[kLanes][kLanes], ry[kLanes][kLanes];
    const u64 *ix[kLanes], *iy[kLanes];
    u64 *px[kLanes], *py[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
        const LaneAffine &p = *in[l < cnt ? l : 0];
        ix[l] = p.x;
        iy[l] = p.y;
        px[l] = rx[l];
        py[l] = ry[l];
    }
    leaveRows(loadRows(ix), px);
    leaveRows(loadRows(iy), py);
    for (std::size_t l = 0; l < cnt; ++l) {
        Fq::Big bx, by;
        join64(rx[l], bx.limb.data());
        join64(ry[l], by.limb.data());
        // zkphire-lint: ct-exempt(identity-encoding check, same profile as the group law)
        *out[l] = (in[l]->x[kLanes - 1] & kLaneInfinity)
                      ? G1Affine{}
                      : G1Affine{Fq::fromRaw(bx), Fq::fromRaw(by), false};
    }
}

/** Scalar negation of a canonical lane point (the identity stays). */
LaneAffine
negLane(const LaneAffine &p)
{
    LaneAffine r = p;
    u64 borrow = 0, nonzero = 0;
    for (std::size_t j = 0; j < kLanes; ++j) {
        const u64 v = kP[j] - p.y[j] - borrow;
        borrow = v >> 63;
        r.y[j] = v & kMask52;
        nonzero |= p.y[j];
    }
    // -0 is 0, not p.
    const u64 keep = u64(0) - u64(nonzero != 0);
    for (std::size_t j = 0; j < kLanes; ++j)
        r.y[j] &= keep;
    return r;
}

/** Where a round reads its entries: pts[enc[e] >> 1], negated when
 *  (enc[e] & 1), or pts[e] directly when enc is null. */
struct PairSource {
    const LaneAffine *pts;
    const std::uint32_t *enc;

    const LaneAffine &at(std::uint32_t e) const
    {
        return pts[enc ? enc[e] >> 1 : e];
    }
    bool negated(std::uint32_t e) const { return enc && (enc[e] & 1); }
    LaneAffine entry(std::uint32_t e) const
    {
        return negated(e) ? negLane(at(e)) : at(e);
    }
    G1Affine affine(std::uint32_t e) const
    {
        const G1Affine p = fromLaneAffine(at(e));
        // zkphire-lint: ct-exempt(identity-encoding check, same profile as the group law)
        return negated(e) && !p.infinity ? G1Affine{p.x, p.y.neg(), false}
                                         : p;
    }
};

/** A pair the lanes leave to the scalar classify/apply. */
struct Special {
    std::uint32_t pair;
    std::uint8_t kind;
    std::uint32_t slope; ///< Its slope's index when kind == kSlope.
    G1Affine a, b;
};

/** Up to eight pairs of a round: lane l holds pair q0 + l. */
struct Group {
    std::size_t q0, cnt;
    __mmask8 valid;
};

ZKPHIRE_IFMA_INLINE Group
group(std::size_t g, std::size_t pairs)
{
    const std::size_t q0 = g * kLanes;
    const std::size_t cnt = std::min(kLanes, pairs - q0);
    return Group{q0, cnt, static_cast<__mmask8>((1u << cnt) - 1)};
}

/** One coordinate of the group's left (b = 0) or right (b = 1) points;
 *  lanes past cnt repeat the first pair. */
ZKPHIRE_IFMA_INLINE Fe
loadCoord(const PairSource &src, const std::uint32_t *pos, const Group &g,
          bool y, std::uint32_t b)
{
    const u64 *rows[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
        const LaneAffine &p = src.at(pos[g.q0 + (l < g.cnt ? l : 0)] + b);
        rows[l] = y ? p.y : p.x;
    }
    return loadRows(rows);
}

/** Groups ahead of the current one whose points are prefetched: the
 *  entries of a round are gathered from anywhere in the point table. */
constexpr std::size_t kPrefetchAhead = 2;

ZKPHIRE_IFMA_INLINE void
prefetchGroup(const PairSource &src, const std::uint32_t *pos, std::size_t g,
              std::size_t pairs)
{
    const std::size_t q0 = g * kLanes;
    for (std::size_t q = q0; q < std::min(q0 + kLanes, pairs); ++q)
        for (std::uint32_t b = 0; b < 2; ++b) {
            const LaneAffine &p = src.at(pos[q] + b);
            _mm_prefetch(reinterpret_cast<const char *>(p.x), _MM_HINT_T0);
            _mm_prefetch(reinterpret_cast<const char *>(p.y), _MM_HINT_T0);
        }
}

/** Lanes whose entry b is negated (round 0 of an encoded table). */
ZKPHIRE_IFMA_INLINE __mmask8
negLanes(const PairSource &src, const std::uint32_t *pos, const Group &g,
         std::uint32_t b)
{
    unsigned m = 0;
    for (std::size_t l = 0; l < g.cnt; ++l)
        m |= unsigned(src.negated(pos[g.q0 + l] + b)) << l;
    return static_cast<__mmask8>(m);
}

/** y, negated in the lanes of neg. */
ZKPHIRE_IFMA_INLINE Fe
negateLanes(const Fe &y, __mmask8 neg)
{
    if (neg == 0)
        return y;
    const Fe ny = subMod(Fe{}, y);
    Fe r;
    for (std::size_t j = 0; j < kLanes; ++j)
        r.l[j] = _mm512_mask_blend_epi64(neg, y.l[j], ny.l[j]);
    return r;
}

/**
 * One halving round over the pairs (pairSrc[q], pairSrc[q] + 1) -> dst
 * slot pairDst[q], eight pairs at a time.
 *
 * Forward: stage each group's denominators (lanes with an identity operand
 * or equal x, and unused lanes, get 1 and go to the scalar classify) and
 * extend eight interleaved prefix-product chains (lane l of group g holds
 * pair 8g + l). The chain totals and the scalar pairs' denominators share
 * one true inversion. Backward: peel each group's inverses off the chains.
 * Apply: form the slopes, apply the affine formulas and write the outputs;
 * the special pairs take the scalar apply.
 */
ZKPHIRE_IFMA_TARGET void
laneRound(const PairSource &src, BatchAffineScratch &s, LaneAffine *dst,
          BatchAffineStats *stats)
{
    const std::size_t pairs = s.pairSrc.size();
    const std::size_t groups = (pairs + kLanes - 1) / kLanes;
    const std::uint32_t *pos = s.pairSrc.data();
    s.chain.reserve(groups);
    s.chainDen.reserve(groups);
    if (s.chainSpecial.size() < groups)
        s.chainSpecial.resize(groups);
    s.numer.clear();
    s.denom.clear();
    std::vector<Special> special;

    std::size_t generic = 0;
    Fe acc = constant(kOne);
    for (std::size_t g = 0; g < groups; ++g) {
        const Group gr = group(g, pairs);
        prefetchGroup(src, pos, g + kPrefetchAhead, pairs);
        const Fe ax = loadCoord(src, pos, gr, false, 0);
        const Fe bx = loadCoord(src, pos, gr, false, 1);
        const V inf = bcast(kLaneInfinity);
        const unsigned ids = _mm512_test_epi64_mask(ax.l[kLanes - 1], inf) |
                             _mm512_test_epi64_mask(bx.l[kLanes - 1], inf);
        const auto sp =
            static_cast<__mmask8>((ids | equalLanes(ax, bx)) & gr.valid);
        Fe d = subLazy(bx, ax);
        const auto skip = static_cast<__mmask8>(~gr.valid | sp);
        for (std::size_t j = 0; j < kLanes; ++j)
            d.l[j] = _mm512_mask_blend_epi64(skip, d.l[j], bcast(kOne[j]));
        acc = mulFe(acc, d);
        storeFqX8(s.chain[g], acc);
        storeFqX8(s.chainDen[g], d);
        s.chainSpecial[g] = sp;
        generic += std::size_t(std::popcount(unsigned(gr.valid & ~sp)));
        // zkphire-lint: ct-exempt(identity/cancellation classification is what batched-affine MSM buckets require; scalar-shaped timing is inherent to Pippenger)
        for (unsigned m = sp; m != 0; m &= m - 1) {
            const std::uint32_t q =
                std::uint32_t(gr.q0 + unsigned(std::countr_zero(m)));
            Special e{q, 0, std::uint32_t(s.numer.size()),
                      src.affine(pos[q]), src.affine(pos[q] + 1)};
            e.kind = detail::classifyPair(e.a, e.b, s);
            special.push_back(e);
        }
    }

    // One true inversion for the eight chain totals and the scalar slopes.
    const std::size_t slopes = generic + s.denom.size();
    if (slopes != 0) {
        std::vector<Fq> inv(kLanes);
        if (groups != 0)
            fromLanes(s.chain[groups - 1], std::span<Fq, kLanes>(inv));
        inv.insert(inv.end(), s.denom.begin(), s.denom.end());
        ff::batchInverseSerialInPlace(std::span<Fq>(inv), s.prefix);
        for (std::size_t k = 0; k < s.denom.size(); ++k)
            s.numer[k] *= inv[kLanes + k];
        if (stats) {
            stats->affineAdds += slopes;
            ++stats->batchInversions;
        }
        // Backward: chain[g] becomes the inverses of group g's
        // denominators (chain[g - 1] times the running inverse).
        Fe run = loadFqX8(
            toLanes(std::span<const Fq, kLanes>(inv.data(), kLanes)));
        for (std::size_t g = groups; g-- > 0;) {
            const Fe ig = g ? mulFe(run, loadFqX8(s.chain[g - 1])) : run;
            run = mulFe(run, loadFqX8(s.chainDen[g]));
            storeFqX8(s.chain[g], ig);
        }
    }

    for (std::size_t g = 0; g < groups; ++g) {
        const Group gr = group(g, pairs);
        prefetchGroup(src, pos, g + kPrefetchAhead, pairs);
        const Fe ax = loadCoord(src, pos, gr, false, 0);
        const Fe bx = loadCoord(src, pos, gr, false, 1);
        const Fe ay = negateLanes(loadCoord(src, pos, gr, true, 0),
                                  negLanes(src, pos, gr, 0));
        const Fe by = negateLanes(loadCoord(src, pos, gr, true, 1),
                                  negLanes(src, pos, gr, 1));
        const Fe lam = mulFe(subLazy(by, ay), loadFqX8(s.chain[g]));
        const Fe x3 =
            subMod(subMod(reduceFe(mulFe(lam, lam)), ax), bx);
        const Fe y3 = subMod(reduceFe(mulFe(lam, subLazy(ax, x3))), ay);

        alignas(64) u64 rx[kLanes][kLanes], ry[kLanes][kLanes];
        u64 *px[kLanes], *py[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
            px[l] = rx[l];
            py[l] = ry[l];
        }
        storeRows(x3, px);
        storeRows(y3, py);
        const unsigned write = gr.valid & ~unsigned(s.chainSpecial[g]);
        for (unsigned m = write; m != 0; m &= m - 1) {
            const unsigned l = unsigned(std::countr_zero(m));
            LaneAffine &out = dst[s.pairDst[gr.q0 + l]];
            _mm512_store_si512(out.x, _mm512_load_si512(rx[l]));
            _mm512_store_si512(out.y, _mm512_load_si512(ry[l]));
        }
    }
    for (const Special &e : special) {
        std::size_t di = e.slope;
        dst[s.pairDst[e.pair]] =
            toLaneAffine(detail::applyPair(e.kind, e.a, e.b, s, di));
    }
}

ZKPHIRE_IFMA_TARGET FqX8
toLanesImpl(std::span<const Fq, kLanes> in)
{
    alignas(64) u64 rows[kLanes][kLanes];
    const u64 *pr[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
        split52(in[l].raw().limb.data(), rows[l]);
        pr[l] = rows[l];
    }
    FqX8 out;
    storeFqX8(out, enterRows(pr));
    return out;
}

ZKPHIRE_IFMA_TARGET void
fromLanesImpl(const FqX8 &in, std::span<Fq, kLanes> out)
{
    alignas(64) u64 rows[kLanes][kLanes];
    u64 *pr[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l)
        pr[l] = rows[l];
    leaveRows(loadFqX8(in), pr);
    for (std::size_t l = 0; l < kLanes; ++l) {
        Fq::Big b;
        join64(rows[l], b.limb.data());
        out[l] = Fq::fromRaw(b);
    }
}

ZKPHIRE_IFMA_TARGET void
mulImpl(FqX8 &out, const FqX8 &a, const FqX8 &b)
{
    storeFqX8(out, mulFe(loadFqX8(a), loadFqX8(b)));
}

ZKPHIRE_IFMA_TARGET void
subImpl(FqX8 &out, const FqX8 &a, const FqX8 &b)
{
    storeFqX8(out, subMod(loadFqX8(a), loadFqX8(b)));
}

void
convertWalkImpl(std::span<const G1Affine> points,
                std::span<const std::uint32_t> idx, std::size_t phi_at,
                std::span<LaneAffine> out)
{
    const G1Affine *in[kLanes];
    LaneAffine *po[kLanes], *pp[kLanes];
    for (std::size_t b = 0; b < idx.size(); b += kLanes) {
        const std::size_t cnt = std::min(kLanes, idx.size() - b);
        for (std::size_t l = 0; l < kLanes; ++l) {
            const std::uint32_t i = idx[b + (l < cnt ? l : 0)];
            in[l] = &points[i];
            po[l] = &out[i];
            pp[l] = phi_at ? &out[phi_at + i] : nullptr;
        }
        convertBlock(in, cnt, po, phi_at ? pp : nullptr);
    }
}

/**
 * The lane reduction. Rounds alternate between the two lane buffers, both
 * laid out by scratch.off.
 */
void
segmentSumsImpl(PointTable table, std::span<const std::uint32_t> enc,
                std::span<const std::uint32_t> off, std::span<G1Affine> out,
                BatchAffineScratch &s, BatchAffineStats *stats)
{
    const std::size_t num_segs = out.size();
    assert(off.size() == num_segs + 1);
    const std::size_t need = detail::prepareSegments(off, s);
    PairSource src{table.lanes.data(), enc.data()};
    if (table.lanes.empty()) {
        // Affine input: convert the referenced points once, in entry order
        // and with the negations applied, and read them directly.
        const std::size_t entries = off[num_segs];
        s.entries.reserve(entries);
        const G1Affine *in[kLanes];
        G1Affine tmp[kLanes];
        LaneAffine *po[kLanes];
        for (std::size_t b = 0; b < entries; b += kLanes) {
            const std::size_t cnt = std::min(kLanes, entries - b);
            for (std::size_t l = 0; l < kLanes; ++l) {
                const std::size_t e = b + (l < cnt ? l : 0);
                const G1Affine &p = table.affine[enc[e] >> 1];
                // zkphire-lint: ct-exempt(sign-bit decode of public point table entries)
                tmp[l] = (enc[e] & 1) && !p.infinity
                             ? G1Affine{p.x, p.y.neg(), false}
                             : p;
                in[l] = &tmp[l];
                po[l] = &s.entries[e];
            }
            convertBlock(in, cnt, po, nullptr);
        }
        src = PairSource{s.entries.data(), nullptr};
    }
    for (auto &v : s.lanes)
        v.reserve(need);

    s.len.resize(num_segs);
    std::span<const std::uint32_t> src_off = off;
    for (std::size_t seg = 0; seg < num_segs; ++seg)
        s.len[seg] = off[seg + 1] - off[seg];
    std::size_t cur = 0;
    for (bool again = true; again; cur ^= 1) {
        LaneAffine *dst = s.lanes[cur].data();
        s.pairSrc.clear();
        s.pairDst.clear();
        for (std::size_t seg = 0; seg < num_segs; ++seg) {
            const std::uint32_t base = src_off[seg];
            for (std::uint32_t j = 0; j < s.len[seg] / 2; ++j) {
                s.pairSrc.push_back(base + 2 * j);
                s.pairDst.push_back(s.off[seg] + j);
            }
        }
        laneRound(src, s, dst, stats);
        again = false;
        for (std::size_t seg = 0; seg < num_segs; ++seg) {
            const std::uint32_t L = s.len[seg];
            if (L % 2 == 1)
                dst[s.off[seg] + L / 2] = src.entry(src_off[seg] + L - 1);
            s.len[seg] = (L + 1) / 2;
            again |= s.len[seg] > 1;
        }
        src = PairSource{dst, nullptr};
        src_off = s.off;
    }

    const LaneAffine *res = s.lanes[cur ^ 1].data();
    const LaneAffine identity = toLaneAffine(G1Affine{});
    const LaneAffine *in[kLanes];
    G1Affine *po[kLanes];
    for (std::size_t b = 0; b < num_segs; b += kLanes) {
        const std::size_t cnt = std::min(kLanes, num_segs - b);
        for (std::size_t l = 0; l < kLanes; ++l) {
            const std::size_t seg = b + (l < cnt ? l : 0);
            in[l] = s.len[seg] ? &res[s.off[seg]] : &identity;
            po[l] = &out[seg];
        }
        leaveBlock(in, cnt, po);
    }
}

} // namespace

#else

namespace {

/** The lane entry points below are reached only after cpuSupported(). */
[[noreturn]] void
unsupported()
{
    std::abort();
}

} // namespace

#endif // ZKPHIRE_HAVE_IFMA

FqX8
toLanes(std::span<const Fq, kLanes> in)
{
#if ZKPHIRE_HAVE_IFMA
    return toLanesImpl(in);
#else
    (void)in;
    unsupported();
#endif
}

void
fromLanes(const FqX8 &in, std::span<Fq, kLanes> out)
{
#if ZKPHIRE_HAVE_IFMA
    fromLanesImpl(in, out);
#else
    (void)in, (void)out;
    unsupported();
#endif
}

void
mul(FqX8 &out, const FqX8 &a, const FqX8 &b)
{
#if ZKPHIRE_HAVE_IFMA
    mulImpl(out, a, b);
#else
    (void)out, (void)a, (void)b;
    unsupported();
#endif
}

void
sub(FqX8 &out, const FqX8 &a, const FqX8 &b)
{
#if ZKPHIRE_HAVE_IFMA
    subImpl(out, a, b);
#else
    (void)out, (void)a, (void)b;
    unsupported();
#endif
}

void
convertWalk(std::span<const G1Affine> points,
            std::span<const std::uint32_t> idx, std::size_t phi_at,
            std::span<LaneAffine> out)
{
#if ZKPHIRE_HAVE_IFMA
    convertWalkImpl(points, idx, phi_at, out);
#else
    (void)points, (void)idx, (void)phi_at, (void)out;
    unsupported();
#endif
}

} // namespace zkphire::ec::ifma

namespace zkphire::ec::detail {

void
segmentSumsLanes(PointTable points, std::span<const std::uint32_t> enc,
                 std::span<const std::uint32_t> off, std::span<G1Affine> out,
                 BatchAffineScratch &scratch, BatchAffineStats *stats)
{
#if ZKPHIRE_HAVE_IFMA
    ifma::segmentSumsImpl(points, enc, off, out, scratch, stats);
#else
    (void)points, (void)enc, (void)off, (void)out, (void)scratch, (void)stats;
    ifma::unsupported();
#endif
}

} // namespace zkphire::ec::detail
