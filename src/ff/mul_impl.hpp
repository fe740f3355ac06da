/**
 * @file
 * Fixed-limb Montgomery kernels: fully unrolled no-carry CIOS mul, dedicated
 * squaring, and branchless add/sub/double/negate for 4-limb (Fr) and 6-limb
 * (Fq) operands.
 *
 * Every layer of the prover — MSM bucket adds, MLE folds, GatePlan round
 * evaluation, batch inversion — bottoms out in Montgomery multiplication, so
 * this file is the hottest code in the repository. The generic CIOS loop in
 * field.hpp spends a large fraction of its time on loop control, on the
 * carry-propagation column t[N]/t[N+1], and on loading runtime modulus
 * limbs; all three disappear here:
 *
 *  - **No-carry CIOS** (the "most moduli" optimization): when the modulus'
 *    top limb is < 2^63 - 1, the interleaved CIOS accumulator provably fits
 *    in N limbs — the (N+1)th column and its carry bookkeeping vanish, and
 *    the two per-iteration carries merge with a plain 64-bit add. Both
 *    BLS12-381 fields qualify (Fr top limb 0x73ed…, Fq top limb 0x1a01…);
 *    the precondition is a constexpr check (PrimeField::kFixedKernels) and
 *    the generic kernel covers any modulus that fails it.
 *  - **Compile-time modulus**: kernels take the modulus and -p^{-1} mod 2^64
 *    as non-type template parameters, so every p-limb is an instruction
 *    immediate instead of a load — measurably faster than passing a pointer
 *    to even a constexpr table.
 *  - **Full unrolling**: kernels are unrolled with fold expressions
 *    (`unroll<N>`), so every limb index is a constant, the t[] accumulator
 *    lives in registers, and there is no loop overhead.
 *  - **Dedicated squaring**: off-diagonal products are computed once and
 *    doubled by shifting, saving ~17-19% of the limb multiplications of a
 *    general product (N=6: 63 muls vs 78 counting the per-iteration m
 *    muls on both sides; N=4: 30 vs 36).
 *  - **Branchless reduction**: add/sub/double/negate/mul select the reduced
 *    value with a borrow-derived mask instead of a compare-and-branch, so
 *    the hot loops carry no data-dependent branches.
 *  - **Flag chains**: every one-bit carry or borrow goes through addc/subb,
 *    which on x86-64 are the _addcarry_u64/_subborrow_u64 intrinsics and
 *    compile to one add/adc or sub/sbb per limb with the carry in CF.
 *    Other targets keep the u128 expression. GCC 12 does not turn that
 *    expression into a flag chain on x86-64: it spills every carry to the
 *    stack limb by limb (a 6-limb subtraction was ~1.8 KB of code and cost
 *    ~23 ns). mac and adc keep the u128 form: their carry is a whole word.
 *  - **Always inlined**: every helper and kernel is force-inlined, so a
 *    field add in a hot loop is its two flag chains and a masked select,
 *    with no call and no trip through memory.
 *
 * All kernels produce canonical (< p) results, bit-identical to the generic
 * path — tests/test_ff_kernels.cpp locks this on random and edge operands,
 * and the generic path stays selectable as an oracle at runtime
 * (forceGenericKernels / ZKPHIRE_FF_GENERIC=1).
 */
#ifndef ZKPHIRE_FF_MUL_IMPL_HPP
#define ZKPHIRE_FF_MUL_IMPL_HPP

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#include <x86intrin.h>
#define ZKPHIRE_FF_CARRY_INTRINSICS 1
#else
#define ZKPHIRE_FF_CARRY_INTRINSICS 0
#endif

// Force-inlined even at -O0, where GCC and Clang honour always_inline too.
// ZKPHIRE_FF_COLD marks the outlined fallbacks behind an inlined fast path.
#if defined(__GNUC__)
#define ZKPHIRE_FF_INLINE inline __attribute__((always_inline))
#define ZKPHIRE_FF_COLD __attribute__((noinline, cold))
#else
#define ZKPHIRE_FF_INLINE inline
#define ZKPHIRE_FF_COLD
#endif

namespace zkphire::ff::kernels {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

/** Limb counts with an unrolled kernel instantiation below. */
template <std::size_t N>
inline constexpr bool kHasFixedKernel = (N == 4 || N == 6);

/**
 * No-carry precondition: the top modulus limb must leave one bit of
 * headroom and absorb the merged carry add (gnark's "most moduli" bound).
 */
inline constexpr bool
noCarryModulusOk(u64 top_limb)
{
    return top_limb < ((u64(1) << 63) - 1);
}

/** -p^{-1} mod 2^64 by Newton iteration on the low modulus limb. */
inline constexpr u64
negInvMod64(u64 p0)
{
    u64 x = 1;
    for (int i = 0; i < 6; ++i)
        x *= 2 - p0 * x;
    return ~x + 1;
}

namespace detail {

/** Runtime oracle switch; see forceGenericKernels(). */
inline std::atomic<bool> g_force_generic{[] {
    const char *env = std::getenv("ZKPHIRE_FF_GENERIC");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}()};

/** Compile-time-unrolled loop: body(integral_constant<size_t, 0..N-1>). */
template <class F, std::size_t... I>
ZKPHIRE_FF_INLINE void
unrollImpl(F &&body, std::index_sequence<I...>)
{
    (body(std::integral_constant<std::size_t, I>{}), ...);
}

template <std::size_t N, class F>
ZKPHIRE_FF_INLINE void
unroll(F &&body)
{
    unrollImpl(static_cast<F &&>(body), std::make_index_sequence<N>{});
}

/** A one-bit carry or borrow (0 or 1), as the flag-chain helpers pass it. */
using Carry = unsigned char;

/** lo(a + b*c + carry); carry <- hi. Never overflows 128 bits. */
ZKPHIRE_FF_INLINE u64
mac(u64 a, u64 b, u64 c, u64 &carry)
{
    const u128 t = (u128)a + (u128)b * c + carry;
    carry = (u64)(t >> 64);
    return (u64)t;
}

/** lo(a + b + carry) for a carry of a whole word; carry <- hi. The
 *  square's diagonal pass feeds mac's word carry straight in. */
ZKPHIRE_FF_INLINE u64
adc(u64 a, u64 b, u64 &carry)
{
    const u128 t = (u128)a + b + carry;
    carry = (u64)(t >> 64);
    return (u64)t;
}

/** lo(a + b + carry) for a one-bit carry; carry <- carry out. One adc. */
ZKPHIRE_FF_INLINE u64
addc(u64 a, u64 b, Carry &carry)
{
#if ZKPHIRE_FF_CARRY_INTRINSICS
    unsigned long long r = 0;
    carry = _addcarry_u64(carry, a, b, &r);
    return r;
#else
    const u128 t = (u128)a + b + carry;
    carry = Carry(t >> 64);
    return (u64)t;
#endif
}

/** lo(a - b - borrow) for a one-bit borrow; borrow <- 1 on underflow.
 *  One sbb. */
ZKPHIRE_FF_INLINE u64
subb(u64 a, u64 b, Carry &borrow)
{
#if ZKPHIRE_FF_CARRY_INTRINSICS
    unsigned long long r = 0;
    borrow = _subborrow_u64(borrow, a, b, &r);
    return r;
#else
    const u128 t = (u128)a - b - borrow;
    borrow = Carry((t >> 64) & 1);
    return (u64)t;
#endif
}

/**
 * out = t - P if t >= P else t, branchless: the full subtraction is always
 * computed and the result selected with the borrow-derived mask. @pre t < 2P.
 */
template <class Big, Big P>
ZKPHIRE_FF_INLINE void
condSubModulus(u64 *out, const u64 *t)
{
    constexpr std::size_t N = Big::numLimbs;
    u64 u[N];
    Carry borrow = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        u[i] = subb(t[i], P.limb[i], borrow);
    });
    const u64 keep_t = u64(0) - u64(borrow); // all-ones when t < P
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        out[i] = (t[i] & keep_t) | (u[i] & ~keep_t);
    });
}

} // namespace detail

/**
 * Oracle switch: when true, PrimeField routes every operation through the
 * generic loop-over-limbs kernels even where an unrolled kernel exists.
 * Reads ZKPHIRE_FF_GENERIC at startup; tests flip it to cross-check the
 * unrolled kernels and to prove transcript bit-identity kernels on vs off.
 */
inline bool
genericKernelsForced()
{
    return detail::g_force_generic.load(std::memory_order_relaxed);
}

inline void
forceGenericKernels(bool on)
{
    detail::g_force_generic.store(on, std::memory_order_relaxed);
}

/** RAII oracle scope for tests and benches. */
class ScopedGenericKernels
{
  public:
    explicit ScopedGenericKernels(bool on) : saved(genericKernelsForced())
    {
        forceGenericKernels(on);
    }
    ~ScopedGenericKernels() { forceGenericKernels(saved); }
    ScopedGenericKernels(const ScopedGenericKernels &) = delete;
    ScopedGenericKernels &operator=(const ScopedGenericKernels &) = delete;

  private:
    bool saved;
};

/**
 * Unrolled no-carry CIOS Montgomery multiplication:
 * out = a * b * R^{-1} mod P, canonical.
 *
 * @tparam P   The modulus as a compile-time BigInt (limb immediates).
 * @tparam Inv -P^{-1} mod 2^64.
 * @pre a, b < P; P's top limb satisfies noCarryModulusOk(). The accumulator
 *      fits in N limbs: each outer iteration adds a[j]*b[i] and m*P[j]
 *      columns whose merged carries C + A stay below 2^64 because the top
 *      modulus limb leaves a free bit.
 */
template <class Big, Big P, u64 Inv>
ZKPHIRE_FF_INLINE void
montMulNoCarry(u64 *out, const u64 *a, const u64 *b)
{
    using namespace detail;
    constexpr std::size_t N = Big::numLimbs;
    u64 t[N] = {0};
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        // Column a*b[i]: first limb, then the m that zeroes t[0].
        u64 A = 0;
        t[0] = mac(t[0], a[0], b[i], A);
        const u64 m = t[0] * Inv;
        u64 C = 0;
        (void)mac(t[0], m, P.limb[0], C);
        // Interleaved remaining limbs: one pass adds a[j]*b[i] (carry A)
        // and folds m*P[j] (carry C), shifting the accumulator down a limb.
        unroll<N - 1>([&](auto J) {
            constexpr std::size_t j = decltype(J)::value + 1;
            t[j] = mac(t[j], a[j], b[i], A);
            t[j - 1] = mac(t[j], m, P.limb[j], C);
        });
        t[N - 1] = C + A; // no overflow: the no-carry precondition
    });
    detail::condSubModulus<Big, P>(out, t);
}

/**
 * Unrolled Montgomery squaring: out = a * a * R^{-1} mod P, canonical.
 *
 * Off-diagonal limb products are computed once and doubled with a one-bit
 * shift of the double-width accumulator, then the diagonal squares are
 * added and the 2N-limb value is Montgomery-reduced. Limb-mul count for
 * N = 6: 15 off-diagonal + 6 diagonal + 36 m*P + 6 m = 63, vs 78 for the
 * general product (~19% fewer; both counts include the per-iteration
 * m = t*Inv muls); N = 4: 30 vs 36 (~17% fewer). Measured S/M ~ 0.8 for
 * Fq — the ratio ec::msm_cost prices EC formulas with.
 *
 * @pre a < P, same modulus preconditions as montMulNoCarry.
 */
template <class Big, Big P, u64 Inv>
ZKPHIRE_FF_INLINE void
montSquare(u64 *out, const u64 *a)
{
    using namespace detail;
    constexpr std::size_t N = Big::numLimbs;
    u64 r[2 * N] = {0};
    // Off-diagonal products a[i]*a[j], j > i, each computed once.
    unroll<N - 1>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        u64 carry = 0;
        unroll<N - 1 - i>([&](auto J) {
            constexpr std::size_t j = i + 1 + decltype(J)::value;
            r[i + j] = mac(r[i + j], a[i], a[j], carry);
        });
        r[i + N] = carry;
    });
    // Double by shifting the 2N-limb accumulator left one bit (top down,
    // so each limb reads its lower neighbour's old top bit).
    r[2 * N - 1] = r[2 * N - 2] >> 63;
    unroll<2 * N - 3>([&](auto I) {
        constexpr std::size_t i = 2 * N - 2 - decltype(I)::value;
        r[i] = (r[i] << 1) | (r[i - 1] >> 63);
    });
    r[1] <<= 1;
    // Diagonal squares with carry propagation into the odd limbs.
    u64 carry = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        r[2 * i] = mac(r[2 * i], a[i], a[i], carry);
        r[2 * i + 1] = adc(r[2 * i + 1], 0, carry);
    });
    // Montgomery reduction of the 2N-limb product (a^2 < P*R, so the final
    // carry chain is empty for headroom moduli and the result is < 2P).
    Carry carry2 = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        const u64 m = r[i] * Inv;
        u64 c = 0;
        (void)mac(r[i], m, P.limb[0], c);
        unroll<N - 1>([&](auto J) {
            constexpr std::size_t j = decltype(J)::value + 1;
            r[i + j] = mac(r[i + j], m, P.limb[j], c);
        });
        r[i + N] = addc(r[i + N], c, carry2);
    });
    detail::condSubModulus<Big, P>(out, r + N);
}

/**
 * out = a + b mod P, branchless. @pre a, b < P. The raw sum cannot carry
 * out of N limbs (2P < 2^(64N) for headroom moduli), so the reduction is a
 * single masked subtraction. out may alias a or b.
 */
template <class Big, Big P>
ZKPHIRE_FF_INLINE void
addMod(u64 *out, const u64 *a, const u64 *b)
{
    using namespace detail;
    constexpr std::size_t N = Big::numLimbs;
    u64 t[N];
    Carry carry = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        t[i] = addc(a[i], b[i], carry);
    });
    condSubModulus<Big, P>(out, t);
}

/** out = 2a mod P, branchless: a + a on the add chain, then reduce.
 *  @pre a < P. */
template <class Big, Big P>
ZKPHIRE_FF_INLINE void
dblMod(u64 *out, const u64 *a)
{
    addMod<Big, P>(out, a, a);
}

/**
 * out = a - b mod P, branchless: the borrow masks a compensating +P pass
 * that is always executed. out may alias a or b.
 */
template <class Big, Big P>
ZKPHIRE_FF_INLINE void
subMod(u64 *out, const u64 *a, const u64 *b)
{
    using namespace detail;
    constexpr std::size_t N = Big::numLimbs;
    u64 t[N];
    Carry borrow = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        t[i] = subb(a[i], b[i], borrow);
    });
    const u64 add_p = u64(0) - u64(borrow); // all-ones when a < b
    Carry carry = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        out[i] = addc(t[i], P.limb[i] & add_p, carry);
    });
}

/** out = -a mod P, branchless (P - a masked to zero when a == 0). */
template <class Big, Big P>
ZKPHIRE_FF_INLINE void
negMod(u64 *out, const u64 *a)
{
    using namespace detail;
    constexpr std::size_t N = Big::numLimbs;
    u64 any = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        any |= a[i];
    });
    const u64 nonzero = u64(0) - u64(any != 0);
    Carry borrow = 0;
    unroll<N>([&](auto I) {
        constexpr std::size_t i = decltype(I)::value;
        out[i] = subb(P.limb[i], a[i], borrow) & nonzero;
    });
}

} // namespace zkphire::ff::kernels

#endif // ZKPHIRE_FF_MUL_IMPL_HPP
