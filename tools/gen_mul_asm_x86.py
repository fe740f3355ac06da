#!/usr/bin/env python3
"""Generate src/ff/mul_asm_x86.hpp: ADX/BMI2 Montgomery mul kernels.

    python3 tools/gen_mul_asm_x86.py            rewrite src/ff/mul_asm_x86.hpp
    python3 tools/gen_mul_asm_x86.py -o PATH    write the header to PATH
    python3 tools/gen_mul_asm_x86.py --check    exit 1, with a diff, when the
                                                committed header differs

The header is generated, never edited by hand; ctest runs --check.
"""
import argparse
import difflib
import os
import sys


SPARE_GPRS = 4


def spare_regs(n):
    """Registers free after the last CIOS iteration, for a copy of t: the
    scratch trio and the ring register the last fold zeroed. For N = 6 the
    top two limbs are copied to xmm0/xmm1 and come back through rax/rcx
    once the low limbs are selected."""
    return ["%%rax", "%%rcx", "%%rdx", f"%%r{8 + n - 1}"]


def gen(n):
    ring = [f"%%r{8+i}" for i in range(n + 1)]
    lo, hi = "%%rax", "%%rcx"
    L = []

    def t(i, j):
        return ring[(i + j) % (n + 1)]

    def A(i):
        return ring[(i + n) % (n + 1)]

    L.append("// t = a * b[0] (plain carry chain; accumulators are fresh)")
    L.append(f"movq 0(%[b]), %%rdx")
    L.append(f"mulxq 0(%[a]), {t(0,0)}, {t(0,1)}")
    for j in range(1, n):
        op = "addq" if j == 1 else "adcq"
        dst_hi = t(0, j + 1) if j + 1 < n else A(0)
        L.append(f"mulxq {8*j}(%[a]), {lo}, {dst_hi}")
        L.append(f"{op} {lo}, {t(0,j)}")
    L.append(f"adcq $0, {A(0)}")

    for i in range(n):
        if i > 0:
            L.append(f"// t += a * b[{i}] (dual carry chains, carry word into "
                     f"{A(i).replace('%%','')})")
            L.append(f"movq {8*i}(%[b]), %%rdx")
            L.append(f"xorl %%eax, %%eax")
            for j in range(n):
                dst_hi = t(i, j + 1) if j + 1 < n else A(i)
                L.append(f"mulxq {8*j}(%[a]), {lo}, {hi}")
                L.append(f"adcxq {lo}, {t(i,j)}")
                L.append(f"adoxq {hi}, {dst_hi}")
            L.append(f"movl $0, %%eax")
            L.append(f"adcxq %%rax, {A(i)}")
        L.append(f"// m = t[0] * inv; fold m*p, shifting the window down a limb")
        L.append(f"movq {t(i,0)}, %%rdx")
        L.append(f"imulq %[inv], %%rdx")
        L.append(f"xorl %%eax, %%eax")
        for j in range(n):
            dst_hi = t(i, j + 1) if j + 1 < n else A(i)
            L.append(f"mulxq %[p{j}], {lo}, {hi}")
            L.append(f"adcxq {lo}, {t(i,j)}")
            L.append(f"adoxq {hi}, {dst_hi}")
        L.append(f"movl $0, %%eax")
        L.append(f"adcxq %%rax, {A(i)}")

    spare = spare_regs(n)
    L.append("// out = t - p if t >= p else t: copy t, subtract p on the sbb")
    L.append("// chain, and take the copy back where the chain borrowed")
    for j in range(n):
        dst = spare[j] if j < SPARE_GPRS else f"%%xmm{j - SPARE_GPRS}"
        L.append(f"movq {t(n,j)}, {dst}")
    for j in range(n):
        op = "subq" if j == 0 else "sbbq"
        L.append(f"{op} %[p{j}], {t(n,j)}")
    for j in range(n):
        if j >= SPARE_GPRS:
            L.append(f"movq %%xmm{j - SPARE_GPRS}, {spare[j - SPARE_GPRS]}")
        L.append(f"cmovcq {spare[j % SPARE_GPRS]}, {t(n,j)}")
    return L


def result_regs(n):
    """The ring registers holding limbs 0..n-1 of the result."""
    return [f"r{8 + (n + j) % (n + 1)}" for j in range(n)]


def body(n, indent):
    out = []
    for l in gen(n):
        if l.startswith("//"):
            out.append(f'{indent}{l.replace("//", "/*")} */')
        else:
            out.append(f'{indent}"{l}\\n\\t"')
    # strip trailing \n\t from last instruction line
    out[-1] = out[-1].replace('\\n\\t"', '"')
    return "\n".join(out)


def declarations(n, indent):
    """Local register variables that carry the result out of the block."""
    return "\n".join(f'{indent}register u64 o{j} asm("{r}");'
                     for j, r in enumerate(result_regs(n)))


def constraints(n, indent):
    ps = ",\n".join(
        f'{indent}  [p{j}] "m"(s_p[{j}])' for j in range(n))
    outs = ", ".join(f'"=r"(o{j})' for j in range(n))
    res = set(result_regs(n))
    clob = ", ".join([f'"r{8+i}"' for i in range(n + 1)
                      if f"r{8+i}" not in res] +
                     [f'"xmm{k}"' for k in range(n - SPARE_GPRS)])
    return (f'{indent}: {outs}\n'
            f'{indent}: [a] "S"(a), [b] "D"(b),\n'
            f'{indent}  "m"(*reinterpret_cast<const u64(*)[{n}]>(a)),\n'
            f'{indent}  "m"(*reinterpret_cast<const u64(*)[{n}]>(b)),\n'
            f'{indent}  [inv] "m"(s_inv),\n'
            f'{ps}\n'
            f'{indent}: "rax", "rcx", "rdx", {clob}, "cc");')


def stores(n, indent):
    return "\n".join(f"{indent}out[{j}] = o{j};" for j in range(n))


HEADER = r'''/**
 * @file
 * ADX/BMI2 x86-64 assembly Montgomery multiplication for the fixed limb
 * widths (4 = Fr, 6 = Fq).
 *
 * Generated by tools/gen_mul_asm_x86.py: edit the generator and rerun it,
 * never this file (ctest's test_mul_asm_generated fails on any drift).
 *
 * The portable unrolled kernels in mul_impl.hpp bottom out in GCC's u128
 * codegen, which serializes every mac() on a single implicit carry chain;
 * on the BLS12-381 scalar field that caps the kernel at ~1.1x over the
 * generic oracle. The mulx/adcx/adox sequence here keeps TWO independent
 * carry chains in flight per outer CIOS iteration — adcx propagates the
 * low-product chain through CF while adox accumulates the high products
 * through OF — so the multiplier port and both adder chains stay busy
 * every cycle instead of stalling on one flag.
 *
 * Structure (mirrors kernels::montMulNoCarry exactly — same no-carry CIOS
 * with the modulus-headroom precondition, so both produce canonical
 * results bit-identical to the generic oracle):
 *  - The accumulator lives in a ring of N+1 hard registers holding
 *    [t0..t{N-1}, A]. The reduction step's shift-down-a-limb is a register
 *    RENAMING, not a move: after folding m*p, the window rotates by one
 *    and the old t0 register — which the fold left at exactly zero, since
 *    t0 + lo(m*p0) == 0 mod 2^64 by choice of m — becomes the next
 *    iteration's fresh carry word.
 *  - Modulus limbs and -p^{-1} are rip-relative memory operands of
 *    constexpr statics: no registers consumed, no relocation-hostile
 *    64-bit immediates in mul position (mulx takes reg/mem only).
 *  - The asm declares precise in/out memory operands instead of a blanket
 *    "memory" clobber, so surrounding hot loops (vec_ops blocks, bucket
 *    adds) keep their pointers in registers across it.
 *  - The final conditional subtraction is in the asm too: t is copied to
 *    spare registers (the scratch trio and the ring register the last
 *    fold zeroed; for N = 6 the top two limbs go to xmm0/xmm1 and come
 *    back through rax/rcx once those are free), p is subtracted on one
 *    sub/sbb chain, and cmovc takes the copy back when the chain
 *    borrowed.
 *  - The result leaves the block in registers: local register variables
 *    bound to the ring are its outputs, so the compiler stores each limb
 *    where it is needed, with no stack buffer in between. a and b are
 *    only read, so out may alias them. The outputs are written before
 *    the inputs are dead, which would call for early-clobber outputs, but
 *    GCC 12's register allocator crashes on early-clobber outputs bound
 *    to hard registers (an ICE in emit_move_insn, seen in ec/g1.cpp). So
 *    a and b are pinned to rsi and rdi ("S", "D"), out of the ring, and
 *    the only memory operands the text names are the rip-relative
 *    modulus and inverse statics, which need no register.
 *  - The kernel is force-inlined (ZKPHIRE_FF_INLINE), so a multiply is
 *    this block at its call site, with no call. PrimeField keeps the
 *    portable kernels in an outlined cold branch so that the inlined fast
 *    path is only this block.
 *
 * Squaring dispatches to this multiplier with both operands equal: a
 * dedicated asm squaring needs 2N accumulator limbs live (12 for Fq),
 * which does not fit the register file without spills, and the measured
 * dual-chain mul(a, a) already beats the portable dedicated square (see
 * EXPERIMENTS.md PR 7). fromBig / deserialization stays on the generic
 * path for the same reason as in mul_impl.hpp: the no-carry precondition
 * assumes canonical inputs.
 *
 * Selection is runtime, not compile-time: the instructions are emitted
 * unconditionally (inline asm bypasses -march gates), and dispatch checks
 * cpuid once at startup — BMI2 (mulx) and ADX (adcx/adox) CPUID bits —
 * plus the ZKPHIRE_ASM env toggle ("0" forces the portable kernels, for
 * A/B runs and the CI forced-fallback leg). tests/test_ff_kernels.cpp
 * locks asm == unrolled == generic on random and edge operands.
 */
#ifndef ZKPHIRE_FF_MUL_ASM_X86_HPP
#define ZKPHIRE_FF_MUL_ASM_X86_HPP

// NOLINTBEGIN
// clang-tidy is suppressed for this whole header: the inline-asm blocks
// trip bugprone-* and readability heuristics that have no meaning inside
// a hand-scheduled register ring, and "fixes" here risk miscompiles.
// Correctness is locked externally by tests/test_ff_kernels.cpp (asm ==
// unrolled == generic on random and edge operands).

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "ff/mul_impl.hpp"

// __OPTIMIZE__ guard: at -O0 the frame pointer is pinned and every
// operand lives in memory, leaving too few registers to satisfy the
// kernels' constraints ("asm operand has impossible constraints" on the
// Debug/sanitizer legs) — unoptimized builds take the C++ kernels.
#if defined(__x86_64__) && !defined(ZKPHIRE_NO_ASM) && defined(__OPTIMIZE__)
#define ZKPHIRE_HAVE_X86_ASM 1
#include <cpuid.h>
#else
#define ZKPHIRE_HAVE_X86_ASM 0
#endif

namespace zkphire::ff::kernels {

/**
 * True when the host CPU exposes BMI2 (mulx) and ADX (adcx/adox) — CPUID
 * leaf 7 subleaf 0, EBX bits 8 and 19. Always false on non-x86-64 builds.
 */
inline bool
cpuSupportsAdxBmi2()
{
#if ZKPHIRE_HAVE_X86_ASM
    static const bool ok = [] {
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
            return false;
        constexpr unsigned kBmi2 = 1u << 8;
        constexpr unsigned kAdx = 1u << 19;
        return (b & kBmi2) != 0 && (b & kAdx) != 0;
    }();
    return ok;
#else
    return false;
#endif
}

namespace detail {

/** Runtime asm toggle; see asmKernelsEnabled(). */
inline std::atomic<bool> g_asm_enabled{[] {
    if (!cpuSupportsAdxBmi2())
        return false;
    const char *env = std::getenv("ZKPHIRE_ASM");
    return env == nullptr || env[0] == '\0' || env[0] != '0';
}()};

} // namespace detail

/**
 * Whether mul/square dispatch should take the asm kernels: requires CPU
 * support, ZKPHIRE_ASM not set to 0, and no forceAsmKernels(false)
 * override. Note the generic-oracle switch (forceGenericKernels /
 * ZKPHIRE_FF_GENERIC) is checked FIRST by the dispatch sites and
 * overrides this — the oracle always wins.
 */
inline bool
asmKernelsEnabled()
{
    return detail::g_asm_enabled.load(std::memory_order_relaxed);
}

/** Flip the asm leg at runtime (tests/benches). Enabling on a host
 *  without ADX/BMI2 is ignored — the portable kernels stay selected. */
inline void
forceAsmKernels(bool on)
{
    detail::g_asm_enabled.store(on && cpuSupportsAdxBmi2(),
                                std::memory_order_relaxed);
}

/** RAII asm-kernel scope for A/B tests and benches. */
class ScopedAsmKernels
{
  public:
    explicit ScopedAsmKernels(bool on) : saved(asmKernelsEnabled())
    {
        forceAsmKernels(on);
    }
    ~ScopedAsmKernels() { forceAsmKernels(saved); }
    ScopedAsmKernels(const ScopedAsmKernels &) = delete;
    ScopedAsmKernels &operator=(const ScopedAsmKernels &) = delete;

  private:
    bool saved;
};

#if ZKPHIRE_HAVE_X86_ASM

/**
 * out = a * b * R^{-1} mod P via the dual-carry-chain no-carry CIOS above.
 * Same preconditions as montMulNoCarry (a, b < P, headroom modulus);
 * produces canonical (< P) output. out may alias a or b.
 */
template <class Big, Big P, u64 Inv>
ZKPHIRE_FF_INLINE void
montMulAsmX86(u64 *out, const u64 *a, const u64 *b)
{
    constexpr std::size_t N = Big::numLimbs;
    static_assert(N == 4 || N == 6, "asm kernels cover the 4/6-limb widths");
    static constexpr u64 s_inv = Inv;
    static constexpr auto s_p = P.limb;
    if constexpr (N == 4) {
@DECL4@
        __asm__(
@BODY4@
@CONS4@
@STORE4@
    } else {
@DECL6@
        __asm__(
@BODY6@
@CONS6@
@STORE6@
    }
}

#endif // ZKPHIRE_HAVE_X86_ASM

} // namespace zkphire::ff::kernels

// NOLINTEND

#endif // ZKPHIRE_FF_MUL_ASM_X86_HPP
'''

HERE = os.path.dirname(os.path.abspath(__file__))
COMMITTED = os.path.normpath(
    os.path.join(HERE, "..", "src", "ff", "mul_asm_x86.hpp"))


def render():
    text = HEADER
    for n in (4, 6):
        text = text.replace(f"@DECL{n}@", declarations(n, " " * 8))
        text = text.replace(f"@BODY{n}@", body(n, " " * 12))
        text = text.replace(f"@CONS{n}@", constraints(n, " " * 12))
        text = text.replace(f"@STORE{n}@", stores(n, " " * 8))
    return text


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-o", "--out", default=COMMITTED,
                    help="where to write the header (default: the "
                         "committed src/ff/mul_asm_x86.hpp)")
    ap.add_argument("--check", action="store_true",
                    help="write nothing; fail if the committed header "
                         "differs from the generator output")
    args = ap.parse_args()
    text = render()
    if args.check:
        with open(COMMITTED) as f:
            have = f.read()
        if have == text:
            print("mul_asm_x86.hpp matches the generator")
            return 0
        sys.stdout.writelines(difflib.unified_diff(
            have.splitlines(True), text.splitlines(True),
            "src/ff/mul_asm_x86.hpp (committed)", "generator output"))
        print("mul_asm_x86.hpp differs from the generator output; "
              "regenerate it with tools/gen_mul_asm_x86.py")
        return 1
    with open(args.out, "w") as f:
        f.write(text)
    print("wrote", text.count("\n"), "lines to", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
