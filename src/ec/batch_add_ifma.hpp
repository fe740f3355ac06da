/**
 * @file
 * Eight-lane AVX-512 IFMA field arithmetic for the batched-affine bucket
 * reduction (src/ec/batch_add.hpp).
 *
 * One vector holds limb i of eight independent Fq values, so a Montgomery
 * multiply runs eight products side by side on vpmadd52luq/vpmadd52huq,
 * the way the paper's MSM unit (and SZKP's bucket PEs) run many modular
 * multiplies over independent bucket additions.
 *
 * The lane domain: a value a is the canonical integer a * 2^416 mod p held
 * as 8 limbs of 52 bits (R' = 2^416, 416 = 8 * 52). The lane Montgomery
 * multiply returns x * y * 2^-416 mod p, so
 *  - a standard Montgomery-form Fq (a * 2^384) enters with one lane multiply
 *    by 2^448 mod p, and leaves with one lane multiply by 2^384 mod p;
 *  - products of inputs below 2^384 land below 2p (the 35 bits of headroom
 *    above p make the final subtraction optional), and values that are
 *    compared or stored are brought to canonical form with one conditional
 *    subtraction, so lane-form equality is field equality.
 *
 * Selection is at run time: the instructions are compiled with per-function
 * target attributes (no global -m flags), and the reduction takes the lanes
 * only when cpuid reports AVX512F and AVX512IFMA, the OS saves ZMM state
 * (XCR0), and the ADX/BMI2 asm switch (ff::kernels::asmKernelsEnabled(),
 * ZKPHIRE_ASM=0, ZKPHIRE_NO_ASM) and the generic-oracle switch
 * (ff::kernels::genericKernelsForced()) leave the fast kernels on. The
 * scalar reduction stays as the only path elsewhere and as the reference
 * the tests compare against.
 */
#ifndef ZKPHIRE_EC_BATCH_ADD_IFMA_HPP
#define ZKPHIRE_EC_BATCH_ADD_IFMA_HPP

#include <cstdint>
#include <span>

#include "ec/g1.hpp"

namespace zkphire::ec::ifma {

/** Values per vector; also the limb count of a lane-form value. */
inline constexpr std::size_t kLanes = 8;

/** Eight lane-form Fq values, limb-major: limb[i][l] is limb i of lane l. */
struct alignas(64) FqX8 {
    std::uint64_t limb[kLanes][kLanes];
};

/**
 * An affine point in the lane domain: one 64-byte row per coordinate,
 * both canonical. Bit 63 of x[7] (a canonical top limb is below 2^17)
 * marks the identity.
 */
struct alignas(64) LaneAffine {
    std::uint64_t x[kLanes];
    std::uint64_t y[kLanes];
};

/**
 * Page-mapped storage for the lane path's megabyte-sized buffers (an MSM's
 * converted walk, the reduction's round buffers and chains). Mapped and
 * unmapped directly instead of taken from malloc: these buffers come and
 * go with every MSM, and through malloc they raise glibc's dynamic mmap
 * threshold and then stay, fragmented, in the worker threads' heaps (a
 * 20 s closed loop of mu-14 proofs grew its peak RSS from ~190 to ~430 MB
 * that way). Pages are touched only where values are written.
 */
class MappedBytes
{
  public:
    MappedBytes() = default;
    ~MappedBytes() { release(); }
    MappedBytes(const MappedBytes &) = delete;
    MappedBytes &operator=(const MappedBytes &) = delete;

    /** At least n bytes; the contents are not kept when it grows. */
    void reserve(std::size_t n);
    /** Unmap. */
    void release();
    void *data() const { return data_; }
    std::size_t bytes() const { return bytes_; }

  private:
    void *data_ = nullptr;
    std::size_t bytes_ = 0;
};

/** A MappedBytes array of trivially constructible T (zero on first use). */
template <class T>
class MappedArray
{
  public:
    void reserve(std::size_t n) { mem_.reserve(n * sizeof(T)); }
    void release() { mem_.release(); }
    std::size_t capacity() const { return mem_.bytes() / sizeof(T); }
    T *data() const { return static_cast<T *>(mem_.data()); }
    T &operator[](std::size_t i) const { return data()[i]; }

  private:
    MappedBytes mem_;
};

/** The identity marker in LaneAffine::x[7]. */
inline constexpr std::uint64_t kLaneInfinity = std::uint64_t(1) << 63;

/** AVX512F + AVX512IFMA in cpuid, with OS-enabled ZMM state in XCR0. */
bool cpuSupported();

/** Whether the bucket reduction takes the lanes: cpuSupported() and the
 *  fast-kernel switches (asm on, generic oracle off). */
bool selected();

// The operations below need cpuSupported(); tests and benches call them
// directly, the reduction through batchAffineSegmentSumsIndexed.

/** Enter the lane domain (canonical). */
FqX8 toLanes(std::span<const ff::Fq, kLanes> in);

/** Leave the lane domain; takes any lane value below 2^384. */
void fromLanes(const FqX8 &in, std::span<ff::Fq, kLanes> out);

/** Lane Montgomery multiply: a * b * 2^-416 mod p, below 2p for inputs
 *  below 2^384. */
void mul(FqX8 &out, const FqX8 &a, const FqX8 &b);

/** Canonical lane subtraction a - b mod p of canonical inputs. */
void sub(FqX8 &out, const FqX8 &a, const FqX8 &b);

/** Lane form of one point, and back (scalar; the special-pair path). */
LaneAffine toLaneAffine(const G1Affine &p);
G1Affine fromLaneAffine(const LaneAffine &p);

/**
 * Convert the points at the given indices of a walk: out[i] is the lane
 * form of points[i] and, when phi_at != 0, out[phi_at + i] that of the GLV
 * image phi(points[i]) (x times beta: one more lane multiply). Entries of
 * out at other indices are left untouched.
 */
void convertWalk(std::span<const G1Affine> points,
                 std::span<const std::uint32_t> idx, std::size_t phi_at,
                 std::span<LaneAffine> out);

} // namespace zkphire::ec::ifma

#endif // ZKPHIRE_EC_BATCH_ADD_IFMA_HPP
