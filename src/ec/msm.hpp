/**
 * @file
 * Multi-scalar multiplication: s = Sum_i k_i * P_i.
 *
 * Pippenger's bucket method (paper §II-B) — the dominant kernel of
 * HyperPlonk's Witness Commitment, Wire Identity, and Polynomial Opening
 * steps. The hot path slices scalars into balanced signed digits once
 * (src/ec/recode.hpp), halving the bucket count per window, and resolves
 * bucket additions with batched-affine arithmetic (src/ec/batch_add.hpp)
 * so the per-point cost drops from a Jacobian mixed add to ~6 field
 * multiplications. msmBatch extends the same core to several scalar
 * columns over one shared point array — the witness-commitment shape —
 * recoding each column once and walking the points once per window for
 * all columns. The op-count statistics feed both the MSM hardware model
 * and the CPU baseline calibration, so the functional kernel and the
 * performance model stay structurally identical.
 *
 * On hosts with AVX-512 IFMA the bucket reduction runs eight pairs at a
 * time in a radix-2^52 lane domain (src/ec/batch_add_ifma.hpp). The point
 * walk is then converted to lane form once per MSM, while recoding — the
 * GLV phi points are one lane multiply by beta there — and every window
 * reads the converted table; converting per window would cost about half
 * of the reduction itself. Bucket sums, MsmStats counts, the window choice
 * and every result are the same bytes on either path.
 */
#ifndef ZKPHIRE_EC_MSM_HPP
#define ZKPHIRE_EC_MSM_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ec/g1.hpp"

namespace zkphire::ec {

/** Operation counts and phase timings gathered while running an MSM. */
struct MsmStats {
    std::uint64_t pointAdds = 0;   ///< Jacobian bucket/aggregation additions.
    std::uint64_t pointDoubles = 0;///< Window-combining doublings.
    std::uint64_t trivialScalars = 0; ///< Scalars in {0, 1} skipped/fast-pathed.
    std::uint64_t denseScalars = 0;   ///< Full-width scalars.
    std::uint64_t affineAdds = 0;     ///< Batched-affine bucket additions.
    std::uint64_t batchInversions = 0;///< Batch-inversion rounds (1 true
                                      ///< field inversion each).
    double recodeMs = 0; ///< Scalar classify + signed-digit recoding.
    double bucketMs = 0; ///< Bucket accumulation + per-window aggregation.
    double foldMs = 0;   ///< Window fold (doublings + adds).

    /** Fold another run's counts and timings into this one. Concurrent
     *  runs each fill their own MsmStats; the owner sums them after. */
    MsmStats &operator+=(const MsmStats &o)
    {
        pointAdds += o.pointAdds;
        pointDoubles += o.pointDoubles;
        trivialScalars += o.trivialScalars;
        denseScalars += o.denseScalars;
        affineAdds += o.affineAdds;
        batchInversions += o.batchInversions;
        recodeMs += o.recodeMs;
        bucketMs += o.bucketMs;
        foldMs += o.foldMs;
        return *this;
    }
};

/**
 * MSM algorithm knobs. The defaults are the fast path; the other settings
 * exist for benchmarks, tests, and DSE-style experiments (engine contexts
 * carry a per-context value, applied via ScopedMsmOptions).
 */
struct MsmOptions {
    /** Bucket window size c; 0 selects automatically. */
    unsigned windowBits = 0;
    /** Balanced signed-digit slicing (2^(c-1) buckets) instead of unsigned
     *  (2^c - 1 buckets). */
    bool signedDigits = true;
    /** Batched-affine bucket accumulation (requires signedDigits). */
    bool batchAffine = true;
    /**
     * GLV endomorphism splitting (requires signedDigits): every scalar is
     * decomposed as k1 + lambda*k2 with ~128-bit halves (src/ec/glv.hpp)
     * and the point set doubled with the free endomorphism phi(P), halving
     * the window passes and fold doublings. Results are equal as group
     * elements either way (identical bytes after affine normalization);
     * ignored when the GLV parameter self-checks fail or when
     * msmGlvProfitable says plain slicing is cheaper at this size.
     */
    bool glv = true;
    /**
     * Dense-point floor below which batchAffine falls back to Jacobian
     * buckets: each reduction round pays one true field inversion per
     * window, which only amortizes over enough points. 0 forces
     * batched-affine at any size (tests).
     */
    std::size_t batchAffineMinPoints = 512;
};

namespace detail {
inline thread_local MsmOptions t_msmOptions{};
struct MsmWork;
} // namespace detail

/** Options used when a call site does not pass explicit MsmOptions. */
inline const MsmOptions &
currentMsmOptions()
{
    return detail::t_msmOptions;
}

/**
 * RAII override of currentMsmOptions() on this thread, mirroring
 * rt::ScopedConfig: prover entry points apply their context's options so
 * every MSM under them (pcs commits, quotient openings) picks them up
 * without threading a parameter through the PCS layer. Results are
 * bit-identical under every option value; only speed moves.
 */
class ScopedMsmOptions
{
  public:
    explicit ScopedMsmOptions(const MsmOptions &opts)
        : saved(detail::t_msmOptions)
    {
        detail::t_msmOptions = opts;
    }
    ~ScopedMsmOptions() { detail::t_msmOptions = saved; }
    ScopedMsmOptions(const ScopedMsmOptions &) = delete;
    ScopedMsmOptions &operator=(const ScopedMsmOptions &) = delete;

  private:
    MsmOptions saved;
};

/** Reference MSM: per-point double-and-add; O(n * 255) ops. Tests only. */
G1Jacobian msmNaive(std::span<const Fr> scalars,
                    std::span<const G1Affine> points);

/**
 * Pippenger MSM. Bucket accumulation runs window-parallel on the ambient
 * rt pool (each window's bucket set is independent, mirroring the paper's
 * parallel MSM PEs); the window fold replays the serial order, so the
 * result is bit-identical at every thread count.
 *
 * @param opts  Algorithm knobs; a windowBits of 0 selects automatically.
 * @param stats Optional op-count/phase-timing output (accumulated).
 */
G1Jacobian msmPippenger(std::span<const Fr> scalars,
                        std::span<const G1Affine> points,
                        const MsmOptions &opts = currentMsmOptions(),
                        MsmStats *stats = nullptr);

/**
 * Multi-MSM over one shared point array: out[j] = Sum_i cols[j][i] * P_i.
 *
 * Every column is recoded once, and each window walks the point array once
 * for all k columns, scattering each point into k bucket sets; the
 * batched-affine reduction then amortizes its inversions over all k * B
 * buckets of the window. This is the k-witness-column commitment shape:
 * k MSMs for the price of ~one point walk. Each out[j] equals the
 * independent msmPippenger result for that column exactly.
 *
 * Columns must all have points.size() entries.
 */
std::vector<G1Jacobian> msmBatch(std::span<const std::span<const Fr>> cols,
                                 std::span<const G1Affine> points,
                                 const MsmOptions &opts = currentMsmOptions(),
                                 MsmStats *stats = nullptr);

/** One independent MSM of an msmMany schedule. */
struct MsmJob {
    std::span<const Fr> scalars;
    std::span<const G1Affine> points; ///< Same length as scalars.
};

/**
 * Several independent MSMs, each over its own point array, in ONE parallel
 * schedule — the shape of mKZG opening chains, whose per-level quotients
 * shrink from 2^(mu-1) points down to one. A small job is one task that
 * runs whole on one worker, serially, sharing each batch inversion across
 * all its windows. A large job is recoded up front and split by window into
 * tasks of consecutive windows, each within the same scatter-size cap.
 * Tasks are handed out largest job first. out[j] equals msmPippenger on
 * job j exactly; stats gets the summed op counts, the recode and fold time
 * of the split jobs, and the schedule's wall time as bucketMs.
 */
std::vector<G1Jacobian> msmMany(std::span<const MsmJob> jobs,
                                const MsmOptions &opts = currentMsmOptions(),
                                MsmStats *stats = nullptr);

/**
 * Fq-multiplication prices of the MSM pipeline's point operations with
 * the fixed-limb kernels (dedicated squaring at S ~ 0.8 M). ONE source of
 * truth shared by the kernel's window argmin (pippengerAutoWindowSigned)
 * and the CPU baseline model (sim::CpuModel::msmFieldMuls) — retune here
 * and both move together.
 */
namespace msm_cost {
/** Batched-affine pair addition: 2M + 1S, plus the 3 M of the amortized
 *  Montgomery inversion trick. */
inline constexpr double kBatchAffineAdd = 5.8;
/** Jacobian mixed addition: 7M + 4S. */
inline constexpr double kMixedAdd = 10.2;
/** Full Jacobian addition: 11M + 5S. */
inline constexpr double kFullAdd = 15.0;
/** Suffix-sum aggregation per bucket: one mixed + one full add. */
inline constexpr double kAggPerBucket = kMixedAdd + kFullAdd;
/** Jacobian doubling: 2M + 5S + shifts. */
inline constexpr double kDouble = 8.0;
} // namespace msm_cost

/** Automatic window size for unsigned slicing (~log2(n) - 3, in [1, 16]). */
unsigned pippengerAutoWindow(std::size_t n);

/**
 * Automatic window size for signed-digit slicing: argmin of the add-count
 * model with 2^(c-1) buckets, priced for batched-affine or Jacobian
 * bucket adds per the flag (Jacobian adds are dearer, so the optimum sits
 * ~1 bit narrower). The halved bucket count supports a wider window than
 * the unsigned choice at the same n.
 */
unsigned pippengerAutoWindowSigned(std::size_t n, bool batch_affine = true);

/**
 * The window argmin underlying pippengerAutoWindowSigned, parameterized on
 * the recoded scalar width: the GLV path optimizes over (2n points,
 * glv::kHalfBits-bit halves) instead of (n, Fr::modulusBits()). Shared with
 * sim::CpuModel::msmFieldMuls so kernel and cost model pick identical c.
 */
unsigned pippengerAutoWindowSignedBits(std::size_t n, std::size_t scalar_bits,
                                       bool batch_affine = true);

/**
 * Whether the GLV split is predicted to beat plain 255-bit slicing for an
 * n-point signed-digit MSM under the msm_cost op model (it loses once the
 * c <= 16 window cap stops the half-width argmin from widening, around
 * 2^20 points). The kernel consults this before enabling the split and
 * sim::CpuModel::msmFieldMuls mirrors it, so model and kernel always pick
 * the same structure.
 */
bool msmGlvProfitable(std::size_t n, bool batch_affine = true);

/**
 * Chunk-streaming multi-column Pippenger accumulator: the commit path for
 * tables too big to materialize. Construction fixes the window structure
 * from the TOTAL point count (so per-point work matches the one-shot
 * kernel); each add() recodes one chunk of scalars into a chunk-sized
 * digit slab, accumulates its buckets (batched-affine where profitable),
 * and suffix-sums them into persistent per-(window, column) partial sums —
 * bucket weights are linear, so per-chunk aggregation sums to exactly the
 * whole-run aggregate. Peak memory is O(chunk * num_windows) for the digit
 * slab plus O(num_windows * columns) persistent sums, independent of the
 * total size. finalize() folds the windows and returns results equal to
 * msmBatch over the concatenated chunks as group elements (identical bytes
 * after affine normalization — the transcript only ever sees normalized
 * points).
 */
class MsmAccumulator
{
  public:
    /**
     * @param total_points Total MSM size (all chunks); fixes window bits.
     * @param num_cols     Columns fed to every add() call.
     * @param chunk_hint   Expected chunk size; biases the window argmin
     *                     with the per-chunk aggregation cost (0 = one
     *                     chunk, i.e. the one-shot choice).
     */
    MsmAccumulator(std::size_t total_points, std::size_t num_cols,
                   const MsmOptions &opts = currentMsmOptions(),
                   MsmStats *stats = nullptr, std::size_t chunk_hint = 0);

    /** Feed the next chunk: cols[j] are column j's scalars for it, points
     *  the matching basis slice. Chunks arrive in index order. */
    void add(std::span<const std::span<const Fr>> cols,
             std::span<const G1Affine> points);
    /** Single-column convenience. */
    void add(std::span<const Fr> scalars, std::span<const G1Affine> points);

    /** Fold windows + trivial accumulators; call once, after all chunks. */
    std::vector<G1Jacobian> finalize();

    ~MsmAccumulator();

    unsigned windowBits() const { return c_; }
    std::size_t pointsSeen() const { return seen_; }

  private:
    MsmStats *stats_;
    std::size_t totalN_;
    std::size_t k_;
    std::size_t seen_ = 0;
    unsigned c_ = 0;
    /** Window structure, per-column trivial sums and the chunk scratch
     *  (digit slab, walk list, window sums), reused across add() calls. */
    std::unique_ptr<detail::MsmWork> work_;
    std::vector<G1Jacobian> windowSums_; ///< num_windows * k partial sums.
};

} // namespace zkphire::ec

#endif // ZKPHIRE_EC_MSM_HPP
