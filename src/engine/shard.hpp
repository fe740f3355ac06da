/**
 * @file
 * ShardGroup: one proof's temporary claim on idle service lanes.
 *
 * When the scheduler dispatches a phase and other lanes have nothing
 * runnable, it reserves them as *helpers* for that phase: each reserved
 * lane thread parks in helperServe(), executing work units the owning
 * proof posts through the rt::UnitRunner interface — per-column commitment
 * MSMs, per-round sumcheck range splits, per-column evaluations. A helper
 * runs every unit under its own lane's thread budget and private pool, so a
 * group of W lanes brings the full aggregate thread budget to one proof
 * without any pool being shared or resized. The job's own settings travel
 * with the batch: run() captures the owner's stream threshold and chunk,
 * cancel token, MSM options and buffer arena, and each helper-run unit
 * re-installs them, so a degraded (forced-streaming) retry or a cancel
 * reaches every lane, and tables a helper allocates come from the job's
 * arena.
 *
 * Lifecycle: the owner constructs the group on its stack, the service
 * reserves helpers (expectHelper() once per reservation, all before the
 * phase starts), the phase runs, then the owner MUST call disband(), which
 * releases the helpers and blocks until every reserved lane has left
 * helperServe() — only then may the group go out of scope. Groups last one
 * phase: the scheduler re-evaluates idleness at the next phase boundary,
 * so a queue that fills up gets its lanes back quickly.
 *
 * Determinism: the group only moves *where* a unit executes. Units write
 * to index-addressed slots and callers merge in index order (the
 * UnitRunner contract), so proofs are bit-identical at any group width.
 */
#ifndef ZKPHIRE_ENGINE_SHARD_HPP
#define ZKPHIRE_ENGINE_SHARD_HPP

#include <condition_variable>
#include <exception>
#include <mutex>

#include "ec/msm.hpp"
#include "poly/mle_store.hpp"
#include "rt/cancel.hpp"
#include "rt/config.hpp"
#include "rt/unit_runner.hpp"

namespace zkphire::engine {

class ShardGroup final : public rt::UnitRunner
{
  public:
    ShardGroup() = default;
    ~ShardGroup() override = default;
    ShardGroup(const ShardGroup &) = delete;
    ShardGroup &operator=(const ShardGroup &) = delete;

    /** Declare one reserved helper lane. Must only be called before the
     *  owning phase starts (the service does it under its queue lock while
     *  reserving); width() is unsynchronized against it. */
    void expectHelper() { ++expected; }

    /** Owner + helpers. */
    unsigned width() const override { return 1 + expected; }

    /**
     * Execute the batch: helpers and the owner claim units from a shared
     * cursor; blocks until every unit completed, then rethrows the first
     * unit exception (by completion order — errors abort the proof, so the
     * choice never reaches a transcript). Called re-entrantly (from inside
     * a unit) or with no helpers, it degrades to an inline serial loop.
     */
    void run(std::span<const std::function<void()>> units) override;

    /**
     * Helper-lane entry point: serve unit batches until disband() or
     * recall(), running each unit under cfg (the helper lane's thread
     * budget and private pool) plus the settings run() captured from the
     * owner. Returns when the group is disbanded or the helper is recalled.
     */
    void helperServe(const rt::Config &cfg);

    /**
     * Pull the helpers back: each departs at its next unit boundary (an
     * in-progress unit completes first) and the owner absorbs whatever is
     * left of the batch. The service calls this when new work enters the
     * queue — idle lanes are only borrowed while they are actually idle.
     * Determinism is unaffected: the unit split was fixed at reservation
     * width, and units are merged by index no matter where they ran.
     */
    void recall();

    /**
     * Owner only: release the helpers and wait until every expected helper
     * has left helperServe(). Must be called before the group is destroyed
     * (idempotent; safe with zero helpers).
     */
    void disband();

  private:
    /** Run one unit; never throws (errors land in firstError). */
    void execUnit(const std::function<void()> &unit, const rt::Config *cfg);
    /** Claim-and-run loop shared by owner and helpers; helpers stop
     *  claiming once recalled (the owner never does). */
    void drainBatch(std::unique_lock<std::mutex> &lk, const rt::Config *cfg,
                    bool isHelper);

    std::mutex mu;
    std::condition_variable cv;
    const std::function<void()> *batch = nullptr; ///< Current unit array.
    /** The owner's job settings, captured by run() before the batch is
     *  published and fixed until it drains. */
    rt::Config jobStream; ///< Only the stream fields are set.
    rt::CancelToken jobCancel;
    ec::MsmOptions jobMsm;
    poly::BufferArena *jobArena = nullptr; ///< Mutex-guarded; shareable.
    std::size_t batchSize = 0;
    std::size_t nextUnit = 0;
    std::size_t doneUnits = 0;
    std::exception_ptr firstError;
    bool running = false;  ///< Owner is inside run() (re-entrancy guard).
    bool released = false; ///< disband() called; helpers drain out.
    bool recalled = false; ///< recall() called; helpers stop claiming.
    unsigned expected = 0; ///< Helpers reserved by the service.
    unsigned departed = 0; ///< Helpers that left helperServe().
};

} // namespace zkphire::engine

#endif // ZKPHIRE_ENGINE_SHARD_HPP
