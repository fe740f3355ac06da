#include "engine/shard.hpp"

#include "rt/parallel.hpp"

namespace zkphire::engine {

void
ShardGroup::execUnit(const std::function<void()> &unit, const rt::Config *cfg)
{
    try {
        // A unit must not re-shard through the group that is executing it
        // (the owner would deadlock waiting for itself), so the ambient
        // runner is cleared for the unit's extent. Helpers additionally pin
        // their own lane config and re-install the job settings run()
        // captured; the owner already runs under the job's.
        rt::ScopedUnitRunner noNesting(nullptr);
        if (cfg != nullptr) {
            rt::ScopedConfig laneScope(*cfg);
            rt::ScopedConfig streamScope(jobStream);
            ec::ScopedMsmOptions msmScope(jobMsm);
            rt::ScopedCancel cancelScope(jobCancel);
            poly::ScopedArena arenaScope(jobArena);
            unit();
        } else {
            unit();
        }
    } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!firstError)
            firstError = std::current_exception();
    }
}

void
ShardGroup::drainBatch(std::unique_lock<std::mutex> &lk, const rt::Config *cfg,
                       bool isHelper)
{
    while (batch != nullptr && nextUnit < batchSize &&
           !(isHelper && recalled)) {
        const std::size_t idx = nextUnit++;
        lk.unlock();
        execUnit(batch[idx], cfg);
        lk.lock();
        if (++doneUnits == batchSize)
            cv.notify_all();
    }
}

void
ShardGroup::run(std::span<const std::function<void()>> units)
{
    if (units.empty())
        return;
    {
        std::unique_lock<std::mutex> lk(mu);
        if (expected == departed || running) {
            // No helpers (none reserved, or all recalled/released already),
            // or a unit body re-entered run(): inline fallback.
            lk.unlock();
            for (const auto &unit : units)
                execUnit(unit, nullptr);
            lk.lock();
            std::exception_ptr err = std::exchange(firstError, nullptr);
            lk.unlock();
            if (err)
                std::rethrow_exception(err);
            return;
        }
        running = true;
        jobStream = {.streamThreshold = rt::currentStreamThreshold(),
                     .streamChunk = rt::currentStreamChunk()};
        jobCancel = rt::currentCancelToken();
        jobMsm = ec::currentMsmOptions();
        jobArena = poly::currentArena();
        batch = units.data();
        batchSize = units.size();
        nextUnit = 0;
        doneUnits = 0;
        cv.notify_all();
        // The owner claims units too; its drain runs the cursor to the end,
        // so units recalled helpers never picked up land here.
        drainBatch(lk, nullptr, /*isHelper=*/false);
        cv.wait(lk, [&] { return doneUnits == batchSize; });
        batch = nullptr;
        batchSize = 0;
        running = false;
    }
    std::exception_ptr err;
    {
        std::lock_guard<std::mutex> lk(mu);
        err = std::exchange(firstError, nullptr);
    }
    if (err)
        std::rethrow_exception(err);
}

void
ShardGroup::helperServe(const rt::Config &cfg)
{
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        cv.wait(lk, [&] {
            return released || recalled ||
                   (batch != nullptr && nextUnit < batchSize);
        });
        if (released || recalled)
            break; // depart; the owner absorbs any unclaimed units
        drainBatch(lk, &cfg, /*isHelper=*/true);
    }
    ++departed;
    cv.notify_all();
}

void
ShardGroup::recall()
{
    std::lock_guard<std::mutex> lk(mu);
    recalled = true;
    cv.notify_all();
}

void
ShardGroup::disband()
{
    std::unique_lock<std::mutex> lk(mu);
    released = true;
    cv.notify_all();
    cv.wait(lk, [&] { return departed == expected; });
}

} // namespace zkphire::engine
