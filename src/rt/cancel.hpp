/**
 * @file
 * Cooperative cancellation for long-running proofs.
 *
 * A CancelSource owns shared cancellation state; its CancelTokens observe
 * it. The state carries an explicit request flag AND an optional absolute
 * deadline, folded into one reason: the first observation past the deadline
 * latches CancelReason::Deadline, so "cancel(jobId)" and "deadline expired
 * mid-proof" ride the same mechanism and the service can distinguish them
 * when typing the job's final status.
 *
 * Delivery is by polling at coarse, safe boundaries — a sumcheck round, a
 * streamed commit chunk, a prover step — never by interruption: a check
 * throws OperationCancelled, stack unwinding runs the RAII cleanup every
 * prover stage already relies on (arena releases, slab unmaps, scope
 * restores), and the lane catches the exception at the job seam. Like the
 * other per-proof knobs, the token is installed ambiently (ScopedCancel,
 * same thread-local pattern as ScopedConfig/ScopedArena) so deep call
 * sites reach it without parameter threading. Worker threads of a pool do
 * not inherit the ambient token; boundaries are checked on the thread that
 * drives the proof, which bounds cancellation latency by one boundary, not
 * one chunk of a parallel region. Shard helpers (engine::ShardGroup) do get
 * it: each unit re-installs the owner's currentCancelToken().
 */
#ifndef ZKPHIRE_RT_CANCEL_HPP
#define ZKPHIRE_RT_CANCEL_HPP

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>

namespace zkphire::rt {

enum class CancelReason : int {
    None = 0,
    Cancelled = 1, ///< Explicit requestCancel().
    Deadline = 2,  ///< The state's deadline passed.
};

/** Thrown by checkCancel()/throwIfCancelled() at a cancellation boundary. */
class OperationCancelled : public std::runtime_error
{
  public:
    explicit OperationCancelled(CancelReason reason)
        : std::runtime_error(reason == CancelReason::Deadline
                                 ? "deadline exceeded mid-proof"
                                 : "operation cancelled"),
          reason_(reason)
    {
    }
    CancelReason reason() const { return reason_; }

  private:
    CancelReason reason_;
};

namespace detail {

struct CancelState {
    std::atomic<int> reason{0};
    /** Immutable after the job starts (set while the job is scheduled). */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();

    CancelReason observe()
    {
        int r = reason.load(std::memory_order_acquire);
        if (r != 0)
            return CancelReason(r);
        if (deadline != std::chrono::steady_clock::time_point::max() &&
            std::chrono::steady_clock::now() >= deadline) {
            // Latch Deadline, but never overwrite an explicit cancel that
            // raced us.
            int expected = 0;
            reason.compare_exchange_strong(expected,
                                           int(CancelReason::Deadline),
                                           std::memory_order_acq_rel);
            return CancelReason(reason.load(std::memory_order_acquire));
        }
        return CancelReason::None;
    }
};

inline thread_local const std::shared_ptr<CancelState> *t_cancel = nullptr;

} // namespace detail

/** Observer handle; default-constructed tokens are never cancelled. */
class CancelToken
{
  public:
    CancelToken() = default;

    bool valid() const { return st != nullptr; }
    CancelReason reason() const
    {
        return st == nullptr ? CancelReason::None : st->observe();
    }
    bool cancelled() const { return reason() != CancelReason::None; }
    void throwIfCancelled() const
    {
        const CancelReason r = reason();
        if (r != CancelReason::None)
            throw OperationCancelled(r);
    }

  private:
    friend class CancelSource;
    friend class ScopedCancel;
    friend CancelToken currentCancelToken();
    explicit CancelToken(std::shared_ptr<detail::CancelState> s)
        : st(std::move(s))
    {
    }
    std::shared_ptr<detail::CancelState> st;
};

/** Owner handle. Copyable: copies share the same state, so a scheduler can
 *  keep a handle to a running job's state without lifetime coupling. */
class CancelSource
{
  public:
    CancelSource() : st(std::make_shared<detail::CancelState>()) {}

    CancelToken token() const { return CancelToken(st); }
    void requestCancel(CancelReason reason = CancelReason::Cancelled) const
    {
        int expected = 0;
        st->reason.compare_exchange_strong(expected, int(reason),
                                           std::memory_order_acq_rel);
    }
    /** Set before handing the job to a lane; not synchronized against
     *  concurrent observers. */
    void setDeadline(std::chrono::steady_clock::time_point d) const
    {
        st->deadline = d;
    }
    bool cancelled() const { return st->observe() != CancelReason::None; }
    CancelReason reason() const { return st->observe(); }
    /** Fresh state for a retry attempt: an old observed deadline must not
     *  instantly re-cancel the new attempt. */
    void reset()
    {
        st = std::make_shared<detail::CancelState>();
    }

  private:
    std::shared_ptr<detail::CancelState> st;
};

/**
 * RAII installation of a token as the current thread's ambient cancel
 * token. An invalid token inherits the enclosing installation (the
 * ScopedConfig rule), so prover entry points apply their options' token
 * unconditionally.
 */
class ScopedCancel
{
  public:
    explicit ScopedCancel(const CancelToken &token)
        : tok(token), saved(detail::t_cancel)
    {
        if (tok.st != nullptr)
            detail::t_cancel = &tok.st;
    }
    ~ScopedCancel() { detail::t_cancel = saved; }
    ScopedCancel(const ScopedCancel &) = delete;
    ScopedCancel &operator=(const ScopedCancel &) = delete;

  private:
    CancelToken tok; // keeps the state alive for the scope's duration
    const std::shared_ptr<detail::CancelState> *saved;
};

/** The ambient token, so work moved to another thread can re-install it
 *  there (default-constructed when none is installed). */
inline CancelToken
currentCancelToken()
{
    if (detail::t_cancel == nullptr)
        return CancelToken();
    return CancelToken(*detail::t_cancel);
}

/** Reason observed on the ambient token (None when none installed). */
inline CancelReason
cancelReason()
{
    if (detail::t_cancel == nullptr)
        return CancelReason::None;
    return (*detail::t_cancel)->observe();
}

inline bool
cancelRequested()
{
    return cancelReason() != CancelReason::None;
}

/** Cancellation boundary: throws OperationCancelled when the ambient token
 *  is cancelled (or past its deadline); no-op otherwise. */
inline void
checkCancel()
{
    const CancelReason r = cancelReason();
    if (r != CancelReason::None)
        throw OperationCancelled(r);
}

} // namespace zkphire::rt

#endif // ZKPHIRE_RT_CANCEL_HPP
