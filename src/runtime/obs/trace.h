/**
 * @file
 * Lifecycle tracing: fixed-capacity rings of TraceEvents recording
 * every state transition a job goes through inside a DynamicsServer
 * — submit → admitted/rejected → enqueued → picked / coalesced-into /
 * stolen-from → backend-execute begin/end → transient-retry /
 * requeue-on-lane-death → completed/failed — plus client-side spans
 * (MPC ticks, iLQR iterations) and injected faults.
 *
 * Concurrency contract. Each TraceRing is SPSC on the producer side:
 * ONE producer thread at a time. Readers come in two flavors — the
 * quiesced kind (at()/retained(), valid once the producer stopped)
 * and the LIVE kind: stream.h's TraceReader drains a ring through
 * recorded()/loadSlot() while the producer keeps recording, using
 * the write index as a published cursor and discarding the window a
 * racing writer may have overwritten. Slots are stored as arrays of
 * relaxed atomic words so the racing reads are defined behavior (a
 * torn event is possible but detectable, a data race is not).
 * The server's ring layout leans on its existing serialization:
 *
 *  - ring i < lanes: events of lane i, recorded only by "the thread
 *    currently serving lane i". The server guarantees there is at
 *    most one such thread at any moment (the lane's async worker, or
 *    the single serveAllSync() caller), so the producer side is a
 *    sequence of happens-before-ordered writers — SPSC holds.
 *  - ring lanes ("control"): submit-side and completion-side events.
 *    Every producer holds the server mutex, so writes are serialized
 *    the same way.
 *  - further rings: claimed by clients (MpcSession per-tick spans,
 *    iLQR per-iteration and per-backward-sweep spans) — one ring
 *    per client thread.
 *
 * Recording is wait-free and allocation-free: one relaxed index
 * bump and a struct store into preallocated storage. A full ring
 * overwrites its OLDEST events; recorded() - retained() events were
 * dropped, and the reader can report that number exactly.
 */

#ifndef DADU_RUNTIME_OBS_TRACE_H
#define DADU_RUNTIME_OBS_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <mutex>
#include <vector>

#include "runtime/request.h"

namespace dadu::runtime::obs {

/** What happened. Payload fields `a`/`b` per kind are documented below. */
enum class EventKind : std::uint8_t
{
    // Submit side (control ring).
    Submit,        ///< a = task count, b = deadline_us (inf ⇒ untagged)
    Admitted,      ///< a = chosen lane, b = predicted completion (µs, 0 if unknown)
    Rejected,      ///< a = JobOutcome, b = end-to-end latency (µs)
    Enqueued,      ///< lane = destination, a = task count, b = lane load_weight after
    // Serving side (lane rings).
    Picked,        ///< a = items in pick, b = queue positions overtaken (queue-jump depth)
    CoalescedInto, ///< job absorbed into another pick; a = items absorbed
    StolenFrom,    ///< lane = thief, a = victim lane, b = items stolen
    ExecBegin,     ///< a = total tasks in batch
    ExecEnd,       ///< a = SubmitStatus of final attempt, b = modeled batch time (µs)
    Retry,         ///< a = attempt number (1-based), transient fault before it
    Requeue,       ///< lane = dying lane, a = destination lane (-1 ⇒ none healthy)
    LaneDeath,     ///< lane = dead lane, a = items in flight at death
    // Completion side (control ring).
    Completed,     ///< a = 1 if deadline missed else 0, b = end-to-end latency (µs)
    Failed,        ///< a = JobOutcome, b = end-to-end latency (µs)
    // Client-side spans (client rings).
    TickBegin,     ///< a = tick index
    TickEnd,       ///< a = 1 if degraded (reused stale plan) else 0, b = horizon cost
    IterBegin,     ///< b = cost before the iLQR iteration
    IterEnd,       ///< a = accepted | (gating mode << 1), b = live columns this iteration
    // Fault injection (recorded by the injecting backend's serving thread).
    Fault,         ///< a = 0 transient, 1 corrupt, 2 latency spike, 3 death; b = magnitude
    // Client-side span (client rings), nested inside IterBegin/IterEnd.
    RiccatiBegin,  ///< one iLQR backward sweep; b = Quu regularization
    RiccatiEnd,    ///< a = 1 if every knot's Quu was PD else 0, b = max_k ‖Qu_k‖∞
};

/** Human-readable (and Chrome-trace "name") label of an event kind. */
const char *eventKindName(EventKind k);

/** One recorded state transition. Fixed-size, trivially copyable. */
struct TraceEvent
{
    double t_us = 0.0;          ///< perf::nowUs() at record time
    double b = 0.0;             ///< kind-specific payload (see EventKind)
    std::int32_t job = -1;      ///< job id (-1 for events not tied to a job)
    std::uint32_t a = 0;        ///< kind-specific payload (see EventKind)
    FunctionType fn = FunctionType::FD;
    std::int16_t lane = -1;     ///< lane id (-1 for control/client events)
    EventKind kind = EventKind::Submit;
};

static_assert(sizeof(TraceEvent) <= 32, "TraceEvent must stay one cache line per pair");

/**
 * Fixed-capacity drop-oldest event ring. Single producer; quiesced
 * reads via at(), live streaming reads via stream.h's TraceReader
 * (recorded() + loadSlot() + the overwrite-window discard protocol).
 */
class TraceRing
{
  public:
    /** 64-bit words per slot; a TraceEvent is stored as kSlotWords atomics. */
    static constexpr std::size_t kSlotWords =
        (sizeof(TraceEvent) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);

    TraceRing(std::size_t capacity, const char *name);

    // The ring is addressed by pointer from hot paths; never moved.
    TraceRing(const TraceRing &) = delete;
    TraceRing &operator=(const TraceRing &) = delete;

    /** Wait-free, allocation-free. Overwrites the oldest slot when full. */
    void record(const TraceEvent &ev)
    {
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        Slot &s = slots_[h % slots_.size()];
        std::uint64_t w[kSlotWords] = {};
        std::memcpy(w, &ev, sizeof(ev));
        // Relaxed word stores: plain movs on x86. The release head
        // bump below publishes them to any acquire reader of head_.
        for (std::size_t i = 0; i < kSlotWords; ++i)
            s.w[i].store(w[i], std::memory_order_relaxed);
        head_.store(h + 1, std::memory_order_release);
    }

    /** Convenience: fill-and-record without a named temporary at call sites. */
    void record(EventKind kind, double t_us, std::int32_t job, std::int16_t lane,
                FunctionType fn, std::uint32_t a = 0, double b = 0.0)
    {
        TraceEvent ev;
        ev.t_us = t_us;
        ev.b = b;
        ev.job = job;
        ev.a = a;
        ev.lane = lane;
        ev.fn = fn;
        ev.kind = kind;
        record(ev);
    }

    std::size_t capacity() const { return slots_.size(); }

    /** Total events ever recorded (including since-dropped ones). */
    std::uint64_t recorded() const { return head_.load(std::memory_order_acquire); }

    /** Events still present (≤ capacity). */
    std::size_t retained() const
    {
        const std::uint64_t h = recorded();
        return h < slots_.size() ? static_cast<std::size_t>(h) : slots_.size();
    }

    /** Events lost to drop-oldest wraparound. */
    std::uint64_t dropped() const { return recorded() - retained(); }

    /** i-th retained event, oldest first. Producer must be quiesced. */
    TraceEvent at(std::size_t i) const
    {
        const std::uint64_t h = recorded();
        const std::uint64_t oldest = h < slots_.size() ? 0 : h - slots_.size();
        return loadSlot(oldest + i);
    }

    /**
     * Raw copy of the slot currently holding sequence number @p seq
     * (relaxed word loads — never a data race, but the result may be
     * TORN if the producer is overwriting that slot concurrently).
     * stream.h's TraceReader makes this safe: it re-reads recorded()
     * after copying and discards every sequence number the producer
     * could have reached into, so a torn event is never delivered.
     */
    TraceEvent loadSlot(std::uint64_t seq) const
    {
        const Slot &s = slots_[seq % slots_.size()];
        std::uint64_t w[kSlotWords];
        for (std::size_t i = 0; i < kSlotWords; ++i)
            w[i] = s.w[i].load(std::memory_order_relaxed);
        TraceEvent ev;
        std::memcpy(&ev, w, sizeof(ev));
        return ev;
    }

    const char *name() const { return name_; }

  private:
    struct Slot
    {
        std::atomic<std::uint64_t> w[kSlotWords];
    };

    std::vector<Slot> slots_;
    std::atomic<std::uint64_t> head_{0};
    char name_[24] = {0};
};

/**
 * The set of rings of one server: lanes, control, and any client
 * rings claimed afterwards. Claiming takes a lock (it is rare and
 * cold); recording into an already-claimed ring never does.
 *
 * std::deque keeps ring addresses stable as clients claim more.
 */
class TraceBuffer
{
  public:
    /** Builds rings 0..lanes-1 ("lane<i>") plus ring `lanes` ("control"). */
    TraceBuffer(int lanes, std::size_t ring_capacity);

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    TraceRing &lane(int i) { return rings_[static_cast<std::size_t>(i)]; }
    const TraceRing &lane(int i) const { return rings_[static_cast<std::size_t>(i)]; }
    TraceRing &control() { return rings_[static_cast<std::size_t>(lanes_)]; }
    const TraceRing &control() const { return rings_[static_cast<std::size_t>(lanes_)]; }

    /**
     * Claim a fresh ring for a client thread (e.g. one MpcSession).
     * Thread-safe; the returned pointer stays valid for the buffer's
     * lifetime. Call once per client, not per event.
     */
    TraceRing *claimRing(const char *name);

    int lanes() const { return lanes_; }
    std::size_t ringCount() const;
    /**
     * Ring @p i (i < a ringCount() you already observed). Takes the
     * claim lock: client threads may be appending rings concurrently
     * and deque indexing walks internal state their push mutates.
     * The returned reference itself is stable for the buffer's life.
     */
    const TraceRing &ring(std::size_t i) const;

    /** Sum of dropped() across all rings. */
    std::uint64_t totalDropped() const;

  private:
    std::deque<TraceRing> rings_;
    mutable std::mutex claim_mu_;
    int lanes_ = 0;
    std::size_t ring_capacity_ = 0;
};

} // namespace dadu::runtime::obs

#endif // DADU_RUNTIME_OBS_TRACE_H
