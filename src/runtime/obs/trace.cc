#include "runtime/obs/trace.h"

#include <cstdio>

namespace dadu::runtime::obs {

const char *eventKindName(EventKind k)
{
    switch (k)
    {
    case EventKind::Submit: return "submit";
    case EventKind::Admitted: return "admitted";
    case EventKind::Rejected: return "rejected";
    case EventKind::Enqueued: return "enqueued";
    case EventKind::Picked: return "picked";
    case EventKind::CoalescedInto: return "coalesced_into";
    case EventKind::StolenFrom: return "stolen_from";
    case EventKind::ExecBegin: return "exec";
    case EventKind::ExecEnd: return "exec_end";
    case EventKind::Retry: return "retry";
    case EventKind::Requeue: return "requeue";
    case EventKind::LaneDeath: return "lane_death";
    case EventKind::Completed: return "completed";
    case EventKind::Failed: return "failed";
    case EventKind::TickBegin: return "tick";
    case EventKind::TickEnd: return "tick_end";
    case EventKind::IterBegin: return "ilqr_iter";
    case EventKind::IterEnd: return "ilqr_iter_end";
    case EventKind::Fault: return "fault";
    case EventKind::RiccatiBegin: return "riccati";
    case EventKind::RiccatiEnd: return "riccati_end";
    }
    return "unknown";
}

TraceRing::TraceRing(std::size_t capacity, const char *name)
    : slots_(capacity == 0 ? 1 : capacity)
{
    std::snprintf(name_, sizeof(name_), "%s", name ? name : "");
}

TraceBuffer::TraceBuffer(int lanes, std::size_t ring_capacity)
    : lanes_(lanes), ring_capacity_(ring_capacity)
{
    char label[24];
    for (int i = 0; i < lanes; ++i)
    {
        std::snprintf(label, sizeof(label), "lane%d", i);
        rings_.emplace_back(ring_capacity_, label);
    }
    rings_.emplace_back(ring_capacity_, "control");
}

TraceRing *TraceBuffer::claimRing(const char *name)
{
    std::lock_guard<std::mutex> lk(claim_mu_);
    rings_.emplace_back(ring_capacity_, name);
    return &rings_.back();
}

std::size_t TraceBuffer::ringCount() const
{
    std::lock_guard<std::mutex> lk(claim_mu_);
    return rings_.size();
}

const TraceRing &TraceBuffer::ring(std::size_t i) const
{
    std::lock_guard<std::mutex> lk(claim_mu_);
    return rings_[i];
}

std::uint64_t TraceBuffer::totalDropped() const
{
    std::lock_guard<std::mutex> lk(claim_mu_);
    std::uint64_t n = 0;
    for (const TraceRing &r : rings_)
        n += r.dropped();
    return n;
}

} // namespace dadu::runtime::obs
