#include "runtime/sched/policies.h"

namespace dadu::runtime::sched {

std::unique_ptr<SchedPolicy>
makePolicy(const SchedConfig &cfg)
{
    std::unique_ptr<SchedPolicy> policy;
    if (cfg.kind == PolicyKind::Edf)
        policy = std::make_unique<EdfPolicy>();
    else
        policy = std::make_unique<FifoPolicy>();
    if (cfg.coalesce)
        policy = std::make_unique<CoalescePolicy>(std::move(policy));
    if (cfg.steal)
        policy = std::make_unique<StealPolicy>(std::move(policy),
                                               cfg.coalesce);
    return policy;
}

} // namespace dadu::runtime::sched
