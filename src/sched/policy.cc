#include "sched/policy.h"

namespace gpuperf {
namespace sched {

bool
parseSchedPolicy(const std::string &name, SchedPolicy *out)
{
    if (name == "fifo")
        *out = SchedPolicy::kFifo;
    else if (name == "sjf")
        *out = SchedPolicy::kSjf;
    else if (name == "fair-share")
        *out = SchedPolicy::kFairShare;
    else
        return false;
    return true;
}

const char *
schedPolicyName(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::kFifo:
        return "fifo";
      case SchedPolicy::kSjf:
        return "sjf";
      case SchedPolicy::kFairShare:
        return "fair-share";
    }
    return "fifo";
}

} // namespace sched
} // namespace gpuperf
