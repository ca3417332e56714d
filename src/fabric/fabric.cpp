#include "fabric/fabric.hpp"

namespace teco::fabric {

std::string_view to_string(ReduceStrategy s) {
  switch (s) {
    case ReduceStrategy::kDbaMerge: return "dba_merge";
    case ReduceStrategy::kPoolStaging: return "pool_staging";
    case ReduceStrategy::kPerLink: return "per_link";
  }
  return "?";
}

}  // namespace teco::fabric
