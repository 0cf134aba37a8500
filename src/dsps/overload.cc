#include "dsps/overload.h"

namespace insight {
namespace dsps {

const char* TuplePriorityName(TuplePriority priority) {
  switch (priority) {
    case TuplePriority::kLow:
      return "low";
    case TuplePriority::kNormal:
      return "normal";
    case TuplePriority::kHigh:
      return "high";
  }
  return "?";
}

}  // namespace dsps
}  // namespace insight
