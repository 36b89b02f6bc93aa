// Allocation counting for the traced run (see alloc_counter.cc).

#ifndef STEPBENCH_ALLOC_COUNTER_H_
#define STEPBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace stepbench {

struct AllocTotals {
  int64_t count = 0;
  int64_t bytes = 0;
};

// Turns counting on or off for every thread in the process.
void EnableAllocCounting(bool on);

// Allocations counted so far (monotonic; take differences).
AllocTotals ReadAllocTotals();

}  // namespace stepbench

#endif  // STEPBENCH_ALLOC_COUNTER_H_
