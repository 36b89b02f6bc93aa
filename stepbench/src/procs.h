// Process bookkeeping for the benchmark: its own and its children's peak
// memory, and a signal-time reaper so an interrupted run never leaves a
// worker process behind.

#ifndef STEPBENCH_PROCS_H_
#define STEPBENCH_PROCS_H_

#include <sys/types.h>

#include <vector>

namespace stepbench {

// Live child processes of this process (read from /proc).
std::vector<pid_t> ChildPids();

// Peak resident set of `pid` (VmHWM) in MB; 0 when unreadable.
double PeakRssMbOf(pid_t pid);

// Peak resident set of this process in MB.
double SelfPeakRssMb();

// Aggregate CPU time of the machine from /proc/stat, in clock ticks.
struct CpuTimes {
  long long steal = 0;  // time the hypervisor ran something else
  long long total = 0;
};
CpuTimes ReadCpuTimes();

// Share of the CPU time between two readings that was stolen; 0 when the
// readings are equal or /proc/stat is unreadable.
double StealShare(const CpuTimes& before, const CpuTimes& after);

// Installs handlers for SIGINT, SIGTERM, SIGHUP, SIGABRT and SIGSEGV that
// SIGKILL and reap every registered child before the process ends.
void InstallReaper();

// Replaces the set of children the signal handlers reap.
void RegisterChildren(const std::vector<pid_t>& pids);

}  // namespace stepbench

#endif  // STEPBENCH_PROCS_H_
