#include "procs.h"

#include <dirent.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace stepbench {
namespace {

constexpr int kMaxChildren = 32;
std::atomic<pid_t> g_children[kMaxChildren];

void ReapAndExit(int sig) {
  for (std::atomic<pid_t>& slot : g_children) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  if (sig == SIGABRT || sig == SIGSEGV) {
    ::signal(sig, SIG_DFL);
    ::raise(sig);
  }
  ::_exit(128 + sig);
}

}  // namespace

std::vector<pid_t> ChildPids() {
  std::vector<pid_t> out;
  const pid_t self = ::getpid();
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (dirent* e = ::readdir(dir)) {
    const pid_t pid = static_cast<pid_t>(std::atoi(e->d_name));
    if (pid <= 0) continue;
    std::ifstream in("/proc/" + std::string(e->d_name) + "/stat");
    std::string stat;
    if (!std::getline(in, stat)) continue;
    // Fields after the parenthesised command: state, ppid, ...
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state;
    long ppid = 0;
    if ((rest >> state >> ppid) && ppid == self && state != "Z") {
      out.push_back(pid);
    }
  }
  ::closedir(dir);
  return out;
}

double PeakRssMbOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double SelfPeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    long long v = 0;
    if (!(in >> v)) return CpuTimes();
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  const long long total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) / total
                   : 0.0;
}

void InstallReaper() {
  struct sigaction sa {};
  sa.sa_handler = ReapAndExit;
  sigemptyset(&sa.sa_mask);
  for (int sig : {SIGINT, SIGTERM, SIGHUP, SIGABRT, SIGSEGV}) {
    ::sigaction(sig, &sa, nullptr);
  }
}

void RegisterChildren(const std::vector<pid_t>& pids) {
  for (int i = 0; i < kMaxChildren; ++i) {
    g_children[i].store(i < static_cast<int>(pids.size()) ? pids[i] : 0);
  }
}

}  // namespace stepbench
