#include "sysinfo.h"

#include <dirent.h>
#include <sys/statfs.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return -1;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies out;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return out;
  std::istringstream fields(line.substr(4));
  uint64_t value = 0;
  for (int i = 0; fields >> value; ++i) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user/nice.
    if (i < 8) out.total += value;
    if (i == 7) out.steal = value;
  }
  return out;
}

std::vector<int> ThreadIds() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9') {
      tids.push_back(std::atoi(entry->d_name));
    }
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

int CurrentThreadId() { return static_cast<int>(syscall(SYS_gettid)); }

int64_t ThreadCpuNs(int tid) {
  // The per-thread CPU clock id the kernel derives from a thread id (what
  // pthread_getcpuclockid returns): nanosecond resolution, unlike the
  // jiffies in /proc/self/task/<tid>/stat, which are the fallback.
  const clockid_t clock = static_cast<clockid_t>(
      (~static_cast<uint32_t>(tid) << 3) | 6u);
  const int64_t ns = ClockNs(clock);
  if (ns >= 0) return ns;
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string stat;
  if (!std::getline(in, stat)) return -1;
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return -1;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  const long ticks = sysconf(_SC_CLK_TCK);
  return static_cast<int64_t>((utime + stime) * (1000000000 / ticks));
}

int64_t ThreadsCpuNs(const std::vector<int>& tids) {
  int64_t total = 0;
  for (int tid : tids) total += std::max<int64_t>(0, ThreadCpuNs(tid));
  return total;
}

int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t CurrentThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

std::string FileSystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0x01021994:
      return "tmpfs";
    case 0xEF53:
      return "ext4";
    case 0x794c7630:
      return "overlay";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return hex;
    }
  }
}

}  // namespace perfbench
