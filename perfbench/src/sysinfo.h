// What the benchmark reads about its host and its own threads: CPU model,
// online CPUs, hypervisor steal from /proc/stat, per-thread CPU time of the
// threads in this process, and the file-system type of the data directory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

std::string CpuModel();
int OnlineCpus();

/// Aggregate CPU jiffies from /proc/stat.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();

/// Kernel thread ids of this process, sorted.
std::vector<int> ThreadIds();
int CurrentThreadId();
/// CPU time of one thread of this process (ns), -1 when unreadable.
int64_t ThreadCpuNs(int tid);
/// Summed CPU time of `tids` (ns).
int64_t ThreadsCpuNs(const std::vector<int>& tids);
int64_t ProcessCpuNs();
int64_t CurrentThreadCpuNs();

/// "tmpfs", "ext4", "overlay", ... or the hex magic.
std::string FileSystemType(const std::string& path);

}  // namespace perfbench
