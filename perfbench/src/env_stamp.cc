#include "env_stamp.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "simd/distance.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

size_t L3Bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<size_t>(v);
  // Fall back to sysfs ("300M" / "32768K").
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(in >> s) || s.empty()) return 0;
  size_t mult = 1;
  if (s.back() == 'K') mult = size_t{1} << 10;
  if (s.back() == 'M') mult = size_t{1} << 20;
  return static_cast<size_t>(std::strtoull(s.c_str(), nullptr, 10)) * mult;
}

}  // namespace

EnvStamp CollectEnv() {
  EnvStamp e;
  e.nproc = std::thread::hardware_concurrency();
  e.cpu_model = CpuModel();
  e.l3_bytes = L3Bytes();
  e.simd_backend = blink::simd::BackendName();
  e.blink_scale = EnvOr("BLINK_SCALE", "unset");
  e.build_type = PERFBENCH_BUILD_TYPE;
  e.commit = EnvOr("PERFBENCH_COMMIT", "unknown");
  e.source_digest = EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown");
  return e;
}

std::string DescribeEnv(const EnvStamp& env, const std::string& workload,
                        uint64_t seed, size_t index_bytes) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "# env: workload=%s seed=%llu (default %llu, held-out %llu) nproc=%u "
      "cpu=\"%s\" l3=%.1fMiB simd=%s BLINK_SCALE=%s (sizes are fixed per "
      "workload) build=%s commit=%s source=%s\n",
      workload.c_str(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(kDefaultSeed),
      static_cast<unsigned long long>(kHeldOutSeed), env.nproc,
      env.cpu_model.c_str(), static_cast<double>(env.l3_bytes) / (1 << 20),
      env.simd_backend.c_str(), env.blink_scale.c_str(),
      env.build_type.c_str(), env.commit.c_str(), env.source_digest.c_str());
  std::string s = buf;
  const double index_mib = static_cast<double>(index_bytes) / (1 << 20);
  if (env.l3_bytes > 0 && index_bytes < env.l3_bytes) {
    std::snprintf(buf, sizeof(buf),
                  "# cache caveat: the index (%.1f MiB) fits in L3 (%.1f "
                  "MiB), so searches are cache-resident; the paper's "
                  "memory-bandwidth-bound regime is not reproduced here.\n",
                  index_mib, static_cast<double>(env.l3_bytes) / (1 << 20));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "# cache note: the index (%.1f MiB) exceeds L3 (%.1f MiB); "
                  "searches reach main memory.\n",
                  index_mib, static_cast<double>(env.l3_bytes) / (1 << 20));
  }
  s += buf;
  return s;
}

}  // namespace perfbench
