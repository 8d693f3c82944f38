// The environment every result is stamped with: machine, SIMD backend,
// build, source identity and workload seed, plus the cache caveat that
// says which memory regime the numbers come from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// Seed the benchmark uses when none is given (checks and local runs).
inline constexpr uint64_t kDefaultSeed = 1;
/// Seed kept out of all tuning, for verifying a claimed gain on inputs the
/// change was not written against.
inline constexpr uint64_t kHeldOutSeed = 20231017;

struct EnvStamp {
  unsigned nproc = 0;
  std::string cpu_model;
  size_t l3_bytes = 0;
  std::string simd_backend;
  std::string blink_scale;  ///< the BLINK_SCALE variable, or "unset"
  std::string build_type;
  std::string commit;       ///< PERFBENCH_COMMIT as set by run.py
  std::string source_digest;  ///< PERFBENCH_SOURCE_DIGEST as set by run.py
};

EnvStamp CollectEnv();

/// "# env ..." lines plus the cache caveat for an index of `index_bytes`.
std::string DescribeEnv(const EnvStamp& env, const std::string& workload,
                        uint64_t seed, size_t index_bytes);

}  // namespace perfbench
