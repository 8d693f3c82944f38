// blink_perfbench — the repository benchmark. One invocation runs one
// workload (see ../README.md):
//
//   blink_perfbench --workload inproc-lvq|net-open|churn-filtered
//                   [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// The untraced run (--trace 0) reports every end-to-end metric; the traced
// run (--trace 1) repeats the timed phase with spans on, runs the per-layer
// probes and reports every per-layer metric, writing the spans to
// DIR/spans-<workload>.csv. The last stdout line is the JSON result. Exit
// status: 0 when every output checked out, 1 on any correctness violation
// (the result line still prints, with "correct": false), 2 when the
// workload could not run at all (no result line).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "env_stamp.h"
#include "metrics.h"
#include "trace.h"
#include "workload.h"

using namespace perfbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: blink_perfbench --workload inproc-lvq|net-open|"
               "churn-filtered [--seed N] [--seconds S] [--trace 0|1] "
               "[--out-dir DIR]\n");
  return 2;
}

void PrintSpanSummary(const std::vector<Span>& spans) {
  std::printf("spans (traced run): %zu recorded\n", spans.size());
  std::printf("  %-28s %10s %14s %14s\n", "name", "count", "total_us",
              "self_us");
  for (const SpanSummary& s : SummarizeSpans(spans)) {
    std::printf("  %-28s %10zu %14.1f %14.1f\n", s.name.c_str(), s.count,
                s.total_us, s.self_us);
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  args.seed = kDefaultSeed;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = val;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 120) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (std::string(val) != "0" && std::string(val) != "1") return Usage();
      args.trace = std::string(val) == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = val;
    } else {
      return Usage();
    }
  }
  bool (*run)(const RunArgs&, RunOutcome*) = nullptr;
  if (args.workload == "inproc-lvq") run = RunInprocLvq;
  if (args.workload == "net-open") run = RunNetOpen;
  if (args.workload == "churn-filtered") run = RunChurnFiltered;
  if (run == nullptr) return Usage();

  // A hung run must not outlive its budget: SIGALRM ends the process
  // (without a result line) after 170 s.
  alarm(170);
  args.threads = std::clamp<size_t>(std::thread::hardware_concurrency(), 2, 4);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  const EnvStamp env = CollectEnv();
  std::printf("blink_perfbench: workload %s, seed %llu, %.1f s, %s run, "
              "%zu load threads\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? "traced" : "untraced", args.threads);

  RunOutcome out;
  Tracer::Get().SetEnabled(args.trace);
  if (!run(args, &out)) {
    std::fprintf(stderr, "%s: set-up failed: %s\n", args.workload.c_str(),
                 out.error.c_str());
    return 2;
  }
  std::printf("%s", DescribeEnv(env, args.workload, args.seed,
                                out.index_bytes).c_str());

  if (args.trace) {
    Tracer::Get().SetEnabled(false);
    const std::vector<Span> spans = Tracer::Get().Collect();
    out.report.Set("trace.spans", static_cast<double>(spans.size()));
    PrintSpanSummary(spans);
    const std::string path = args.out_dir + "/spans-" + args.workload + ".csv";
    if (!WriteSpansCsv(spans, path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    } else {
      std::printf("spans written to %s\n", path.c_str());
    }
    // Layers this workload does not exercise report 0.
    std::string na;
    for (const std::string& m : out.report.Missing(true)) {
      out.report.Set(m, 0.0);
      na += " " + m;
    }
    if (!na.empty()) std::printf("not exercised by %s (reported as 0):%s\n",
                                 args.workload.c_str(), na.c_str());
  } else {
    out.report.Set("success_ratio",
                   out.attempted == 0
                       ? 0.0
                       : static_cast<double>(out.attempted - out.failed) /
                             static_cast<double>(out.attempted));
    for (const std::string& m : out.report.Missing(false)) {
      std::fprintf(stderr, "internal error: end-to-end metric %s not set\n",
                   m.c_str());
      return 2;
    }
  }

  const uint64_t violations = out.violations.count();
  const bool correct = violations == 0;
  if (!correct) {
    std::printf("CORRECTNESS VIOLATIONS: %llu; first ones:\n%s",
                static_cast<unsigned long long>(violations),
                out.violations.Sample().c_str());
  }
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  std::printf("%s metrics (%s run):\n%s",
              args.trace ? "per-layer" : "end-to-end",
              args.trace ? "traced" : "untraced",
              out.report.Table(args.trace).c_str());
  std::printf("%s\n", out.report.ResultLine(args.trace, correct, out.attempted,
                                            out.failed)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
