#include "metrics.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"qps", "1/s", "higher", 0.25},
      {"latency_p50_us", "us", "lower", 0.25},
      {"max_rate_qps", "1/s", "higher", 0.25},
      {"recall_at_10", "ratio", "higher", 0.05},
      {"index_bytes_per_vector", "bytes", "lower", 0.05},
      {"setup_s", "s", "lower", 0.25},
      {"success_ratio", "ratio", "higher", 0.01},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"api.build_s", "s", "lower", 0},
      {"api.calibrate_s", "s", "lower", 0},
      {"api.open_s", "s", "lower", 0},
      {"api.window", "count", "lower", 0},
      {"api.rerank_window", "count", "lower", 0},
      {"graph.distances_per_query", "count", "lower", 0},
      {"graph.hops_per_query", "count", "lower", 0},
      {"graph.search_us_p50", "us", "lower", 0},
      {"graph.search_us_p99", "us", "lower", 0},
      {"graph.ns_per_hop", "ns", "lower", 0},
      {"graph.ns_per_distance", "ns", "lower", 0},
      {"rerank.us_per_query", "us", "lower", 0},
      {"rerank.recall_gain", "ratio", "higher", 0},
      {"simd.lvq4_ns", "ns", "lower", 0},
      {"simd.lvq8_ns", "ns", "lower", 0},
      {"simd.f16_ns", "ns", "lower", 0},
      {"simd.f32_ns", "ns", "lower", 0},
      {"simd.bytes_per_distance", "bytes", "lower", 0},
      {"quant.encode_us_per_vector", "us", "lower", 0},
      {"quant.bytes_per_vector", "bytes", "lower", 0},
      {"filter.selectivity_narrow", "ratio", "higher", 0},
      {"filter.selectivity_narrow_est_error", "ratio", "lower", 0},
      {"filter.selectivity_wide", "ratio", "higher", 0},
      {"filter.selectivity_wide_est_error", "ratio", "lower", 0},
      {"filter.strategy_narrow", "code", "lower", 0},
      {"filter.strategy_wide", "code", "lower", 0},
      {"filter.predicate_ns", "ns", "lower", 0},
      {"filter.work_ratio_narrow", "ratio", "lower", 0},
      {"filter.work_ratio_wide", "ratio", "lower", 0},
      {"filter.padded_rows", "count", "lower", 0},
      {"filter.recall_at_10", "ratio", "higher", 0},
      {"dynamic.insert_us_p50", "us", "lower", 0},
      {"dynamic.insert_us_p99", "us", "lower", 0},
      {"dynamic.delete_us_p50", "us", "lower", 0},
      {"dynamic.consolidate_ms", "ms", "lower", 0},
      {"dynamic.consolidate_count", "count", "lower", 0},
      {"dynamic.read_stall_us", "us", "lower", 0},
      {"dynamic.write_ops_per_s", "1/s", "higher", 0},
      {"serve.server_p50_us", "us", "lower", 0},
      {"serve.server_p99_us", "us", "lower", 0},
      {"serve.queries_per_batch", "count", "higher", 0},
      {"serve.rejected", "count", "lower", 0},
      {"serve.queue_depth", "count", "lower", 0},
      {"serve.cpu_util", "ratio", "lower", 0},
      {"net.wire_us", "us", "lower", 0},
      {"net.encode_ns", "ns", "lower", 0},
      {"net.decode_ns", "ns", "lower", 0},
      {"loadgen.latency_p99_us", "us", "lower", 0},
      {"loadgen.late_us_p99", "us", "lower", 0},
      {"loadgen.backlog_max", "count", "lower", 0},
      {"loadgen.rung0.p50_us", "us", "lower", 0},
      {"loadgen.rung0.p99_us", "us", "lower", 0},
      {"loadgen.top_rung.p50_us", "us", "lower", 0},
      {"loadgen.top_rung.p99_us", "us", "lower", 0},
      {"loadgen.saturated_qps", "1/s", "higher", 0},
      {"trace.overhead_pct", "%", "lower", 0},
      {"trace.spans", "count", "higher", 0},
  };
  return defs;
}

namespace {

const MetricDef* Find(const std::string& name) {
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *list) {
      if (d.name == name) return &d;
    }
  }
  return nullptr;
}

std::string FormatValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  if (Find(name) == nullptr) {
    std::fprintf(stderr, "internal error: undeclared metric %s\n",
                 name.c_str());
    std::abort();
  }
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::vector<std::string> Report::Missing(bool trace) const {
  std::vector<std::string> out;
  for (const MetricDef& d : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    if (!Has(d.name)) out.push_back(d.name);
  }
  return out;
}

std::string Report::ResultLine(bool trace, bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    if (!Has(d.name)) continue;
    if (!first) s += ", ";
    first = false;
    s += "\"" + d.name + "\": {\"value\": " + FormatValue(Get(d.name)) +
         ", \"unit\": \"" + d.unit + "\"}";
  }
  s += "}}";
  return s;
}

std::string Report::Table(bool trace) const {
  std::string s;
  char buf[160];
  for (const MetricDef& d : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    if (!Has(d.name)) continue;
    std::snprintf(buf, sizeof(buf), "  %-30s %14.6g %s\n", d.name.c_str(),
                  Get(d.name), d.unit.c_str());
    s += buf;
  }
  return s;
}

}  // namespace perfbench
