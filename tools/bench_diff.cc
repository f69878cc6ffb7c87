// bench_diff: compare a fresh BENCH_micro_kernels.json against the
// committed baseline (bench/baselines/micro_kernels_tiers.json) and fail
// when a tier ratio regresses past the per-metric threshold. This is the
// CI expression-tier regression gate, previously a jq+awk pipeline; a
// real tool gets a readable table, loud failures on missing kernels or
// tiers, and a place to grow more metrics.
//
// Usage: bench_diff <BENCH_micro_kernels.json> <baseline.json>
//                   [--max-drop=0.10]
//
// The baseline maps kernel -> { "<tierA>_over_<tierB>": ratio }. Each
// metric name is parsed as a tier pair and the measured value computed
// as ns_per_row[tierA] / ns_per_row[tierB] from the fresh records (the
// ratio self-normalizes across machines; absolute times would only
// measure the runner). A measured ratio below (1 - max_drop) * baseline
// is a regression; improvements never fail. A non-finite baseline or
// measured ratio (e.g. a zero-row kernel's 0/0, which BENCH records spell
// as null) is malformed input, since no comparison with NaN can fail.
// Exit codes: 0 ok, 1 regression, 2 malformed/missing input.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/json.h"

namespace {

using hepq::json::JsonValue;

/// kernel -> tier -> ns_per_row from the flat BENCH record array.
using TierCosts = std::map<std::string, std::map<std::string, double>>;

bool LoadMeasurements(const JsonValue& bench, TierCosts* costs) {
  if (!bench.is_array()) {
    std::fprintf(stderr, "bench file is not a JSON array of records\n");
    return false;
  }
  for (const JsonValue& record : bench.array_items()) {
    const JsonValue* kernel = record.Find("kernel");
    const JsonValue* tier = record.Find("tier");
    const JsonValue* ns = record.Find("ns_per_row");
    if (kernel == nullptr || tier == nullptr || ns == nullptr) continue;
    if (!kernel->is_string() || !tier->is_string() ||
        !(ns->is_number() || ns->is_null())) {
      continue;
    }
    // The JSON writer spells a non-finite number as null; keep it as NaN
    // so the ratio check below reports it as not finite.
    (*costs)[kernel->string_value()][tier->string_value()] =
        ns->is_null() ? std::nan("") : ns->number_value();
  }
  return true;
}

/// "interpret_over_simd" -> ("interpret", "simd"); false when the metric
/// name does not follow the <tierA>_over_<tierB> convention.
bool SplitRatioMetric(const std::string& metric, std::string* numerator,
                      std::string* denominator) {
  const std::string kSep = "_over_";
  const size_t at = metric.find(kSep);
  if (at == std::string::npos || at == 0 ||
      at + kSep.size() >= metric.size()) {
    return false;
  }
  *numerator = metric.substr(0, at);
  *denominator = metric.substr(at + kSep.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double max_drop = 0.10;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-drop=", 11) == 0) {
      max_drop = std::atof(argv[i] + 11);
      if (max_drop <= 0.0 || max_drop >= 1.0) {
        std::fprintf(stderr, "--max-drop must be in (0, 1)\n");
        return 2;
      }
      continue;
    }
    paths.push_back(argv[i]);
  }
  if (paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: %s <BENCH_micro_kernels.json> <baseline.json>"
                 " [--max-drop=0.10]\n",
                 argv[0]);
    return 2;
  }

  auto bench = hepq::json::ParseJsonFile(paths[0]);
  if (!bench.ok()) {
    std::fprintf(stderr, "error: %s\n", bench.status().ToString().c_str());
    return 2;
  }
  auto baseline = hepq::json::ParseJsonFile(paths[1]);
  if (!baseline.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 baseline.status().ToString().c_str());
    return 2;
  }

  TierCosts costs;
  if (!LoadMeasurements(*bench, &costs)) return 2;
  const JsonValue* kernels = baseline->Find("kernels");
  if (kernels == nullptr || !kernels->is_object()) {
    std::fprintf(stderr, "baseline has no \"kernels\" object\n");
    return 2;
  }

  std::printf("%-18s %-22s %9s %9s %8s  %s\n", "kernel", "metric",
              "baseline", "measured", "change", "verdict");
  bool regression = false;
  int compared = 0;
  for (const auto& [kernel_name, metrics] : kernels->object_items()) {
    if (!metrics.is_object()) {
      std::fprintf(stderr, "baseline kernel '%s' is not an object\n",
                   kernel_name.c_str());
      return 2;
    }
    const auto measured_kernel = costs.find(kernel_name);
    if (measured_kernel == costs.end()) {
      std::fprintf(stderr,
                   "kernel '%s' is in the baseline but has no measured "
                   "records in %s\n",
                   kernel_name.c_str(), paths[0].c_str());
      return 2;
    }
    for (const auto& [metric_name, base_value] : metrics.object_items()) {
      if (!base_value.is_number()) continue;  // e.g. a comment string
      std::string num_tier, den_tier;
      if (!SplitRatioMetric(metric_name, &num_tier, &den_tier)) {
        std::fprintf(stderr,
                     "baseline metric '%s.%s' is not a "
                     "<tierA>_over_<tierB> ratio\n",
                     kernel_name.c_str(), metric_name.c_str());
        return 2;
      }
      const auto& tiers = measured_kernel->second;
      const auto num_it = tiers.find(num_tier);
      const auto den_it = tiers.find(den_tier);
      if (num_it == tiers.end() || den_it == tiers.end() ||
          den_it->second <= 0.0) {
        std::fprintf(stderr,
                     "kernel '%s' is missing measured tier '%s' or '%s'\n",
                     kernel_name.c_str(), num_tier.c_str(),
                     den_tier.c_str());
        return 2;
      }
      const double base = base_value.number_value();
      const double measured = num_it->second / den_it->second;
      if (!std::isfinite(base) || !std::isfinite(measured)) {
        std::fprintf(stderr,
                     "kernel '%s' metric '%s' is not finite (baseline %g, "
                     "measured %g)\n",
                     kernel_name.c_str(), metric_name.c_str(), base,
                     measured);
        return 2;
      }
      const double change = base > 0.0 ? (measured - base) / base : 0.0;
      const bool failed = measured < (1.0 - max_drop) * base;
      std::printf("%-18s %-22s %9.3f %9.3f %+7.1f%%  %s\n",
                  kernel_name.c_str(), metric_name.c_str(), base, measured,
                  change * 100.0, failed ? "REGRESSION" : "ok");
      regression |= failed;
      ++compared;
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "baseline contains no comparable metrics\n");
    return 2;
  }
  if (regression) {
    std::fprintf(stderr,
                 "FAIL: at least one ratio dropped more than %.0f%% below "
                 "its committed baseline (see table); re-baseline "
                 "deliberately if the change is intentional\n",
                 max_drop * 100.0);
    return 1;
  }
  std::printf("all %d ratio(s) within %.0f%% of baseline\n", compared,
              max_drop * 100.0);
  return 0;
}
