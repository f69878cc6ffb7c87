#include "obs/metrics.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>

#include "core/json.h"

namespace hepq::obs::metrics {

namespace internal {

std::atomic<bool> g_enabled{false};

unsigned StripeIndexForThread() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterStripes;
  return index;
}

}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
}

int Histogram::BucketFor(int64_t ns) {
  if (ns <= HistogramBucketBoundNs(0)) return 0;
  // bound[b] = 1024 << b, so the bucket is the highest set bit of
  // ceil(ns / 1024) - 1 shifted past the first bound.
  const uint64_t v = static_cast<uint64_t>(ns - 1) >> 10;
  const int bucket = 64 - __builtin_clzll(v);
  return bucket < kHistogramBuckets ? bucket : kHistogramBuckets;
}

void Histogram::Observe(int64_t ns) {
  if (!MetricsEnabled()) return;
  if (ns < 0) ns = 0;
  buckets_[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

namespace {

/// All registered metrics. Entries are never removed, so references
/// handed out by the Get* functions stay valid for the process lifetime.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Counter>> counters;
  std::vector<std::unique_ptr<Gauge>> gauges;
  std::vector<std::unique_ptr<Histogram>> histograms;

  static Registry& Instance() {
    static Registry* registry = new Registry();  // never destroyed
    return *registry;
  }
};

template <typename T>
T& FindOrCreate(std::vector<std::unique_ptr<T>>* entries, const char* name) {
  Registry& registry = Registry::Instance();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& entry : *entries) {
    if (std::strcmp(entry->name(), name) == 0) return *entry;
  }
  entries->push_back(std::make_unique<T>(name));
  return *entries->back();
}

/// Metric name with any inline label set stripped — what Prometheus TYPE
/// lines name ("hepq_runs_total{engine=\"rdf\"}" -> "hepq_runs_total").
std::string_view BaseName(const std::string& name) {
  const size_t brace = name.find('{');
  return std::string_view(name).substr(
      0, brace == std::string::npos ? name.size() : brace);
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "counter";
}

}  // namespace

Counter& GetCounter(const char* name) {
  return FindOrCreate(&Registry::Instance().counters, name);
}

Gauge& GetGauge(const char* name) {
  return FindOrCreate(&Registry::Instance().gauges, name);
}

Histogram& GetHistogram(const char* name) {
  return FindOrCreate(&Registry::Instance().histograms, name);
}

std::vector<MetricSample> SnapshotMetrics() {
  Registry& registry = Registry::Instance();
  std::vector<MetricSample> samples;
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    samples.reserve(registry.counters.size() + registry.gauges.size() +
                    registry.histograms.size());
    for (const auto& counter : registry.counters) {
      MetricSample sample;
      sample.name = counter->name();
      sample.kind = MetricKind::kCounter;
      sample.value = static_cast<int64_t>(counter->Value());
      samples.push_back(std::move(sample));
    }
    for (const auto& gauge : registry.gauges) {
      MetricSample sample;
      sample.name = gauge->name();
      sample.kind = MetricKind::kGauge;
      sample.value = gauge->Value();
      samples.push_back(std::move(sample));
    }
    for (const auto& histogram : registry.histograms) {
      MetricSample sample;
      sample.name = histogram->name();
      sample.kind = MetricKind::kHistogram;
      sample.buckets.resize(kHistogramBuckets + 1);
      for (int b = 0; b <= kHistogramBuckets; ++b) {
        sample.buckets[static_cast<size_t>(b)] = histogram->BucketCount(b);
      }
      sample.observations = histogram->TotalCount();
      sample.sum_ns = histogram->SumNs();
      samples.push_back(std::move(sample));
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

void MergeMetricSamples(std::vector<MetricSample>* into,
                        const std::vector<MetricSample>& from) {
  for (const MetricSample& sample : from) {
    auto it = std::lower_bound(
        into->begin(), into->end(), sample,
        [](const MetricSample& a, const MetricSample& b) {
          return a.name < b.name;
        });
    if (it == into->end() || it->name != sample.name) {
      into->insert(it, sample);
      continue;
    }
    if (it->kind != sample.kind) continue;  // name collision across kinds
    it->value += sample.value;
    it->observations += sample.observations;
    it->sum_ns += sample.sum_ns;
    if (it->buckets.size() < sample.buckets.size()) {
      it->buckets.resize(sample.buckets.size(), 0);
    }
    for (size_t b = 0; b < sample.buckets.size(); ++b) {
      it->buckets[b] += sample.buckets[b];
    }
  }
}

std::string MetricsToPrometheus(const std::vector<MetricSample>& samples) {
  std::string out;
  out.reserve(samples.size() * 64 + 64);
  std::string last_base;
  for (const MetricSample& sample : samples) {
    const std::string_view base = BaseName(sample.name);
    if (base != last_base) {
      out += "# TYPE ";
      out += base;
      out.push_back(' ');
      out += KindName(sample.kind);
      out.push_back('\n');
      last_base.assign(base);
    }
    if (sample.kind == MetricKind::kHistogram) {
      // Bucket lines are cumulative, per the exposition format; the
      // stored per-bucket counts are exclusive.
      uint64_t cumulative = 0;
      for (size_t b = 0; b < sample.buckets.size(); ++b) {
        cumulative += sample.buckets[b];
        out += sample.name;
        out += "_bucket{le=\"";
        if (b + 1 == sample.buckets.size()) {
          out += "+Inf";
        } else {
          out += std::to_string(HistogramBucketBoundNs(static_cast<int>(b)));
        }
        out += "\"} ";
        out += std::to_string(cumulative);
        out.push_back('\n');
      }
      out += sample.name;
      out += "_sum ";
      out += std::to_string(sample.sum_ns);
      out.push_back('\n');
      out += sample.name;
      out += "_count ";
      out += std::to_string(sample.observations);
      out.push_back('\n');
    } else {
      out += sample.name;
      out.push_back(' ');
      out += std::to_string(sample.value);
      out.push_back('\n');
    }
  }
  return out;
}

std::string MetricSamplesJsonArray(const std::vector<MetricSample>& samples) {
  std::string out;
  out.reserve(samples.size() * 64 + 2);
  out.push_back('[');
  bool first = true;
  for (const MetricSample& sample : samples) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    json::AppendJsonString(&out, sample.name);
    out += ",\"kind\":\"";
    out += KindName(sample.kind);
    out += "\"";
    if (sample.kind == MetricKind::kHistogram) {
      out += ",\"count\":";
      out += std::to_string(sample.observations);
      out += ",\"sum_ns\":";
      out += std::to_string(sample.sum_ns);
      out += ",\"buckets\":[";
      for (size_t b = 0; b < sample.buckets.size(); ++b) {
        if (b > 0) out.push_back(',');
        out += std::to_string(sample.buckets[b]);
      }
      out.push_back(']');
    } else {
      out += ",\"value\":";
      out += std::to_string(sample.value);
    }
    out.push_back('}');
  }
  out.push_back(']');
  return out;
}

std::string MetricsToJson(const std::vector<MetricSample>& samples) {
  std::string out = "{\"bucket_bounds_ns\":[";
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (b > 0) out.push_back(',');
    out += std::to_string(HistogramBucketBoundNs(b));
  }
  out += "],\"metrics\":";
  out += MetricSamplesJsonArray(samples);
  out += "}\n";
  return out;
}

void ResetMetricsForTest() {
  Registry& registry = Registry::Instance();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& counter : registry.counters) counter->Reset();
  for (const auto& gauge : registry.gauges) gauge->Reset();
  for (const auto& histogram : registry.histograms) histogram->Reset();
}

}  // namespace hepq::obs::metrics
