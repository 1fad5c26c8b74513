#include "obs/metrics.hpp"

#include <cmath>
#include <cinttypes>

#include "common/error.hpp"
#include "obs/internal.hpp"

namespace mrbio::obs {

// ---------------------------------------------------------------------------
// Histogram

std::size_t Histogram::bucket_index(double v) {
  // Iterative bound doubling instead of log2(): exact boundary behavior
  // (v == min_value * 2^i lands in bucket i, not i+1) with no dependence
  // on libm rounding.
  std::size_t idx = 0;
  double bound = min_value_;
  while (v > bound && std::isfinite(bound)) {
    bound *= 2.0;
    ++idx;
  }
  if (idx >= buckets_.size()) buckets_.resize(idx + 1);
  return idx;
}

void Histogram::observe(double v) {
  MRBIO_CHECK(!std::isnan(v), "histogram observation is NaN");
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  count_ += 1;
  sum_ += v;
  Bucket& b = buckets_[bucket_index(v)];
  b.count += 1;
  b.sum += v;
}

double Histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Nearest-rank: the k-th smallest sample, k = ceil(q * count).
  std::uint64_t k = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (k < 1) k = 1;
  if (k > count_) k = count_;
  std::uint64_t cum = 0;
  for (const Bucket& b : buckets_) {
    cum += b.count;
    if (cum >= k) {
      double rep = b.sum / static_cast<double>(b.count);
      // The bucket mean can stray outside [min, max] only through fp
      // rounding; clamp so quantiles stay within observed range.
      if (rep < min_) rep = min_;
      if (rep > max_) rep = max_;
      return rep;
    }
  }
  return max_;  // unreachable: bucket counts sum to count_
}

// ---------------------------------------------------------------------------
// Registry

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  check_unique(name, &counters_);
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  check_unique(name, &gauges_);
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& Registry::histogram(std::string_view name, double min_value) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  check_unique(name, &histograms_);
  return histograms_.try_emplace(std::string(name), min_value).first->second;
}

const Counter* Registry::find_counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void Registry::check_unique(std::string_view name, const void* owner) const {
  MRBIO_CHECK(owner == &counters_ || counters_.find(name) == counters_.end(),
              "metric '", std::string(name), "' already registered as a counter");
  MRBIO_CHECK(owner == &gauges_ || gauges_.find(name) == gauges_.end(),
              "metric '", std::string(name), "' already registered as a gauge");
  MRBIO_CHECK(owner == &histograms_ || histograms_.find(name) == histograms_.end(),
              "metric '", std::string(name), "' already registered as a histogram");
}

void Registry::print(std::FILE* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!counters_.empty() || !gauges_.empty()) {
    std::fprintf(out, "%-36s %18s\n", "counter/gauge", "value");
    for (const auto& [name, c] : counters_) {
      std::fprintf(out, "%-36s %18" PRIu64 "\n", name.c_str(), c.value());
    }
    for (const auto& [name, g] : gauges_) {
      std::fprintf(out, "%-36s %18.6g\n", name.c_str(), g.value());
    }
  }
  if (!histograms_.empty()) {
    std::fprintf(out, "%-36s %10s %12s %12s %12s %12s %12s\n", "histogram",
                 "count", "mean", "p50", "p90", "p99", "max");
    for (const auto& [name, h] : histograms_) {
      std::fprintf(out, "%-36s %10" PRIu64 " %12.6g %12.6g %12.6g %12.6g %12.6g\n",
                   name.c_str(), h.count(), h.mean(), h.quantile(0.5),
                   h.quantile(0.9), h.quantile(0.99), h.max());
    }
  }
}

void Registry::write_json(std::FILE* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs("{\"counters\":{", out);
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) std::fputc(',', out);
    first = false;
    write_json_string(out, name);
    std::fprintf(out, ":%" PRIu64, c.value());
  }
  std::fputs("},\"gauges\":{", out);
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) std::fputc(',', out);
    first = false;
    write_json_string(out, name);
    std::fprintf(out, ":%.17g", g.value());
  }
  std::fputs("},\"histograms\":{", out);
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) std::fputc(',', out);
    first = false;
    write_json_string(out, name);
    std::fprintf(out,
                 ":{\"count\":%" PRIu64
                 ",\"sum\":%.17g,\"min\":%.17g,\"max\":%.17g,\"mean\":%.17g,"
                 "\"p50\":%.17g,\"p90\":%.17g,\"p99\":%.17g}",
                 h.count(), h.sum(), h.min(), h.max(), h.mean(),
                 h.quantile(0.5), h.quantile(0.9), h.quantile(0.99));
  }
  std::fputs("}}", out);
}

}  // namespace mrbio::obs
