#include "obs/timeseries.hpp"

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "obs/internal.hpp"

namespace mrbio::obs {

void write_json_string(std::FILE* out, std::string_view s) {
  std::fputc('"', out);
  for (char ch : s) {
    switch (ch) {
      case '"': std::fputs("\\\"", out); break;
      case '\\': std::fputs("\\\\", out); break;
      case '\n': std::fputs("\\n", out); break;
      case '\r': std::fputs("\\r", out); break;
      case '\t': std::fputs("\\t", out); break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          std::fprintf(out, "\\u%04x", static_cast<unsigned char>(ch));
        } else {
          std::fputc(ch, out);
        }
    }
  }
  std::fputc('"', out);
}

namespace {

void write_points(std::FILE* out, const std::vector<TsPoint>& pts) {
  std::fputc('[', out);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i != 0) std::fputc(',', out);
    std::fprintf(out, "[%.17g,%.17g]", pts[i].t, pts[i].v);
  }
  std::fputc(']', out);
}

}  // namespace

TimeSeries::TimeSeries(int nranks, TimeSeriesConfig config) : config_(config) {
  if (nranks < 0) nranks = 0;
  if (config_.capacity == 0) config_.capacity = 1;
  if (config_.cadence < 0.0) config_.cadence = 0.0;
  lanes_.reserve(static_cast<std::size_t>(nranks));
  for (int i = 0; i < nranks; ++i) lanes_.push_back(std::make_unique<Lane>());
}

void TimeSeries::push(int rank, std::string_view channel, double t, double v, bool gated) {
  if (rank < 0 || rank >= nranks()) return;
  Lane& lane = *lanes_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(lane.mutex);
  auto it = lane.series.find(channel);
  if (it == lane.series.end()) {
    it = lane.series.emplace(std::string(channel), Series{}).first;
  }
  Series& s = it->second;
  if (gated && t < s.next_t) return;
  s.next_t = t + config_.cadence;
  if (s.ring.size() < config_.capacity) {
    s.ring.push_back({t, v});
  } else {
    s.ring[s.head] = {t, v};
    s.head = (s.head + 1) % config_.capacity;
    s.full = true;
    ++s.overwritten;
    overwritten_.fetch_add(1, std::memory_order_relaxed);
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

void TimeSeries::sample(int rank, std::string_view channel, double t, double v) {
  push(rank, channel, t, v, /*gated=*/true);
}

void TimeSeries::record(int rank, std::string_view channel, double t, double v) {
  push(rank, channel, t, v, /*gated=*/false);
}

std::vector<std::string> TimeSeries::channels(int rank) const {
  std::vector<std::string> out;
  if (rank < 0 || rank >= nranks()) return out;
  Lane& lane = *lanes_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(lane.mutex);
  out.reserve(lane.series.size());
  for (const auto& [name, s] : lane.series) out.push_back(name);
  return out;
}

std::vector<TsPoint> TimeSeries::points(int rank, std::string_view channel) const {
  std::vector<TsPoint> out;
  if (rank < 0 || rank >= nranks()) return out;
  Lane& lane = *lanes_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(lane.mutex);
  auto it = lane.series.find(channel);
  if (it == lane.series.end()) return out;
  const Series& s = it->second;
  out.reserve(s.ring.size());
  if (s.full) {
    for (std::size_t i = s.head; i < s.ring.size(); ++i) out.push_back(s.ring[i]);
    for (std::size_t i = 0; i < s.head; ++i) out.push_back(s.ring[i]);
  } else {
    out = s.ring;
  }
  return out;
}

void TimeSeries::write_json(std::FILE* out) const {
  std::fprintf(out, "{\"cadence\":%.17g,\"capacity\":%zu,\"recorded\":%llu,\"overwritten\":%llu,\"ranks\":[",
               config_.cadence, config_.capacity,
               static_cast<unsigned long long>(total_samples()),
               static_cast<unsigned long long>(dropped_samples()));
  bool first_rank = true;
  for (int r = 0; r < nranks(); ++r) {
    std::vector<std::string> names = channels(r);
    if (names.empty()) continue;
    if (!first_rank) std::fputc(',', out);
    first_rank = false;
    std::fprintf(out, "{\"rank\":%d,\"channels\":{", r);
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i != 0) std::fputc(',', out);
      write_json_string(out, names[i]);
      std::fputc(':', out);
      write_points(out, points(r, names[i]));
    }
    std::fputs("}}", out);
  }
  std::fputs("]}", out);
}

void TimeSeries::write_jsonl(std::FILE* out) const {
  for (int r = 0; r < nranks(); ++r) {
    for (const std::string& name : channels(r)) {
      std::fprintf(out, "{\"rank\":%d,\"channel\":", r);
      write_json_string(out, name);
      std::fputs(",\"points\":", out);
      write_points(out, points(r, name));
      std::fputs("}\n", out);
    }
  }
}

EventLog::EventLog(const std::string& path)
    : path_(path), start_(std::chrono::steady_clock::now()) {
  out_ = std::fopen(path.c_str(), "w");
  if (out_ == nullptr) {
    throw Error("cannot open event log for writing: " + path + ": " + std::strerror(errno));
  }
}

EventLog::~EventLog() {
  if (out_ != nullptr) std::fclose(out_);
}

void EventLog::log(LogLevel severity, int rank, std::string_view component,
                   std::string_view message) {
  const char* sev = "info";
  switch (severity) {
    case LogLevel::Debug: sev = "debug"; break;
    case LogLevel::Info: sev = "info"; break;
    case LogLevel::Warn: sev = "warn"; break;
    case LogLevel::ErrorLevel: sev = "error"; break;
    case LogLevel::Off: sev = "off"; break;
  }
  const double t = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(out_, "{\"t\":%.9f,\"severity\":\"%s\",\"rank\":%d,\"component\":", t, sev, rank);
  write_json_string(out_, component);
  std::fputs(",\"msg\":", out_);
  write_json_string(out_, message);
  std::fputs("}\n", out_);
  std::fflush(out_);
  events_.fetch_add(1, std::memory_order_relaxed);
}

void EventLog::log_sink(void* ctx, LogLevel level, const char* msg) {
  static_cast<EventLog*>(ctx)->log(level, -1, "log", msg);
}

}  // namespace mrbio::obs
