#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace vgrid::perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SpanRecorder::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void SpanRecorder::add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name,
                       std::uint64_t parent, std::uint64_t run)
    : recorder_(recorder) {
  if (!recorder_) return;
  span_.id = recorder_->next_id();
  span_.parent = parent;
  span_.run = run;
  span_.name = std::move(name);
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!recorder_) return;
  span_.end_ns = now_ns();
  recorder_->add(std::move(span_));
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t counter_sum(const obs::Registry& registry,
                          const std::string& name) {
  std::uint64_t sum = 0;
  for (const obs::Labels& labels : registry.label_sets(name)) {
    if (const obs::Counter* counter = registry.find_counter(name, labels)) {
      sum += counter->value();
    }
  }
  return sum;
}

double histogram_quantile(const obs::Registry& registry,
                          const std::string& name, double q) {
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  for (const obs::Labels& labels : registry.label_sets(name)) {
    const obs::Histogram* h = registry.find_histogram(name, labels);
    if (!h || h->count() == 0) continue;
    if (bounds.empty()) {
      bounds = h->bounds();
      counts.assign(bounds.size() + 1, 0);
      lo = h->min();
      hi = h->max();
    }
    if (h->bounds() != bounds) {
      throw std::runtime_error("histogram " + name +
                               ": label sets have different buckets");
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] += h->bucket_count(i);
    }
    total += h->count();
    lo = std::min(lo, h->min());
    hi = std::max(hi, h->max());
  }
  if (total == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (seen + counts[i] < rank) {
      seen += counts[i];
      continue;
    }
    const double left =
        i == 0 ? static_cast<double>(lo) : static_cast<double>(bounds[i - 1]);
    const double right = i < bounds.size() ? static_cast<double>(bounds[i])
                                           : static_cast<double>(hi);
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(counts[i]);
    const double value = left + frac * (right - left);
    return std::clamp(value, static_cast<double>(lo), static_cast<double>(hi));
  }
  return static_cast<double>(hi);
}

double busy_fraction(const std::vector<report::WorkerSpan>& spans, int jobs,
                     double wall_s) {
  double busy_s = 0.0;
  for (const report::WorkerSpan& span : spans) {
    busy_s += static_cast<double>(span.end_ns - span.start_ns) / 1e9;
  }
  return busy_s / (jobs * wall_s);
}

void report_simulated_layers(Report& report, const obs::Registry& registry,
                             double op_s, std::size_t op_samples) {
  const auto count = [&](const char* metric, const char* counter) {
    report.metric(metric, static_cast<double>(counter_sum(registry, counter)),
                  "count", 1);
  };
  const auto dispatched =
      static_cast<double>(counter_sum(registry, "sim.events.dispatched"));
  report.metric("sim.events_dispatched", dispatched, "count", 1);
  count("sim.events_cancelled", "sim.events.cancelled");
  report.metric("sim.host_ns_per_event",
                dispatched > 0 ? op_s * 1e9 / dispatched : 0.0, "ns",
                op_samples);
  count("os.context_switches", "os.sched.context_switches");
  count("os.preemptions", "os.sched.preemptions");
  count("hw.occupancy_updates", "hw.cpu.occupancy_updates");
  count("hw.contended_placements", "hw.bus.contended_placements");
  count("hw.disk_ops", "hw.disk.ops");
  count("hw.nic_transfers", "hw.nic.transfers");
  count("vmm.overhead_instructions", "vmm.overhead_instructions");
  count("vmm.vm_exits", "vmm.vm_exits");
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  return ok;
}

void Report::fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  std::fprintf(stderr, "operation failed: %s\n", what.c_str());
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, {value, unit, samples}});
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, std::size_t samples) {
  notes_.push_back({name, {value, unit, samples}});
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::print(const Options& options) const {
  std::printf("workload %s  seed %llu  %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? "traced" : "untraced");
  const auto row = [](const std::string& name, const Value& v) {
    std::printf("  %-30s %16.6g %-8s n=%zu\n", name.c_str(), v.value,
                v.unit.c_str(), v.samples);
  };
  for (const auto& [name, value] : metrics_) row(name, value);
  for (const auto& [name, value] : notes_) row(name, value);
  const double error_rate =
      attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                 : 1.0;
  row("error_rate", {error_rate, "ratio", attempted_});

  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    if (!first) json += ", ";
    first = false;
    json += json_string(name) + ": {\"value\": " + json_number(value.value) +
            ", \"unit\": " + json_string(value.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void write_trace(const std::string& path, const Options& options,
                 const std::vector<Span>& spans,
                 const std::string& registry_snapshot,
                 const std::vector<report::WorkerSpan>& worker_spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << "{\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed << ",\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "") << "{\"id\": " << s.id << ", \"parent\": "
        << s.parent << ", \"run\": " << s.run
        << ", \"name\": " << json_string(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}";
  }
  out << "],\n\"worker_spans\": [\n";
  for (std::size_t i = 0; i < worker_spans.size(); ++i) {
    const report::WorkerSpan& w = worker_spans[i];
    out << (i ? ",\n" : "") << "{\"worker\": " << w.worker
        << ", \"label\": " << json_string(w.label)
        << ", \"start_ns\": " << w.start_ns << ", \"end_ns\": " << w.end_ns
        << "}";
  }
  out << "],\n\"registry\": "
      << (registry_snapshot.empty() ? std::string("null") : registry_snapshot)
      << "}\n";
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace vgrid::perfbench
