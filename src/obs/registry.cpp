#include "obs/registry.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <fstream>
#include <utility>

#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vgrid::obs {

namespace {

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    // Appended piecewise (not one operator+ chain): GCC 12's -Wrestrict
    // false-positive (PR105651) fires on the chained temporary.
    out += '"';
    out += util::json_escape(key);
    out += "\":\"";
    out += util::json_escape(value);
    out += '"';
  }
  out += "}";
  return out;
}

/// Prometheus-legal metric name: dots become underscores, everything that
/// is not [a-zA-Z0-9_] becomes '_', and a "vgrid_" prefix namespaces us.
std::string prometheus_name(const std::string& name) {
  std::string out = "vgrid_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Prometheus label block: {key="value",...} or "" when label-free.
/// `extra` appends one more label (used for histogram `le`).
std::string prometheus_labels(const Labels& labels,
                              const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + util::json_escape(value) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

const char* agg_name(Gauge::Agg agg) {
  switch (agg) {
    case Gauge::Agg::kMax: return "max";
    case Gauge::Agg::kMin: return "min";
    case Gauge::Agg::kLast: return "last";
    case Gauge::Agg::kSum: return "sum";
  }
  return "?";
}

}  // namespace

// ---- Gauge ------------------------------------------------------------------

void Gauge::set(std::int64_t value) noexcept {
  value_.store(value, std::memory_order_relaxed);
  set_.store(true, std::memory_order_relaxed);
}

void Gauge::update_max(std::int64_t value) noexcept {
  std::int64_t seen = value_.load(std::memory_order_relaxed);
  const bool was_set = set_.load(std::memory_order_relaxed);
  while (!was_set || value > seen) {
    if (value_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
      break;
    }
    if (set_.load(std::memory_order_relaxed) && value <= seen) break;
  }
  set_.store(true, std::memory_order_relaxed);
}

// ---- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw util::ConfigError(
        "obs::Histogram: bucket bounds must be strictly ascending");
  }
}

void Histogram::observe(std::int64_t value) noexcept {
  // First bucket whose inclusive upper bound admits the value; the last
  // slot is the implicit +Inf bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  counts_[index].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  const std::uint64_t before = count_.fetch_add(1, std::memory_order_relaxed);
  if (before == 0) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
    return;
  }
  std::int64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

std::int64_t Histogram::percentile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  const std::int64_t lo = min();
  const std::int64_t hi = max();
  // Continuous rank in [0, count]; q=0 hits the lower edge of the first
  // occupied bucket, q=1 its upper edge (clamped to max below).
  double rank = q * static_cast<double>(total);
  if (rank < 0.0) rank = 0.0;
  if (rank > static_cast<double>(total)) rank = static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const double in_bucket = static_cast<double>(bucket_count(i));
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= rank) {
      // Interpolate linearly inside this bucket. The first and +Inf
      // buckets have no finite edge on one side; the tracked extremes
      // stand in, and the final clamp keeps every estimate inside
      // [min, max].
      const double lower = (i == 0) ? static_cast<double>(lo)
                                    : static_cast<double>(bounds_[i - 1]);
      const double upper = (i == bounds_.size())
                               ? static_cast<double>(hi)
                               : static_cast<double>(bounds_[i]);
      const double fraction = (rank - cumulative) / in_bucket;
      double value = lower + (upper - lower) * fraction;
      if (value < static_cast<double>(lo)) value = static_cast<double>(lo);
      if (value > static_cast<double>(hi)) value = static_cast<double>(hi);
      return std::llround(value);
    }
    cumulative += in_bucket;
  }
  return hi;
}

// ---- Registry ---------------------------------------------------------------

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = instruments_[Key{name, labels}];
  if (entry.gauge || entry.histogram) {
    throw util::ConfigError("obs: instrument '" + name +
                            "' already registered with a different type");
  }
  if (!entry.counter) {
    // vgrid-lint: allow(safety-raw-new): make_unique cannot reach the
    // private constructor (friend Registry); ownership goes straight into
    // the unique_ptr.
    entry.counter = std::unique_ptr<Counter>(new Counter());
  }
  return *entry.counter;
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels,
                       Gauge::Agg agg) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = instruments_[Key{name, labels}];
  if (entry.counter || entry.histogram) {
    throw util::ConfigError("obs: instrument '" + name +
                            "' already registered with a different type");
  }
  if (entry.gauge) {
    if (entry.gauge->agg() != agg) {
      throw util::ConfigError("obs: gauge '" + name +
                              "' already registered with aggregation " +
                              agg_name(entry.gauge->agg()));
    }
    return *entry.gauge;
  }
  // vgrid-lint: allow(safety-raw-new): make_unique cannot reach the
  // private constructor (friend Registry); ownership goes straight into
  // the unique_ptr.
  entry.gauge = std::unique_ptr<Gauge>(new Gauge(agg));
  return *entry.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<std::int64_t> bounds,
                               const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = instruments_[Key{name, labels}];
  if (entry.counter || entry.gauge) {
    throw util::ConfigError("obs: instrument '" + name +
                            "' already registered with a different type");
  }
  if (entry.histogram) {
    if (entry.histogram->bounds() != bounds) {
      throw util::ConfigError("obs: histogram '" + name +
                              "' already registered with different buckets");
    }
    return *entry.histogram;
  }
  // vgrid-lint: allow(safety-raw-new): make_unique cannot reach the
  // private constructor (friend Registry); ownership goes straight into
  // the unique_ptr.
  entry.histogram.reset(new Histogram(std::move(bounds)));
  return *entry.histogram;
}

const Counter* Registry::find_counter(const std::string& name,
                                      const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = instruments_.find(Key{name, labels});
  return it == instruments_.end() ? nullptr : it->second.counter.get();
}

const Histogram* Registry::find_histogram(const std::string& name,
                                          const Labels& labels) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = instruments_.find(Key{name, labels});
  return it == instruments_.end() ? nullptr : it->second.histogram.get();
}

std::vector<Labels> Registry::label_sets(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Labels> out;
  for (const auto& [key, entry] : instruments_) {
    if (key.name == name) out.push_back(key.labels);
  }
  return out;
}

void Registry::add_span(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Registry::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t Registry::instrument_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return instruments_.size();
}

void Registry::merge_from(const Registry& other) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (drop_next_merge_) {
      drop_next_merge_ = false;
      return;
    }
  }
  // Take a consistent view of `other` first so we never hold both mutexes
  // (TaskPool only merges after the producing task has finished, but the
  // ordering discipline keeps this safe for any caller).
  struct Copied {
    Key key;
    const Entry* entry;
  };
  std::vector<Copied> copies;
  std::vector<SpanRecord> other_spans;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    copies.reserve(other.instruments_.size());
    for (const auto& [key, entry] : other.instruments_) {
      copies.push_back(Copied{key, &entry});
    }
    other_spans = other.spans_;
  }
  for (const Copied& copied : copies) {
    const Entry& src = *copied.entry;
    if (src.counter) {
      counter(copied.key.name, copied.key.labels).add(src.counter->value());
    } else if (src.gauge) {
      if (!src.gauge->ever_set()) {
        gauge(copied.key.name, copied.key.labels, src.gauge->agg());
        continue;
      }
      Gauge& dst = gauge(copied.key.name, copied.key.labels,
                         src.gauge->agg());
      const std::int64_t value = src.gauge->value();
      if (!dst.ever_set()) {
        dst.set(value);
        continue;
      }
      switch (src.gauge->agg()) {
        case Gauge::Agg::kMax:
          if (value > dst.value()) dst.set(value);
          break;
        case Gauge::Agg::kMin:
          if (value < dst.value()) dst.set(value);
          break;
        case Gauge::Agg::kLast:
          dst.set(value);
          break;
        case Gauge::Agg::kSum:
          dst.set(dst.value() + value);
          break;
      }
    } else if (src.histogram) {
      Histogram& dst = histogram(copied.key.name, src.histogram->bounds(),
                                 copied.key.labels);
      const std::uint64_t src_count = src.histogram->count();
      if (src_count == 0) continue;
      for (std::size_t i = 0; i <= src.histogram->bounds().size(); ++i) {
        const std::uint64_t n = src.histogram->bucket_count(i);
        if (n > 0) {
          dst.counts_[i].fetch_add(n, std::memory_order_relaxed);
        }
      }
      const std::uint64_t dst_before =
          dst.count_.fetch_add(src_count, std::memory_order_relaxed);
      dst.sum_.fetch_add(src.histogram->sum(), std::memory_order_relaxed);
      if (dst_before == 0) {
        dst.min_.store(src.histogram->min(), std::memory_order_relaxed);
        dst.max_.store(src.histogram->max(), std::memory_order_relaxed);
      } else {
        if (src.histogram->min() < dst.min()) {
          dst.min_.store(src.histogram->min(), std::memory_order_relaxed);
        }
        if (src.histogram->max() > dst.max()) {
          dst.max_.store(src.histogram->max(), std::memory_order_relaxed);
        }
      }
    }
  }
  if (!other_spans.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.insert(spans_.end(), other_spans.begin(), other_spans.end());
  }
}

void Registry::inject_dropped_merge_for_test() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  drop_next_merge_ = true;
}

std::string Registry::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n\"vgrid_metrics_version\":1,\n\"instruments\":[\n";
  bool first = true;
  for (const auto& [key, entry] : instruments_) {
    if (!first) out += ",\n";
    first = false;
    const std::string name = util::json_escape(key.name);
    const std::string labels = labels_json(key.labels);
    if (entry.counter) {
      out += util::format(
          "{\"name\":\"%s\",\"labels\":%s,\"type\":\"counter\","
          "\"value\":%llu}",
          name.c_str(), labels.c_str(),
          static_cast<unsigned long long>(entry.counter->value()));
    } else if (entry.gauge) {
      out += util::format(
          "{\"name\":\"%s\",\"labels\":%s,\"type\":\"gauge\","
          "\"agg\":\"%s\",\"set\":%s,\"value\":%lld}",
          name.c_str(), labels.c_str(), agg_name(entry.gauge->agg()),
          entry.gauge->ever_set() ? "true" : "false",
          static_cast<long long>(entry.gauge->value()));
    } else if (entry.histogram) {
      const Histogram& histogram = *entry.histogram;
      std::string bounds = "[";
      std::string counts = "[";
      for (std::size_t i = 0; i < histogram.bounds().size(); ++i) {
        if (i > 0) {
          bounds += ",";
          counts += ",";
        }
        bounds += util::format(
            "%lld", static_cast<long long>(histogram.bounds()[i]));
        counts += util::format(
            "%llu",
            static_cast<unsigned long long>(histogram.bucket_count(i)));
      }
      if (!histogram.bounds().empty()) counts += ",";
      counts += util::format("%llu",
                             static_cast<unsigned long long>(
                                 histogram.bucket_count(
                                     histogram.bounds().size())));
      bounds += "]";
      counts += "]";
      const bool any = histogram.count() > 0;
      out += util::format(
          "{\"name\":\"%s\",\"labels\":%s,\"type\":\"histogram\","
          "\"bounds\":%s,\"counts\":%s,\"count\":%llu,\"sum\":%lld,"
          "\"min\":%lld,\"max\":%lld,"
          "\"p50\":%lld,\"p90\":%lld,\"p99\":%lld}",
          name.c_str(), labels.c_str(), bounds.c_str(), counts.c_str(),
          static_cast<unsigned long long>(histogram.count()),
          static_cast<long long>(histogram.sum()),
          static_cast<long long>(any ? histogram.min() : 0),
          static_cast<long long>(any ? histogram.max() : 0),
          static_cast<long long>(histogram.percentile(0.50)),
          static_cast<long long>(histogram.percentile(0.90)),
          static_cast<long long>(histogram.percentile(0.99)));
    }
  }
  out += "\n]\n}\n";
  return out;
}

std::string Registry::snapshot_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  std::string last_name;
  for (const auto& [key, entry] : instruments_) {
    const std::string name = prometheus_name(key.name);
    if (entry.counter) {
      if (key.name != last_name) {
        out += "# TYPE " + name + " counter\n";
      }
      out += name + prometheus_labels(key.labels) +
             util::format(" %llu\n", static_cast<unsigned long long>(
                                         entry.counter->value()));
    } else if (entry.gauge) {
      if (key.name != last_name) {
        out += "# TYPE " + name + " gauge\n";
      }
      out += name + prometheus_labels(key.labels) +
             util::format(" %lld\n",
                          static_cast<long long>(entry.gauge->value()));
    } else if (entry.histogram) {
      const Histogram& histogram = *entry.histogram;
      if (key.name != last_name) {
        out += "# TYPE " + name + " histogram\n";
      }
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < histogram.bounds().size(); ++i) {
        cumulative += histogram.bucket_count(i);
        out += name + "_bucket" +
               prometheus_labels(
                   key.labels,
                   util::format("le=\"%lld\"", static_cast<long long>(
                                                   histogram.bounds()[i]))) +
               util::format(
                   " %llu\n", static_cast<unsigned long long>(cumulative));
      }
      cumulative += histogram.bucket_count(histogram.bounds().size());
      out += name + "_bucket" +
             prometheus_labels(key.labels, "le=\"+Inf\"") +
             util::format(" %llu\n",
                          static_cast<unsigned long long>(cumulative));
      out += name + "_sum" + prometheus_labels(key.labels) +
             util::format(" %lld\n",
                          static_cast<long long>(histogram.sum()));
      out += name + "_count" + prometheus_labels(key.labels) +
             util::format(" %llu\n", static_cast<unsigned long long>(
                                         histogram.count()));
      // Derived quantile estimates (bucket interpolation, clamped to the
      // tracked min/max) as Summary-style series next to the raw buckets.
      struct Quantile {
        const char* label;
        double q;
      };
      constexpr Quantile kQuantiles[] = {
          {"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}};
      for (const Quantile& quantile : kQuantiles) {
        out += name +
               prometheus_labels(
                   key.labels,
                   util::format("quantile=\"%s\"", quantile.label)) +
               util::format(" %lld\n", static_cast<long long>(
                                           histogram.percentile(quantile.q)));
      }
    }
    last_name = key.name;
  }
  return out;
}

// ---- ScopedSpan -------------------------------------------------------------

ScopedSpan::ScopedSpan(std::string name,
                       std::function<std::int64_t()> sim_clock)
    : registry_(current()), sim_clock_(std::move(sim_clock)) {
  if (registry_ == nullptr) return;
  record_.name = std::move(name);
  record_.wall_start_ns = util::monotonic_time_ns();
  if (sim_clock_) {
    record_.has_sim_time = true;
    record_.sim_start_ns = sim_clock_();
  }
}

ScopedSpan::~ScopedSpan() {
  if (registry_ == nullptr) return;
  record_.wall_end_ns = util::monotonic_time_ns();
  if (sim_clock_) record_.sim_end_ns = sim_clock_();
  registry_->add_span(std::move(record_));
}

// ---- well-known instrument taxonomy ----------------------------------------

void register_defaults(Registry& registry) {
  // sim
  registry.counter("sim.events.dispatched");
  registry.counter("sim.events.cancelled");
  registry.gauge("sim.event_queue.depth_high_water");
  registry.counter("sim.trace.records");
  registry.counter("sim.trace.records_dropped");
  // os
  registry.counter("os.sched.context_switches");
  registry.counter("os.sched.preemptions");
  registry.counter("os.sched.runtime_ns", {{"priority", "idle"}});
  registry.counter("os.sched.runtime_ns", {{"priority", "normal"}});
  registry.counter("os.sched.runtime_ns", {{"priority", "high"}});
  // hw
  registry.counter("hw.bus.contended_placements");
  registry.counter("hw.cpu.occupancy_updates");
  registry.gauge("hw.ram.committed_high_water");
  registry.counter("hw.disk.ops", {{"op", "read"}});
  registry.counter("hw.disk.ops", {{"op", "write"}});
  registry.counter("hw.disk.bytes", {{"op", "read"}});
  registry.counter("hw.disk.bytes", {{"op", "write"}});
  registry.gauge("hw.disk.queue_high_water");
  registry.counter("hw.nic.transfers");
  registry.counter("hw.nic.bytes");
  registry.gauge("hw.nic.queue_high_water");
  // vmm
  registry.counter("vmm.overhead_instructions");
  registry.counter("vmm.vm_exits", {{"reason", "disk"}});
  registry.counter("vmm.vm_exits", {{"reason", "net"}});
  registry.counter("vmm.power_ons");
  registry.counter("vmm.checkpoint.bytes");
  registry.counter("vmm.migration.bytes");
  registry.counter("vmm.migration.precopy_rounds");
  // guest
  registry.counter("guest.page_cache.hit_bytes");
  registry.counter("guest.page_cache.miss_bytes");
  registry.counter("guest.page_cache.writeback_bytes");
  // grid
  registry.counter("grid.server.messages", {{"type", "work"}});
  registry.counter("grid.server.messages", {{"type", "submit"}});
  registry.counter("grid.server.messages", {{"type", "stats"}});
  registry.counter("grid.server.messages", {{"type", "scrape"}});
  registry.counter("grid.server.messages", {{"type", "malformed"}});
  registry.counter("grid.server.reissues");
  registry.histogram("grid.server.rpc_ns", rpc_server_ns_buckets(),
                     {{"type", "work"}});
  registry.histogram("grid.server.rpc_ns", rpc_server_ns_buckets(),
                     {{"type", "submit"}});
  registry.histogram("grid.server.rpc_ns", rpc_server_ns_buckets(),
                     {{"type", "stats"}});
  registry.histogram("grid.server.rpc_ns", rpc_server_ns_buckets(),
                     {{"type", "malformed"}});
  registry.histogram("grid.server.rpc_ns", rpc_server_ns_buckets(),
                     {{"type", "scrape"}});
  registry.counter("grid.client.requests");
  registry.histogram("grid.client.rpc_latency_us", rpc_latency_buckets_us());
}

void write_snapshot(const Registry& registry, const std::string& path) {
  const auto write = [](const std::string& file, const std::string& body) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    if (!out) throw util::SystemError("cannot open " + file, errno);
    out << body;
    if (!out) throw util::SystemError("write failed: " + file, errno);
  };
  write(path, registry.snapshot_json());
  write(path + ".prom", registry.snapshot_prometheus());
}

}  // namespace vgrid::obs
