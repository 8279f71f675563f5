#include "obs/event_log.hpp"

#include <algorithm>
#include <utility>

#include "util/strings.hpp"

namespace vgrid::obs {

namespace {

std::string parent_text(std::uint32_t parent) {
  if (parent == kNoParent) return "-";
  return util::format("%u", parent);
}

}  // namespace

// ---- taxonomy ---------------------------------------------------------------

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kCreated: return "created";
    case EventKind::kDispatched: return "dispatched";
    case EventKind::kComputing: return "computing";
    case EventKind::kSubmitted: return "submitted";
    case EventKind::kValidated: return "validated";
    case EventKind::kInvalid: return "invalid";
    case EventKind::kReissued: return "reissued";
    case EventKind::kExpired: return "expired";
    case EventKind::kCredited: return "credited";
  }
  return "?";
}

bool event_kind_anomalous(EventKind kind) noexcept {
  return kind == EventKind::kReissued || kind == EventKind::kExpired ||
         kind == EventKind::kInvalid;
}

Component event_component(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kDispatched: return Component::kQueueWait;
    case EventKind::kSubmitted: return Component::kCompute;
    case EventKind::kValidated:
    case EventKind::kInvalid: return Component::kValidation;
    case EventKind::kReissued:
    case EventKind::kExpired: return Component::kRetry;
    case EventKind::kCreated:
    case EventKind::kComputing:
    case EventKind::kCredited: return Component::kNone;
  }
  return Component::kNone;
}

const char* component_name(Component component) noexcept {
  switch (component) {
    case Component::kQueueWait: return "queue_wait";
    case Component::kCompute: return "compute";
    case Component::kValidation: return "validation";
    case Component::kRetry: return "retry";
    case Component::kNone: return "none";
  }
  return "?";
}

std::vector<std::int64_t> event_duration_ms_buckets() {
  return {25,   50,   100,   200,   400,   800,    1600,
          3200, 6400, 12800, 25600, 51200, 102400};
}

// ---- EventLog ---------------------------------------------------------------

EventLog::EventLog() : EventLog(Config{}) {}

EventLog::EventLog(Config config) : config_(std::move(config)) {
  if (config_.duration_bounds.empty()) {
    config_.duration_bounds = event_duration_ms_buckets();
  }
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    component_hist_[i] = &stats_.histogram(
        "trace.component", config_.duration_bounds,
        {{"part", component_name(static_cast<Component>(i))}});
  }
  turnaround_hist_ =
      &stats_.histogram("trace.turnaround", config_.duration_bounds);
}

Trace* EventLog::find_open_locked(std::uint64_t trace_id) {
  const auto it = open_.find(trace_id);
  return it == open_.end() ? nullptr : &it->second;
}

void EventLog::open_trace(std::uint64_t trace_id, std::int64_t t_ns,
                          std::string label) {
  static_cast<void>(t_ns);  // traces carry time on their events
  const std::lock_guard<std::mutex> lock(mutex_);
  if (open_.count(trace_id) != 0 || closed_index_.count(trace_id) != 0) {
    ++duplicate_opens_;
    return;
  }
  Trace trace;
  trace.trace_id = trace_id;
  trace.label = std::move(label);
  trace.events.reserve(8);
  open_.emplace(trace_id, std::move(trace));
  ++opened_;
}

void EventLog::append_event(std::uint64_t trace_id, EventKind kind,
                            std::int64_t t_ns, std::int64_t value,
                            std::int64_t aux, std::uint32_t parent) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Trace* trace = find_open_locked(trace_id);
  if (trace == nullptr) {
    if (closed_index_.count(trace_id) != 0) {
      ++dropped_appends_;
      return;
    }
    // Implicit open: a contributor appended before (or without) the
    // opener — e.g. a client-side event racing the server's sub-log.
    Trace orphan;
    orphan.trace_id = trace_id;
    orphan.events.reserve(8);
    trace = &open_.emplace(trace_id, std::move(orphan)).first->second;
    ++opened_;
  }
  Event event;
  event.seq = static_cast<std::uint32_t>(trace->events.size());
  if (parent == kPrevEvent) {
    event.parent = trace->events.empty() ? kNoParent : event.seq - 1;
  } else {
    event.parent = parent;
  }
  event.kind = kind;
  event.t_ns = t_ns;
  event.value = value;
  event.aux = aux;
  if (event_kind_anomalous(kind)) trace->anomalous = true;
  trace->events.push_back(event);
}

void EventLog::finalize_components(Trace& trace) const {
  for (std::size_t i = 0; i < kComponentCount; ++i) trace.components[i] = 0;
  for (const Event& event : trace.events) {
    const Component component = event_component(event.kind);
    if (component != Component::kNone) {
      trace.components[static_cast<std::size_t>(component)] += event.value;
    }
  }
}

void EventLog::account_locked(const Trace& trace) {
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    component_hist_[i]->observe(trace.components[i]);
  }
  turnaround_hist_->observe(trace.total());
  const auto ledger_it = ledger_.find(trace.label);
  LedgerHandles handles{};
  if (ledger_it != ledger_.end()) {
    handles = ledger_it->second;
  } else {
    const Labels labels{{"label", trace.label}};
    handles.deaths = &stats_.counter("trace.deaths", labels);
    handles.reissues = &stats_.counter("trace.reissues", labels);
    handles.wasted_duration = &stats_.counter("trace.wasted_duration", labels);
    handles.wasted_ops_milli =
        &stats_.counter("trace.wasted_ops_milli", labels);
    ledger_.emplace(trace.label, handles);
  }
  std::uint64_t deaths = 0;
  std::uint64_t reissues = 0;
  std::int64_t wasted_ops_milli = 0;
  for (const Event& event : trace.events) {
    if (event.kind == EventKind::kExpired) {
      ++deaths;
      wasted_ops_milli += event.aux;
    } else if (event.kind == EventKind::kReissued) {
      ++reissues;
    }
  }
  handles.deaths->add(deaths);
  handles.reissues->add(reissues);
  handles.wasted_duration->add(static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, trace.components[static_cast<std::size_t>(
                                    Component::kRetry)])));
  handles.wasted_ops_milli->add(
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, wasted_ops_milli)));
}

void EventLog::close_trace(std::uint64_t trace_id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = open_.find(trace_id);
  if (it == open_.end()) {
    ++dropped_appends_;
    return;
  }
  Trace trace = std::move(it->second);
  open_.erase(it);
  finalize_components(trace);
  account_locked(trace);
  ++closed_count_;
  if (trace.anomalous) ++anomalous_count_;
  retain_locked(std::move(trace));
}

void EventLog::retain_locked(Trace&& trace) {
  trace.close_seq_ = next_close_seq_++;
  closed_.push_back(std::move(trace));
  const auto it = std::prev(closed_.end());
  closed_index_.emplace(it->trace_id, it);
  if (config_.ring_capacity == 0 || it->anomalous) return;
  // Flight recorder: pin the tail_keep slowest normals, ring the rest.
  const TailKey key{it->total(), it->trace_id};
  if (tail_.size() < config_.tail_keep) {
    tail_.insert(key);
  } else if (config_.tail_keep > 0 && *tail_.begin() < key) {
    const TailKey weakest = *tail_.begin();
    tail_.erase(tail_.begin());
    tail_.insert(key);
    const auto demoted = closed_index_.find(weakest.id);
    if (demoted != closed_index_.end()) {
      ring_.insert({demoted->second->close_seq_, weakest.id});
    }
  } else {
    ring_.insert({it->close_seq_, it->trace_id});
  }
  evict_over_capacity_locked();
}

void EventLog::evict_over_capacity_locked() {
  while (ring_.size() > config_.ring_capacity) {
    const auto oldest = ring_.begin();
    const std::uint64_t id = oldest->second;
    ring_.erase(oldest);
    const auto indexed = closed_index_.find(id);
    if (indexed == closed_index_.end()) continue;
    closed_.erase(indexed->second);
    closed_index_.erase(indexed);
    ++evicted_;
  }
}

void EventLog::merge_from(const EventLog& other) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (drop_next_merge_) {
      drop_next_merge_ = false;
      return;
    }
  }
  // Snapshot `other` first so the two mutexes are never held together.
  std::vector<Trace> other_closed;
  std::vector<Trace> other_open;
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;
  std::uint64_t anomalous = 0;
  std::uint64_t evicted = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(other.mutex_);
    other_closed.assign(other.closed_.begin(), other.closed_.end());
    other_open.reserve(other.open_.size());
    for (const auto& [id, trace] : other.open_) other_open.push_back(trace);
    opened = other.opened_;
    closed = other.closed_count_;
    anomalous = other.anomalous_count_;
    evicted = other.evicted_;
    duplicates = other.duplicate_opens_;
    dropped = other.dropped_appends_;
  }
  stats_.merge_from(other.stats_);
  const std::lock_guard<std::mutex> lock(mutex_);
  opened_ += opened;
  closed_count_ += closed;
  anomalous_count_ += anomalous;
  evicted_ += evicted;
  duplicate_opens_ += duplicates;
  dropped_appends_ += dropped;
  for (Trace& trace : other_closed) {
    // A local open trace with the same id holds out-of-order contributor
    // events (see append_event): fold them into the closed lifecycle.
    const auto orphan = open_.find(trace.trace_id);
    if (orphan != open_.end()) {
      const auto offset = static_cast<std::uint32_t>(trace.events.size());
      for (Event event : orphan->second.events) {
        event.seq += offset;
        if (event.parent != kNoParent) event.parent += offset;
        trace.events.push_back(event);
        if (event_kind_anomalous(event.kind)) trace.anomalous = true;
      }
      open_.erase(orphan);
      finalize_components(trace);
    }
    retain_locked(std::move(trace));
  }
  for (Trace& trace : other_open) {
    const auto local = open_.find(trace.trace_id);
    if (local == open_.end()) {
      open_.emplace(trace.trace_id, std::move(trace));
      continue;
    }
    Trace& dst = local->second;
    const auto offset = static_cast<std::uint32_t>(dst.events.size());
    for (Event event : trace.events) {
      event.seq += offset;
      if (event.parent != kNoParent) event.parent += offset;
      if (event_kind_anomalous(event.kind)) dst.anomalous = true;
      dst.events.push_back(event);
    }
    if (dst.label.empty()) dst.label = std::move(trace.label);
  }
}

void EventLog::inject_dropped_merge_for_test() noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  drop_next_merge_ = true;
}

// ---- queries ----------------------------------------------------------------

std::uint64_t EventLog::traces_opened() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return opened_;
}
std::uint64_t EventLog::traces_closed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return closed_count_;
}
std::uint64_t EventLog::traces_anomalous() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return anomalous_count_;
}
std::uint64_t EventLog::ring_churn() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}
std::uint64_t EventLog::duplicate_opens() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return duplicate_opens_;
}
std::uint64_t EventLog::dropped_appends() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_appends_;
}
std::size_t EventLog::open_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return open_.size();
}
std::size_t EventLog::retained_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return closed_.size();
}

std::vector<const Trace*> EventLog::traces() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Trace*> out;
  out.reserve(closed_.size());
  for (const Trace& trace : closed_) out.push_back(&trace);
  return out;
}

const Trace* EventLog::find_trace(std::uint64_t trace_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = closed_index_.find(trace_id);
  return it == closed_index_.end() ? nullptr : &*it->second;
}

std::string EventLog::render_journal() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = util::format(
      "eventlog v1 unit=%s ring=%llu tail=%llu\n",
      config_.unit.c_str(),
      static_cast<unsigned long long>(config_.ring_capacity),
      static_cast<unsigned long long>(config_.tail_keep));
  out += util::format(
      "opened=%llu closed=%llu anomalous=%llu evicted=%llu "
      "duplicate_opens=%llu dropped_appends=%llu open=%llu retained=%llu\n",
      static_cast<unsigned long long>(opened_),
      static_cast<unsigned long long>(closed_count_),
      static_cast<unsigned long long>(anomalous_count_),
      static_cast<unsigned long long>(evicted_),
      static_cast<unsigned long long>(duplicate_opens_),
      static_cast<unsigned long long>(dropped_appends_),
      static_cast<unsigned long long>(open_.size()),
      static_cast<unsigned long long>(closed_.size()));
  const auto render_trace = [&out](const Trace& trace, const char* state) {
    out += util::format(
        "trace id=%llu label=%s state=%s anomalous=%d events=%llu "
        "total=%lld queue_wait=%lld compute=%lld validation=%lld "
        "retry=%lld\n",
        static_cast<unsigned long long>(trace.trace_id),
        trace.label.empty() ? "-" : trace.label.c_str(), state,
        trace.anomalous ? 1 : 0,
        static_cast<unsigned long long>(trace.events.size()),
        static_cast<long long>(trace.total()),
        static_cast<long long>(trace.components[0]),
        static_cast<long long>(trace.components[1]),
        static_cast<long long>(trace.components[2]),
        static_cast<long long>(trace.components[3]));
    for (const Event& event : trace.events) {
      out += util::format(
          "  e%u p=%s k=%s t=%lld v=%lld a=%lld\n", event.seq,
          parent_text(event.parent).c_str(), event_kind_name(event.kind),
          static_cast<long long>(event.t_ns),
          static_cast<long long>(event.value),
          static_cast<long long>(event.aux));
    }
  };
  // closed_index_ / open_ are id-ordered maps, so this is sorted output.
  for (const auto& [id, it] : closed_index_) render_trace(*it, "closed");
  for (const auto& [id, trace] : open_) render_trace(trace, "open");
  return out;
}

}  // namespace vgrid::obs
