#include "obs/context.hpp"

#include "obs/event_log.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"

namespace vgrid::obs {

namespace detail {

thread_local constinit Context t_context{};

}  // namespace detail

FanOut::FanOut(const Context& parent, std::size_t count) : parent_(parent) {
  if (parent_ == Context{}) return;
  tasks_.resize(count);
  for (Task& task : tasks_) {
    if (parent_.registry != nullptr) {
      task.registry = std::make_unique<Registry>();
    }
    if (parent_.profiler != nullptr) {
      task.profiler = std::make_unique<Profiler>();
    }
    if (parent_.event_log != nullptr) {
      task.event_log = std::make_unique<EventLog>(parent_.event_log->config());
    }
    if (parent_.timeseries != nullptr) {
      task.timeseries =
          std::make_unique<Timeseries>(parent_.timeseries->config());
    }
  }
}

FanOut::~FanOut() = default;

ScopedContext FanOut::install(std::size_t index) {
  if (tasks_.empty()) return ScopedContext(Context{});
  Task& task = tasks_[index];
  return ScopedContext(Context{
      task.registry.get(), task.profiler.get(), task.event_log.get(),
      task.timeseries.get(),
      parent_.trace_capture != nullptr ? &task.trace_capture : nullptr});
}

void FanOut::merge() {
  for (const Task& task : tasks_) {
    if (parent_.registry != nullptr) {
      parent_.registry->merge_from(*task.registry);
    }
    if (parent_.profiler != nullptr) {
      parent_.profiler->merge_from(*task.profiler);
    }
    if (parent_.event_log != nullptr) {
      parent_.event_log->merge_from(*task.event_log);
    }
    if (parent_.timeseries != nullptr) {
      parent_.timeseries->merge_from(*task.timeseries);
    }
    if (parent_.trace_capture != nullptr) {
      parent_.trace_capture->append(task.trace_capture);
    }
  }
}

}  // namespace vgrid::obs
