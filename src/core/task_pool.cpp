#include "core/task_pool.hpp"

#include <algorithm>
#include <exception>
#include <iterator>
#include <thread>

#include "obs/context.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vgrid::core {

namespace {

thread_local bool t_inside_worker = false;
thread_local std::vector<report::WorkerSpan>* t_span_sink = nullptr;

}  // namespace

void set_worker_span_capture(std::vector<report::WorkerSpan>* sink) {
  t_span_sink = sink;
}

std::vector<report::WorkerSpan>* worker_span_capture() noexcept {
  return t_span_sink;
}

TaskPool::TaskPool(int jobs)
    : jobs_(jobs <= 0 ? hardware_jobs() : jobs) {}

int TaskPool::hardware_jobs() noexcept {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

bool TaskPool::inside_worker() noexcept { return t_inside_worker; }

void TaskPool::run(std::size_t count,
                   const std::function<void(std::size_t)>& task,
                   const std::atomic<bool>* cancel,
                   const std::string& label) {
  if (count == 0) return;
  const bool top_level = !t_inside_worker;

  // Per-task slots: observability sinks, spans, and exceptions are all
  // indexed by task so no output depends on completion order. The fan-out
  // forks every sink the calling thread has installed (metrics, profile,
  // journal, timeseries, trace capture) on BOTH the inline and the
  // threaded path, and merges them in task order below — so every export
  // is byte-identical for any --jobs value.
  obs::FanOut sinks(obs::context(), count);
  std::vector<report::WorkerSpan> spans(count);
  std::vector<std::exception_ptr> errors(count);
  std::atomic<bool> failed{false};

  auto run_one = [&](std::size_t index, int worker) {
    report::WorkerSpan& span = spans[index];
    span.worker = worker;
    span.label = util::format("%s %zu", label.c_str(), index);
    span.start_ns = util::monotonic_time_ns();
    try {
      const obs::ScopedContext scope = sinks.install(index);
      task(index);
    } catch (...) {
      errors[index] = std::current_exception();
      failed.store(true, std::memory_order_release);
    }
    span.end_ns = util::monotonic_time_ns();
  };

  auto stop_requested = [&] {
    return (cancel != nullptr &&
            cancel->load(std::memory_order_acquire)) ||
           failed.load(std::memory_order_acquire);
  };

  const int workers =
      static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(jobs_), count));
  if (workers <= 1 || !top_level) {
    // Inline path: --jobs 1, a single task, or a nested pool on a worker
    // thread (the top-level pool already owns the hardware).
    for (std::size_t i = 0; i < count && !stop_requested(); ++i) {
      run_one(i, 0);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        t_inside_worker = true;
        while (!stop_requested()) {
          const std::size_t index =
              next.fetch_add(1, std::memory_order_relaxed);
          if (index >= count) break;
          run_one(index, w);
        }
        t_inside_worker = false;
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Deterministic error propagation: the lowest task index wins, no
  // matter which worker hit it first.
  for (std::size_t i = 0; i < count; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
    throw util::SimulationError(
        util::format("TaskPool: cancelled mid-run (%s, %zu tasks)",
                     label.c_str(), count));
  }

  // Success: fold the per-task sinks in task order — byte-identical to a
  // serial run — and publish the spans.
  sinks.merge();
  if (top_level && t_span_sink != nullptr) {
    t_span_sink->insert(t_span_sink->end(),
                        std::make_move_iterator(spans.begin()),
                        std::make_move_iterator(spans.end()));
  }
}

}  // namespace vgrid::core
