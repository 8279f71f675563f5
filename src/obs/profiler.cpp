#include "obs/profiler.hpp"

#include <cstring>

#include "util/clock.hpp"

namespace vgrid::obs {

Profiler::Profiler() {
  nodes_.push_back(Node{});  // synthetic root
  name_ptrs_.push_back("");
}

std::int32_t Profiler::child_of(std::int32_t parent, const char* name) {
  const Node& node = nodes_[static_cast<std::size_t>(parent)];
  // Fast path: the same call site passes the same literal pointer.
  for (const std::int32_t child : node.children) {
    if (name_ptrs_[static_cast<std::size_t>(child)] == name) return child;
  }
  // Slow path: a different site (possibly another TU) used an equal name.
  for (const std::int32_t child : node.children) {
    if (nodes_[static_cast<std::size_t>(child)].name == name) return child;
  }
  const auto index = static_cast<std::int32_t>(nodes_.size());
  Node child;
  child.name = name;
  child.parent = parent;
  nodes_.push_back(std::move(child));
  name_ptrs_.push_back(name);
  nodes_[static_cast<std::size_t>(parent)].children.push_back(index);
  return index;
}

std::int32_t Profiler::enter(const char* name) {
  const std::int32_t index = child_of(current_, name);
  current_ = index;
  return index;
}

void Profiler::leave(std::int32_t index, std::int64_t elapsed_ns) noexcept {
  Node& node = nodes_[static_cast<std::size_t>(index)];
  ++node.count;
  node.inclusive_ns += elapsed_ns;
  current_ = node.parent;
}

std::int64_t Profiler::exclusive_ns(std::int32_t index) const noexcept {
  const Node& node = nodes_[static_cast<std::size_t>(index)];
  std::int64_t exclusive = node.inclusive_ns;
  for (const std::int32_t child : node.children) {
    exclusive -= nodes_[static_cast<std::size_t>(child)].inclusive_ns;
  }
  return exclusive;
}

std::int64_t Profiler::total_ns() const noexcept {
  std::int64_t total = 0;
  for (const std::int32_t child : nodes_[0].children) {
    total += nodes_[static_cast<std::size_t>(child)].inclusive_ns;
  }
  return total;
}

void Profiler::merge_from(const Profiler& other) {
  // Walk `other` depth-first in its own child order; matching by name
  // under the mapped parent keeps equal paths aggregated. The visit order
  // only affects creation order of previously-unseen siblings, and
  // exporters sort children by name, so merged output is order-free.
  struct Pending {
    std::int32_t theirs;
    std::int32_t ours;
  };
  std::vector<Pending> stack{{0, current_}};
  while (!stack.empty()) {
    const Pending top = stack.back();
    stack.pop_back();
    const Node& theirs = other.nodes_[static_cast<std::size_t>(top.theirs)];
    if (top.theirs != 0) {
      Node& ours = nodes_[static_cast<std::size_t>(top.ours)];
      ours.count += theirs.count;
      ours.inclusive_ns += theirs.inclusive_ns;
    }
    // Reverse order so the stack pops children in their original order.
    for (auto it = theirs.children.rbegin(); it != theirs.children.rend();
         ++it) {
      const Node& their_child = other.nodes_[static_cast<std::size_t>(*it)];
      const std::int32_t our_child =
          child_of(top.ours, their_child.name.c_str());
      // child_of may have stored a pointer into `other`'s storage; repoint
      // the fast-path cache at our own stable copy.
      name_ptrs_[static_cast<std::size_t>(our_child)] =
          nodes_[static_cast<std::size_t>(our_child)].name.c_str();
      stack.push_back({*it, our_child});
    }
  }
}

// ---- ProfScope --------------------------------------------------------------

void ProfScope::begin(const char* name) {
  node_ = profiler_->enter(name);
  start_ns_ = util::monotonic_time_ns();
}

void ProfScope::end() noexcept {
  profiler_->leave(node_, util::monotonic_time_ns() - start_ns_);
}

}  // namespace vgrid::obs
