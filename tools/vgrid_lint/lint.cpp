#include "vgrid_lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace vgrid::lint {
namespace {

// ---------------------------------------------------------------------------
// Source sanitization. `code` has comments and string/char literals blanked
// (newlines and length preserved) so token rules never fire on prose;
// `comments` is the dual — only comment text survives — and is what the
// suppression parser reads, so a lint fixture embedded in a test's raw
// string can never register suppressions or seed notes. Handles //, /* */,
// "..." with escapes, '...', digit separators, and R"delim(...)delim".
// ---------------------------------------------------------------------------

struct Sanitized {
  std::string code;
  std::string comments;
};

Sanitized sanitize(const std::string& text) {
  Sanitized out;
  out.code = text;
  out.comments.assign(text.size(), ' ');
  for (std::size_t k = 0; k < text.size(); ++k) {
    if (text[k] == '\n') out.comments[k] = '\n';
  }
  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;  // for kRaw: the ")delim\"" terminator
  std::size_t i = 0;
  const std::size_t n = text.size();
  auto blank = [&](std::size_t at) {
    if (out.code[at] != '\n') out.code[at] = ' ';
  };
  auto comment = [&](std::size_t at) {
    blank(at);
    if (text[at] != '\n') out.comments[at] = text[at];
  };
  while (i < n) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          comment(i);
          comment(i + 1);
          i += 2;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          comment(i);
          comment(i + 1);
          i += 2;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 ||
                    (!std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
                     text[i - 1] != '_'))) {
          // Raw string literal: R"delim( ... )delim"
          std::size_t j = i + 2;
          std::string delim;
          while (j < n && text[j] != '(' && j - i - 2 < 16) {
            delim.push_back(text[j]);
            ++j;
          }
          if (j < n && text[j] == '(') {
            raw_delim = ")" + delim + "\"";
            for (std::size_t k = i; k <= j; ++k) blank(k);
            i = j + 1;
            state = State::kRaw;
          } else {
            ++i;  // not a raw string after all
          }
        } else if (c == '"') {
          state = State::kString;
          blank(i);
          ++i;
        } else if (c == '\'') {
          // Distinguish char literals from digit separators (1'000'000):
          // a separator is sandwiched between alphanumerics.
          const bool separator =
              i > 0 &&
              std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
              i + 1 < n &&
              std::isalnum(static_cast<unsigned char>(text[i + 1]));
          if (separator) {
            ++i;
          } else {
            state = State::kChar;
            blank(i);
            ++i;
          }
        } else {
          ++i;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
          ++i;
        } else {
          comment(i);
          ++i;
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          comment(i);
          comment(i + 1);
          i += 2;
          state = State::kCode;
        } else {
          comment(i);
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '"') {
          blank(i);
          ++i;
          state = State::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '\'') {
          blank(i);
          ++i;
          state = State::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
      case State::kRaw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 0; k < raw_delim.size(); ++k) blank(i + k);
          i += raw_delim.size();
          state = State::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

// ---------------------------------------------------------------------------
// Rule table and scoping
// ---------------------------------------------------------------------------

const std::vector<std::string> kRules = {
    "det-random-device", "det-libc-rand",         "det-wall-clock",
    "det-getenv",        "det-unordered-ptr-key", "det-unordered-iter",
    "safety-raw-new",    "safety-raw-delete",     "safety-c-cast",
    "safety-omp-seed",   "safety-catch-value",    "safety-override",
    "layer-include",     "obs-stdio",             "lint-allow",
    "lint-io",           "mc-wall-clock",         "mc-real-socket",
    "mc-unordered",      "obs-eventlog-gateway",  "sim-hot-alloc",
    "obs-timeseries-gateway",
};

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Determinism rules apply to all of src/ except the sanctioned gateways:
/// util/clock.* (the only wall-clock entry point) and util/rng.* (the only
/// randomness entry point). Real-I/O subsystems (grid RPC, timesvc,
/// iobench/netbench native modes) carry their own file-scoped
/// `vgrid-lint: allow` suppressions with reasons.
bool determinism_scope(const std::string& path) {
  if (!starts_with(path, "src/")) return false;
  static const std::array<const char*, 2> kGateways = {"src/util/clock.",
                                                       "src/util/rng."};
  for (const char* gateway : kGateways) {
    if (starts_with(path, gateway)) return false;
  }
  return true;
}

/// The obs-stdio rule applies to library code (src/) only: direct stdout/
/// stderr writes bypass the metrics/report layer, so instrumented code
/// must go through obs instruments or report renderers. src/report (the
/// rendering layer) and src/obs (the metrics layer) are exempt by
/// construction; util/log.* and util/audit.* are sanctioned gateways that
/// carry explicit allow() suppressions instead, so a new print there is a
/// conscious decision.
bool obs_stdio_scope(const std::string& path) {
  if (!starts_with(path, "src/")) return false;
  return !starts_with(path, "src/report/") && !starts_with(path, "src/obs/");
}

/// The eventlog-gateway rule applies to library code (src/) outside the
/// journal's own implementation (src/obs/): lifecycle events must go
/// through the EVT_* macros so the VGRID_EVENTLOG kill switch (and the
/// per-TU VGRID_EVENTLOG_FORCE_OFF override) can compile every site out.
/// Direct open_trace/append_event/close_trace calls would survive the
/// switch and skew the disabled-mode fast path. Cross-thread sub-logs
/// fork and merge only through obs::FanOut (src/obs/context.*), the one
/// merge seam, which lives inside the exempt layer — so no caller outside
/// src/obs needs an allow().
bool eventlog_gateway_scope(const std::string& path) {
  if (!starts_with(path, "src/")) return false;
  return !starts_with(path, "src/obs/");
}

/// The timeseries-gateway rule applies to library code (src/) outside the
/// sampler's own layer (src/obs/): raw registry scrapes
/// (snapshot_json/snapshot_prometheus calls) outside obs bypass the
/// deterministic sampler — ad-hoc scrape cadences are exactly the
/// nondeterminism obs::Timeseries::sample was built to prevent. Point-in-
/// time exports go through obs::write_snapshot at run end; time-resolved
/// data goes through the Timeseries quartet contract. The live SCRAPE RPC
/// (grid/server) carries an explicit allow() with a reason: its wall-clock
/// exposition never feeds the deterministic exports.
bool timeseries_gateway_scope(const std::string& path) {
  if (!starts_with(path, "src/")) return false;
  return !starts_with(path, "src/obs/");
}

/// mc-purity applies to everything the model checker executes inside its
/// DFS: src/mc itself plus the instrumented protocol core it drives
/// (grid/server_logic, grid/validator, grid/workunit). These files must be
/// replayable — a schedule file re-executed tomorrow must reach the same
/// states — so wall-clock reads, real sockets and unordered containers
/// (whose iteration order would leak into canonical state hashes) are
/// banned. grid/server and grid/client (the real RPC wrappers) stay out of
/// scope: they own the sockets and clocks by design.
bool mc_purity_scope(const std::string& path) {
  if (starts_with(path, "src/mc/")) return true;
  static const std::array<const char*, 3> kCore = {"src/grid/server_logic.",
                                                   "src/grid/validator.",
                                                   "src/grid/workunit."};
  for (const char* prefix : kCore) {
    if (starts_with(path, prefix)) return true;
  }
  return false;
}

/// sim-hot-alloc applies to the per-event hot path: the event queue (one
/// push/pop per simulated event) and the scheduler (one resched per
/// scheduling event). These files earn their throughput by being
/// allocation-free — std::function (heap-allocating type erasure) and
/// allocating new / make_unique / make_shared are banned so the arena
/// design can't silently regress. Placement new (`new (buf) T`) is exempt:
/// it constructs into existing storage and allocates nothing. spawn()'s
/// thread construction carries an explicit allow() — setup, not hot path.
bool sim_hot_alloc_scope(const std::string& path) {
  return starts_with(path, "src/sim/event_queue.") ||
         starts_with(path, "src/os/scheduler.");
}

std::string top_dir(const std::string& include_path) {
  const auto slash = include_path.find('/');
  return slash == std::string::npos ? std::string()
                                    : include_path.substr(0, slash);
}

/// ARCHITECTURE.md §1, encoded: each src/ directory and the set of src/
/// directories it may include (itself always allowed). report sits above
/// sim (it renders sim::TraceRecord streams); everything else follows the
/// diagram bottom-up.
const std::map<std::string, std::set<std::string>>& layer_policy() {
  // obs sits just above util (it must be linkable from every layer), so
  // every instrumented directory lists it.
  static const std::map<std::string, std::set<std::string>> kPolicy = {
      {"util", {"util"}},
      {"obs", {"obs", "util"}},
      {"stats", {"stats", "util"}},
      {"sim", {"sim", "obs", "util"}},
      {"report", {"report", "obs", "sim", "stats", "util"}},
      {"hw", {"hw", "obs", "sim", "util"}},
      {"os", {"os", "hw", "obs", "sim", "util"}},
      {"guest", {"guest", "hw", "obs", "os", "sim", "util"}},
      {"vmm", {"vmm", "guest", "hw", "obs", "os", "sim", "util"}},
      {"workloads",
       {"workloads", "guest", "hw", "obs", "os", "sim", "stats", "util",
        "vmm"}},
      // grid <-> mc is the one sanctioned two-way edge: mc's *seam*
      // (mc/transition.hpp, the vgrid_mc_seam target) sits below grid so
      // the protocol core can announce transitions, while mc's *explorer*
      // (model/invariants/explorer, the vgrid_mc target) sits above grid
      // and drives ServerLogic directly. The build enforces the real
      // acyclicity: vgrid_mc_seam links nothing, vgrid_grid links the
      // seam, vgrid_mc links vgrid_grid.
      {"grid", {"grid", "mc", "obs", "stats", "util"}},
      {"mc", {"mc", "grid", "obs", "util"}},
      {"timesvc", {"timesvc", "util"}},
      // scenario is declarative data over the hardware/OS/VMM vocabulary:
      // it may name things those layers define, but must not reach up into
      // the experiment engine (core) or rendering (report).
      {"scenario", {"scenario", "hw", "obs", "os", "vmm", "util"}},
      {"core",
       {"core", "grid", "guest", "hw", "obs", "os", "report", "scenario",
        "sim", "stats", "timesvc", "util", "vmm", "workloads"}},
      // fleet aggregates per-host testbeds, so it sits beside core at the
      // top of the simulation stack — but it renders nothing (no report)
      // and owns no protocol (no grid/mc).
      {"fleet",
       {"fleet", "core", "hw", "obs", "os", "scenario", "sim", "util",
        "vmm"}},
  };
  return kPolicy;
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Suppressions {
  std::set<std::string> file_rules;                 // allow-file(...)
  std::map<int, std::set<std::string>> line_rules;  // line -> rules
  std::vector<Diagnostic> errors;                   // malformed allows
};

bool blank(const std::string& text) {
  return text.find_first_not_of(" \t\r") == std::string::npos;
}

Suppressions parse_suppressions(
    const std::string& path, const std::vector<std::string>& code_lines,
    const std::vector<std::string>& comment_lines) {
  static const std::regex kAllow(
      R"(vgrid-lint:\s*(allow|allow-file)\(([A-Za-z0-9\-]*)\)\s*(.*))");
  Suppressions result;
  for (std::size_t i = 0; i < comment_lines.size(); ++i) {
    const int line_no = static_cast<int>(i) + 1;
    auto begin = std::sregex_iterator(comment_lines[i].begin(),
                                      comment_lines[i].end(), kAllow);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string kind = (*it)[1];
      const std::string rule = (*it)[2];
      std::string reason = (*it)[3];
      if (!reason.empty() && reason[0] == ':') reason.erase(0, 1);
      while (!reason.empty() && reason.front() == ' ') reason.erase(0, 1);
      if (std::find(kRules.begin(), kRules.end(), rule) == kRules.end()) {
        result.errors.push_back({path, line_no, "lint-allow",
                                 "allow() names unknown rule '" + rule + "'"});
        continue;
      }
      if (reason.empty()) {
        result.errors.push_back(
            {path, line_no, "lint-allow",
             "allow(" + rule +
                 ") requires a reason: `// vgrid-lint: allow(" + rule +
                 "): why this is legitimate`"});
        continue;
      }
      if (kind == "allow-file") {
        result.file_rules.insert(rule);
      } else {
        // Applies to this line, the rest of its contiguous comment block
        // (reasons often wrap), and the first code line after it.
        result.line_rules[line_no].insert(rule);
        std::size_t j = i + 1;
        while (j < comment_lines.size() && j < code_lines.size() &&
               blank(code_lines[j]) && !blank(comment_lines[j])) {
          result.line_rules[static_cast<int>(j) + 1].insert(rule);
          ++j;
        }
        result.line_rules[static_cast<int>(j) + 1].insert(rule);
      }
    }
  }
  return result;
}

bool suppressed(const Suppressions& sup, int line, const std::string& rule) {
  if (sup.file_rules.count(rule) != 0) return true;
  const auto it = sup.line_rules.find(line);
  return it != sup.line_rules.end() && it->second.count(rule) != 0;
}

// ---------------------------------------------------------------------------
// Per-line token rules
// ---------------------------------------------------------------------------

struct LineRule {
  const char* id;
  const char* message;
  std::regex pattern;
};

const std::vector<LineRule>& determinism_rules() {
  static const std::vector<LineRule> kDet = [] {
    std::vector<LineRule> rules;
    rules.push_back(
        {"det-random-device",
         "nondeterministic seed source; derive seeds from RunnerConfig and "
         "util::Xoshiro256 (src/util/rng.hpp, the sanctioned gateway)",
         std::regex(R"(\brandom_device\b)")});
    rules.push_back(
        {"det-libc-rand",
         "libc PRNG has process-global hidden state; use util::Xoshiro256 "
         "(src/util/rng.hpp, the sanctioned gateway)",
         std::regex(
             R"(\b(?:rand|srand|rand_r|drand48|lrand48|random)\s*\()")});
    rules.push_back(
        {"det-wall-clock",
         "wall-clock read in simulation code; use sim::Simulator::now() for "
         "model time or util/clock.hpp (the sanctioned gateway) for native "
         "measurement",
         std::regex(
             R"(\b(?:system_clock|steady_clock|high_resolution_clock|clock_gettime|gettimeofday|mach_absolute_time|QueryPerformanceCounter)\b|\btime\s*\(\s*(?:nullptr|NULL|0)?\s*\))")});
    rules.push_back(
        {"det-getenv",
         "environment reads make runs host-dependent; thread configuration "
         "through explicit config structs",
         std::regex(R"(\b(?:getenv|secure_getenv)\s*\()")});
    rules.push_back(
        {"det-unordered-ptr-key",
         "pointer-keyed unordered container: hash order follows allocation "
         "addresses and varies run to run; key by a stable id instead",
         std::regex(R"(unordered_(?:map|set)\s*<\s*[^,<>]*\*)")});
    return rules;
  }();
  return kDet;
}

/// The mc-purity family (scope: mc_purity_scope above). det-wall-clock
/// already bans the std clocks in all of src/, so mc-wall-clock targets
/// the two *sanctioned* native-time gateways — banned here because even a
/// legitimate clock read makes a schedule unreplayable; model-checked code
/// receives time as an explicit now_ns argument instead.
const std::vector<LineRule>& mc_purity_rules() {
  static const std::vector<LineRule> kMc = [] {
    std::vector<LineRule> rules;
    rules.push_back(
        {"mc-wall-clock",
         "clock read in model-checked code; the explorer replays schedules, "
         "so time must arrive as an explicit now_ns argument (the model "
         "passes a constant logical clock)",
         std::regex(
             R"(\b(?:WallTimer|monotonic_time_ns|process_cpu_time_ns)\b)")});
    rules.push_back(
        {"mc-real-socket",
         "real network call in model-checked code; the explorer executes "
         "this path thousands of times per run — protocol logic must stay "
         "in-process (sockets live in grid/server and grid/client)",
         std::regex(
             R"(\btcp::|\b(?:socket|connect|accept|bind|listen|recv|send|setsockopt)\s*\()")});
    rules.push_back(
        {"mc-unordered",
         "unordered container in model-checked code; canonical state "
         "hashing and deterministic DFS expansion need ordered iteration — "
         "use std::map/std::set/std::vector",
         std::regex(R"(\bunordered_(?:map|set|multimap|multiset)\b)")});
    return rules;
  }();
  return kMc;
}

/// The sim-hot-alloc family (scope: sim_hot_alloc_scope above): per-event
/// allocation bans for the kernel hot path. `new` uses a negative
/// lookahead so the placement form (`new (buf) T`, which allocates
/// nothing) stays legal; `#include <new>` is not a `new` expression and is
/// filtered by the caller.
const std::vector<LineRule>& sim_hot_alloc_rules() {
  static const std::vector<LineRule> kHot = [] {
    std::vector<LineRule> rules;
    rules.push_back(
        {"sim-hot-alloc",
         "std::function in the sim hot path heap-allocates per event; use "
         "the queue's InlineCallback arena slots (templated push/schedule)",
         std::regex(R"(\bstd\s*::\s*function\b)")});
    rules.push_back(
        {"sim-hot-alloc",
         "allocating new in the sim hot path; events and callbacks must "
         "live in the arena (placement new into existing storage is exempt)",
         std::regex(R"(\bnew\b(?!\s*\())")});
    rules.push_back(
        {"sim-hot-alloc",
         "make_unique/make_shared in the sim hot path allocates per event; "
         "keep per-event state in the arena (setup-time ownership needs an "
         "explicit allow() with a reason)",
         std::regex(R"(\bmake_(?:unique|shared)\b)")});
    return rules;
  }();
  return kHot;
}

/// C-style casts. The authoritative check is -Wold-style-cast (on in every
/// build); this catches the common forms in unbuilt configurations.
/// `sizeof(T)`, `alignof(T)` and `decltype(x)` are not casts.
void check_c_cast(const std::string& path, int line_no,
                  const std::string& code, std::vector<Diagnostic>* out) {
  static const std::regex kCast(
      R"(\(\s*(?:const\s+)?(?:unsigned\s+|signed\s+)?(?:std::)?(?:size_t|ssize_t|ptrdiff_t|u?int(?:8|16|32|64)_t|u?intptr_t|int|long(?:\s+long)?(?:\s+int)?|short|char|float|double|bool|void\s*\*)\s*(?:const\s*)?\**\s*\)\s*[A-Za-z_0-9(&*~!])");
  static const std::regex kNotCast(R"((?:sizeof|alignof|decltype)\s*$)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kCast);
       it != std::sregex_iterator(); ++it) {
    const std::string before =
        code.substr(0, static_cast<std::size_t>(it->position(0)));
    if (std::regex_search(before, kNotCast)) continue;
    out->push_back({path, line_no, "safety-c-cast",
                    "C-style cast; use static_cast/reinterpret_cast (also "
                    "enforced by -Wold-style-cast)"});
  }
}

/// Raw `new`/`delete` outside smart-pointer factories. `= delete` (deleted
/// functions) and `operator new/delete` declarations are not flagged.
void check_raw_new_delete(const std::string& path, int line_no,
                          const std::string& code,
                          std::vector<Diagnostic>* out) {
  static const std::regex kNew(R"(\bnew\b)");
  static const std::regex kDelete(R"(\bdelete\b)");
  static const std::regex kDeletedFn(R"(=\s*delete\b)");
  static const std::regex kOperator(R"(operator\s+(?:new|delete)\b)");
  static const std::regex kIncludeLine(R"(^\s*#\s*include\b)");
  if (std::regex_search(code, kIncludeLine)) return;  // `#include <new>`
  if (std::regex_search(code, kNew) && !std::regex_search(code, kOperator)) {
    out->push_back({path, line_no, "safety-raw-new",
                    "raw new; use std::make_unique/std::make_shared so "
                    "ownership is explicit"});
  }
  if (std::regex_search(code, kDelete) &&
      !std::regex_search(code, kDeletedFn) &&
      !std::regex_search(code, kOperator)) {
    out->push_back({path, line_no, "safety-raw-delete",
                    "raw delete; ownership must live in a smart pointer"});
  }
}

/// Pre-pass: names declared in this file as unordered containers, so the
/// iteration rule can flag range-for / .begin() traversal over them.
std::set<std::string> unordered_names(
    const std::vector<std::string>& code_lines) {
  static const std::regex kDecl(
      R"(unordered_(?:map|set)\s*<[^;{}]*>\s+([A-Za-z_]\w*)\s*[;={(])");
  std::set<std::string> names;
  for (const auto& line : code_lines) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      names.insert((*it)[1]);
    }
  }
  return names;
}

void check_unordered_iteration(const std::string& path, int line_no,
                               const std::string& code,
                               const std::set<std::string>& names,
                               std::vector<Diagnostic>* out) {
  if (names.empty()) return;
  static const std::regex kRangeFor(
      R"(for\s*\([^;)]*:\s*([A-Za-z_]\w*)\s*\))");
  static const std::regex kBegin(R"(([A-Za-z_]\w*)\s*\.\s*begin\s*\()");
  auto flag = [&](const std::string& name) {
    out->push_back(
        {path, line_no, "det-unordered-iter",
         "iteration over unordered container '" + name +
             "': visit order depends on hashing/allocation and leaks "
             "nondeterminism into the simulation; use std::map/std::vector "
             "or iterate a sorted copy"});
  };
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kRangeFor);
       it != std::sregex_iterator(); ++it) {
    if (names.count((*it)[1]) != 0) flag((*it)[1]);
  }
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kBegin);
       it != std::sregex_iterator(); ++it) {
    if (names.count((*it)[1]) != 0) flag((*it)[1]);
  }
}

/// Class-context tracker for the override heuristic: inside a class that
/// has a base-class list, a destructor should be `~X() override`, not
/// `virtual ~X()`. (The authoritative method-level check is the compiler's
/// -Wsuggest-override, which every build enables.)
class ClassTracker {
 public:
  void feed(const std::string& code) {
    static const std::regex kHeader(
        R"(\b(?:class|struct)\s+[A-Za-z_]\w*(?:\s+final)?\s*(:[^;{]*)?\{)");
    std::smatch match;
    if (std::regex_search(code, match, kHeader)) {
      // Depth at which this class's opening brace sits: braces on the line
      // before the header's `{` still count.
      const auto prefix =
          code.substr(0, static_cast<std::size_t>(match.position(0)) +
                             static_cast<std::size_t>(match.length(0)) - 1);
      stack_.push_back({depth_ + delta(prefix), match[1].matched});
    }
    depth_ += delta(code);
    while (!stack_.empty() && depth_ <= stack_.back().open_depth) {
      stack_.pop_back();
    }
  }

  bool in_derived_class() const {
    return !stack_.empty() && stack_.back().derived;
  }

 private:
  struct Frame {
    int open_depth;
    bool derived;
  };
  static int delta(const std::string& code) {
    int d = 0;
    for (const char c : code) {
      if (c == '{') ++d;
      if (c == '}') --d;
    }
    return d;
  }
  int depth_ = 0;
  std::vector<Frame> stack_;
};

bool has_seed_note(const std::vector<std::string>& comment_lines,
                   std::size_t index) {
  auto contains_seed = [](const std::string& line) {
    return line.find("seed") != std::string::npos ||
           line.find("Seed") != std::string::npos;
  };
  if (contains_seed(comment_lines[index])) return true;
  return index > 0 && contains_seed(comment_lines[index - 1]);
}

bool is_cpp_source(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".cxx";
}

}  // namespace

std::string format(const Diagnostic& diagnostic) {
  std::ostringstream out;
  out << diagnostic.file << ':' << diagnostic.line << ": " << diagnostic.rule
      << ": " << diagnostic.message;
  return out.str();
}

const std::vector<std::string>& known_rules() { return kRules; }

std::vector<Diagnostic> lint_file(const std::string& path,
                                  const std::string& content,
                                  const Options& options) {
  std::vector<Diagnostic> diagnostics;
  const Sanitized sanitized = sanitize(content);
  const std::vector<std::string> raw_lines = split_lines(content);
  const std::vector<std::string> code_lines = split_lines(sanitized.code);
  const std::vector<std::string> comment_lines =
      split_lines(sanitized.comments);
  const Suppressions sup =
      parse_suppressions(path, code_lines, comment_lines);
  for (const auto& error : sup.errors) diagnostics.push_back(error);

  const bool det = options.determinism && determinism_scope(path);
  const bool mc_pure = options.mc_purity && mc_purity_scope(path);
  const bool hot_alloc = options.safety && sim_hot_alloc_scope(path);
  const std::set<std::string> unordered =
      det ? unordered_names(code_lines) : std::set<std::string>{};
  const std::string dir =
      starts_with(path, "src/") ? top_dir(path.substr(4)) : std::string();
  const auto policy_it = layer_policy().find(dir);

  static const std::regex kInclude(R"rx(#\s*include\s+"([^"]+)")rx");
  static const std::regex kStdio(
      R"(\b(?:printf|fprintf|puts|fputs)\s*\(|\bstd::c(?:out|err)\b)");
  const bool stdio_scope = obs_stdio_scope(path);
  // Raw journal API (reads like merge_from stay legal — only writes and
  // ambient-sink lookups must funnel through the EVT_* macros).
  static const std::regex kEventLogRaw(
      R"(\b(?:open_trace|append_event|close_trace|current_event_log)\s*\()");
  const bool eventlog_scope = eventlog_gateway_scope(path);
  static const std::regex kTimeseriesRaw(
      R"(\b(?:snapshot_json|snapshot_prometheus)\s*\()");
  const bool timeseries_scope = timeseries_gateway_scope(path);
  static const std::regex kOmp(R"(#\s*pragma\s+omp\b)");
  static const std::regex kRedundantVirtual(R"(\bvirtual\b.*\boverride\b)");
  static const std::regex kVirtualDtor(R"(\bvirtual\s+~)");
  static const std::regex kCatchValue(
      R"(\bcatch\s*\(\s*[^&.)]*[A-Za-z_]\w*\s*\))");
  ClassTracker classes;

  for (std::size_t i = 0; i < code_lines.size(); ++i) {
    const int line_no = static_cast<int>(i) + 1;
    const std::string& code = code_lines[i];

    // --- layering (matched on the raw line: sanitize blanks the quoted
    // include path) --------------------------------------------------------
    if (options.layering && policy_it != layer_policy().end() &&
        i < raw_lines.size()) {
      std::smatch match;
      if (std::regex_search(raw_lines[i], match, kInclude)) {
        const std::string target = top_dir(match[1]);
        if (!target.empty() && layer_policy().count(target) != 0 &&
            policy_it->second.count(target) == 0 &&
            !suppressed(sup, line_no, "layer-include")) {
          diagnostics.push_back(
              {path, line_no, "layer-include",
               "src/" + dir + " must not include src/" + target +
                   " (ARCHITECTURE.md layering)"});
        }
      }
    }

    // --- observability ----------------------------------------------------
    if (stdio_scope && std::regex_search(code, kStdio) &&
        !suppressed(sup, line_no, "obs-stdio")) {
      diagnostics.push_back(
          {path, line_no, "obs-stdio",
           "direct stdout/stderr write in library code; record metrics via "
           "obs instruments and render text via src/report (util/log and "
           "util/audit are the sanctioned gateways)"});
    }
    if (eventlog_scope && std::regex_search(code, kEventLogRaw) &&
        !suppressed(sup, line_no, "obs-eventlog-gateway")) {
      diagnostics.push_back(
          {path, line_no, "obs-eventlog-gateway",
           "direct journal write bypasses the VGRID_EVENTLOG kill switch; "
           "go through the EVT_TRACE_OPEN/EVT_APPEND/EVT_TRACE_CLOSE "
           "macros, and fork/merge sub-logs only through obs::FanOut "
           "(src/obs/context.hpp, the one merge seam)"});
    }
    if (timeseries_scope && std::regex_search(code, kTimeseriesRaw) &&
        !suppressed(sup, line_no, "obs-timeseries-gateway")) {
      diagnostics.push_back(
          {path, line_no, "obs-timeseries-gateway",
           "raw registry scrape outside src/obs; time-resolved sampling "
           "must go through obs::Timeseries::sample (the deterministic "
           "gateway) and run-end exports through obs::write_snapshot"});
    }

    // --- determinism ------------------------------------------------------
    if (det) {
      for (const auto& rule : determinism_rules()) {
        if (std::regex_search(code, rule.pattern) &&
            !suppressed(sup, line_no, rule.id)) {
          diagnostics.push_back({path, line_no, rule.id, rule.message});
        }
      }
      if (!suppressed(sup, line_no, "det-unordered-iter")) {
        check_unordered_iteration(path, line_no, code, unordered,
                                  &diagnostics);
      }
    }

    // --- mc-purity --------------------------------------------------------
    if (mc_pure) {
      for (const auto& rule : mc_purity_rules()) {
        if (std::regex_search(code, rule.pattern) &&
            !suppressed(sup, line_no, rule.id)) {
          diagnostics.push_back({path, line_no, rule.id, rule.message});
        }
      }
    }

    // --- sim hot path -----------------------------------------------------
    if (hot_alloc) {
      static const std::regex kIncludeLine(R"(^\s*#\s*include\b)");
      if (!std::regex_search(code, kIncludeLine)) {
        for (const auto& rule : sim_hot_alloc_rules()) {
          if (std::regex_search(code, rule.pattern) &&
              !suppressed(sup, line_no, rule.id)) {
            diagnostics.push_back({path, line_no, rule.id, rule.message});
          }
        }
      }
    }

    // --- safety -----------------------------------------------------------
    if (options.safety) {
      if (!suppressed(sup, line_no, "safety-c-cast")) {
        check_c_cast(path, line_no, code, &diagnostics);
      }
      if (std::regex_search(code, kOmp) &&
          !has_seed_note(comment_lines, i) &&
          !suppressed(sup, line_no, "safety-omp-seed")) {
        diagnostics.push_back(
            {path, line_no, "safety-omp-seed",
             "#pragma omp without a determinism note; parallel regions must "
             "document how per-thread RNG streams are seeded (add a comment "
             "containing 'seed' on this or the previous line)"});
      }
      if (std::regex_search(code, kCatchValue) &&
          !suppressed(sup, line_no, "safety-catch-value")) {
        diagnostics.push_back(
            {path, line_no, "safety-catch-value",
             "catch by value slices the exception; catch by (const) "
             "reference"});
      }
      if (std::regex_search(code, kRedundantVirtual) &&
          !suppressed(sup, line_no, "safety-override")) {
        diagnostics.push_back(
            {path, line_no, "safety-override",
             "redundant 'virtual' on an override; write 'override' alone"});
      }
      if (classes.in_derived_class() &&
          std::regex_search(code, kVirtualDtor) &&
          !suppressed(sup, line_no, "safety-override")) {
        diagnostics.push_back(
            {path, line_no, "safety-override",
             "destructor of a derived class: write '~X() override' (the "
             "base already declares it virtual)"});
      }
      if (!suppressed(sup, line_no, "safety-raw-new") &&
          !suppressed(sup, line_no, "safety-raw-delete")) {
        check_raw_new_delete(path, line_no, code, &diagnostics);
      }
      classes.feed(code);
    }
  }
  return diagnostics;
}

std::vector<Diagnostic> lint_tree(const std::string& root,
                                  const Options& options) {
  namespace fs = std::filesystem;
  static const std::array<const char*, 5> kRoots = {"src", "bench", "tools",
                                                    "examples", "tests"};
  std::vector<Diagnostic> diagnostics;
  std::vector<fs::path> files;
  for (const char* top : kRoots) {
    const fs::path base = fs::path(root) / top;
    if (!fs::exists(base)) continue;
    for (auto it = fs::recursive_directory_iterator(base);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory() && it->path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && is_cpp_source(it->path())) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      diagnostics.push_back(
          {file.string(), 0, "lint-io", "cannot read file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string relative = fs::relative(file, root).generic_string();
    for (auto& diagnostic : lint_file(relative, buffer.str(), options)) {
      diagnostics.push_back(std::move(diagnostic));
    }
  }
  return diagnostics;
}

}  // namespace vgrid::lint
