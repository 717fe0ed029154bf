#include "sched/phase2.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace asicpp::sched {

diag::Diagnostic deadlock_postmortem(
    const char* origin, std::uint64_t cycle, std::vector<Blocked> blocked,
    const std::function<NetState(const std::string&)>& state) {
  diag::Diagnostic d;
  d.severity = diag::Severity::kFatal;
  d.code = "SCHED-001";
  d.component = origin;
  d.cycle = cycle;

  std::string names;
  for (const Blocked& b : blocked) names += (names.empty() ? "" : ", ") + b.name;
  d.message = "combinational deadlock, unfired components: " + names;

  // What each blocked component is waiting for.
  std::set<std::string> involved;
  for (Blocked& b : blocked) {
    for (auto* nets : {&b.waits, &b.outputs}) {
      std::sort(nets->begin(), nets->end());
      nets->erase(std::unique(nets->begin(), nets->end()), nets->end());
    }
    std::string waits;
    for (const std::string& n : b.waits) {
      involved.insert(n);
      waits += (waits.empty() ? "" : ", ") + ("'" + n + "'");
    }
    d.note("component '" + b.name + "' waits on net" +
           (waits.empty() ? "s: (none — iteration bound too low?)" : "(s): " + waits));
  }

  // The blocking dependency cycle: edge A -> B when A waits on a net B
  // would produce, labelled with the first such net by name.
  const auto via = [](const Blocked& from, const Blocked& to) -> const std::string* {
    for (const std::string& n : from.waits) {
      if (std::binary_search(to.outputs.begin(), to.outputs.end(), n)) return &n;
    }
    return nullptr;
  };
  std::vector<std::vector<int>> adj(blocked.size());
  for (std::size_t i = 0; i < blocked.size(); ++i) {
    for (std::size_t j = 0; j < blocked.size(); ++j) {
      if (i != j && via(blocked[i], blocked[j]) != nullptr) adj[i].push_back(static_cast<int>(j));
    }
  }
  const auto cyc = diag::find_cycle(adj);
  if (!cyc.empty()) {
    const auto at = [&](std::size_t k) -> const Blocked& {
      return blocked[static_cast<std::size_t>(cyc[k])];
    };
    std::string chain = at(0).name;
    for (std::size_t k = 1; k < cyc.size(); ++k)
      chain += " -[" + *via(at(k - 1), at(k)) + "]-> " + at(k).name;
    d.note("dependency cycle: " + chain);
  }

  // Last-known values of every net in the blocking set.
  for (const std::string& n : involved) {
    const NetState s = state(n);
    std::ostringstream os;
    os << "net '" << n << "' last value = " << s.value
       << (s.token ? " (token present)" : " (no token this cycle)");
    d.note(os.str());
  }
  return d;
}

void Phase2::deadlock(diag::Diagnostic d) {
  diagnostics().report(d);
  throw DeadlockError(std::move(d));
}

void Phase2::trip(RunResult& r, const RunOptions& opts, StopReason why, std::uint64_t cycle) {
  const bool budget = why == StopReason::kCycleBudget;
  const std::string limit =
      budget ? "cycle budget (" + std::to_string(opts.cycle_budget) + ") exhausted"
             : "wall-clock limit (" + std::to_string(opts.wall_clock_s) + " s) exceeded";
  auto& d = diagnostics().fatal(budget ? "WATCHDOG-001" : "WATCHDOG-002", origin,
                                limit + " after " + std::to_string(r.cycles) + " of " +
                                    std::to_string(opts.cycles) +
                                    " requested cycles; stopping run");
  d.cycle = cycle;
  watchdog_tripped = true;
  r.stop = why;
}

void Phase2::report_unlevelizable(const std::string& reason, std::uint64_t cycle) {
  auto& d = diagnostics().warning(
      "SCHED-002", origin,
      "levelized schedule requested but the system cannot be statically ordered (" +
          reason + "); running iteratively");
  d.cycle = cycle;
  sched002_reported = true;
}

void Phase2::report_walk_miss(std::uint64_t cycle) {
  ++walk_misses;
  auto& d = diagnostics().warning(
      "SCHED-002", origin,
      "schedule invalidated: the static level walk left components unfired; "
      "cycle recovered iteratively" +
          std::string(walk_misses >= 2 ? " (repeat miss — reverting to iterative mode)" : ""));
  d.cycle = cycle;
}

}  // namespace asicpp::sched
