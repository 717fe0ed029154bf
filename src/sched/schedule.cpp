#include "sched/schedule.h"

#include <algorithm>
#include <deque>
#include <map>

#include "diag/diag.h"
#include "sched/net.h"

namespace asicpp::sched {

std::vector<int> levelize_actions(const std::vector<std::vector<std::int32_t>>& needs,
                                  const std::vector<std::vector<std::int32_t>>& produces,
                                  const std::vector<int>& after,
                                  std::vector<int>* cycle_out) {
  const int n = static_cast<int>(needs.size());

  // Producer map: edges run producer → consumer for every net some action
  // produces in phase 2. Nets with no producer are available before the
  // walk starts (phase-1 tokens, external drives) and add no edges.
  std::map<std::int32_t, std::vector<int>> producers;
  for (int i = 0; i < n; ++i) {
    for (const std::int32_t net : produces[i]) producers[net].push_back(i);
  }

  std::vector<std::vector<int>> adj(n);
  std::vector<int> indeg(n, 0);
  const auto add_edge = [&](int from, int to) {
    adj[from].push_back(to);
    ++indeg[to];
  };
  for (int i = 0; i < n; ++i) {
    for (const std::int32_t net : needs[i]) {
      const auto it = producers.find(net);
      if (it == producers.end()) continue;
      for (const int p : it->second) add_edge(p, i);
    }
    if (after[i] >= 0) add_edge(after[i], i);
  }

  // Kahn's algorithm with longest-path level assignment.
  std::vector<int> level(n, 0);
  std::deque<int> ready;
  for (int i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(i);
  }
  int done = 0;
  while (!ready.empty()) {
    const int u = ready.front();
    ready.pop_front();
    ++done;
    for (const int v : adj[u]) {
      level[v] = std::max(level[v], level[u] + 1);
      if (--indeg[v] == 0) ready.push_back(v);
    }
  }
  if (done == n) return level;

  // Cyclic: every unprocessed action sits on or behind a cycle, so the
  // unprocessed part of the graph holds one.
  if (cycle_out != nullptr) {
    std::vector<std::vector<int>> rest(n);
    for (int u = 0; u < n; ++u) {
      for (const int v : adj[u])
        if (indeg[u] > 0 && indeg[v] > 0) rest[u].push_back(v);
    }
    *cycle_out = diag::find_cycle(rest);
    if (!cycle_out->empty()) cycle_out->pop_back();  // find_cycle closes it
  }
  return {};
}

LevelOrder order_actions(const std::vector<std::vector<std::int32_t>>& needs,
                         const std::vector<std::vector<std::int32_t>>& produces,
                         const std::vector<int>& after, const std::vector<std::size_t>& comp,
                         const std::vector<std::string>& names) {
  LevelOrder lo;
  std::vector<int> cyc;
  const std::vector<int> level = levelize_actions(needs, produces, after, &cyc);
  if (level.size() != needs.size()) {
    lo.reason = "dependency cycle:";
    std::vector<bool> named(names.size(), false);
    for (const int a : cyc) {
      const std::size_t c = comp[static_cast<std::size_t>(a)];
      if (named[c]) continue;
      named[c] = true;
      lo.reason += " " + names[c];
    }
    return lo;
  }
  lo.order.resize(needs.size());
  for (std::size_t i = 0; i < lo.order.size(); ++i) lo.order[i] = static_cast<int>(i);
  std::stable_sort(lo.order.begin(), lo.order.end(),
                   [&](int a, int b) { return level[a] < level[b]; });
  const std::size_t levels =
      lo.order.empty() ? 0 : static_cast<std::size_t>(level[lo.order.back()]) + 1;
  lo.offsets.assign(levels + 1, lo.order.size());
  for (std::size_t i = lo.order.size(); i-- > 0;)
    lo.offsets[static_cast<std::size_t>(level[lo.order[i]])] = i;
  lo.offsets[0] = 0;
  return lo;
}

Schedule Schedule::build(const std::vector<Component*>& comps) {
  Schedule s;
  s.ncomps_ = comps.size();

  std::vector<std::size_t> act_comp;
  std::vector<std::vector<std::int32_t>> needs;
  std::vector<std::vector<std::int32_t>> produces;
  std::vector<int> after;
  std::vector<std::string> names;

  std::map<const Net*, std::int32_t> net_ids;
  const auto ids_of = [&](const std::vector<const Net*>& nets) {
    std::vector<std::int32_t> ids;
    ids.reserve(nets.size());
    for (const Net* n : nets)
      ids.push_back(net_ids.emplace(n, static_cast<std::int32_t>(net_ids.size())).first->second);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  };

  for (std::size_t ci = 0; ci < comps.size(); ++ci) {
    const Component* c = comps[ci];
    const Component::StaticDeps d = c->static_deps();
    if (!d.schedulable) {
      s.reason_ = "component '" + c->name() + "' has no static firing order";
      return s;
    }
    names.push_back(c->name());
    int decode_idx = -1;
    if (d.has_decode) {
      decode_idx = static_cast<int>(act_comp.size());
      act_comp.push_back(ci);
      needs.push_back(ids_of(d.decode_requires));
      produces.push_back(ids_of(d.decode_produces));
      after.push_back(-1);
    }
    act_comp.push_back(ci);
    needs.push_back(ids_of(d.fire_requires));
    produces.push_back(ids_of(d.fire_produces));
    after.push_back(decode_idx);
  }

  LevelOrder lo = order_actions(needs, produces, after, act_comp, names);
  if (!lo.reason.empty()) {
    s.reason_ = std::move(lo.reason);
    return s;
  }
  s.order_.reserve(lo.order.size());
  for (const int a : lo.order) {
    const std::size_t ci = act_comp[static_cast<std::size_t>(a)];
    s.order_.push_back(Slot{comps[ci], ci});
  }
  s.offsets_ = std::move(lo.offsets);
  return s;
}

}  // namespace asicpp::sched
