#include "opt/move_eval.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "util/check.hpp"

namespace eend::opt {

MoveEvaluator::MoveEvaluator(const core::NetworkDesignProblem& problem,
                             const DesignObjective& objective)
    : problem_(problem), objective_(objective) {}

void MoveEvaluator::reset(const std::vector<graph::NodeId>& nodes) {
  EEND_REQUIRE_MSG(!nodes.empty(), "a design needs at least one node");
  router_.restrict_to(problem_.graph(), nodes);
  m_ = router_.node_count();
  const auto& demands = problem_.demands();
  routes_.resize(demands.size());
  dist_.resize(demands.size() * m_);
  target_.resize(demands.size());
  endpoint_.assign(m_, 0);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const graph::Demand& d = demands[i];
    analytical::RoutedDemand& r = routes_[i];
    r.demand = d;
    r.packets = d.rate;
    EEND_REQUIRE_MSG(
        router_.contains(d.source) && router_.contains(d.destination) &&
            router_.route(d.source, d.destination, r.path, r.edges),
        "the incumbent must route every demand");
    const auto dist = router_.distances();
    std::copy(dist.begin(), dist.end(), dist_.begin() + i * m_);
    target_[i] = router_.local_id(d.destination);
    endpoint_[router_.local_id(d.source)] = 1;
    endpoint_[target_[i]] = 1;
  }
  work_ = routes_;
  rerouted_.clear();
  base_ready_ = false;
}

bool MoveEvaluator::keeps_route(std::size_t i, graph::NodeId removed,
                                graph::NodeId added) const {
  const std::vector<graph::NodeId>& path = routes_[i].path;
  if (removed != graph::kInvalidNode &&
      std::find(path.begin(), path.end(), removed) != path.end())
    return false;
  if (added == graph::kInvalidNode) return true;  // R
  const double* d = dist_.data() + i * m_;
  const graph::NodeId t = target_[i];
  const double dt = d[t];
  // Local ids ascend with global ids, so they order ties the same way.
  const auto settled = [&](graph::NodeId x) {
    return d[x] < dt || (d[x] == dt && x <= t);
  };
  const auto arcs = router_.added_arcs();  // excludes `removed`
  double du = graph::kInfCost;
  for (const auto& arc : arcs)
    if (settled(arc.to)) du = std::min(du, d[arc.to] + arc.weight);
  if (du > dt || (du == dt && added > path.back())) return true;  // I1
  if (removed != graph::kInvalidNode) return false;
  for (const auto& arc : arcs)  // I2
    if (!(du + arc.weight > (settled(arc.to) ? d[arc.to] : dt)))
      return false;
  return true;
}

const CandidateDesign& MoveEvaluator::evaluate(graph::NodeId removed,
                                               graph::NodeId added) {
  calls_.add();
  // work_ holds the incumbent's routes again, except where the last move
  // re-searched: put those back.
  for (std::size_t i : rerouted_) {
    work_[i].path = routes_[i].path;
    work_[i].edges = routes_[i].edges;
  }
  rerouted_.clear();
  router_.set_move(removed, added);
  if (removed != graph::kInvalidNode && endpoint_[router_.local_id(removed)])
    return infeasible(removed, added);
  const auto& demands = problem_.demands();
  bool changed = false;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (keeps_route(i, removed, added)) {
      reused_.add();
      continue;
    }
    rerouted_.push_back(i);
    analytical::RoutedDemand& r = work_[i];
    if (!router_.route_move(demands[i].source, demands[i].destination,
                            r.path, r.edges))
      return infeasible(removed, added);
    changed = changed || r.path != routes_[i].path ||
              r.edges != routes_[i].edges;
  }
  // Every route as on the incumbent: so is the score.
  if (!changed) return incumbent();
  score_routes(problem_.graph(), work_, objective_, eq5_, out_);
  return out_;
}

const CandidateDesign& MoveEvaluator::incumbent() {
  if (!base_ready_) {
    score_routes(problem_.graph(), routes_, objective_, eq5_, base_);
    base_ready_ = true;
  }
  return base_;
}

const CandidateDesign& MoveEvaluator::infeasible(graph::NodeId removed,
                                                 graph::NodeId added) {
  out_.score = {};
  out_.feasible = false;
  out_.max_node_load = 0.0;
  out_.lifetime_penalty = 0.0;
  out_.nodes.clear();
  for (std::size_t l = 0; l < m_; ++l) {
    const graph::NodeId v = router_.global_id(static_cast<graph::NodeId>(l));
    if (v != removed) out_.nodes.push_back(v);
  }
  if (added != graph::kInvalidNode)
    out_.nodes.insert(
        std::lower_bound(out_.nodes.begin(), out_.nodes.end(), added), added);
  return out_;
}

void MoveEvaluator::publish() {
  obs::publish("opt.eval.calls", calls_);
  obs::publish("opt.eval.routes_reused", reused_);
  obs::publish("graph.dijkstra.runs", router_.runs);
  obs::publish("graph.dijkstra.settled", router_.settled);
}

}  // namespace eend::opt
