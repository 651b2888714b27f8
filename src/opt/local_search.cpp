#include "opt/local_search.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "opt/moves.hpp"

namespace eend::opt {

CandidateDesign local_search(const core::NetworkDesignProblem& problem,
                             const CandidateDesign& start,
                             const DesignObjective& objective,
                             std::size_t max_passes,
                             LocalSearchStats* stats) {
  EEND_REQUIRE_MSG(start.feasible, "local search needs a feasible seed");
  const graph::Graph& g = problem.graph();
  const auto terminals = problem.terminals();  // sorted
  const auto is_terminal = [&](graph::NodeId v) {
    return std::binary_search(terminals.begin(), terminals.end(), v);
  };

  CandidateDesign cur = start;
  LocalSearchStats local;
  EvalWorkspace ws;
  MoveScratch moves(g);
  const auto evaluate = [&](const std::vector<graph::NodeId>& cand) {
    return evaluate_design(problem, cand, objective, nullptr, nullptr, ws);
  };
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    moves.set_current(cur.nodes);

    CandidateDesign best;  // infeasible until a candidate beats nothing
    const auto consider = [&](CandidateDesign cand) {
      ++local.evaluations;
      if (!cand.feasible) return;
      if (!best.feasible || cand.cost() < best.cost()) best = std::move(cand);
    };

    // Relay removal: drop each non-endpoint active node.
    for (graph::NodeId v : cur.nodes) {
      if (is_terminal(v)) continue;
      consider(evaluate(without(cur.nodes, v)));
    }

    // Steiner insertion: open each inactive node adjacent to the design.
    for (graph::NodeId u : moves.inactive_neighbors(cur.nodes)) {
      std::vector<graph::NodeId> cand = cur.nodes;
      cand.push_back(u);
      consider(evaluate(cand));
    }

    // Relay exchange (reroute): close relay v, open an inactive neighbor u
    // in the same move.
    for (graph::NodeId v : cur.nodes) {
      if (is_terminal(v)) continue;
      for (graph::NodeId u : moves.inactive_neighbors({&v, 1})) {
        std::vector<graph::NodeId> cand = without(cur.nodes, v);
        cand.push_back(u);
        consider(evaluate(cand));
      }
    }

    if (!best.feasible || !(best.cost() < cur.cost())) break;
    cur = std::move(best);
    ++local.passes;
  }
  ws.publish();
  if (stats) *stats = local;
  obs::count("opt.ls.calls");
  obs::count("opt.ls.evaluations", local.evaluations);
  obs::count("opt.ls.moves_accepted", local.passes);  // one move per pass
  return cur;
}

}  // namespace eend::opt
