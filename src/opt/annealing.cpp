#include "opt/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/counters.hpp"
#include "opt/move_eval.hpp"
#include "opt/moves.hpp"
#include "util/rng.hpp"

namespace eend::opt {

CandidateDesign simulated_annealing(const core::NetworkDesignProblem& problem,
                                    const CandidateDesign& start,
                                    const DesignObjective& objective,
                                    const AnnealingSchedule& schedule,
                                    std::uint64_t seed) {
  EEND_REQUIRE_MSG(start.feasible, "annealing needs a feasible seed");
  const graph::Graph& g = problem.graph();
  const auto terminals = problem.terminals();  // sorted
  const auto is_terminal = [&](graph::NodeId v) {
    return std::binary_search(terminals.begin(), terminals.end(), v);
  };

  Rng rng = Rng(seed).fork(0xA44E);
  CandidateDesign cur = start;
  CandidateDesign best = start;
  const double t0 = schedule.initial_temp_frac * start.cost();
  double temp = t0;
  std::uint64_t proposals = 0, accepted = 0, improved = 0;

  // Current move surface: relays (closable), frontier (openable),
  // per-relay inactive neighbors (exchangeable), and the evaluator's
  // incumbent. It changes only when an accepted move changes the design.
  MoveEvaluator eval(problem, objective);
  MoveScratch moves(g);
  std::vector<graph::NodeId> relays, frontier;
  const auto set_current = [&] {
    moves.set_current(cur.nodes);
    eval.reset(cur.nodes);
    relays.clear();
    for (graph::NodeId v : cur.nodes)
      if (!is_terminal(v)) relays.push_back(v);
    frontier = moves.inactive_neighbors(cur.nodes);
  };
  set_current();

  for (std::size_t it = 0; it < schedule.iterations;
       ++it, temp *= schedule.cooling) {
    graph::NodeId removed = graph::kInvalidNode;
    graph::NodeId added = graph::kInvalidNode;
    const std::uint64_t family = rng.next_below(3);
    if (family == 0) {  // relay removal
      if (relays.empty()) continue;
      removed = relays[rng.next_below(relays.size())];
    } else if (family == 1) {  // Steiner insertion
      if (frontier.empty()) continue;
      added = frontier[rng.next_below(frontier.size())];
    } else {  // relay exchange
      if (relays.empty()) continue;
      removed = relays[rng.next_below(relays.size())];
      const auto& cands = moves.inactive_neighbors({&removed, 1});
      if (cands.empty()) continue;
      added = cands[rng.next_below(cands.size())];
    }

    const CandidateDesign& cand = eval.evaluate(removed, added);
    if (!cand.feasible) continue;
    ++proposals;
    const double delta = cand.cost() - cur.cost();
    const bool accept =
        delta <= 0.0 ||
        (temp > 0.0 && rng.uniform() < std::exp(-delta / temp));
    if (!accept) continue;
    ++accepted;
    // Acceptance curve: which schedule decile accepted moves land in (the
    // histogram shape shows whether cooling freezes the walk too early).
    obs::observe("opt.sa.accept_decile",
                 schedule.iterations == 0 ? 0 : it * 10 / schedule.iterations);
    const bool moved = cand.nodes != cur.nodes;
    cur = cand;
    if (moved) set_current();
    if (cur.cost() < best.cost()) {
      best = cur;
      ++improved;
    }
  }
  eval.publish();
  obs::count("opt.sa.calls");
  obs::count("opt.sa.proposals", proposals);
  obs::count("opt.sa.accepted", accepted);
  obs::count("opt.sa.improved", improved);
  return best;
}

}  // namespace eend::opt
