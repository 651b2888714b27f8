#include "opt/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/counters.hpp"
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
  // per-relay inactive neighbors (exchangeable). It changes only when a
  // move is accepted.
  EvalWorkspace ws;
  MoveScratch moves(g);
  std::vector<graph::NodeId> relays;
  const auto set_current = [&] {
    moves.set_current(cur.nodes);
    relays.clear();
    for (graph::NodeId v : cur.nodes)
      if (!is_terminal(v)) relays.push_back(v);
  };
  set_current();
  std::vector<graph::NodeId> proposal;

  for (std::size_t it = 0; it < schedule.iterations;
       ++it, temp *= schedule.cooling) {
    proposal = cur.nodes;
    const std::uint64_t family = rng.next_below(3);
    if (family == 0) {  // relay removal
      if (relays.empty()) continue;
      const graph::NodeId v = relays[rng.next_below(relays.size())];
      proposal.erase(std::find(proposal.begin(), proposal.end(), v));
    } else if (family == 1) {  // Steiner insertion
      const auto& cands = moves.inactive_neighbors(cur.nodes);
      if (cands.empty()) continue;
      proposal.push_back(cands[rng.next_below(cands.size())]);
    } else {  // relay exchange
      if (relays.empty()) continue;
      const graph::NodeId v = relays[rng.next_below(relays.size())];
      const auto& cands = moves.inactive_neighbors({&v, 1});
      if (cands.empty()) continue;
      proposal.erase(std::find(proposal.begin(), proposal.end(), v));
      proposal.push_back(cands[rng.next_below(cands.size())]);
    }

    CandidateDesign cand =
        evaluate_design(problem, proposal, objective, nullptr, nullptr, ws);
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
    cur = std::move(cand);
    set_current();
    if (cur.cost() < best.cost()) {
      best = cur;
      ++improved;
    }
  }
  ws.publish();
  obs::count("opt.sa.calls");
  obs::count("opt.sa.proposals", proposals);
  obs::count("opt.sa.accepted", accepted);
  obs::count("opt.sa.improved", improved);
  return best;
}

}  // namespace eend::opt
