// Incremental evaluation of one-node moves against an incumbent design —
// the scoring kernel of local_search, simulated_annealing and warm start's
// localized descent.
//
// A move turns the incumbent node set S into P = S \ {removed} ∪ {added}
// (either may be absent). reset(S) routes every demand on exactly S and
// keeps, per demand, its route and its search's distance array d. A node x
// settled in that search iff (d[x], x) <= (d[t], t), ids compared as global
// ids, because the router pops (distance, id) in ascending order and stops
// when the target t settles. A demand keeps its route on P when
//
//   (R)  the move only removes, and the route avoids `removed`: paths of P
//        are paths of S, so every node of the route keeps its distance and
//        its parent is still the first (distance, id) node to reach that
//        distance — also under ties;
//   (I1) the route avoids `removed` (when there is one), and with
//        du = min fl(d[x] + w) over arcs x -> added with x settled and
//        x != removed, (du, added) > (d[t], t): `added` cannot settle before
//        t, so the search on P is the search on S \ {removed} until t
//        settles;
//   (I2) the move only inserts, I1 fails, and every arc added -> y (y in S)
//        has fl(du + w) > d[y] for a settled y, or > d[t] for an unsettled
//        one: `added` may settle, but its relaxations lower no settled
//        node's final distance and bring no unsettled node ahead of t, so
//        every settled node keeps its parent.
//
// All three follow from the strict-< relaxation and the early exit, and
// hold bit for bit: a kept route is the one a full evaluation finds. Only
// the remaining demands are searched again, on S's CSR with `removed`
// masked and `added`'s arcs appended (graph::SubgraphRouter::route_move).
// EvalDifferential.IncrementalMovesMatchFullEvaluation pins the equality.
#pragma once

#include <span>
#include <vector>

#include "opt/design_heuristic.hpp"

namespace eend::opt {

class MoveEvaluator {
 public:
  MoveEvaluator(const core::NetworkDesignProblem& problem,
                const DesignObjective& objective);

  /// Make `nodes` (non-empty, every demand routable inside it) the
  /// incumbent S. Costs one search per demand.
  void reset(const std::vector<graph::NodeId>& nodes);

  /// evaluate_design(problem, S \ {removed} ∪ {added}, objective), bit for
  /// bit; `removed` must be in S and `added` outside it, or kInvalidNode.
  /// The result stays valid until the next evaluate() or reset().
  const CandidateDesign& evaluate(graph::NodeId removed, graph::NodeId added);

  /// The routes of the last feasible evaluate(), one per demand.
  std::span<const analytical::RoutedDemand> routes() const { return work_; }

  /// Publish opt.eval.calls, opt.eval.routes_reused and
  /// graph.dijkstra.{runs,settled} to the calling thread's registry and
  /// reset them.
  void publish();

 private:
  /// True when demand i keeps its incumbent route under the move.
  bool keeps_route(std::size_t i, graph::NodeId removed,
                   graph::NodeId added) const;
  /// The incumbent's own score (every route kept), computed on first use.
  const CandidateDesign& incumbent();
  const CandidateDesign& infeasible(graph::NodeId removed,
                                    graph::NodeId added);

  const core::NetworkDesignProblem& problem_;
  DesignObjective objective_;
  graph::SubgraphRouter router_;  ///< restricted to S
  std::size_t m_ = 0;             ///< |S|
  std::vector<analytical::RoutedDemand> routes_;  ///< per demand, on S
  std::vector<analytical::RoutedDemand> work_;    ///< routes of the last move
  std::vector<std::size_t> rerouted_;  ///< demands work_ holds new routes for
  std::vector<double> dist_;           ///< per demand, m_ distances
  std::vector<graph::NodeId> target_;  ///< per demand, t's local id
  std::vector<char> endpoint_;         ///< by local id
  CandidateDesign base_;
  bool base_ready_ = false;
  CandidateDesign out_;
  analytical::Eq5Scratch eq5_;
  obs::HotCounter calls_;
  obs::HotCounter reused_;
};

}  // namespace eend::opt
