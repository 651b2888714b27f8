// Incremental re-design: repair the previous epoch's CandidateDesign under
// a perturbed instance instead of searching from scratch — the serving-loop
// half of the churn/ subsystem.
//
// The repair has three stages:
//   1. *Feasibility*: start from the previous active set plus the current
//      terminals; while some demand is unroutable inside it, route that
//      demand on the full graph and absorb its path (adding nodes never
//      breaks other demands, so this terminates in <= |demands| rounds).
//   2. *Localized descent*: the removal / insertion / exchange moves of
//      opt/local_search.hpp, but restricted to a repair region grown from
//      the perturbation's touched nodes (two neighbor rings) — the move
//      budget scales with the perturbation, not the instance. Candidates
//      are scored by opt::MoveEvaluator, so demands whose route the move
//      provably leaves alone skip Dijkstra entirely.
//   3. *Fallback*: the repaired design is referenced against a fresh
//      Klein-Ravi construction (the always-available one-shot baseline).
//      If its cost exceeds (1 + fallback_pct/100) x the reference — repair
//      quality degraded past the threshold — a full portfolio search runs
//      and the better of the two wins.
//
// Deterministic in (problem, previous, touched_nodes, options, seed).
#pragma once

#include <cstdint>
#include <vector>

#include "opt/design_heuristic.hpp"

namespace eend::opt {

struct WarmStartOptions {
  DesignObjective objective;
  /// Fallback portfolio knobs (only consumed when the fallback fires).
  std::size_t starts = 8;
  std::size_t anneal_iterations = 300;
  std::size_t jobs = 1;
  /// Fallback threshold: repair must land within this percentage of the
  /// Klein-Ravi reference cost, else a from-scratch portfolio runs.
  double fallback_pct = 5.0;
  /// Steepest-descent passes over the repair region.
  std::size_t max_repair_passes = 8;
  /// Optional presolve of the *current* (perturbed) problem: speeds the
  /// Klein-Ravi reference and the fallback portfolio's constructive seeds
  /// (bit-identical results). Must outlive the call; nullptr = none.
  const presolve::PresolveResult* presolve = nullptr;
};

struct WarmStartResult {
  CandidateDesign design;
  bool fell_back = false;          ///< the full portfolio ran
  std::size_t rerouted_demands = 0;///< routes differing from previous_routes
  std::size_t evaluations = 0;     ///< evaluate_design calls spent
};

/// Repair `previous` (the prior epoch's design; callers must already have
/// dropped failed nodes from it) under `problem` (the perturbed instance,
/// which must be routable). `touched_nodes` seeds the repair region — the
/// nodes the perturbation referenced. `previous_routes`, when non-null,
/// accelerates the first evaluation (pass null after topology changes: the
/// cache is only valid over an unchanged graph) and anchors the
/// rerouted_demands count; `out_routes`, when non-null, receives the final
/// design's routes for the next epoch.
WarmStartResult warm_start_search(
    const core::NetworkDesignProblem& problem,
    const CandidateDesign& previous,
    const std::vector<graph::NodeId>& touched_nodes,
    const WarmStartOptions& options, std::uint64_t seed,
    const RouteCache* previous_routes = nullptr,
    RouteCache* out_routes = nullptr);

}  // namespace eend::opt
