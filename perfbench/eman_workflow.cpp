// eman-workflow: one op = one best-of-three WorkflowScheduler::schedule()
// on the heterogeneous IA-32/IA-64 testbed. The DAGs are EMAN refinement
// DAGs at seeded parallelism plus seeded random layered DAGs. The scheduler
// sees the grid through a counting Estimator decorator. Oracles, outside
// the op: every component is placed exactly once on a testbed node, each
// runs for its estimated compute plus transfer cost after all its
// predecessors finish, no two overlap on one node, the makespan recomputed
// from the assignments equals the reported one, and the incremental mapper
// agrees with scheduleReference (checked once per DAG, later passes compare
// against that first result).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/eman.hpp"
#include "grid/testbeds.hpp"
#include "services/gis.hpp"
#include "util/rng.hpp"
#include "workflow/builders.hpp"
#include "workflow/scheduler.hpp"
#include "workload.hpp"
#include "worlds.hpp"

namespace perfbench {
namespace {

/// Counts (and, when traced, times) every estimator call the mapper makes.
class CountingEstimator final : public workflow::Estimator {
 public:
  explicit CountingEstimator(const workflow::Estimator& inner)
      : inner_(inner) {}

  double ecost(const workflow::Component& c, grid::NodeId node) const override {
    ++ecostCalls;
    if (tr == nullptr || !tr->on()) return inner_.ecost(c, node);
    const std::int64_t t0 = nowNs();
    const double v = inner_.ecost(c, node);
    tr->leaf("workflow.ecost", nowNs() - t0);
    return v;
  }
  double transferCost(grid::NodeId from, grid::NodeId to,
                      double bytes) const override {
    ++transferCalls;
    return inner_.transferCost(from, to, bytes);
  }

  Tracer* tr = nullptr;  ///< the current pass's tracer
  mutable std::uint64_t ecostCalls = 0;
  mutable std::uint64_t transferCalls = 0;

 private:
  const workflow::Estimator& inner_;
};

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

bool sameSchedule(const workflow::Schedule& a, const workflow::Schedule& b) {
  if (a.assignments.size() != b.assignments.size() ||
      a.makespan != b.makespan) {
    return false;
  }
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    const auto& x = a.assignments[i];
    const auto& y = b.assignments[i];
    if (x.component != y.component || x.node != y.node || x.start != y.start ||
        x.finish != y.finish) {
      return false;
    }
  }
  return true;
}

class EmanWorkflow final : public Workload {
 public:
  explicit EmanWorkflow(Scale scale) : scale_(scale) {}

  void setup(std::uint64_t seed) override {
    testbed_.reset();  // the scheduler and estimators point into it
    testbed_.emplace();
    Testbed& tb = *testbed_;
    grid::buildEmanTestbed(tb.g);
    tb.gis.emplace(tb.g);
    tb.gis->installEverywhere("eman");
    tb.truth.emplace(*tb.gis, nullptr);
    tb.counting.emplace(*tb.truth);
    tb.ws.emplace(*tb.counting, tb.g.allNodes());
    tb.ws->setCrossCheck(false);
    tb.reference.emplace(*tb.truth, tb.g.allNodes());

    dags_.clear();
    references_.clear();
    // Shapes are fixed so that op cost is comparable across seeds; the
    // seed draws the particle counts, component costs and edges.
    Rng rng(deriveSeed(seed, 0));
    for (const int parallelism : {8, 16, 24}) {
      apps::EmanConfig cfg;
      cfg.particles = static_cast<std::size_t>(rng.uniformInt(90000, 110000));
      cfg.parallelism = parallelism;
      dags_.push_back(apps::buildEmanRefinementDag(cfg));
    }
    for (int i = 0; i < 3; ++i) {
      dags_.push_back(workflow::makeRandomLayered(6, 12, rng));
    }
    if (scale_ == Scale::kTiny) dags_.resize(1);
  }

  void runPass(Pass& p) override {
    Testbed& tb = *testbed_;
    tb.counting->tr = p.tr;
    tb.counting->ecostCalls = 0;
    tb.counting->transferCalls = 0;
    for (std::size_t i = 0; i < dags_.size(); ++i) {
      workflow::Schedule s;
      {
        OpTimer op(p);
        Scope span(*p.tr, "workflow.schedule");
        s = tb.ws->schedule(dags_[i], workflow::Heuristic::kBestOfThree);
      }
      if (p.inject == Inject::kTamperAssignment && !s.assignments.empty()) {
        s.assignments[s.assignments.size() / 2].finish += 1.0;
      }
      Untimed oracle(p, "oracle");
      const std::string why = check(i, s);
      if (!why.empty()) p.fail("dag " + std::to_string(i) + ": " + why);
      p.digest.put(s.makespan);
      for (const auto& a : s.assignments) {
        p.digest.put(static_cast<std::uint64_t>(a.component));
        p.digest.put(static_cast<std::uint64_t>(a.node));
        p.digest.put(a.start);
        p.digest.put(a.finish);
      }
      p.simMakespanSec += s.makespan;
    }
    p.add("sim.events", static_cast<double>(tb.eng.processedEvents()));
    p.add("workflow.ecost_calls", static_cast<double>(tb.counting->ecostCalls));
    p.add("workflow.transfer_calls",
          static_cast<double>(tb.counting->transferCalls));
  }

 private:
  struct Testbed {
    sim::Engine eng;
    grid::Grid g{eng};
    std::optional<services::Gis> gis;
    std::optional<workflow::GridEstimator> truth;
    std::optional<CountingEstimator> counting;
    std::optional<workflow::WorkflowScheduler> ws;
    std::optional<workflow::WorkflowScheduler> reference;
  };

  /// Empty when the schedule is valid; otherwise the first violation.
  std::string check(std::size_t index, const workflow::Schedule& s) {
    const workflow::Dag& dag = dags_[index];
    Testbed& tb = *testbed_;
    if (s.assignments.size() != dag.size()) return "not every component placed";
    std::vector<const workflow::Assignment*> of(dag.size(), nullptr);
    const std::vector<grid::NodeId> nodes = tb.g.allNodes();
    double makespan = 0.0;
    for (const auto& a : s.assignments) {
      if (a.component >= dag.size() || of[a.component] != nullptr) {
        return "component placed twice or unknown";
      }
      if (std::find(nodes.begin(), nodes.end(), a.node) == nodes.end()) {
        return "component placed off the testbed";
      }
      of[a.component] = &a;
      makespan = std::max(makespan, a.finish);
    }
    for (const auto& a : s.assignments) {
      // A component runs for its compute cost plus its inbound transfers,
      // after every predecessor finished.
      double cost = tb.truth->ecost(dag.component(a.component), a.node);
      for (const auto& e : dag.inEdges(a.component)) {
        if (a.start + 1e-9 < of[e.from]->finish) return "precedence violated";
        cost += tb.truth->transferCost(of[e.from]->node, a.node, e.bytes);
      }
      if (!close(a.finish - a.start, cost)) return "duration is not its cost";
    }
    // One component at a time per node.
    std::vector<const workflow::Assignment*> byNode(of.begin(), of.end());
    std::sort(byNode.begin(), byNode.end(), [](const auto* x, const auto* y) {
      return x->node != y->node ? x->node < y->node : x->start < y->start;
    });
    for (std::size_t i = 1; i < byNode.size(); ++i) {
      if (byNode[i]->node == byNode[i - 1]->node &&
          byNode[i]->start + 1e-9 < byNode[i - 1]->finish) {
        return "two components overlap on one node";
      }
    }
    if (!close(makespan, s.makespan)) return "makespan does not match";
    auto ref = references_.find(index);
    if (ref == references_.end()) {
      ref = references_
                .emplace(index, tb.reference->scheduleReference(
                                    dag, workflow::Heuristic::kBestOfThree))
                .first;
    }
    if (!sameSchedule(s, ref->second)) {
      return "incremental mapper disagrees with scheduleReference";
    }
    return {};
  }

  Scale scale_;
  std::optional<Testbed> testbed_;
  std::vector<workflow::Dag> dags_;
  std::map<std::size_t, workflow::Schedule> references_;  ///< by DAG index
};

}  // namespace

std::unique_ptr<Workload> makeEmanWorkflow(Scale scale) {
  return std::make_unique<EmanWorkflow>(scale);
}

}  // namespace perfbench
