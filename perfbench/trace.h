// In-memory tracing for the benchmark's traced run: spans recorded from
// the benchmark's own code around the calls into each layer (interval,
// plan call, generation), plan-call records from a forwarding Planner,
// and a JSON writer that runs once, after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/plan.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  /// Index of the enclosing span in Trace::spans, -1 for a root span.
  std::int64_t parent = -1;
};

struct PlanCall {
  double ms = 0.0;
  std::size_t entries = 0;  // snapshot entries the planner assigned
  std::size_t moves = 0;
  std::size_t table_size = 0;
};

class Trace {
 public:
  Trace() : origin_(std::chrono::steady_clock::now()) {}

  [[nodiscard]] std::int64_t now_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Opens a span under the currently open one; returns its index.
  std::int64_t open(const char* name) {
    Span s;
    s.name = name;
    s.start_us = now_us();
    s.parent = open_;
    spans_.push_back(s);
    open_ = static_cast<std::int64_t>(spans_.size()) - 1;
    return open_;
  }
  void close(std::int64_t index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_us = now_us();
    open_ = s.parent;
  }

  std::vector<PlanCall>& plan_calls() { return plan_calls_; }
  [[nodiscard]] const std::vector<PlanCall>& plan_calls() const {
    return plan_calls_;
  }

  /// Writes spans and plan calls as one JSON document; `extra` is a
  /// pre-rendered JSON object body appended verbatim.
  bool write_json(const std::string& path, const std::string& extra) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{%s,\n\"spans\": [\n", extra.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %lld, "
                   "\"end_us\": %lld, \"parent\": %lld}%s\n",
                   i, s.name, static_cast<long long>(s.start_us),
                   static_cast<long long>(s.end_us),
                   static_cast<long long>(s.parent),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "],\n\"plan_calls\": [\n");
    for (std::size_t i = 0; i < plan_calls_.size(); ++i) {
      const PlanCall& c = plan_calls_[i];
      std::fprintf(f,
                   "{\"ms\": %.6f, \"entries\": %zu, \"moves\": %zu, "
                   "\"table_size\": %zu}%s\n",
                   c.ms, c.entries, c.moves, c.table_size,
                   i + 1 < plan_calls_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
  std::vector<PlanCall> plan_calls_;
};

/// Forwarding Planner: times each call and records it as a span and a
/// PlanCall. The controller calls it on the driver thread, inside the
/// interval span the benchmark opened around run_interval.
class TracedPlanner final : public skewless::Planner {
 public:
  TracedPlanner(skewless::PlannerPtr inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  [[nodiscard]] skewless::RebalancePlan plan(
      const skewless::PartitionSnapshot& snap,
      const skewless::PlannerConfig& config) override {
    const std::int64_t span = trace_.open("plan");
    const auto t0 = std::chrono::steady_clock::now();
    skewless::RebalancePlan plan = inner_->plan(snap, config);
    const auto t1 = std::chrono::steady_clock::now();
    trace_.close(span);
    PlanCall call;
    call.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    call.entries = plan.assignment.size();
    call.moves = plan.moves.size();
    call.table_size = plan.table_size;
    trace_.plan_calls().push_back(call);
    return plan;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  skewless::PlannerPtr inner_;
  Trace& trace_;
};

}  // namespace perfbench
