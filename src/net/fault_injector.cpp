#include "net/fault_injector.h"

#include <cstdint>
#include <limits>

#include "common/rng.h"

namespace skewless {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kKill: return "kill";
    case FaultKind::kWedge: return "wedge";
    case FaultKind::kGarble: return "garble";
    case FaultKind::kDrop: return "drop";
  }
  return "?";
}

const FaultEvent* FaultPlan::match(std::uint32_t worker, std::uint64_t epoch,
                                   std::uint32_t incarnation) const {
  for (const FaultEvent& ev : events) {
    if (ev.worker != worker || ev.epoch != epoch) continue;
    if (!ev.sticky && incarnation > 0) continue;
    return &ev;
  }
  return nullptr;
}

namespace {

/// Parses a decimal run starting at `pos`; advances `pos` past it.
/// Fails on a run whose value does not fit in a u64.
bool parse_u64(const std::string& s, std::size_t& pos, std::uint64_t& out) {
  if (pos >= s.size() || s[pos] < '0' || s[pos] > '9') return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  out = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    const auto digit = static_cast<std::uint64_t>(s[pos] - '0');
    if (out > (kMax - digit) / 10) return false;
    out = out * 10 + digit;
    ++pos;
  }
  return true;
}

bool parse_event(const std::string& part, FaultEvent& ev, std::string& error) {
  const std::size_t colon = part.find(':');
  if (colon == std::string::npos) {
    error = "fault event '" + part + "': missing ':' after the kind";
    return false;
  }
  const std::string kind = part.substr(0, colon);
  if (kind == "kill") {
    ev.kind = FaultKind::kKill;
  } else if (kind == "wedge") {
    ev.kind = FaultKind::kWedge;
  } else if (kind == "garble") {
    ev.kind = FaultKind::kGarble;
  } else if (kind == "drop") {
    ev.kind = FaultKind::kDrop;
  } else {
    error = "unknown fault kind '" + kind + "' (kill|wedge|garble|drop)";
    return false;
  }
  bool have_worker = false;
  bool have_epoch = false;
  std::size_t pos = colon + 1;
  while (pos < part.size()) {
    if (part.compare(pos, 2, "w=") == 0) {
      pos += 2;
      std::uint64_t v = 0;
      if (!parse_u64(part, pos, v) ||
          v > std::numeric_limits<std::uint32_t>::max()) {
        error = "fault event '" + part + "': bad worker id";
        return false;
      }
      ev.worker = static_cast<std::uint32_t>(v);
      have_worker = true;
    } else if (part.compare(pos, 6, "epoch=") == 0) {
      pos += 6;
      std::uint64_t v = 0;
      if (!parse_u64(part, pos, v) || v == 0) {
        error = "fault event '" + part + "': bad epoch (1-based)";
        return false;
      }
      ev.epoch = v;
      have_epoch = true;
    } else if (part.compare(pos, 6, "sticky") == 0) {
      pos += 6;
      ev.sticky = true;
    } else {
      error = "fault event '" + part + "': unknown field at '" +
              part.substr(pos) + "'";
      return false;
    }
    if (pos < part.size()) {
      if (part[pos] != ',') {
        error = "fault event '" + part + "': expected ',' at '" +
                part.substr(pos) + "'";
        return false;
      }
      ++pos;
    }
  }
  if (!have_worker || !have_epoch) {
    error = "fault event '" + part + "': needs both w= and epoch=";
    return false;
  }
  return true;
}

}  // namespace

bool parse_fault_plan(const std::string& spec, FaultPlan& plan,
                      std::string& error) {
  plan.events.clear();
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string part = spec.substr(start, end - start);
    if (!part.empty()) {
      FaultEvent ev;
      if (!parse_event(part, ev, error)) return false;
      plan.events.push_back(ev);
    }
    if (end == spec.size()) break;
    start = end + 1;
  }
  if (plan.events.empty()) {
    error = "fault spec '" + spec + "' contains no events";
    return false;
  }
  return true;
}

FaultPlan randomized_fault_plan(std::uint64_t seed, std::uint32_t workers,
                                std::uint64_t epochs, std::size_t count) {
  FaultPlan plan;
  if (workers == 0 || epochs == 0) return plan;
  Xoshiro256 rng(seed);
  constexpr FaultKind kKinds[] = {FaultKind::kKill, FaultKind::kWedge,
                                  FaultKind::kGarble, FaultKind::kDrop};
  for (std::size_t i = 0; i < count; ++i) {
    FaultEvent ev;
    ev.kind = kKinds[i % (sizeof(kKinds) / sizeof(kKinds[0]))];
    ev.worker = static_cast<std::uint32_t>(rng.next_below(workers));
    ev.epoch = 1 + rng.next_below(epochs);
    plan.events.push_back(ev);
  }
  return plan;
}

}  // namespace skewless
