// Per-key operator state for the threaded engine.
//
// A stateful operator binds one KeyState to every active key (Section II:
// "a state is associated with an active key in the corresponding task").
// When a rebalance plan moves a key, its KeyState object migrates with it
// — the StateStore supports extraction/installation for exactly that.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "common/serde.h"

namespace skewless {

class KeyState {
 public:
  virtual ~KeyState() = default;

  /// Current state footprint in bytes (drives S_i(k, w) statistics and
  /// migration cost accounting).
  [[nodiscard]] virtual Bytes bytes() const = 0;

  /// Order-insensitive content checksum; tests use it to prove that
  /// migrated and non-migrated runs compute identical states.
  [[nodiscard]] virtual std::uint64_t checksum() const = 0;

  /// Writes the full state content for migration over the wire. The
  /// owning OperatorLogic's deserialize_state() must reconstruct an
  /// equivalent state (equal checksum) from the bytes.
  virtual void serialize(ByteWriter& out) const = 0;
};

/// Owning map from key to state, local to one task instance. Accessed
/// only from the owning worker thread while the engine runs.
class StateStore {
 public:
  /// Returns the state for `key`, creating it via `factory` on first use.
  template <typename Factory>
  KeyState& get_or_create(KeyId key, Factory&& factory) {
    auto it = states_.find(key);
    if (it == states_.end()) {
      it = states_.emplace(key, factory()).first;
      SKW_ASSERT(it->second != nullptr);
    }
    return *it->second;
  }

  [[nodiscard]] KeyState* find(KeyId key) {
    const auto it = states_.find(key);
    return it == states_.end() ? nullptr : it->second.get();
  }

  /// Removes and returns the state for `key` (nullptr if absent) — the
  /// extraction half of a migration.
  [[nodiscard]] std::unique_ptr<KeyState> extract(KeyId key) {
    const auto it = states_.find(key);
    if (it == states_.end()) return nullptr;
    auto state = std::move(it->second);
    states_.erase(it);
    return state;
  }

  /// Installs a migrated state. The key must not already be present —
  /// the pause protocol guarantees the destination never created one.
  /// The threaded engine's migrations use this strict form.
  void install(KeyId key, std::unique_ptr<KeyState> state) {
    SKW_EXPECTS(state != nullptr);
    const auto [it, inserted] = states_.emplace(key, std::move(state));
    SKW_EXPECTS(inserted);
    (void)it;
  }

  /// Installs a state, replacing any existing one. The net worker has two
  /// callers, and this is its only install path:
  ///   * kRestore — a checkpoint payload is peer input, and reinstalling
  ///     over a half-built store must not abort;
  ///   * kInstall — every migration install, because the degraded-mode
  ///     re-homes that share this frame are barrier-free: the driver may
  ///     route a re-homed key's tuples before the install lands, so the
  ///     worker may already hold a fresh state for it.
  void install_or_replace(KeyId key, std::unique_ptr<KeyState> state) {
    SKW_EXPECTS(state != nullptr);
    states_[key] = std::move(state);
  }

  void clear() { states_.clear(); }

  [[nodiscard]] std::size_t size() const { return states_.size(); }

  [[nodiscard]] Bytes total_bytes() const {
    Bytes total = 0.0;
    for (const auto& [key, state] : states_) total += state->bytes();
    return total;
  }

  /// Sum of per-key checksums mixed with the key (order-insensitive).
  [[nodiscard]] std::uint64_t checksum() const;

  [[nodiscard]] const std::unordered_map<KeyId, std::unique_ptr<KeyState>>&
  states() const {
    return states_;
  }

 private:
  std::unordered_map<KeyId, std::unique_ptr<KeyState>> states_;
};

}  // namespace skewless
