// FlowCache: the content-addressed stage cache behind the compile
// pipeline's StageCacheHook seam (core/stages.hpp).
//
// attach() seeds a FlowContext's key chain with the flow base key
// (netlist x fabric x options, cache/key.hpp); run_pipeline() then calls
// before_stage()/after_stage() around every stage.  before_stage advances
// the chain (key(stage N) folds in key(stage N-1) and the stage name) and
// looks the stage's artifact up; a hit restores the stage's outputs into
// the context — bit-identically to running the stage, which is what
// tests/test_cache.cpp's fingerprint comparisons enforce — and a miss
// lets the stage run, after which after_stage publishes its outputs.
//
// Stored artifacts are immutable value snapshots; patterns and bitstream
// rows are stored directly (a pattern is two words).  No artifact keeps a
// routing graph: a bitstream is stored without its switch-name source,
// and replays take the graph of the restored spec from graph_for(), which
// remembers one graph per distinct grown spec as a weak reference — a
// graph is shared while any compile or design holds it, and the cache
// never keeps one alive.
//
// Thread safety: the artifact store and the graph memo are not
// thread-safe, so FlowCache serializes every lookup, publish and memo
// probe (and the counter snapshot) behind one mutex, so concurrent
// compiles can share ONE cache.  Stage execution and restores out of the
// immutable snapshots happen outside the lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "cache/artifact_cache.hpp"
#include "core/stages.hpp"

namespace mcfpga::cache {

class FlowCache : public core::StageCacheHook {
 public:
  explicit FlowCache(ArtifactCache::Limits limits = {})
      : artifacts_(limits) {}

  /// Seeds ctx.cache_key from ctx's inputs and points ctx.cache at this.
  void attach(core::FlowContext& ctx);

  bool before_stage(const char* stage, core::FlowContext& ctx) override;
  void after_stage(const char* stage, core::FlowContext& ctx) override;
  std::shared_ptr<const arch::RoutingGraph> graph_for(
      const arch::FabricSpec& spec) override;

  /// Consistent locked snapshot of the store's counters, safe to call
  /// while other threads compile (artifacts() is not).
  ArtifactCache::Counters counters() const;

  /// Direct access for single-threaded callers (tests, benches).
  ArtifactCache& artifacts() { return artifacts_; }
  const ArtifactCache& artifacts() const { return artifacts_; }

 private:
  mutable std::mutex mu_;
  ArtifactCache artifacts_;
  /// hash_fabric_spec(spec) -> the live graph of that spec, if any.
  std::unordered_map<std::uint64_t, std::weak_ptr<const arch::RoutingGraph>>
      graphs_;
};

}  // namespace mcfpga::cache
