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
// Stored artifacts are immutable value snapshots.  Switch patterns and
// bitstream rows go through the PatternInterner, so a corpus of cached
// designs stores each distinct ContextPattern once; artifacts hold
// refcounted ids (PatternSet) and release them when evicted.
//
// Thread safety: the store and interner themselves are not thread-safe,
// so FlowCache serializes every hook call (and the stats snapshot) behind
// one mutex, so concurrent compiles can share ONE cache.  Stage
// execution (the expensive part) happens outside the hook, so compiles
// only contend on lookup/publish.
#pragma once

#include <cstddef>
#include <mutex>

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

  /// Consistent locked snapshot of the store + interner counters, safe to
  /// call while other threads compile (the accessors below are not).
  struct Stats {
    ArtifactCache::Counters counters;
    std::size_t live_patterns = 0;
    std::size_t pattern_dedup_hits = 0;
  };
  Stats stats() const;

  /// Direct access for single-threaded callers (tests, benches).
  ArtifactCache& artifacts() { return artifacts_; }
  const ArtifactCache& artifacts() const { return artifacts_; }
  PatternInterner& patterns() { return interner_; }
  const PatternInterner& patterns() const { return interner_; }

 private:
  mutable std::mutex mu_;
  // Declaration order is load-bearing: cached artifacts hold PatternSets
  // that release interner ids from their destructors, so the interner
  // must be destroyed AFTER the artifact store.
  PatternInterner interner_;
  ArtifactCache artifacts_;
};

}  // namespace mcfpga::cache
