// Multi-context bitstream container.
//
// A Bitstream is the set of configuration bits of a fabric across all
// contexts: one ContextPattern per configuration bit ("row", in the language
// of the paper's Table 1), tagged with the resource that owns it.  Both the
// conventional fabric (which stores every row in n memory bits) and the
// proposed fabric (which synthesizes each row into switch elements) consume
// the same Bitstream, so the two area evaluations are guaranteed to describe
// the same design.
//
// Rows are {kind, packed pattern}; names live beside them.  A routing
// row names its switch by id through a shared SwitchNameSource (the
// compile's routing graph), every other row keeps its own name in one
// concatenated buffer, so copying a bitstream copies a few flat arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.hpp"
#include "config/pattern.hpp"

namespace mcfpga::config {

/// What kind of fabric resource a configuration bit controls.
enum class ResourceKind {
  kRoutingSwitch,  ///< Pass-gate in a switch block / diamond switch.
  kLutBit,         ///< One truth-table bit of a logic-block LUT plane.
  kControlBit,     ///< LB size-controller / misc control configuration.
};

std::string to_string(ResourceKind kind);

/// Names routing switches by id.  arch::RoutingGraph implements it, so a
/// bitstream's routing rows can name their switch on demand instead of
/// each storing a copy of the name.
class SwitchNameSource {
 public:
  virtual ~SwitchNameSource() = default;
  virtual const std::string& switch_name(std::size_t switch_id) const = 0;
};

/// One configuration bit and its values across contexts.  Its name is kept
/// by the Bitstream (Bitstream::name).
struct BitstreamRow {
  ResourceKind kind = ResourceKind::kRoutingSwitch;
  ContextPattern pattern;
};

class Bitstream {
 public:
  /// Default: an empty 2-context bitstream (placeholder for assignment).
  Bitstream() : num_contexts_(2) {}
  explicit Bitstream(std::size_t num_contexts);

  std::size_t num_contexts() const { return num_contexts_; }
  std::size_t num_rows() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Appends a row with its own name; its pattern must span exactly
  /// num_contexts() contexts.  Returns the row index.
  std::size_t add_row(std::string_view name, ResourceKind kind,
                      ContextPattern pattern);
  /// Appends a routing-switch row named by switch id through the switch
  /// name source (set_switch_names).  Returns the row index.
  std::size_t add_switch_row(std::size_t switch_id, ContextPattern pattern);

  /// Where switch rows get their names.  Null is allowed while nothing
  /// asks for a switch row's name (e.g. a bitstream stored in a cache).
  void set_switch_names(std::shared_ptr<const SwitchNameSource> names) {
    switch_names_ = std::move(names);
  }
  const std::shared_ptr<const SwitchNameSource>& switch_names() const {
    return switch_names_;
  }

  const BitstreamRow& row(std::size_t index) const;
  /// Overwrites row `index`'s pattern (same context count).
  void set_pattern(std::size_t index, ContextPattern pattern);
  const std::vector<BitstreamRow>& rows() const { return rows_; }
  /// Row `index`'s name, e.g. "sb(3,4).G9" or "lb(1,2).out0[13]".  Valid
  /// until the bitstream is next modified.
  std::string_view name(std::size_t index) const;

  /// Number of rows of a given resource kind.
  std::size_t count_kind(ResourceKind kind) const;

  /// The full configuration plane of one context: bit i = value of row i.
  BitVector plane(std::size_t context) const;

  /// Appends rows [first, first + count) of `other`, names included
  /// (context counts must match; switch rows need the same name source,
  /// which this bitstream adopts when it has none).
  void append_rows(const Bitstream& other, std::size_t first,
                   std::size_t count);
  /// Concatenates all of another bitstream's rows.
  void append(const Bitstream& other) {
    append_rows(other, 0, other.num_rows());
  }

 private:
  /// A row's name: a switch id, or a slice of name_text_.
  struct NameRef {
    static constexpr std::uint32_t kSwitch = 0xffffffffu;
    std::uint32_t begin = 0;  ///< Switch id when size == kSwitch.
    std::uint32_t size = 0;
  };

  std::size_t num_contexts_;
  std::vector<BitstreamRow> rows_;
  std::vector<NameRef> names_;  ///< Parallel to rows_.
  std::string name_text_;       ///< Owned names, concatenated.
  std::shared_ptr<const SwitchNameSource> switch_names_;
};

}  // namespace mcfpga::config
