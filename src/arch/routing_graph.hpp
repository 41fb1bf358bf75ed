// Routing-resource graph (RRG) of the MC-FPGA fabric (paper Figs. 6, 10).
//
// Geometry: junctions sit at cell coordinates (x, y).  Single-length wires
// connect adjacent junctions and are switched at every junction by the
// cell's RCM switch block (same-track disjoint topology, six pairs per
// track).  Double-length wires span two junctions and are switched only at
// alternate diamond switches (Fig. 10) — the paper's fast lines for
// critical paths.  Logic-block pins and perimeter I/O pads connect to the
// wires incident at their junction.
//
// Every programmable connection is a "switch": it appears as one directed
// edge pair in the graph and owns one configuration bit in the fabric
// bitstream.  The router marks, per context, which switches are on; the
// switch's context pattern is then exactly the row the RCM decoder (or the
// conventional context memory) must realize.
//
// Adjacency is stored as a flat CSR (compressed-sparse-row) view built once
// at construction: contiguous edge/target arrays indexed through a per-node
// offset table.  Graph traversals (the router's maze expansion above all)
// walk these arrays — no per-node heap allocations on the hot path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/fabric_spec.hpp"
#include "config/bitstream.hpp"

namespace mcfpga::arch {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using SwitchId = std::int32_t;
constexpr NodeId kInvalidNode = -1;

enum class NodeKind : std::uint8_t {
  kOutPin,  ///< Logic-block output pin (net source).
  kInPin,   ///< Logic-block input pin (net sink).
  kPad,     ///< Perimeter I/O pad (primary input/output attach point).
  kWire,    ///< Routing wire segment (single- or double-length).
};

std::string to_string(NodeKind kind);

/// Who owns a switch's configuration bit (for area and programming).
enum class SwitchOwner : std::uint8_t {
  kSwitchBlock,      ///< Single-length track pair inside the cell's RCM block.
  kConnectionBlock,  ///< Pin/pad <-> wire connection.
  kDiamond,          ///< Double-length pair inside a diamond switch.
};

std::string to_string(SwitchOwner owner);

struct RRNode {
  NodeKind kind = NodeKind::kWire;
  std::int32_t x = 0;  ///< Junction / cell coordinate.
  std::int32_t y = 0;
  std::int32_t index = 0;  ///< Pin number, pad number, or track.
  bool horizontal = false;  ///< Wires only.
  std::int32_t length = 1;  ///< Wires only: 1 or 2 junct'n spans.
  std::string name;         ///< Stable diagnostic name.
};

struct RREdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  SwitchId sw = -1;  ///< The physical switch this edge passes through.
};

struct RRSwitch {
  SwitchOwner owner = SwitchOwner::kSwitchBlock;
  std::int32_t x = 0;  ///< Owning block coordinate.
  std::int32_t y = 0;
  std::string name;
  /// The two directed edges realizing this bidirectional pass-gate.
  EdgeId forward = -1;
  EdgeId backward = -1;
};

/// Lightweight view over one node's slice of the CSR edge array.
class FanoutRange {
 public:
  FanoutRange(const EdgeId* first, const EdgeId* last)
      : first_(first), last_(last) {}
  const EdgeId* begin() const { return first_; }
  const EdgeId* end() const { return last_; }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  EdgeId operator[](std::size_t i) const { return first_[i]; }

 private:
  const EdgeId* first_;
  const EdgeId* last_;
};

/// Immutable once built; a compile shares one graph (shared_ptr<const>)
/// between its stages, its result, the device object and the names of its
/// bitstream's routing rows.
class RoutingGraph : public config::SwitchNameSource {
 public:
  explicit RoutingGraph(const FabricSpec& spec);

  const std::string& switch_name(std::size_t switch_id) const override {
    return rr_switch(static_cast<SwitchId>(switch_id)).name;
  }

  const FabricSpec& spec() const { return spec_; }

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const { return edges_.size(); }
  std::size_t num_switches() const { return switches_.size(); }

  const RRNode& node(NodeId id) const { return nodes_[check_node(id)]; }
  const RREdge& edge(EdgeId id) const { return edges_[check_edge(id)]; }
  const RRSwitch& rr_switch(SwitchId id) const {
    return switches_[check_switch(id)];
  }

  /// Outgoing edges of a node (a view into the flat CSR arrays).
  FanoutRange fanout(NodeId id) const {
    const std::size_t n = check_node(id);
    return FanoutRange(csr_edges_.data() + csr_offsets_[n],
                       csr_edges_.data() + csr_offsets_[n + 1]);
  }

  /// Flat CSR adjacency, built once at construction.  Hot-path consumers
  /// (the router above all) index these directly: the fanout of node u
  /// lives at positions [csr_offsets()[u], csr_offsets()[u+1]) of the two
  /// parallel arrays below.
  const std::vector<std::size_t>& csr_offsets() const { return csr_offsets_; }
  /// Edge id at each CSR position.
  const std::vector<EdgeId>& csr_edges() const { return csr_edges_; }
  /// Target node of the edge at each CSR position.
  const std::vector<NodeId>& csr_targets() const { return csr_targets_; }

  /// Pin / pad node lookups.
  NodeId out_pin(std::size_t x, std::size_t y, std::size_t pin) const;
  NodeId in_pin(std::size_t x, std::size_t y, std::size_t pin) const;
  NodeId pad(std::size_t perimeter_index) const;
  std::size_t num_pads() const { return pads_.size(); }

  /// Switch population per owner kind (for the area model).
  std::size_t count_switches(SwitchOwner owner) const;
  /// Switch-block switch points at cell (x, y) (for RCM capacity checks).
  std::size_t switches_in_block(std::size_t x, std::size_t y,
                                SwitchOwner owner) const;

 private:
  std::size_t check_node(NodeId id) const;
  std::size_t check_edge(EdgeId id) const;
  std::size_t check_switch(SwitchId id) const;

  NodeId add_node(RRNode node);
  /// Adds a bidirectional switch (two directed edges) between a and b.
  SwitchId add_switch(NodeId a, NodeId b, SwitchOwner owner, std::int32_t x,
                      std::int32_t y, std::string name);

  void build_wires();
  void build_switch_blocks();
  void build_connection_blocks();
  void build_double_length();
  void build_pads();
  /// Flattens the per-node adjacency accumulated during construction into
  /// the contiguous CSR arrays (stable: preserves edge insertion order).
  void build_csr();

  FabricSpec spec_;
  std::vector<RRNode> nodes_;
  std::vector<RREdge> edges_;
  std::vector<RRSwitch> switches_;
  std::vector<std::size_t> csr_offsets_;  ///< num_nodes + 1 entries.
  std::vector<EdgeId> csr_edges_;
  std::vector<NodeId> csr_targets_;

  // Lookup tables built during construction.
  std::vector<NodeId> out_pins_;  // [cell][pin]
  std::vector<NodeId> in_pins_;
  std::vector<NodeId> h_wires_;  // [x][y][track], kInvalidNode where absent
  std::vector<NodeId> v_wires_;
  std::vector<NodeId> dl_h_wires_;
  std::vector<NodeId> dl_v_wires_;
  std::vector<NodeId> pads_;
  // switch counts per cell per owner: [cell][owner]
  std::vector<std::array<std::size_t, 3>> block_switch_counts_;

  NodeId h_wire(std::int32_t x, std::int32_t y, std::int32_t t) const;
  NodeId v_wire(std::int32_t x, std::int32_t y, std::int32_t t) const;
  NodeId dl_h_wire(std::int32_t x, std::int32_t y, std::int32_t t) const;
  NodeId dl_v_wire(std::int32_t x, std::int32_t y, std::int32_t t) const;
};

}  // namespace mcfpga::arch
