#include "config/bitstream.hpp"

#include "common/error.hpp"
#include "config/context_id.hpp"

namespace mcfpga::config {

std::string to_string(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kRoutingSwitch:
      return "routing-switch";
    case ResourceKind::kLutBit:
      return "lut-bit";
    case ResourceKind::kControlBit:
      return "control-bit";
  }
  return "?";
}

Bitstream::Bitstream(std::size_t num_contexts) : num_contexts_(num_contexts) {
  MCFPGA_REQUIRE(is_valid_context_count(num_contexts),
                 "context count must be a power of two in [2, 64]");
}

std::size_t Bitstream::add_row(std::string_view name, ResourceKind kind,
                               ContextPattern pattern) {
  MCFPGA_REQUIRE(pattern.num_contexts() == num_contexts_,
                 "row context count must match bitstream context count");
  MCFPGA_REQUIRE(name_text_.size() + name.size() < NameRef::kSwitch,
                 "bitstream names exceed 4 GiB");
  names_.push_back(NameRef{static_cast<std::uint32_t>(name_text_.size()),
                           static_cast<std::uint32_t>(name.size())});
  name_text_.append(name);
  rows_.push_back(BitstreamRow{kind, pattern});
  return rows_.size() - 1;
}

std::size_t Bitstream::add_switch_row(std::size_t switch_id,
                                      ContextPattern pattern) {
  MCFPGA_REQUIRE(pattern.num_contexts() == num_contexts_,
                 "row context count must match bitstream context count");
  MCFPGA_REQUIRE(switch_id < NameRef::kSwitch, "switch id out of range");
  names_.push_back(
      NameRef{static_cast<std::uint32_t>(switch_id), NameRef::kSwitch});
  rows_.push_back(BitstreamRow{ResourceKind::kRoutingSwitch, pattern});
  return rows_.size() - 1;
}

const BitstreamRow& Bitstream::row(std::size_t index) const {
  MCFPGA_REQUIRE(index < rows_.size(), "row index out of range");
  return rows_[index];
}

void Bitstream::set_pattern(std::size_t index, ContextPattern pattern) {
  MCFPGA_REQUIRE(index < rows_.size(), "row index out of range");
  MCFPGA_REQUIRE(pattern.num_contexts() == num_contexts_,
                 "row context count must match bitstream context count");
  rows_[index].pattern = pattern;
}

std::string_view Bitstream::name(std::size_t index) const {
  MCFPGA_REQUIRE(index < rows_.size(), "row index out of range");
  const NameRef& ref = names_[index];
  if (ref.size == NameRef::kSwitch) {
    MCFPGA_REQUIRE(switch_names_ != nullptr,
                   "switch row has no switch name source");
    return switch_names_->switch_name(ref.begin);
  }
  return std::string_view(name_text_).substr(ref.begin, ref.size);
}

std::size_t Bitstream::count_kind(ResourceKind kind) const {
  std::size_t n = 0;
  for (const auto& row : rows_) {
    if (row.kind == kind) {
      ++n;
    }
  }
  return n;
}

BitVector Bitstream::plane(std::size_t context) const {
  MCFPGA_REQUIRE(context < num_contexts_, "context out of range");
  BitVector plane(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    plane.set(i, rows_[i].pattern.value_in(context));
  }
  return plane;
}

void Bitstream::append_rows(const Bitstream& other, std::size_t first,
                            std::size_t count) {
  if (&other == this) {
    const Bitstream copy = other;
    append_rows(copy, first, count);
    return;
  }
  MCFPGA_REQUIRE(other.num_contexts_ == num_contexts_,
                 "appended bitstream must have the same context count");
  MCFPGA_REQUIRE(first <= other.rows_.size() &&
                     count <= other.rows_.size() - first,
                 "appended row range out of bounds");
  for (std::size_t r = first; r < first + count; ++r) {
    NameRef ref = other.names_[r];
    if (ref.size == NameRef::kSwitch) {
      if (switch_names_ == nullptr) {
        switch_names_ = other.switch_names_;
      }
      MCFPGA_REQUIRE(switch_names_ == other.switch_names_,
                     "appended switch rows name another fabric's switches");
    } else {
      const std::size_t begin = name_text_.size();
      name_text_.append(other.name_text_, ref.begin, ref.size);
      ref.begin = static_cast<std::uint32_t>(begin);
    }
    names_.push_back(ref);
    rows_.push_back(other.rows_[r]);
  }
}

}  // namespace mcfpga::config
