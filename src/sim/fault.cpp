#include "sim/fault.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"

namespace mcfpga::sim {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckAt0:
      return "stuck-at-0";
    case FaultKind::kStuckAt1:
      return "stuck-at-1";
    case FaultKind::kBitFlip:
      return "bit-flip";
  }
  return "?";
}

config::Bitstream inject_fault(const config::Bitstream& golden,
                               const Fault& fault) {
  MCFPGA_REQUIRE(fault.row < golden.num_rows(), "fault row out of range");
  MCFPGA_REQUIRE(fault.context < golden.num_contexts(),
                 "fault context out of range");
  config::ContextPattern pattern = golden.row(fault.row).pattern;
  switch (fault.kind) {
    case FaultKind::kStuckAt0:
      pattern = config::ContextPattern(golden.num_contexts(), false);
      break;
    case FaultKind::kStuckAt1:
      pattern = config::ContextPattern(golden.num_contexts(), true);
      break;
    case FaultKind::kBitFlip:
      pattern.set_value(fault.context, !pattern.value_in(fault.context));
      break;
  }
  config::Bitstream faulty = golden;
  faulty.set_pattern(fault.row, pattern);
  return faulty;
}

std::vector<std::pair<std::size_t, std::size_t>> diff_planes(
    const config::Bitstream& golden, const rcm::ContextDecoder& decoder) {
  MCFPGA_REQUIRE(decoder.num_rows() == golden.num_rows(),
                 "decoder/golden row count mismatch");
  std::vector<std::pair<std::size_t, std::size_t>> diffs;
  for (std::size_t c = 0; c < golden.num_contexts(); ++c) {
    const BitVector want = golden.plane(c);
    const BitVector got = decoder.decode_plane(c);
    for (std::size_t r = 0; r < golden.num_rows(); ++r) {
      if (want.get(r) != got.get(r)) {
        diffs.emplace_back(r, c);
      }
    }
  }
  return diffs;
}

FaultCampaignResult run_fault_campaign(const config::Bitstream& golden,
                                       std::size_t count,
                                       std::uint64_t seed) {
  MCFPGA_REQUIRE(golden.num_rows() > 0, "campaign needs a non-empty bitstream");
  Rng rng(seed);
  FaultCampaignResult result;
  for (std::size_t i = 0; i < count; ++i) {
    Fault fault;
    fault.kind = static_cast<FaultKind>(rng.next_below(3));
    fault.row = static_cast<std::size_t>(rng.next_below(golden.num_rows()));
    fault.context =
        static_cast<std::size_t>(rng.next_below(golden.num_contexts()));
    ++result.injected;

    const config::Bitstream faulty = inject_fault(golden, fault);
    // The decoder is rebuilt from the FAULTY stream; detection compares its
    // regenerated planes against the GOLDEN reference.
    const rcm::ContextDecoder decoder(faulty);
    const auto diffs = diff_planes(golden, decoder);
    if (diffs.empty()) {
      ++result.masked;  // fault did not change any stored value
    } else {
      ++result.detected;
    }
  }
  return result;
}

}  // namespace mcfpga::sim
