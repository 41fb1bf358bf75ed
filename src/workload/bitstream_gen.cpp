#include "workload/bitstream_gen.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "config/context_id.hpp"

namespace mcfpga::workload {

namespace {
config::ContextPattern random_row(Rng& rng, const BitstreamGenParams& p) {
  if (p.regularity_fraction > 0.0 && rng.next_bool(p.regularity_fraction)) {
    const std::size_t k = config::num_id_bits(p.num_contexts);
    return config::ContextPattern::for_id_bit(
        p.num_contexts, static_cast<std::size_t>(rng.next_below(k)),
        rng.next_bool());
  }
  config::ContextPattern pattern(p.num_contexts);
  bool value = rng.next_bool(p.on_probability);
  pattern.set_value(0, value);
  for (std::size_t c = 1; c < p.num_contexts; ++c) {
    if (rng.next_bool(p.change_rate)) {
      value = !value;
    }
    pattern.set_value(c, value);
  }
  return pattern;
}
}  // namespace

config::Bitstream generate_bitstream(const BitstreamGenParams& params) {
  MCFPGA_REQUIRE(params.change_rate >= 0.0 && params.change_rate <= 1.0,
                 "change rate in [0, 1]");
  MCFPGA_REQUIRE(params.on_probability >= 0.0 &&
                     params.on_probability <= 1.0,
                 "on probability in [0, 1]");
  Rng rng(params.seed);
  config::Bitstream bs(params.num_contexts);
  for (std::size_t r = 0; r < params.rows; ++r) {
    bs.add_row("g" + std::to_string(r),
               config::ResourceKind::kRoutingSwitch, random_row(rng, params));
  }
  return bs;
}

std::vector<config::Bitstream> generate_blocks(
    const BitstreamGenParams& params, std::size_t block_rows) {
  MCFPGA_REQUIRE(block_rows >= 1, "block size must be >= 1");
  const config::Bitstream flat = generate_bitstream(params);
  std::vector<config::Bitstream> blocks;
  for (std::size_t start = 0; start < flat.num_rows(); start += block_rows) {
    config::Bitstream block(params.num_contexts);
    const std::size_t end = std::min(start + block_rows, flat.num_rows());
    block.append_rows(flat, start, end - start);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

}  // namespace mcfpga::workload
