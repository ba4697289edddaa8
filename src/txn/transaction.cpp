#include "txn/transaction.hpp"

namespace mpsoc::txn {

std::uint32_t repackBeats(std::uint32_t beats, std::uint32_t from_bytes,
                          std::uint32_t to_bytes) {
  const std::uint64_t total =
      static_cast<std::uint64_t>(beats) * from_bytes;
  return static_cast<std::uint32_t>((total + to_bytes - 1) / to_bytes);
}

}  // namespace mpsoc::txn
