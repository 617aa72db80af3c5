// FNV-1a, the one integrity hash in the tree: the Message checksum, the
// socket session's data-record CRC and the expert store's slot checksum all
// call it. Each step xors one byte in and multiplies by an odd prime — both
// bijections on the 32-bit state — so any change confined to a single byte
// always changes the result.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vela::util {

inline constexpr std::uint32_t kFnv1aOffsetBasis = 2166136261u;

// Folds `size` bytes at `data` into `hash`. Pass a previous result as `hash`
// to continue one digest over several ranges.
[[nodiscard]] inline std::uint32_t fnv1a(
    const void* data, std::size_t size,
    std::uint32_t hash = kFnv1aOffsetBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 16777619u;
  }
  return hash;
}

}  // namespace vela::util
