// GF(2^8) arithmetic for the Reed-Solomon codec (src/ec/rs.hpp).
//
// The field is GF(256) under the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d) with generator alpha = 2 — the conventional choice of erasure
// coding libraries, so unit bytes on the wire match what an off-simulator
// decoder would compute. Two independent multiply paths exist on purpose:
//
//  * gf_mul / gf_inv      — log/exp table lookups, built once at compile
//                           time; the production path (one add + one lookup
//                           per byte);
//  * gf_mul_slow / gf_inv_slow — bitwise carry-less multiply with explicit
//                           polynomial reduction, and inverse by exhaustive
//                           search. Never used in production: the codec's
//                           reference oracle is built entirely on these so
//                           tests can byte-compare the fast path against
//                           arithmetic that shares none of its tables.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>

namespace sanfault::ec {

/// Carry-less multiply of two field elements reduced mod 0x11d. Pure
/// bit-twiddling, no tables — the reference oracle's multiplier.
constexpr std::uint8_t gf_mul_slow(std::uint8_t a, std::uint8_t b) {
  std::uint32_t acc = 0;
  for (int i = 0; i < 8; ++i) {
    if ((b >> i) & 1) acc ^= static_cast<std::uint32_t>(a) << i;
  }
  for (int bit = 15; bit >= 8; --bit) {
    if ((acc >> bit) & 1) acc ^= 0x11du << (bit - 8);
  }
  return static_cast<std::uint8_t>(acc);
}

/// Multiplicative inverse by exhaustive search (reference oracle only).
constexpr std::uint8_t gf_inv_slow(std::uint8_t a) {
  assert(a != 0 && "zero has no inverse");
  for (int x = 1; x < 256; ++x) {
    if (gf_mul_slow(a, static_cast<std::uint8_t>(x)) == 1) {
      return static_cast<std::uint8_t>(x);
    }
  }
  return 0;  // unreachable: GF(256) is a field
}

namespace detail {

struct Gf256Tables {
  // exp[i] = alpha^(i mod 255); doubled so gf_mul can skip the mod for the
  // sum of two logs (max 254 + 254 = 508 < 510).
  std::array<std::uint8_t, 510> exp{};
  std::array<std::uint8_t, 256> log{};
};

constexpr Gf256Tables make_tables() {
  Gf256Tables t;
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[static_cast<std::size_t>(i)] = x;
    t.exp[static_cast<std::size_t>(i) + 255] = x;
    t.log[x] = static_cast<std::uint8_t>(i);
    x = gf_mul_slow(x, 2);
  }
  return t;
}

inline constexpr Gf256Tables kGf = make_tables();

}  // namespace detail

inline std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return detail::kGf.exp[static_cast<std::size_t>(detail::kGf.log[a]) +
                         detail::kGf.log[b]];
}

inline std::uint8_t gf_inv(std::uint8_t a) {
  assert(a != 0 && "zero has no inverse");
  return detail::kGf.exp[255 - detail::kGf.log[a]];
}

}  // namespace sanfault::ec
