// Source routes, Myrinet-style.
//
// A route is the sequence of output-port numbers the packet's header carries;
// each crossbar switch on the path consumes one byte and forwards the packet
// out that port. Hosts consume nothing — a packet arriving at a host with
// unconsumed route bytes was misrouted.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <stdexcept>
#include <string>

namespace sanfault::net {

/// Fixed-capacity inline list of port bytes. Every port list a packet
/// carries (its source route, its per-hop entry ports) is one of these, so
/// copying a Packet never allocates. A list occupies Capacity + 1 bytes.
/// Overflow throws std::length_error: a route longer than the capacity is a
/// modeling bug, not a degradation to tolerate silently.
template <std::size_t Capacity>
class PortList {
  static_assert(Capacity > 0 && Capacity < 256, "size is kept in one byte");

 public:
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  PortList() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  PortList(std::initializer_list<std::uint8_t> ports) {
    append(ports.begin(), ports.end());
  }

  void push_back(std::uint8_t port) {
    if (size_ == Capacity) throw_overflow();
    v_[size_++] = port;
  }
  template <class It>
  void append(It first, It last) {
    for (; first != last; ++first) {
      push_back(static_cast<std::uint8_t>(*first));
    }
  }
  template <class It>
  void assign(It first, It last) {
    clear();
    append(first, last);
  }
  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  std::uint8_t& operator[](std::size_t i) { return v_[i]; }
  std::uint8_t operator[](std::size_t i) const { return v_[i]; }

  [[nodiscard]] iterator begin() { return v_.data(); }
  [[nodiscard]] iterator end() { return v_.data() + size_; }
  [[nodiscard]] const_iterator begin() const { return v_.data(); }
  [[nodiscard]] const_iterator end() const { return v_.data() + size_; }
  [[nodiscard]] const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  [[nodiscard]] const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  friend bool operator==(const PortList& a, const PortList& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  [[noreturn]] static void throw_overflow() {
    throw std::length_error("port list overflow: more than " +
                            std::to_string(Capacity) + " hops");
  }

  std::uint8_t size_ = 0;
  std::array<std::uint8_t, Capacity> v_{};
};

/// Longest source route a packet header carries: switches crossed. Sized so
/// a route and its entry-port record (kMaxRouteHops + 1, see Packet) are 32
/// bytes each. Every fabric this repo models has a diameter of at most 5; the
/// longest routes are the on-demand mapper's switch probes, which bound its
/// BFS depth (OnDemandMapperConfig::max_depth).
inline constexpr std::size_t kMaxRouteHops = 30;

struct Route {
  PortList<kMaxRouteHops> ports;

  [[nodiscard]] std::size_t hops() const { return ports.size(); }
  [[nodiscard]] bool empty() const { return ports.empty(); }
  /// Bytes this route occupies in the packet header on the wire.
  [[nodiscard]] std::size_t wire_bytes() const { return ports.size(); }

  bool operator==(const Route&) const = default;

  [[nodiscard]] std::string str() const {
    std::string s = "[";
    for (std::size_t i = 0; i < ports.size(); ++i) {
      if (i) s += ',';
      s += std::to_string(static_cast<int>(ports[i]));
    }
    return s + "]";
  }
};

}  // namespace sanfault::net
