#include "topology/torus.hpp"

#include <cmath>

#include "topology/mesh_geometry.hpp"

namespace kncube::topo {

KAryNCube::KAryNCube(int k, int n, bool bidirectional, bool mesh)
    : k_(k), n_(n), bidirectional_(bidirectional || mesh), mesh_(mesh) {
  KNC_ASSERT_MSG(k >= 2, "radix must be at least 2");
  KNC_ASSERT_MSG(n >= 1 && n <= kMaxDims, "dimension count out of range");
  NodeId size = 1;
  for (int d = 0; d < n_; ++d) {
    stride_[static_cast<std::size_t>(d)] = size;
    KNC_ASSERT_MSG(size <= kMaxNodes / static_cast<NodeId>(k), "network too large");
    size *= static_cast<NodeId>(k);
  }
  size_ = size;
}

NodeId centre_node(int k, int n) noexcept {
  NodeId id = 0;
  NodeId stride = 1;
  for (int d = 0; d < n; ++d) {
    id += static_cast<NodeId>(k / 2) * stride;
    stride *= static_cast<NodeId>(k);
  }
  return id;
}

int KAryNCube::coord(NodeId node, int dim) const noexcept {
  KNC_DEBUG_ASSERT(node < size_ && dim >= 0 && dim < n_);
  return static_cast<int>((node / stride_[static_cast<std::size_t>(dim)]) %
                          static_cast<NodeId>(k_));
}

Coords KAryNCube::coords(NodeId node) const noexcept {
  Coords c{};
  for (int d = 0; d < n_; ++d) c[static_cast<std::size_t>(d)] = coord(node, d);
  return c;
}

NodeId KAryNCube::node_at(const Coords& c) const noexcept {
  NodeId id = 0;
  for (int d = 0; d < n_; ++d) {
    const int x = c[static_cast<std::size_t>(d)];
    KNC_DEBUG_ASSERT(x >= 0 && x < k_);
    id += static_cast<NodeId>(x) * stride_[static_cast<std::size_t>(d)];
  }
  return id;
}

NodeId KAryNCube::neighbor(NodeId node, int dim, Direction dir) const noexcept {
  KNC_DEBUG_ASSERT(link_exists(node, dim, dir));
  const int c = coord(node, dim);
  const int next = dir == Direction::kPlus ? (c + 1) % k_ : (c - 1 + k_) % k_;
  const auto stride = stride_[static_cast<std::size_t>(dim)];
  return node + (static_cast<NodeId>(next) - static_cast<NodeId>(c)) * stride;
}

bool KAryNCube::link_exists(NodeId node, int dim, Direction dir) const noexcept {
  if (!mesh_) return true;
  const int c = coord(node, dim);
  return dir == Direction::kPlus ? c < k_ - 1 : c > 0;
}

int KAryNCube::ring_distance(int a, int b, Direction dir) const noexcept {
  KNC_DEBUG_ASSERT(a >= 0 && a < k_ && b >= 0 && b < k_);
  if (mesh_) {
    // The line cannot wrap: b must lie on `dir`'s side of a.
    KNC_DEBUG_ASSERT(dir == Direction::kPlus ? b >= a : b <= a);
    return dir == Direction::kPlus ? b - a : a - b;
  }
  return dir == Direction::kPlus ? (b - a + k_) % k_ : (a - b + k_) % k_;
}

int KAryNCube::ring_hops(int a, int b) const noexcept {
  if (mesh_) return a <= b ? b - a : a - b;
  const int plus = ring_distance(a, b, Direction::kPlus);
  if (!bidirectional_) return plus;
  const int minus = ring_distance(a, b, Direction::kMinus);
  return plus <= minus ? plus : minus;
}

Direction KAryNCube::ring_direction(int a, int b) const noexcept {
  if (mesh_) return b >= a ? Direction::kPlus : Direction::kMinus;
  if (!bidirectional_) return Direction::kPlus;
  const int plus = ring_distance(a, b, Direction::kPlus);
  const int minus = ring_distance(a, b, Direction::kMinus);
  return plus <= minus ? Direction::kPlus : Direction::kMinus;
}

int KAryNCube::hops(NodeId src, NodeId dst) const noexcept {
  int total = 0;
  for (int d = 0; d < n_; ++d) total += ring_hops(coord(src, d), coord(dst, d));
  return total;
}

int KAryNCube::next_route_dim(NodeId cur, NodeId dst) const noexcept {
  for (int d = 0; d < n_; ++d) {
    if (coord(cur, d) != coord(dst, d)) return d;
  }
  return -1;
}

std::vector<Hop> KAryNCube::route(NodeId src, NodeId dst) const {
  std::vector<Hop> path;
  path.reserve(static_cast<std::size_t>(hops(src, dst)));
  NodeId cur = src;
  while (cur != dst) {
    const int d = next_route_dim(cur, dst);
    KNC_DEBUG_ASSERT(d >= 0);
    const Direction dir = ring_direction(coord(cur, d), coord(dst, d));
    const NodeId nxt = neighbor(cur, d, dir);
    path.push_back(Hop{cur, nxt, d, dir, is_wrap_link(cur, d, dir)});
    cur = nxt;
  }
  return path;
}

bool KAryNCube::is_wrap_link(NodeId node, int dim, Direction dir) const noexcept {
  if (mesh_) return false;
  const int c = coord(node, dim);
  return dir == Direction::kPlus ? c == k_ - 1 : c == 0;
}

double KAryNCube::mean_ring_hops_uniform() const noexcept {
  if (mesh_) {
    // E|a - b| over iid uniform coordinates. Unlike the torus cases this is
    // position-dependent per node; the iid mean is the network-wide average.
    return mesh_mean_line_hops(k_);
  }
  // Average of ring_hops(a, b) over b uniform in [0, k) for fixed a.
  if (!bidirectional_) return static_cast<double>(k_ - 1) / 2.0;
  double acc = 0.0;
  for (int b = 0; b < k_; ++b) acc += ring_hops(0, b);
  return acc / static_cast<double>(k_);
}

}  // namespace kncube::topo
