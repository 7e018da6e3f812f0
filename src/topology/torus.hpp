// The k-ary n-cube (torus) substrate: addressing, ring arithmetic and
// deterministic dimension-order routing.
//
// Terminology follows the paper (§2–3): N = k^n nodes; each node has one
// outgoing channel per dimension (unidirectional rings, +1 mod k) or two
// (bidirectional extension). Dimension 0 is "x", dimension 1 is "y", and
// deterministic routing corrects dimensions in increasing order (x before y,
// paper assumption v). An *x-ring* is the set of nodes varying in dimension 0
// with the other coordinates fixed; for n = 2 that is a row, and a *y-ring*
// is a column.
//
// The same class also realises the k-ary n-*mesh* (`mesh = true`): the
// wrap-around links are removed, every ring degenerates to a bidirectional
// line, and dimension-order routing travels the unique minimal direction
// within each line. Edge nodes simply lack the links that would wrap —
// `link_exists` is the predicate the network wiring and the channel
// statistics consult. A mesh is acyclic under dimension-order routing, so
// no dateline VC classes are needed (sim/router.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace kncube::topo {

using NodeId = std::uint32_t;

/// Link direction around a ring. Unidirectional networks only use kPlus.
enum class Direction : std::uint8_t { kPlus = 0, kMinus = 1 };

/// Maximum supported dimensionality. The analysis in the paper is 2-D; the
/// simulator is generic but a compile-time bound keeps coordinates on the
/// stack in the per-cycle hot path.
inline constexpr int kMaxDims = 8;

/// Largest node count N = k^n a KAryNCube addresses: N must fit NodeId with
/// headroom for channel indices.
inline constexpr std::uint64_t kMaxNodes = std::uint64_t{1} << 28;

using Coords = std::array<int, kMaxDims>;

/// One hop of a deterministic route.
struct Hop {
  NodeId from;
  NodeId to;
  int dim;
  Direction dir;
  bool wraps;  ///< true when this hop traverses the ring's wrap-around link
};

class KAryNCube {
 public:
  /// Builds a k-ary n-cube. `bidirectional` enables the paper's "easily
  /// extended" variant with links in both ring directions and shortest-path
  /// direction choice (ties resolved to kPlus). `mesh` removes the
  /// wrap-around links (k-ary n-mesh); a mesh is always bidirectional —
  /// a unidirectional line is disconnected — so `bidirectional` is forced on.
  KAryNCube(int k, int n, bool bidirectional = false, bool mesh = false);

  int radix() const noexcept { return k_; }
  int dims() const noexcept { return n_; }
  NodeId size() const noexcept { return size_; }
  bool bidirectional() const noexcept { return bidirectional_; }
  bool mesh() const noexcept { return mesh_; }
  /// Outgoing network channel *ports* per node (n for unidirectional,
  /// 2n otherwise). On a mesh this is the port-array bound, not the physical
  /// link count: edge nodes leave the would-wrap ports unconnected
  /// (`link_exists`).
  int channels_per_node() const noexcept { return bidirectional_ ? 2 * n_ : n_; }

  /// True when the outgoing link (node, dim, dir) physically exists. Always
  /// true on a torus; false on a mesh for the edge positions whose link
  /// would wrap (coordinate k-1 going kPlus, coordinate 0 going kMinus).
  bool link_exists(NodeId node, int dim, Direction dir) const noexcept;

  /// Coordinate of `node` in dimension `dim` (dimension 0 varies fastest).
  int coord(NodeId node, int dim) const noexcept;
  Coords coords(NodeId node) const noexcept;
  NodeId node_at(const Coords& c) const noexcept;

  /// Neighbour of `node` one hop along `dim` in direction `dir`.
  NodeId neighbor(NodeId node, int dim, Direction dir) const noexcept;

  /// Hops from coordinate a to b travelling in `dir` around a ring. On a
  /// mesh the line cannot wrap: b must be reachable in `dir` (b >= a for
  /// kPlus, b <= a for kMinus).
  int ring_distance(int a, int b, Direction dir) const noexcept;
  /// Shortest-hop distance within a ring honouring directionality: for the
  /// unidirectional torus this is the (+) distance; for bidirectional, the
  /// smaller of the two (ties count as the (+) distance); for a mesh line,
  /// |a - b|.
  int ring_hops(int a, int b) const noexcept;
  /// Direction a deterministic message takes in a ring (kPlus when
  /// unidirectional or tied; on a mesh, the sign of b - a).
  Direction ring_direction(int a, int b) const noexcept;

  /// Total hop count of the deterministic route src -> dst.
  int hops(NodeId src, NodeId dst) const noexcept;

  /// First dimension (in x-before-y order) still to be corrected, or -1 when
  /// cur == dst (message has arrived).
  int next_route_dim(NodeId cur, NodeId dst) const noexcept;

  /// Full deterministic path src -> dst as a hop list (empty if src == dst).
  std::vector<Hop> route(NodeId src, NodeId dst) const;

  /// True when the link (node, dim, dir) is the ring's wrap-around link,
  /// i.e. it crosses the dateline used for deadlock-free VC classing.
  /// Always false on a mesh (there is no wrap-around link to cross).
  bool is_wrap_link(NodeId node, int dim, Direction dir) const noexcept;

  /// Mean hops per dimension under uniform traffic (paper eq (1)):
  /// unidirectional (k-1)/2; bidirectional ~ k/4 (exact value returned);
  /// mesh (k^2 - 1)/(3k), the mean |a - b| over iid uniform coordinates.
  double mean_ring_hops_uniform() const noexcept;

 private:
  int k_;
  int n_;
  bool bidirectional_;
  bool mesh_;
  NodeId size_;
  std::array<NodeId, kMaxDims> stride_;  // k^dim
};

/// Id of the centre node (k/2, k/2, ...) of a k-ary n-cube, computed
/// arithmetically: coordinate d has stride k^d (dimension 0 varies fastest),
/// so the id is (k/2)·Σ k^d.
NodeId centre_node(int k, int n) noexcept;

}  // namespace kncube::topo
