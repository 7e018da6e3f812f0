// The regular-traffic classes shared by the uniform and the hot-spot mesh
// models (DESIGN.md §8.2): their slot layout and holding times, the G_d
// recursion they continue through, and the entrance sums the assemblies
// close over.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "model/analytical_model.hpp"
#include "model/engine/channel_class.hpp"
#include "topology/torus.hpp"  // topo::kMaxDims

namespace kncube::model::mesh {

/// Linear-expression accumulator (constant + weighted slots) feeding
/// ChannelClassSystem::linear.
struct Lin {
  double c = 0.0;
  std::vector<engine::Coef> terms;
};

void add_scaled(Lin& out, const Lin& in, double scale);

/// One regular class per (dimension d, + link position i), i = 0..k-2; the -
/// direction link from i+1 to i mirrors the + link at position k-2-i and
/// shares its class. From slot `base`, dimensions run high-to-low and
/// positions end-of-line-first, so every continuation (the next link of the
/// same line, and the entrances of all later dimensions) reads an earlier
/// slot.
struct RegularLayout {
  int k, n, base;
  int slot(int d, int i) const { return base + (n - 1 - d) * (k - 1) + (k - 2 - i); }
  int end() const { return base + n * (k - 1); }  ///< one past the last slot
};

/// Contention-free holding time of a class-(d, i) channel: Lm plus the mean
/// hops still ahead once the link is crossed — (m-1)/2 within the line
/// (destinations are uniform over the m = k-1-i coordinates beyond the
/// link) plus the iid mean line distance for each uncorrected dimension.
double regular_holding_time(const ModelConfig& cfg, int d, int i);

/// Declares the n(k-1) regular classes, class (d, i) blocking on mixture
/// `blocking(d, i)`. Continuations chain along the line and fall through
/// G_{d+1}, the expected service from the remaining dimensions:
///
///   S_d(i)   = B_d(i) + 1 + (m-1)/m * S_d(i+1) + 1/m * G_{d+1}   (m = k-1-i)
///   S_d(k-2) = B_d(k-2) + 1 + G_{d+1}
///   G_j      = 1/k * G_{j+1} + (k-1)/k * E_enter(j),  G_n = Lm - 1
///   E_enter(j) = sum_i w_i S_j(i),  w_i = mesh_entrance_weight(k, i)
void declare_regular_classes(engine::ChannelClassSystem& sys,
                             const RegularLayout& lay, double lm,
                             const std::function<int(int d, int i)>& blocking);

/// The continuation coefficients declare_regular_classes declares: G_{d+1}
/// carries (n-1-d)(k-1) of them into each of dimension d's k-1 classes, and
/// every class but the line's last adds its next link.
std::int64_t regular_coefficient_count(int k, int n);

/// Entrance sums over a converged state: E_enter(j), the exact
/// first-correcting-dimension probabilities (dimensions 0..j-1 match with
/// probability k^-j, dimension j differs with (k-1)/k, renormalised by the
/// dst != src conditioning), and the mean regular network latency.
struct RegularEntrances {
  std::array<double, topo::kMaxDims> entrance{};
  std::array<double, topo::kMaxDims> p_first{};
  double network = 0.0;
};

RegularEntrances regular_entrances(const std::vector<double>& state,
                                   const RegularLayout& lay);

}  // namespace kncube::model::mesh
