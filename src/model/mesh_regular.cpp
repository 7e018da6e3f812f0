#include "model/mesh_regular.hpp"

#include <cmath>

#include "topology/mesh_geometry.hpp"

namespace kncube::model::mesh {

void add_scaled(Lin& out, const Lin& in, double scale) {
  out.c += scale * in.c;
  for (const engine::Coef& coef : in.terms) {
    out.terms.push_back({coef.slot, scale * coef.weight});
  }
}

double regular_holding_time(const ModelConfig& cfg, int d, int i) {
  const double lm = static_cast<double>(cfg.message_length);
  return lm + static_cast<double>(cfg.k - 2 - i) / 2.0 +
         static_cast<double>(cfg.n - 1 - d) * topo::mesh_mean_line_hops(cfg.k);
}

void declare_regular_classes(engine::ChannelClassSystem& sys,
                             const RegularLayout& lay, double lm,
                             const std::function<int(int d, int i)>& blocking) {
  const int k = lay.k;
  const int n = lay.n;
  const double kd = static_cast<double>(k);
  // G_j continuation expressions, built from the last dimension backward
  // (index n holds the destination drain), alongside their zero-load values
  // and the current dimension's zero-load class values, which seed the
  // classes' iteration starting points.
  std::vector<Lin> g(static_cast<std::size_t>(n) + 1);
  std::vector<double> g0(static_cast<std::size_t>(n) + 1, lm - 1.0);
  g[static_cast<std::size_t>(n)].c = lm - 1.0;
  std::vector<double> s0(static_cast<std::size_t>(k - 1), 0.0);
  Lin cont;

  for (int d = n - 1; d >= 0; --d) {
    const Lin& cont_g = g[static_cast<std::size_t>(d + 1)];
    const double cont_g0 = g0[static_cast<std::size_t>(d + 1)];
    for (int i = k - 2; i >= 0; --i) {
      const double m = static_cast<double>(k - 1 - i);
      cont.c = 0.0;
      cont.terms.clear();
      // Zero-load value of the recursion with B = 0 (exact: the branching
      // probabilities are exact path counts).
      double init = 1.0 + cont_g0;
      if (i == k - 2) {
        add_scaled(cont, cont_g, 1.0);
      } else {
        add_scaled(cont, cont_g, 1.0 / m);
        cont.terms.push_back({lay.slot(d, i + 1), (m - 1.0) / m});
        init = 1.0 + (m - 1.0) / m * s0[static_cast<std::size_t>(i + 1)] + cont_g0 / m;
      }
      s0[static_cast<std::size_t>(i)] = init;
      sys.set_class(lay.slot(d, i),
                    {blocking(d, i), init, {}, sys.linear(cont.c, cont.terms)});
    }
    // Close this dimension's entrance average into G_d for the dimensions
    // below it.
    Lin& gd = g[static_cast<std::size_t>(d)];
    add_scaled(gd, cont_g, 1.0 / kd);
    double enter0 = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      const double w = topo::mesh_entrance_weight(k, i);
      gd.terms.push_back({lay.slot(d, i), w * (static_cast<double>(k - 1) / kd)});
      enter0 += w * s0[static_cast<std::size_t>(i)];
    }
    g0[static_cast<std::size_t>(d)] =
        cont_g0 / kd + enter0 * (static_cast<double>(k - 1) / kd);
  }
}

std::int64_t regular_coefficient_count(int k, int n) {
  const std::int64_t line = std::int64_t{k} - 1;
  const std::int64_t dims = n;
  return line * line * (dims * (dims - 1) / 2) + dims * (line - 1);
}

RegularEntrances regular_entrances(const std::vector<double>& state,
                                   const RegularLayout& lay) {
  const int k = lay.k;
  const int n = lay.n;
  const double p_self = std::pow(static_cast<double>(k), -n);
  RegularEntrances out;
  for (int j = 0; j < n; ++j) {
    double e = 0.0;
    for (int i = 0; i < k - 1; ++i) {
      e += topo::mesh_entrance_weight(k, i) *
           state[static_cast<std::size_t>(lay.slot(j, i))];
    }
    const double p = std::pow(1.0 / static_cast<double>(k), j) *
                     (static_cast<double>(k - 1) / static_cast<double>(k)) /
                     (1.0 - p_self);
    out.entrance[static_cast<std::size_t>(j)] = e;
    out.p_first[static_cast<std::size_t>(j)] = p;
    out.network += p * e;
  }
  return out;
}

}  // namespace kncube::model::mesh
