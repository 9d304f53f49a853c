// Simple row-major 2-D/3-D grid container used host-side (reference
// implementations, tile staging, verification). 2-D grids have nz == 1.
#pragma once

#include <vector>

#include "common/log.hpp"
#include "common/splitmix.hpp"
#include "common/types.hpp"

namespace saris {

template <typename T = double>
class Grid {
 public:
  Grid(u32 nx, u32 ny, u32 nz = 1)
      : nx_(nx), ny_(ny), nz_(nz), data_(static_cast<std::size_t>(nx) * ny * nz) {
    SARIS_CHECK(nx > 0 && ny > 0 && nz > 0, "degenerate grid");
  }

  u32 nx() const { return nx_; }
  u32 ny() const { return ny_; }
  u32 nz() const { return nz_; }
  std::size_t size() const { return data_.size(); }
  std::size_t bytes() const { return data_.size() * sizeof(T); }

  std::size_t index(u32 x, u32 y, u32 z = 0) const {
    SARIS_CHECK(x < nx_ && y < ny_ && z < nz_,
                "grid index (" << x << "," << y << "," << z << ") out of ("
                               << nx_ << "," << ny_ << "," << nz_ << ")");
    return (static_cast<std::size_t>(z) * ny_ + y) * nx_ + x;
  }

  T& at(u32 x, u32 y, u32 z = 0) { return data_[index(x, y, z)]; }
  const T& at(u32 x, u32 y, u32 z = 0) const { return data_[index(x, y, z)]; }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  void fill(T v) {
    for (T& e : data_) e = v;
  }

  /// Deterministic pseudo-random fill (splitmix64), seedable so tests
  /// and benches are reproducible.
  ///
  /// The stream origin is the seed passed through a full splitmix64
  /// finalizer, not an affine map of it: the per-element counter advances by
  /// the same odd constant an affine origin would, so `seed` and `seed + 1`
  /// would otherwise land on the *same* counter sequence one element apart
  /// and produce shifted copies of each other (callers routinely use
  /// adjacent seeds for "independent" arrays).
  void fill_random(u64 seed, double lo = -1.0, double hi = 1.0) {
    u64 s = mix64(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
    for (std::size_t i = 0; i < data_.size(); ++i) {
      double u = static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
      data_[i] = static_cast<T>(lo + (hi - lo) * u);
    }
  }

 private:
  u32 nx_, ny_, nz_;
  std::vector<T> data_;
};

}  // namespace saris
