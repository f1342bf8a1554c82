#pragma once
// CommMatrix: the weighted matrix expressing communication volume between
// threads, as gathered from the ORWL runtime (paper, Sec. II). Entry (i, j)
// is the number of bytes threads i and j exchange per iteration. The matrix
// is kept symmetric: at(i, j) == at(j, i).

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace orwl::comm {

class CommMatrix {
 public:
  /// Zero matrix of the given order. order >= 0.
  explicit CommMatrix(int order = 0);

  [[nodiscard]] int order() const { return order_; }

  /// Read entry (i, j).
  [[nodiscard]] double at(int i, int j) const;

  /// Set both (i, j) and (j, i). Diagonal writes are allowed but the
  /// diagonal is ignored by all consumers. Weights must be >= 0.
  void set(int i, int j, double w);

  /// Add to both (i, j) and (j, i) (to (i,i) once when i == j).
  void add(int i, int j, double w);

  /// Sum of all off-diagonal entries, each pair counted once.
  [[nodiscard]] double total_volume() const;

  /// Grow (zero-filled) or shrink to a new order.
  void resize(int order);

  /// Return a copy extended by `extra` zero rows/columns.
  [[nodiscard]] CommMatrix padded(int extra) const;

  /// Aggregate by groups: result order = groups.size(); entry (a, b) is the
  /// sum of at(i, j) over i in groups[a], j in groups[b]. Every index in the
  /// groups must be < order(). This is AggregateComMatrix from Algorithm 1.
  [[nodiscard]] CommMatrix aggregated(
      const std::vector<std::vector<int>>& groups) const;

  /// CSV I/O: one row per line, comma-separated weights.
  void save_csv(std::ostream& os) const;
  static CommMatrix load_csv(std::istream& is);

  bool operator==(const CommMatrix& o) const = default;

 private:
  [[nodiscard]] std::size_t idx(int i, int j) const;
  int order_ = 0;
  std::vector<double> w_;  // row-major order_ x order_
};

/// The static sharing matrix of a program (paper Sec. II, "we cluster
/// threads that share data"): every pair of distinct tasks holding an
/// access to the same location gets an affinity of that location's size,
/// reader-reader pairs included, since they share the buffer in cache even
/// though no bytes flow between them. `accesses` lists (task, location)
/// pairs, repeats allowed; `location_bytes[l]` is location l's size.
/// Entries are sums of whole byte counts, so they do not depend on the
/// order of `accesses`. Time O(tasks + locations + accesses + pairs).
CommMatrix sharing_matrix(int tasks,
                          const std::vector<std::size_t>& location_bytes,
                          const std::vector<std::pair<int, int>>& accesses);

}  // namespace orwl::comm
