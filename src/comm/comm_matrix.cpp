#include "comm/comm_matrix.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "support/assert.h"

namespace orwl::comm {

CommMatrix::CommMatrix(int order) : order_(order) {
  ORWL_CHECK_MSG(order >= 0, "negative matrix order " << order);
  w_.assign(static_cast<std::size_t>(order) * static_cast<std::size_t>(order),
            0.0);
}

std::size_t CommMatrix::idx(int i, int j) const {
  ORWL_CHECK_MSG(i >= 0 && i < order_ && j >= 0 && j < order_,
                 "index (" << i << ',' << j << ") out of order " << order_);
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(order_) +
         static_cast<std::size_t>(j);
}

double CommMatrix::at(int i, int j) const { return w_[idx(i, j)]; }

void CommMatrix::set(int i, int j, double w) {
  ORWL_CHECK_MSG(w >= 0.0, "negative communication weight " << w);
  w_[idx(i, j)] = w;
  w_[idx(j, i)] = w;
}

void CommMatrix::add(int i, int j, double w) {
  ORWL_CHECK_MSG(w >= 0.0, "negative communication weight " << w);
  w_[idx(i, j)] += w;
  if (i != j) w_[idx(j, i)] += w;
}

double CommMatrix::total_volume() const {
  double sum = 0.0;
  for (int i = 0; i < order_; ++i)
    for (int j = i + 1; j < order_; ++j) sum += at(i, j);
  return sum;
}

void CommMatrix::resize(int order) {
  ORWL_CHECK_MSG(order >= 0, "negative matrix order " << order);
  CommMatrix next(order);
  const int keep = std::min(order, order_);
  for (int i = 0; i < keep; ++i)
    for (int j = 0; j < keep; ++j) next.w_[next.idx(i, j)] = at(i, j);
  *this = std::move(next);
}

CommMatrix CommMatrix::padded(int extra) const {
  ORWL_CHECK_MSG(extra >= 0, "negative padding " << extra);
  CommMatrix out = *this;
  out.resize(order_ + extra);
  return out;
}

CommMatrix CommMatrix::aggregated(
    const std::vector<std::vector<int>>& groups) const {
  const int g = static_cast<int>(groups.size());
  CommMatrix out(g);
  for (int a = 0; a < g; ++a) {
    for (int b = 0; b < g; ++b) {
      if (a == b) continue;
      double sum = 0.0;
      for (int i : groups[static_cast<std::size_t>(a)]) {
        for (int j : groups[static_cast<std::size_t>(b)]) {
          sum += at(i, j);
        }
      }
      out.w_[out.idx(a, b)] = sum;
    }
  }
  return out;
}

void CommMatrix::save_csv(std::ostream& os) const {
  for (int i = 0; i < order_; ++i) {
    for (int j = 0; j < order_; ++j) {
      if (j) os << ',';
      os << at(i, j);
    }
    os << '\n';
  }
}

CommMatrix CommMatrix::load_csv(std::istream& is) {
  std::vector<std::vector<double>> rows;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::vector<double> row;
    std::istringstream ls(line);
    std::string cell;
    while (std::getline(ls, cell, ',')) row.push_back(std::stod(cell));
    rows.push_back(std::move(row));
  }
  const int n = static_cast<int>(rows.size());
  CommMatrix m(n);
  for (int i = 0; i < n; ++i) {
    ORWL_CHECK_MSG(static_cast<int>(rows[static_cast<std::size_t>(i)].size()) ==
                       n,
                   "CSV row " << i << " has wrong width");
    for (int j = 0; j < n; ++j)
      m.w_[m.idx(i, j)] = rows[static_cast<std::size_t>(i)]
                              [static_cast<std::size_t>(j)];
  }
  // Enforce symmetry (average asymmetric inputs).
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (m.at(i, j) + m.at(j, i));
      m.set(i, j, avg);
    }
  return m;
}

CommMatrix sharing_matrix(int tasks,
                          const std::vector<std::size_t>& location_bytes,
                          const std::vector<std::pair<int, int>>& accesses) {
  // Group the accesses by location in one counting-sort pass.
  const std::size_t nloc = location_bytes.size();
  std::vector<std::size_t> first(nloc + 1, 0);
  for (const auto& [task, loc] : accesses) {
    ORWL_CHECK_MSG(task >= 0 && task < tasks && loc >= 0 &&
                       static_cast<std::size_t>(loc) < nloc,
                   "access (" << task << ',' << loc << ") out of range");
    ++first[static_cast<std::size_t>(loc) + 1];
  }
  for (std::size_t l = 0; l < nloc; ++l) first[l + 1] += first[l];
  std::vector<int> by_location(accesses.size());
  std::vector<std::size_t> next(first.begin(), first.end() - 1);
  for (const auto& [task, loc] : accesses)
    by_location[next[static_cast<std::size_t>(loc)]++] = task;

  CommMatrix m(tasks);
  // Last location each task was listed for: a task counts once per
  // location however many accesses it holds there.
  std::vector<std::size_t> seen_at(static_cast<std::size_t>(tasks), nloc);
  std::vector<int> sharers;
  for (std::size_t l = 0; l < nloc; ++l) {
    const auto bytes = static_cast<double>(location_bytes[l]);
    if (bytes == 0.0) continue;
    sharers.clear();
    for (std::size_t k = first[l]; k < first[l + 1]; ++k) {
      const auto t = static_cast<std::size_t>(by_location[k]);
      if (seen_at[t] == l) continue;
      seen_at[t] = l;
      sharers.push_back(by_location[k]);
    }
    for (std::size_t i = 0; i < sharers.size(); ++i)
      for (std::size_t j = i + 1; j < sharers.size(); ++j)
        m.add(sharers[i], sharers[j], bytes);
  }
  return m;
}

}  // namespace orwl::comm
