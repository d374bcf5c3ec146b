#include "analysis/report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace ccredf::analysis {

void Table::columns(std::vector<std::string> headers) {
  CCREDF_EXPECT(headers_.empty(), "Table: columns already set");
  headers_ = std::move(headers);
}

Table::Row Table::row() {
  CCREDF_EXPECT(!headers_.empty(), "Table: set columns first");
  cells_.emplace_back();
  return Row(*this);
}

Table::Row& Table::Row::cell(const std::string& s) {
  t_.cells_.back().push_back(s);
  return *this;
}

Table::Row& Table::Row::cell(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return cell(os.str());
}

Table::Row& Table::Row::cell(std::int64_t v) {
  return cell(std::to_string(v));
}

Table::Row& Table::Row::pct(double fraction, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << fraction * 100.0
     << "%";
  return cell(os.str());
}

void Table::note(std::string text) {
  notes_.emplace_back(cells_.size(), std::move(text));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  os << "== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& v = c < row.size() ? row[c] : std::string();
      os << (c == 0 ? "" : "  ") << std::setw(static_cast<int>(width[c]))
         << v;
    }
    os << "\n";
  };
  print_row(headers_);
  std::size_t total = 0;
  for (const auto w : width) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << "\n";

  std::size_t note_idx = 0;
  for (std::size_t r = 0; r < cells_.size(); ++r) {
    while (note_idx < notes_.size() && notes_[note_idx].first == r) {
      os << "  # " << notes_[note_idx].second << "\n";
      ++note_idx;
    }
    print_row(cells_[r]);
  }
  while (note_idx < notes_.size()) {
    os << "  # " << notes_[note_idx].second << "\n";
    ++note_idx;
  }
}

std::string Table::str() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

std::string format_si(double v, const char* unit) {
  std::ostringstream os;
  os << std::setprecision(4);
  const double a = std::fabs(v);
  if (a >= 1e9) {
    os << v / 1e9 << " G" << unit;
  } else if (a >= 1e6) {
    os << v / 1e6 << " M" << unit;
  } else if (a >= 1e3) {
    os << v / 1e3 << " k" << unit;
  } else {
    os << v << " " << unit;
  }
  return os.str();
}

}  // namespace ccredf::analysis
