#include "util/table.h"

#include <algorithm>

#include "util/logging.h"
#include "util/strings.h"

namespace ceer {
namespace util {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header))
{
}

void
TablePrinter::addRow(std::vector<std::string> row)
{
    if (row.size() != header_.size())
        panic("TablePrinter::addRow: column count mismatch");
    rows_.push_back(std::move(row));
}

void
TablePrinter::addSeparator()
{
    rows_.emplace_back();
}

void
TablePrinter::print(std::ostream &out) const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto emit_row = [&](const std::vector<std::string> &row) {
        out << "|";
        for (std::size_t c = 0; c < row.size(); ++c) {
            const std::string &cell = row[c];
            const std::size_t pad = widths[c] - cell.size();
            out << ' ';
            if (c > 0)
                out << std::string(pad, ' ') << cell;
            else
                out << cell << std::string(pad, ' ');
            out << " |";
        }
        out << '\n';
    };

    auto emit_separator = [&]() {
        out << "+";
        for (std::size_t c = 0; c < widths.size(); ++c)
            out << std::string(widths[c] + 2, '-') << "+";
        out << '\n';
    };

    emit_separator();
    emit_row(header_);
    emit_separator();
    for (const auto &row : rows_) {
        if (row.empty())
            emit_separator();
        else
            emit_row(row);
    }
    emit_separator();
}

void
printBanner(std::ostream &out, const std::string &title)
{
    out << "\n==== " << title << " ====\n";
}

bool
printCheck(std::ostream &out, const std::string &what, double measured,
           double lo, double hi)
{
    const bool ok = measured >= lo && measured <= hi;
    out << (ok ? "[PASS] " : "[CHECK] ") << what << ": measured "
        << format("%.4g", measured) << " (paper band "
        << format("%.4g", lo) << " .. " << format("%.4g", hi) << ")\n";
    return ok;
}

} // namespace util
} // namespace ceer
