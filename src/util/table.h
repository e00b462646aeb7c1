/**
 * @file
 * ASCII table rendering for bench binaries.
 *
 * Bench harnesses print the rows/series of the paper's tables and figures;
 * TablePrinter keeps that output aligned and diffable.
 */

#ifndef CEER_UTIL_TABLE_H
#define CEER_UTIL_TABLE_H

#include <ostream>
#include <string>
#include <vector>

namespace ceer {
namespace util {

/**
 * Collects rows and renders an aligned ASCII table: the first column
 * left-aligned, every other column right-aligned.
 *
 * Usage:
 * @code
 *   TablePrinter table({"op", "P3 (us)", "P2 (us)"});
 *   table.addRow({"Conv2D", "123.4", "1201.9"});
 *   table.print(std::cout);
 * @endcode
 */
class TablePrinter
{
  public:
    /** @param header Column titles; fixes the column count. */
    explicit TablePrinter(std::vector<std::string> header);

    /** Adds a data row; must match the header's column count. */
    void addRow(std::vector<std::string> row);

    /** Adds a horizontal separator at the current position. */
    void addSeparator();

    /** Renders the table to @p out. */
    void print(std::ostream &out) const;

  private:
    std::vector<std::string> header_;
    /// Rows; an empty vector marks a separator.
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Prints a section banner of the form
 * "==== title ====" used by bench binaries.
 */
void printBanner(std::ostream &out, const std::string &title);

/**
 * Prints a PASS/CHECK line comparing a measured quantity against the
 * paper's expected band.
 *
 * @param out      Destination stream.
 * @param what     Description of the quantity.
 * @param measured Measured value.
 * @param lo       Lower bound of the acceptable band.
 * @param hi       Upper bound of the acceptable band.
 * @return true when measured lies in [lo, hi].
 */
bool printCheck(std::ostream &out, const std::string &what, double measured,
                double lo, double hi);

} // namespace util
} // namespace ceer

#endif // CEER_UTIL_TABLE_H
