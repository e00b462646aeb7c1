/**
 * @file
 * RFC-4180 CSV writing/reading for profile datasets and bench output.
 *
 * Dialect: comma separator; fields containing a comma, quote, CR or LF
 * are quoted with double quotes and embedded quotes are doubled. Quoted
 * fields may span lines (CR and LF are preserved verbatim inside
 * quotes). Both LF and CRLF are accepted as record separators on read;
 * a lone CR outside quotes is tolerated and dropped. Records that are
 * completely empty (a blank line) are skipped; a record holding one
 * genuinely empty field is written as `""` so it survives the
 * blank-line rule. An unterminated quote is a hard parse error.
 *
 * See docs/file_formats.md for the full dialect specification and the
 * per-loader error-handling policy.
 */

#ifndef CEER_UTIL_CSV_H
#define CEER_UTIL_CSV_H

#include <ostream>
#include <string>
#include <vector>

namespace ceer {
namespace util {

/** Streams rows to an std::ostream in CSV format. */
class CsvWriter
{
  public:
    /** @param out Destination stream; must outlive the writer. */
    explicit CsvWriter(std::ostream &out) : out_(out) {}

    /** Writes one row; fields are escaped as needed. */
    void writeRow(const std::vector<std::string> &fields);

    /** Escapes a single field per the dialect above. */
    static std::string escape(const std::string &field);

  private:
    std::ostream &out_;
};

/**
 * Reads an entire CSV document from a stream (the inverse of
 * CsvWriter).
 *
 * Supports multi-line records (newlines inside quoted fields). Blank
 * lines are skipped.
 *
 * @param in    Input stream read to EOF.
 * @param rows  One vector of fields per record (cleared first).
 * @param error On failure, set to "line N: ..." context.
 * @return True on success; false leaves @p rows unspecified.
 */
bool tryReadCsv(std::istream &in,
                std::vector<std::vector<std::string>> *rows,
                std::string *error);

} // namespace util
} // namespace ceer

#endif // CEER_UTIL_CSV_H
