/**
 * @file
 * Checked, exception-free parsing of numeric fields.
 *
 * Every loader in the repo (profile CSVs, model files, instance
 * catalogs, command-line flags) goes through these helpers instead of
 * std::stod/std::stoll: a malformed byte in an input file must surface
 * as a value the caller can route to its own failure policy (an error
 * with file/row/column context, or util::fatal) — never as an uncaught
 * std::invalid_argument terminating the process mid-load.
 *
 * The accepted grammar is exactly what our writers emit: an optional
 * sign, then a decimal/scientific number ("%.17g" output round-trips
 * bit for bit), plus "inf"/"infinity"/"nan" in any case for doubles.
 * Leading/trailing whitespace or trailing junk is an error; so is an
 * empty field.
 */

#ifndef CEER_UTIL_PARSE_H
#define CEER_UTIL_PARSE_H

#include <cstdint>
#include <string>

namespace ceer {
namespace util {

/**
 * Value-or-error result of a checked parse. No exceptions, no
 * allocation: @ref error points to a static description string, or is
 * nullptr on success.
 */
template <typename T>
struct ParseResult
{
    T value{};                  ///< Parsed value (valid only if ok()).
    const char *error = nullptr; ///< Static error text, nullptr = ok.

    /** True when the parse consumed the whole field successfully. */
    bool ok() const { return error == nullptr; }
    explicit operator bool() const { return ok(); }
};

/**
 * Parses a double from the entire string.
 *
 * Accepts everything "%.17g" can emit, including "inf" and "nan"
 * spellings (any case, optional sign). Rejects empty input, embedded
 * or trailing garbage, and leading whitespace.
 */
ParseResult<double> parseDouble(const std::string &text);

/**
 * Parses a signed 64-bit integer from the entire string (base 10,
 * optional sign). Rejects empty input, trailing garbage and overflow.
 */
ParseResult<std::int64_t> parseInt64(const std::string &text);

/**
 * Parses a non-negative size (counts, occurrences, widths) from the
 * entire string. Rejects negative values, trailing garbage and
 * overflow.
 */
ParseResult<std::size_t> parseSize(const std::string &text);

} // namespace util
} // namespace ceer

#endif // CEER_UTIL_PARSE_H
