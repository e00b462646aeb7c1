#include "util/csv.h"

#include <istream>
#include <iterator>

#include "util/strings.h"

namespace ceer {
namespace util {

std::string
CsvWriter::escape(const std::string &field)
{
    const bool needs_quotes =
        field.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
CsvWriter::writeRow(const std::vector<std::string> &fields)
{
    if (fields.size() == 1 && fields[0].empty()) {
        // A bare empty line would be indistinguishable from a blank
        // (skipped) record on read; quote it so it round-trips.
        out_ << "\"\"\n";
        return;
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out_ << ',';
        out_ << escape(fields[i]);
    }
    out_ << '\n';
}

bool
tryReadCsv(std::istream &in,
           std::vector<std::vector<std::string>> *rows,
           std::string *error)
{
    // Document-level RFC-4180 state machine over the whole text, so a
    // quoted field may span lines.
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    rows->clear();
    std::vector<std::string> fields;
    std::string current;
    bool in_quotes = false;
    bool record_has_quotes = false;
    std::size_t line = 1;
    std::size_t quote_opened_line = 1;

    const auto end_record = [&]() {
        if (fields.empty() && current.empty() && !record_has_quotes)
            return; // Blank line: skip, as every reader expects.
        fields.push_back(std::move(current));
        current.clear();
        rows->push_back(std::move(fields));
        fields.clear();
        record_has_quotes = false;
    };

    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < text.size() && text[i + 1] == '"') {
                    current += '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                // CR and LF are data inside quotes (multi-line record).
                current += c;
                if (c == '\n')
                    ++line;
            }
        } else if (c == '"') {
            in_quotes = true;
            record_has_quotes = true;
            quote_opened_line = line;
        } else if (c == ',') {
            fields.push_back(std::move(current));
            current.clear();
        } else if (c == '\r') {
            // Part of a CRLF separator (handled at the '\n'), or a
            // stray CR we tolerate and drop.
        } else if (c == '\n') {
            end_record();
            ++line;
        } else {
            current += c;
        }
    }
    if (in_quotes) {
        if (error)
            *error = format("line %zu: unterminated quoted field "
                            "(quote opened on line %zu)",
                            line, quote_opened_line);
        return false;
    }
    end_record(); // Final record without a trailing newline.
    return true;
}

} // namespace util
} // namespace ceer
