#include "io/schema.h"

#include <cstring>

#include "util/parse.h"

namespace ceer {
namespace io {

namespace {

/** The "<false>|<true>" spellings of a Bool column. */
std::pair<std::string, std::string>
spellings(const char *format)
{
    const char *bar = std::strchr(format, '|');
    return {std::string(format, bar), std::string(bar + 1)};
}

/** Parses @p text with @p parse into @p out, or gives the reason. */
template <class T, class Parse>
bool
parseInto(const std::string &text, Parse parse, T *out, std::string *why)
{
    const auto parsed = parse(text);
    if (!parsed)
        *why = parsed.error;
    else
        *out = parsed.value;
    return parsed.ok();
}

/** Fetches a fixed-width column through its typed accessor. */
template <class V>
bool
fetchFixed(bool (CbfFile::*typed)(std::string_view, const V **,
                                  std::size_t *, std::string *) const,
           const CbfFile &file, const std::string &name,
           ColumnValues *column, std::string *error)
{
    const V *data = nullptr;
    const bool ok = (file.*typed)(name, &data, &column->rows, error);
    column->data = data;
    return ok;
}

} // namespace

std::string
encodeText(ColType type, const char *format, const Value &value)
{
    std::string out;
    switch (type) {
      case ColType::Str:
        return value.str;
      case ColType::I64:
        return std::to_string(value.i64);
      case ColType::U64:
        return std::to_string(value.u64);
      case ColType::F64:
        return util::format(format, value.f64);
      case ColType::Bool:
        return value.flag ? spellings(format).second
                          : spellings(format).first;
      case ColType::F64List:
        for (std::size_t i = 0; i < value.list.size(); ++i) {
            if (i > 0)
                out += ';';
            out += util::format(format, value.list[i]);
        }
        break;
    }
    return out;
}

bool
decodeText(ColType type, const char *format, const std::string &text,
           Value *value, std::string *why)
{
    switch (type) {
      case ColType::Str:
        value->str = text;
        return true;
      case ColType::I64:
        return parseInto(text, util::parseInt64, &value->i64, why);
      case ColType::U64:
        return parseInto(text, util::parseSize, &value->u64, why);
      case ColType::F64:
        return parseInto(text, util::parseDouble, &value->f64, why);
      case ColType::Bool: {
        const auto [no, yes] = spellings(format);
        value->flag = text == yes;
        if (text == no || text == yes)
            return true;
        *why = "expected '" + no + "' or '" + yes + "'";
        return false;
      }
      case ColType::F64List:
        value->list.clear();
        for (const std::string &part : util::split(text, ';')) {
            double element = 0.0;
            if (part.empty())
                continue;
            if (!parseInto(part, util::parseDouble, &element, why))
                return false;
            value->list.push_back(element);
        }
        return true;
    }
    return false;
}

std::string
fieldError(const std::string &where, const std::string &column,
           const std::string &why, const std::string &value)
{
    return where + " column " + column + ": " + why + ": '" + value + "'";
}

void
appendValue(ColType type, Value *value, ColumnValues *column)
{
    switch (type) {
      case ColType::Str:
        return column->strs.push_back(std::move(value->str));
      case ColType::I64:
        return column->i64s.push_back(value->i64);
      case ColType::U64:
        return column->u64s.push_back(value->u64);
      case ColType::F64:
        return column->f64s.push_back(value->f64);
      case ColType::Bool:
        return column->flags.push_back(value->flag ? 1 : 0);
      case ColType::F64List:
        return column->lists.push_back(std::move(value->list));
    }
}

void
addColumn(CbfBuilder *builder, const std::string &name, ColType type,
          const ColumnValues &column)
{
    switch (type) {
      case ColType::Str:
        return addStringColumn(builder, name, column.strs);
      case ColType::I64:
        return builder->addI64(name, column.i64s);
      case ColType::U64:
        return builder->addU64(name, column.u64s);
      case ColType::F64:
        return builder->addF64(name, column.f64s);
      case ColType::Bool:
        return builder->addU8(name, column.flags);
      case ColType::F64List:
        return addF64ListColumn(builder, name, column.lists);
    }
}

bool
fetchColumn(const CbfFile &file, const std::string &name, ColType type,
            ColumnValues *column, std::string *error)
{
    bool ok = false;
    switch (type) {
      case ColType::Str:
        ok = readStringColumn(file, name, &column->strs, error);
        column->rows = column->strs.size();
        return ok;
      case ColType::F64List:
        ok = readF64ListColumn(file, name, &column->lists, error);
        column->rows = column->lists.size();
        return ok;
      case ColType::I64:
        return fetchFixed(&CbfFile::i64, file, name, column, error);
      case ColType::U64:
        return fetchFixed(&CbfFile::u64, file, name, column, error);
      case ColType::F64:
        return fetchFixed(&CbfFile::f64, file, name, column, error);
      case ColType::Bool:
        return fetchFixed(&CbfFile::u8, file, name, column, error);
    }
    return false;
}

std::string
valueText(ColType type, const Value &value)
{
    if (type == ColType::Bool)
        return std::to_string(value.u64);
    return encodeText(type, "%.17g", value);
}

bool
checkSchema(const CbfFile &file, const char *schema, std::string *error)
{
    const char *data = nullptr;
    std::size_t size = 0;
    if (!file.bytes("schema", &data, &size, error))
        return false;
    const std::string name(data, size);
    if (name != schema)
        *error = "schema '" + name + "' is not " + schema +
                 " (wrong container?)";
    return name == schema;
}

} // namespace io
} // namespace ceer
