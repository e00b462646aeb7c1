/**
 * @file
 * One schema per file kind, driving one CSV codec and one CBF codec.
 *
 * A file kind is a list of tables, one per kind of row. In CSV all
 * tables share one header, and a tagged table's rows carry its tag in
 * field 0 (`op`/`iter`, `cell`/`model`/`summary`); an untagged table
 * (the catalog) owns every row. In CBF a table's columns share a
 * prefix (`op.`, `cat.`, `cf.`, ...) and must agree on their row
 * count. Each column declares, once, its CBF name (after the prefix),
 * its field position in a text row, its type, the accessor that reads
 * it from a row and the validator that admits a value into a row.
 * Either reader decodes a value, runs its validator once, and hands
 * the row to the table's row-finish step, which builds the object.
 *
 * Every rejected value is reported one way:
 *
 *     row <r> column <c>: <reason>: '<value>'
 *
 * A text row counts CSV records (the header is row 0) or model-file
 * lines ("line <r>") and names its column "<position> (<name>)",
 * 1-based; a CBF row counts from 0 within its table and names the full
 * CBF column ("cat.gpus"). The value is the text as written, or the
 * stored CBF value.
 */

#ifndef CEER_IO_SCHEMA_H
#define CEER_IO_SCHEMA_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/op_type.h"
#include "hw/gpu_spec.h"
#include "io/cbf.h"
#include "util/csv.h"
#include "util/strings.h"

namespace ceer {
namespace io {

/** On-disk type of a column, in both dialects. */
enum class ColType : std::uint8_t
{
    Str,     ///< Text as is; CBF string column (blob + ".off").
    I64,     ///< Decimal; CBF I64.
    U64,     ///< Decimal without sign; CBF U64.
    F64,     ///< Printf format; CBF F64 (raw bits).
    Bool,    ///< One of two spellings; CBF U8 holding 0 or 1.
    F64List, ///< ';'-joined printf format; CBF F64 list (+ ".off").
};

/** Which dialect a row was read from. */
enum class Dialect { Text, Cbf };

/** One value in transit between a row and either dialect. */
struct Value
{
    std::string str;
    std::int64_t i64 = 0;
    std::uint64_t u64 = 0;
    double f64 = 0.0;
    bool flag = false;
    std::vector<double> list;
};

/** One column of a table of @p Row objects. */
template <class Row>
struct Column
{
    const char *name; ///< CBF name after the table prefix.
    int text;         ///< Field position in a text row; -1: CBF only.
    bool cbf;         ///< False: text only.
    ColType type;
    /// F64/F64List: printf format of the text. Bool: "<false>|<true>".
    const char *format;
    void (*get)(const Row &, Value *); ///< Accessor.
    /// Validator: admits @p value into @p row, or gives the reason.
    bool (*set)(Row *, Value *, std::string *why);
};

// Dialect primitives (schema.cc).
std::string encodeText(ColType type, const char *format,
                       const Value &value);
bool decodeText(ColType type, const char *format, const std::string &text,
                Value *value, std::string *why);
/** "<where> column <column>: <why>: '<value>'". */
std::string fieldError(const std::string &where, const std::string &column,
                       const std::string &why, const std::string &value);

/** One CBF column's values, gathered to write or fetched to read. */
struct ColumnValues
{
    std::vector<std::string> strs;
    std::vector<std::vector<double>> lists;
    std::vector<std::int64_t> i64s;
    std::vector<std::uint64_t> u64s;
    std::vector<double> f64s;
    std::vector<std::uint8_t> flags;
    const void *data = nullptr; ///< Fixed-width payload, read.
    std::size_t rows = 0;       ///< Row count, read.
};

/** Appends @p value to @p column (a string or list moves out). */
void appendValue(ColType type, Value *value, ColumnValues *column);
void addColumn(CbfBuilder *builder, const std::string &name, ColType type,
               const ColumnValues &column);
bool fetchColumn(const CbfFile &file, const std::string &name,
                 ColType type, ColumnValues *column, std::string *error);
/** Decodes one fetched value (a string or list moves out). */
inline bool
decodeCbf(ColType type, ColumnValues *column, std::size_t row,
          Value *value, std::string *why)
{
    switch (type) {
      case ColType::Str:
        value->str = std::move(column->strs[row]);
        break;
      case ColType::F64List:
        value->list = std::move(column->lists[row]);
        break;
      case ColType::I64:
        value->i64 = static_cast<const std::int64_t *>(column->data)[row];
        break;
      case ColType::U64:
        value->u64 = static_cast<const std::uint64_t *>(column->data)[row];
        break;
      case ColType::F64:
        value->f64 = static_cast<const double *>(column->data)[row];
        break;
      case ColType::Bool:
        value->u64 = static_cast<const std::uint8_t *>(column->data)[row];
        value->flag = value->u64 == 1;
        if (value->u64 > 1) {
            *why = "not 0 or 1";
            return false;
        }
        break;
    }
    return true;
}
/** A stored CBF value as an error message shows it. */
std::string valueText(ColType type, const Value &value);
bool checkSchema(const CbfFile &file, const char *schema,
                 std::string *error);

template <class Row>
std::string
encodeField(const Column<Row> &column, const Row &row)
{
    Value value;
    column.get(row, &value);
    return encodeText(column.type, column.format, value);
}

/** Decodes @p text, field @p position of text row @p number. */
template <class Row>
bool
decodeField(const Column<Row> &column, const std::string &text,
            std::size_t position, const char *unit, std::size_t number,
            Row *row, std::string *error)
{
    Value value;
    std::string why;
    if (decodeText(column.type, column.format, text, &value, &why) &&
        column.set(row, &value, &why))
        return true;
    *error = fieldError(util::format("%s %zu", unit, number),
                        util::format("%zu (%s)", position + 1,
                                     column.name),
                        why, text);
    return false;
}

/** What a file codec drives of a table, whatever its row type. */
template <class T>
class TableBase
{
  public:
    using TextSink = std::function<void(const std::vector<std::string> &)>;

    TableBase(const char *tag, const char *prefix)
        : tag(tag), prefix(prefix)
    {
    }
    virtual ~TableBase() = default;

    const char *const tag;    ///< Text row tag; nullptr: untagged.
    const char *const prefix; ///< CBF column prefix.

    virtual void writeText(const T &object, std::size_t width,
                           const TextSink &sink) const = 0;
    virtual bool readText(const std::vector<std::string> &fields,
                          const char *unit, std::size_t number,
                          T *object, std::string *error) const = 0;
    virtual void writeCbf(const T &object, CbfBuilder *builder) const = 0;
    virtual bool readCbf(const CbfFile &file, T *object,
                         std::string *error) const = 0;
};

/** One table of file kind @p T, holding @p Row objects. */
template <class T, class Row>
class Table final : public TableBase<T>
{
  public:
    /** Visits an object's rows in file order. */
    using Rows = void (*)(const T &,
                          const std::function<void(const Row &)> &);
    /** Row-finish step: builds the object from one validated row. */
    using Finish = bool (*)(T *, Row &&, Dialect, std::string *why);

    /** @param single A table of exactly one row (the model's scalars). */
    Table(const char *tag, const char *prefix,
          std::vector<Column<Row>> columns, Rows rows, Finish finish,
          bool single = false)
        : TableBase<T>(tag, prefix), columns(std::move(columns)),
          rows_(rows), finish_(finish), single_(single)
    {
        for (const Column<Row> &column : this->columns)
            width_ = std::max<std::size_t>(width_, column.text + 1);
    }

    /** The table whose rows are the object's vector member @p List. */
    template <std::vector<Row> T::*List>
    static Table
    of(const char *tag, const char *prefix,
       std::vector<Column<Row>> columns)
    {
        return Table(
            tag, prefix, std::move(columns),
            [](const T &object, const auto &emit) {
                for (const Row &row : object.*List)
                    emit(row);
            },
            [](T *object, Row &&row, Dialect, std::string *) {
                (object->*List).push_back(std::move(row));
                return true;
            });
    }

    const std::vector<Column<Row>> columns;

    bool finish(T *object, Row &&row, Dialect dialect,
                std::string *why) const
    {
        return finish_(object, std::move(row), dialect, why);
    }

    void writeText(const T &object, std::size_t width,
                   const typename TableBase<T>::TextSink &sink)
        const override
    {
        std::vector<std::string> fields(std::max(width, width_));
        if (this->tag)
            fields[0] = this->tag;
        rows_(object, [&](const Row &row) {
            for (const Column<Row> &column : columns) {
                if (column.text >= 0)
                    fields[column.text] = encodeField(column, row);
            }
            sink(fields);
        });
    }

    bool readText(const std::vector<std::string> &fields, const char *unit,
                  std::size_t number, T *object,
                  std::string *error) const override
    {
        if (fields.size() < width_) {
            *error = util::format("%s %zu: truncated row (%zu of %zu "
                                  "fields)",
                                  unit, number, fields.size(), width_);
            return false;
        }
        Row row{};
        for (const Column<Row> &column : columns) {
            if (column.text >= 0 &&
                !decodeField(column, fields[column.text], column.text,
                             unit, number, &row, error))
                return false;
        }
        std::string why;
        if (finish_(object, std::move(row), Dialect::Text, &why))
            return true;
        *error = util::format("%s %zu: ", unit, number) + why;
        return false;
    }

    void writeCbf(const T &object, CbfBuilder *builder) const override
    {
        std::vector<ColumnValues> values(columns.size());
        Value value;
        rows_(object, [&](const Row &row) {
            for (std::size_t c = 0; c < columns.size(); ++c) {
                if (columns[c].cbf) {
                    columns[c].get(row, &value);
                    appendValue(columns[c].type, &value, &values[c]);
                }
            }
        });
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (columns[c].cbf)
                addColumn(builder, cbfName(columns[c]), columns[c].type,
                          values[c]);
        }
    }

    bool readCbf(const CbfFile &file, T *object,
                 std::string *error) const override
    {
        std::vector<ColumnValues> values(columns.size());
        bool sized = single_;
        std::size_t rows = 1;
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (!columns[c].cbf)
                continue;
            const std::string name = cbfName(columns[c]);
            if (!fetchColumn(file, name, columns[c].type, &values[c],
                             error))
                return false;
            if (!sized)
                rows = values[c].rows;
            sized = true;
            if (values[c].rows != rows) {
                *error = util::format("column '%s' has %zu rows, "
                                      "expected %zu",
                                      name.c_str(), values[c].rows, rows);
                return false;
            }
        }
        Value value;
        std::string why;
        for (std::size_t i = 0; i < rows; ++i) {
            Row row{};
            for (std::size_t c = 0; c < columns.size(); ++c) {
                if (columns[c].cbf &&
                    !(decodeCbf(columns[c].type, &values[c], i, &value,
                                &why) &&
                      columns[c].set(&row, &value, &why))) {
                    *error = fieldError(util::format("row %zu", i),
                                        cbfName(columns[c]), why,
                                        valueText(columns[c].type, value));
                    return false;
                }
            }
            if (!finish_(object, std::move(row), Dialect::Cbf, &why)) {
                *error = util::format("row %zu of %s*: ", i,
                                      this->prefix) +
                         why;
                return false;
            }
        }
        return true;
    }

  private:
    std::string cbfName(const Column<Row> &column) const
    {
        return this->prefix + std::string(column.name);
    }

    Rows rows_;
    Finish finish_;
    bool single_;
    std::size_t width_ = 0;
};

/** One file kind: its CBF schema name, CSV header and tables. */
template <class T>
class FileSchema
{
  public:
    /**
     * @param header     CSV header; empty when the kind has no CSV.
     * @param tables     Tables in CBF column order.
     * @param csv_tables Tables in CSV row order, when that differs.
     */
    FileSchema(const char *name, std::vector<std::string> header,
               std::vector<const TableBase<T> *> tables,
               std::vector<const TableBase<T> *> csv_tables = {})
        : name_(name), header_(std::move(header)), tables_(tables),
          csvTables_(csv_tables.empty() ? tables : csv_tables)
    {
    }

    void saveCsv(const T &object, std::ostream &out) const
    {
        util::CsvWriter writer(out);
        writer.writeRow(header_);
        for (const TableBase<T> *table : csvTables_) {
            table->writeText(object, header_.size(),
                             [&](const std::vector<std::string> &fields) {
                                 writer.writeRow(fields);
                             });
        }
    }

    /** @p object is untouched on failure. */
    bool tryLoadCsv(std::istream &in, T *object, std::string *error) const
    {
        std::vector<std::vector<std::string>> records;
        if (!util::tryReadCsv(in, &records, error))
            return false;
        if (records.empty() || records[0] != header_) {
            *error = "row 0: expected the header '" +
                     util::join(header_, ",") + "'";
            return false;
        }
        T parsed;
        for (std::size_t r = 1; r < records.size(); ++r) {
            const std::vector<std::string> &fields = records[r];
            if (fields.size() != header_.size()) {
                *error = util::format("row %zu: expected %zu fields, got "
                                      "%zu",
                                      r, header_.size(), fields.size());
                return false;
            }
            const auto table = std::find_if(
                csvTables_.begin(), csvTables_.end(), [&](const auto *t) {
                    return !t->tag || fields[0] == t->tag;
                });
            if (table == csvTables_.end()) {
                *error = fieldError(util::format("row %zu", r),
                                    "1 (" + header_[0] + ")",
                                    "unknown row kind", fields[0]);
                return false;
            }
            if (!(*table)->readText(fields, "row", r, &parsed, error))
                return false;
        }
        *object = std::move(parsed);
        return true;
    }

    void saveCbf(const T &object, std::ostream &out) const
    {
        CbfBuilder builder;
        builder.addBytes("schema", name_);
        for (const TableBase<T> *table : tables_)
            table->writeCbf(object, &builder);
        builder.write(out);
    }

    /** @p object is untouched on failure. */
    bool tryLoadCbf(const CbfFile &file, T *object,
                    std::string *error) const
    {
        if (!checkSchema(file, name_, error))
            return false;
        T parsed;
        for (const TableBase<T> *table : tables_) {
            if (!table->readCbf(file, &parsed, error))
                return false;
        }
        *object = std::move(parsed);
        return true;
    }

    /** Loads @p path in either dialect through io::tryLoadSniffed. */
    bool tryLoadFile(const std::string &path, T *object,
                     std::string *error) const
    {
        return tryLoadSniffed(
            path,
            [&](const CbfFile &file, std::string *err) {
                return tryLoadCbf(file, object, err);
            },
            [&](std::istream &in, std::string *err) {
                return tryLoadCsv(in, object, err);
            },
            error);
    }

  private:
    const char *name_;
    std::vector<std::string> header_;
    std::vector<const TableBase<T> *> tables_;
    std::vector<const TableBase<T> *> csvTables_;
};

// --- Column declarations -----------------------------------------------

template <class M>
struct MemberOf;
template <class C, class V>
struct MemberOf<V C::*>
{
    using Class = C;
    using Type = V;
};
template <auto M>
using ClassOf = typename MemberOf<decltype(M)>::Class;
template <auto M>
using TypeOf = typename MemberOf<decltype(M)>::Type;

/** The Value member that carries a row member of type @p V. */
template <class V>
auto &
slot(Value *value)
{
    if constexpr (std::is_same_v<V, std::string>)
        return value->str;
    else if constexpr (std::is_same_v<V, bool>)
        return value->flag;
    else if constexpr (std::is_same_v<V, double>)
        return value->f64;
    else if constexpr (std::is_same_v<V, std::vector<double>>)
        return value->list;
    else if constexpr (std::is_signed_v<V>)
        return value->i64;
    else
        return value->u64;
}

template <class V>
constexpr ColType
columnType()
{
    if constexpr (std::is_same_v<V, std::string>)
        return ColType::Str;
    else if constexpr (std::is_same_v<V, bool>)
        return ColType::Bool;
    else if constexpr (std::is_same_v<V, double>)
        return ColType::F64;
    else if constexpr (std::is_same_v<V, std::vector<double>>)
        return ColType::F64List;
    else
        return std::is_signed_v<V> ? ColType::I64 : ColType::U64;
}

/**
 * Member @p M of @p Row as a column at text position @p text (-1: CBF
 * only), stored in CBF unless @p cbf is false. Admits any value.
 */
template <auto M, class Row = ClassOf<M>>
Column<Row>
field(const char *name, int text, const char *format = nullptr,
      bool cbf = true)
{
    using V = TypeOf<M>;
    return {name, text, cbf, columnType<V>(), format,
            [](const Row &row, Value *value) {
                slot<V>(value) = row.*M;
            },
            [](Row *row, Value *value, std::string *) {
                if constexpr (std::is_class_v<V>)
                    row->*M = std::move(slot<V>(value));
                else
                    row->*M = static_cast<V>(slot<V>(value));
                return true;
            }};
}

/** An integer member admitted only within [Lo, Hi]. */
template <auto M, std::int64_t Lo, std::int64_t Hi,
          class Row = ClassOf<M>>
Column<Row>
ranged(const char *name, int text, bool cbf = true)
{
    using V = TypeOf<M>;
    static_assert(std::is_integral_v<V> && Lo <= Hi &&
                  (std::is_signed_v<V> || Lo >= 0));
    Column<Row> column = field<M, Row>(name, text, nullptr, cbf);
    column.set = [](Row *row, Value *value, std::string *why) {
        const auto v = slot<V>(value);
        using S = std::remove_const_t<decltype(v)>;
        if (v < static_cast<S>(Lo) || v > static_cast<S>(Hi)) {
            *why = util::format("out of range [%lld, %lld]",
                                static_cast<long long>(Lo),
                                static_cast<long long>(Hi));
            return false;
        }
        row->*M = static_cast<V>(v);
        return true;
    };
    return column;
}

/** A double member admitted only when finite and positive (prices). */
template <auto M, class Row = ClassOf<M>>
Column<Row>
positive(const char *name, int text, const char *format)
{
    Column<Row> column = field<M, Row>(name, text, format);
    column.set = [](Row *row, Value *value, std::string *why) {
        if (std::isfinite(value->f64) && value->f64 > 0.0) {
            row->*M = value->f64;
            return true;
        }
        *why = "not a finite positive number";
        return false;
    };
    return column;
}

/** A hw::GpuModel member, stored by name; unknown names rejected. */
template <auto M, class Row = ClassOf<M>>
Column<Row>
gpuColumn(const char *name, int text)
{
    return {name, text, true, ColType::Str, nullptr,
            [](const Row &row, Value *value) {
                value->str = hw::gpuModelName(row.*M);
            },
            [](Row *row, Value *value, std::string *why) {
                if (hw::gpuModelFromName(value->str, row->*M))
                    return true;
                *why = "unknown GPU";
                return false;
            }};
}

/** A graph::OpType member, stored by name; unknown names rejected. */
template <auto M, class Row = ClassOf<M>>
Column<Row>
opColumn(const char *name, int text)
{
    return {name, text, true, ColType::Str, nullptr,
            [](const Row &row, Value *value) {
                value->str = graph::opTypeName(row.*M);
            },
            [](Row *row, Value *value, std::string *why) {
                if (graph::opTypeFromName(value->str, row->*M))
                    return true;
                *why = "unknown op";
                return false;
            }};
}

} // namespace io
} // namespace ceer

#endif // CEER_IO_SCHEMA_H
