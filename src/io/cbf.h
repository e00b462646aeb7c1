/**
 * @file
 * CBF — the repo's versioned, checksummed columnar binary format.
 *
 * Layout (all integers little-endian):
 *
 *   offset  size  field
 *   0       8     magic "CEER.CBF"
 *   8       4     format version (currently 1)
 *   12      4     column count N
 *   16      8     total file size in bytes
 *   24      8     XXH64 checksum of the column table
 *   32      72*N  column table, one entry per column:
 *                   0   32  name (NUL-padded UTF-8, at most 31 bytes)
 *                   32  1   dtype (DType)
 *                   33  7   reserved (zero)
 *                   40  8   element count
 *                   48  8   payload byte offset (8-byte aligned)
 *                   56  8   payload byte length
 *                   64  8   XXH64 checksum of the payload
 *   ...           payload sections, each 8-byte aligned
 *
 * Doubles are stored as raw IEEE-754 bits, so round-trips are exact by
 * construction. Files are written via temp + rename (atomic against
 * concurrent readers) and loaded two ways: a checked streaming reader
 * that copies the file into an owned buffer, and an mmap path that
 * validates the header and every section checksum, then serves column
 * pointers straight out of the mapping. Every validation failure
 * reports the byte offset it was detected at and leaves outputs
 * untouched. See docs/file_formats.md for the compatibility policy.
 */

#ifndef CEER_IO_CBF_H
#define CEER_IO_CBF_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ceer {
namespace io {

/** 8-byte magic at offset 0 of every CBF file. */
extern const char kCbfMagic[8];

/** Format version written by CbfBuilder and accepted by CbfFile. */
constexpr std::uint32_t kCbfVersion = 1;

/** Element type of one column. */
enum class DType : std::uint8_t {
    F64 = 0,   ///< IEEE-754 binary64, raw bits.
    U64 = 1,   ///< Unsigned 64-bit.
    I64 = 2,   ///< Signed 64-bit (two's complement).
    U8 = 3,    ///< Unsigned byte.
    Bytes = 4, ///< Opaque byte blob (count == byte length).
};

/** Size in bytes of one element of @p dtype. */
std::size_t dtypeSize(DType dtype);

/** Human-readable dtype name for error messages. */
std::string dtypeName(DType dtype);

/**
 * XXH64 of @p size bytes at @p data with @p seed.
 *
 * Local implementation of the xxHash64 algorithm (the container has no
 * xxhash package); validated against the reference test vectors in
 * io_test.cc.
 */
std::uint64_t xxhash64(const void *data, std::size_t size,
                       std::uint64_t seed = 0);

/** One entry of a parsed column table. */
struct ColumnDesc
{
    std::string name;           ///< Column name (<= 31 bytes).
    DType dtype = DType::F64;   ///< Element type.
    std::uint64_t count = 0;    ///< Element count.
    std::uint64_t offset = 0;   ///< Payload offset from file start.
    std::uint64_t length = 0;   ///< Payload length in bytes.
    std::uint64_t checksum = 0; ///< XXH64 of the payload bytes.
};

/**
 * Accumulates columns and serializes them as one CBF file.
 *
 * Column order is preserved; re-serializing a parsed file with the
 * same columns in the same order reproduces it byte for byte.
 *
 * A builder is reusable: clear() retires the columns but keeps every
 * slot's string storage, so a clear-add-buildInto cycle on a warm
 * builder performs no heap allocation (the serving hot path leans on
 * this). The pointer-based add overloads exist for the same reason —
 * callers with data already laid out flat skip the vector temporary.
 */
class CbfBuilder
{
  public:
    /** Adds a double column (raw IEEE-754 bits). */
    void addF64(const std::string &name, const std::vector<double> &v);
    void addF64(const std::string &name, const double *data,
                std::size_t n);

    /** Adds an unsigned 64-bit column. */
    void addU64(const std::string &name,
                const std::vector<std::uint64_t> &v);
    void addU64(const std::string &name, const std::uint64_t *data,
                std::size_t n);

    /** Adds a signed 64-bit column. */
    void addI64(const std::string &name,
                const std::vector<std::int64_t> &v);
    void addI64(const std::string &name, const std::int64_t *data,
                std::size_t n);

    /** Adds a byte column (bools, flags). */
    void addU8(const std::string &name,
               const std::vector<std::uint8_t> &v);
    void addU8(const std::string &name, const std::uint8_t *data,
               std::size_t n);

    /** Adds an opaque blob column (count == byte length). */
    void addBytes(const std::string &name, const std::string &bytes);
    void addBytes(const std::string &name, const char *data,
                  std::size_t n);

    /** Retires all columns but keeps slot storage for reuse. */
    void clear();

    /** Serializes the whole file into a byte string. */
    std::string build() const;

    /**
     * Serializes the whole file into @p out (cleared first), reusing
     * its capacity. Byte-identical to build().
     */
    void buildInto(std::string *out) const;

    /** Writes build() to a stream. */
    void write(std::ostream &out) const;

    /**
     * Writes build() to @p path via a process-unique temp file plus
     * rename, so concurrent readers never observe a partial file.
     *
     * @return True on success; on failure @p error describes why and
     *         no file is left behind.
     */
    bool tryWriteFile(const std::string &path, std::string *error) const;

  private:
    struct Column
    {
        std::string name;
        DType dtype = DType::F64;
        std::uint64_t count = 0;
        std::string payload;
    };

    /** Claims the next column slot (reusing retired storage) and
        returns its payload string for the caller to fill. */
    std::string *nextColumn(const std::string &name, DType dtype,
                            std::uint64_t count);

    std::vector<Column> columns_;
    std::size_t used_ = 0; ///< Active slots; the rest are retired.
};

/**
 * A validated CBF file, either owned (streaming read) or mmapped.
 *
 * All header, table and per-section checksum validation happens inside
 * tryLoad/tryMap/tryParse; accessors afterwards can only fail on
 * missing columns or dtype mismatches. Move-only (the mmap variant
 * owns the mapping).
 */
class CbfFile
{
  public:
    CbfFile() = default;
    ~CbfFile();
    CbfFile(CbfFile &&other) noexcept;
    CbfFile &operator=(CbfFile &&other) noexcept;
    CbfFile(const CbfFile &) = delete;
    CbfFile &operator=(const CbfFile &) = delete;

    /**
     * Checked streaming reader: reads @p path into an owned buffer and
     * validates it. @p out is untouched on failure; @p error carries
     * byte-offset context.
     */
    static bool tryLoad(const std::string &path, CbfFile *out,
                        std::string *error);

    /**
     * mmap zero-copy path: maps @p path read-only, validates the
     * header and every section checksum against the mapping, and
     * serves column pointers straight out of it. Falls back nowhere.
     * When @p unmapped is given, it is set to whether a failure came
     * before validation (open, fstat or mmap failed), the one case in
     * which the streaming reader (tryLoad) is worth trying.
     */
    static bool tryMap(const std::string &path, CbfFile *out,
                       std::string *error, bool *unmapped = nullptr);

    /** Validates an in-memory byte string (tests, cache probes). */
    static bool tryParse(std::string bytes, CbfFile *out,
                         std::string *error);

    /**
     * Zero-copy view parse: validates @p size bytes at @p data that
     * the CALLER keeps alive for the lifetime of @p out; accessors
     * point straight into the view. Unlike tryParse, @p out is reused
     * in place — its column table keeps its capacity across calls, so
     * re-parsing a same-schema payload on a warm CbfFile allocates
     * nothing. On failure @p out is left empty, not untouched.
     */
    static bool tryParseView(const char *data, std::size_t size,
                             CbfFile *out, std::string *error);

    /** True when the file is served from an mmap. */
    bool mapped() const { return mapped_; }

    /** Total file size in bytes. */
    std::size_t size() const { return size_; }

    /** Parsed column table, in file order. */
    const std::vector<ColumnDesc> &columns() const { return columns_; }

    /** Column descriptor by name, or nullptr when absent. */
    const ColumnDesc *find(std::string_view name) const;

    /**
     * Typed zero-copy access to a column: on success @p data points at
     * the column payload (inside the owned buffer or the mapping) and
     * @p count receives the element count. Fails on a missing column
     * or a dtype mismatch.
     */
    bool f64(std::string_view name, const double **data,
             std::size_t *count, std::string *error) const;
    bool u64(std::string_view name, const std::uint64_t **data,
             std::size_t *count, std::string *error) const;
    bool i64(std::string_view name, const std::int64_t **data,
             std::size_t *count, std::string *error) const;
    bool u8(std::string_view name, const std::uint8_t **data,
            std::size_t *count, std::string *error) const;
    bool bytes(std::string_view name, const char **data,
               std::size_t *size, std::string *error) const;

  private:
    const char *columnData(const ColumnDesc &desc) const;
    bool typedColumn(std::string_view name, DType dtype,
                     const void **data, std::size_t *count,
                     std::string *error) const;
    void reset();

    std::string owned_;          ///< Streaming-read buffer.
    const char *view_ = nullptr; ///< Caller-owned bytes (tryParseView).
    void *mapping_ = nullptr;    ///< mmap base (mapped_ only).
    std::size_t size_ = 0;       ///< Total file size.
    bool mapped_ = false;
    std::vector<ColumnDesc> columns_;
};

/**
 * Variable-length schema helpers: a list-of-strings column is stored
 * as "<name>" (Bytes, the concatenated payloads) plus "<name>.off"
 * (U64, N+1 start offsets); a list-of-f64-lists column likewise with
 * the offsets counting elements. readStringColumn/readF64ListColumn
 * validate the offset vector (monotone, in range) with column context.
 */
void addStringColumn(CbfBuilder *builder, const std::string &name,
                     const std::vector<std::string> &values);
bool readStringColumn(const CbfFile &file, const std::string &name,
                      std::vector<std::string> *out, std::string *error);
void addF64ListColumn(CbfBuilder *builder, const std::string &name,
                      const std::vector<std::vector<double>> &values);
bool readF64ListColumn(const CbfFile &file, const std::string &name,
                       std::vector<std::vector<double>> *out,
                       std::string *error);

/** What sniffFile() decided a file is. */
enum class FileFormat { Cbf, Text };

/**
 * Sniffs @p path by its first 8 bytes: kCbfMagic means CBF, anything
 * else (including files shorter than the magic) is treated as the text
 * dialect of whichever loader is asking. Fails only when the file
 * cannot be opened.
 */
bool sniffFile(const std::string &path, FileFormat *format,
               std::string *error);

/**
 * Opens the CBF file at @p path through the mmap zero-copy path,
 * falling back to the streaming reader (identical validation) only
 * when the file cannot be mapped, as on exotic filesystems. A file
 * that maps but fails validation is rejected with the mapped read's
 * error and is validated once.
 */
bool tryOpenCbf(const std::string &path, CbfFile *out,
                std::string *error);

/**
 * The one load path of every file loader that takes either dialect:
 * sniffs @p path, hands a CBF file opened by tryOpenCbf to
 * @p from_cbf or the opened text file to @p from_text, and prefixes
 * every error after the sniff with the path. An exception from
 * either callback (say, std::bad_alloc) becomes an error too, so no
 * loader throws out of a try* call. Timed as `io.load_us`.
 */
bool tryLoadSniffed(
    const std::string &path,
    const std::function<bool(const CbfFile &, std::string *)> &from_cbf,
    const std::function<bool(std::istream &, std::string *)> &from_text,
    std::string *error);

} // namespace io
} // namespace ceer

#endif // CEER_IO_CBF_H
