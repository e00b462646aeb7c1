#include "io/cbf.h"

#include <bit>
#include <exception>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/strings.h"

namespace ceer {
namespace io {

// The format is defined little-endian and this implementation reads
// and writes fields with native-endian memcpy.
static_assert(std::endian::native == std::endian::little,
              "CBF assumes a little-endian host");

const char kCbfMagic[8] = {'C', 'E', 'E', 'R', '.', 'C', 'B', 'F'};

namespace {

constexpr std::size_t kHeaderSize = 32;
constexpr std::size_t kNameSize = 32;
constexpr std::size_t kTableEntrySize = 72;
/// Far above any real schema; a corrupt count must not turn into a
/// multi-gigabyte table scan.
constexpr std::uint32_t kMaxColumns = 1u << 20;

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

inline std::uint64_t
rotl64(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

inline std::uint64_t
readU64(const unsigned char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline std::uint32_t
readU32(const unsigned char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline std::uint64_t
xxhRound(std::uint64_t acc, std::uint64_t input)
{
    acc += input * kPrime2;
    acc = rotl64(acc, 31);
    acc *= kPrime1;
    return acc;
}

inline std::uint64_t
xxhMerge(std::uint64_t acc, std::uint64_t val)
{
    acc ^= xxhRound(0, val);
    return acc * kPrime1 + kPrime4;
}

/** Appends a native (little-endian) integer to @p out. */
template <typename T>
void
appendInt(std::string *out, T value)
{
    char buf[sizeof value];
    std::memcpy(buf, &value, sizeof value);
    out->append(buf, sizeof value);
}

inline std::uint32_t
loadU32(const char *p)
{
    return readU32(reinterpret_cast<const unsigned char *>(p));
}

inline std::uint64_t
loadU64(const char *p)
{
    return readU64(reinterpret_cast<const unsigned char *>(p));
}

inline std::uint64_t
align8(std::uint64_t offset)
{
    return (offset + 7) & ~std::uint64_t{7};
}

/**
 * Validates a complete in-memory CBF image and fills @p columns.
 * Every failure message names the byte offset it was detected at.
 * @p columns is reused in place (slot and string capacity survive
 * across calls — the serving hot path re-parses same-schema payloads
 * allocation-free) and cleared on failure.
 */
bool
validateImage(const char *base, std::size_t size,
              std::vector<ColumnDesc> *columns, std::string *error)
{
    if (size < kHeaderSize) {
        *error = util::format(
            "truncated file: %zu bytes, need at least %zu for the "
            "header (offset 0)", size, kHeaderSize);
        return false;
    }
    if (std::memcmp(base, kCbfMagic, sizeof kCbfMagic) != 0) {
        *error = "bad magic at offset 0 (not a CBF file)";
        return false;
    }
    const std::uint32_t version = loadU32(base + 8);
    if (version != kCbfVersion) {
        *error = util::format(
            "unsupported format version %u at offset 8 (this build "
            "reads version %u)", version, kCbfVersion);
        return false;
    }
    const std::uint32_t column_count = loadU32(base + 12);
    if (column_count > kMaxColumns) {
        *error = util::format("implausible column count %u at offset 12",
                              column_count);
        return false;
    }
    const std::uint64_t declared_size = loadU64(base + 16);
    if (declared_size != size) {
        *error = util::format(
            "truncated file: header at offset 16 declares %llu bytes, "
            "got %zu", (unsigned long long)declared_size, size);
        return false;
    }
    const std::uint64_t table_bytes =
        std::uint64_t{column_count} * kTableEntrySize;
    if (size - kHeaderSize < table_bytes) {
        *error = util::format(
            "truncated column table at offset %zu (%u columns need "
            "%llu bytes, file has %zu)", kHeaderSize, column_count,
            (unsigned long long)table_bytes, size - kHeaderSize);
        return false;
    }
    const std::uint64_t table_checksum = loadU64(base + 24);
    if (xxhash64(base + kHeaderSize, table_bytes) != table_checksum) {
        OBS_COUNTER_INC("io.checksum_failures");
        *error = util::format(
            "column table checksum mismatch (stored at offset 24, "
            "table at offset %zu)", kHeaderSize);
        return false;
    }

    // Duplicate-name detection: a linear scan over the names parsed so
    // far beats a std::map for the small tables that dominate (every
    // wire payload), and only degrades to the map above a threshold a
    // hostile table could exploit quadratically.
    constexpr std::uint32_t kDupScanLimit = 64;
    std::map<std::string, std::size_t> seen;
    columns->resize(column_count);
    for (std::uint32_t i = 0; i < column_count; ++i) {
        const std::size_t entry_off = kHeaderSize + i * kTableEntrySize;
        const char *entry = base + entry_off;
        ColumnDesc &desc = (*columns)[i];
        if (entry[kNameSize - 1] != '\0') {
            *error = util::format(
                "column %u: unterminated name at offset %zu", i,
                entry_off);
            columns->clear();
            return false;
        }
        desc.name = entry; // NUL-terminated within the 32-byte field.
        if (desc.name.empty()) {
            *error = util::format("column %u: empty name at offset %zu",
                                  i, entry_off);
            columns->clear();
            return false;
        }
        bool duplicate = false;
        if (column_count <= kDupScanLimit) {
            for (std::uint32_t j = 0; j < i && !duplicate; ++j)
                duplicate = (*columns)[j].name == desc.name;
        } else {
            duplicate = !seen.emplace(desc.name, i).second;
        }
        if (duplicate) {
            *error = util::format(
                "column %u: duplicate name '%s' at offset %zu", i,
                desc.name.c_str(), entry_off);
            columns->clear();
            return false;
        }
        const std::uint8_t dtype_byte =
            static_cast<std::uint8_t>(entry[kNameSize]);
        if (dtype_byte > static_cast<std::uint8_t>(DType::Bytes)) {
            *error = util::format(
                "column '%s': bad dtype %u at offset %zu",
                desc.name.c_str(), dtype_byte, entry_off + kNameSize);
            columns->clear();
            return false;
        }
        desc.dtype = static_cast<DType>(dtype_byte);
        desc.count = loadU64(entry + 40);
        desc.offset = loadU64(entry + 48);
        desc.length = loadU64(entry + 56);
        desc.checksum = loadU64(entry + 64);
        const std::size_t elem = dtypeSize(desc.dtype);
        if (desc.count > size / elem || desc.count * elem != desc.length) {
            *error = util::format(
                "column '%s': length %llu does not match %llu %s "
                "elements (table entry at offset %zu)",
                desc.name.c_str(), (unsigned long long)desc.length,
                (unsigned long long)desc.count,
                dtypeName(desc.dtype).c_str(), entry_off);
            columns->clear();
            return false;
        }
        if (desc.offset < kHeaderSize + table_bytes ||
            desc.offset > size || desc.length > size - desc.offset) {
            *error = util::format(
                "column '%s': short section — [%llu, %llu) exceeds "
                "file size %zu (table entry at offset %zu)",
                desc.name.c_str(), (unsigned long long)desc.offset,
                (unsigned long long)(desc.offset + desc.length), size,
                entry_off);
            columns->clear();
            return false;
        }
        // 8-byte dtypes are read through typed pointers straight out
        // of the buffer/mapping; misalignment would be UB, so it is a
        // validation failure, not a crash.
        if (elem == 8 &&
            (desc.offset % 8 != 0 ||
             reinterpret_cast<std::uintptr_t>(base + desc.offset) % 8 !=
                 0)) {
            *error = util::format(
                "column '%s': misaligned section offset %llu (8-byte "
                "elements need 8-byte alignment; table entry at offset "
                "%zu)", desc.name.c_str(),
                (unsigned long long)desc.offset, entry_off);
            columns->clear();
            return false;
        }
        if (xxhash64(base + desc.offset, desc.length) != desc.checksum) {
            OBS_COUNTER_INC("io.checksum_failures");
            *error = util::format(
                "column '%s': payload checksum mismatch (section at "
                "offset %llu, %llu bytes)", desc.name.c_str(),
                (unsigned long long)desc.offset,
                (unsigned long long)desc.length);
            columns->clear();
            return false;
        }
    }
    return true;
}

} // namespace

std::size_t
dtypeSize(DType dtype)
{
    switch (dtype) {
      case DType::F64:
      case DType::U64:
      case DType::I64:
        return 8;
      case DType::U8:
      case DType::Bytes:
        return 1;
    }
    util::panic("dtypeSize: bad dtype");
}

std::string
dtypeName(DType dtype)
{
    switch (dtype) {
      case DType::F64: return "f64";
      case DType::U64: return "u64";
      case DType::I64: return "i64";
      case DType::U8: return "u8";
      case DType::Bytes: return "bytes";
    }
    return "?";
}

std::uint64_t
xxhash64(const void *data, std::size_t size, std::uint64_t seed)
{
    static const unsigned char kEmpty[1] = {0};
    const unsigned char *p =
        data ? static_cast<const unsigned char *>(data) : kEmpty;
    const unsigned char *end = p + size;
    std::uint64_t h;
    if (size >= 32) {
        std::uint64_t v1 = seed + kPrime1 + kPrime2;
        std::uint64_t v2 = seed + kPrime2;
        std::uint64_t v3 = seed;
        std::uint64_t v4 = seed - kPrime1;
        const unsigned char *limit = end - 32;
        do {
            v1 = xxhRound(v1, readU64(p));
            v2 = xxhRound(v2, readU64(p + 8));
            v3 = xxhRound(v3, readU64(p + 16));
            v4 = xxhRound(v4, readU64(p + 24));
            p += 32;
        } while (p <= limit);
        h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) +
            rotl64(v4, 18);
        h = xxhMerge(h, v1);
        h = xxhMerge(h, v2);
        h = xxhMerge(h, v3);
        h = xxhMerge(h, v4);
    } else {
        h = seed + kPrime5;
    }
    h += static_cast<std::uint64_t>(size);
    while (end - p >= 8) {
        h ^= xxhRound(0, readU64(p));
        h = rotl64(h, 27) * kPrime1 + kPrime4;
        p += 8;
    }
    if (end - p >= 4) {
        h ^= std::uint64_t{readU32(p)} * kPrime1;
        h = rotl64(h, 23) * kPrime2 + kPrime3;
        p += 4;
    }
    while (p < end) {
        h ^= std::uint64_t{*p} * kPrime5;
        h = rotl64(h, 11) * kPrime1;
        ++p;
    }
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

std::string *
CbfBuilder::nextColumn(const std::string &name, DType dtype,
                       std::uint64_t count)
{
    if (name.empty() || name.size() >= kNameSize)
        util::panic("CbfBuilder: column name '" + name +
                    "' must be 1-31 bytes");
    for (std::size_t i = 0; i < used_; ++i)
        if (columns_[i].name == name)
            util::panic("CbfBuilder: duplicate column '" + name + "'");
    if (used_ == columns_.size())
        columns_.emplace_back();
    Column &column = columns_[used_++];
    column.name = name;
    column.dtype = dtype;
    column.count = count;
    column.payload.clear();
    return &column.payload;
}

void
CbfBuilder::clear()
{
    used_ = 0;
}

void
CbfBuilder::addF64(const std::string &name, const double *data,
                   std::size_t n)
{
    std::string *payload = nextColumn(name, DType::F64, n);
    if (n)
        payload->assign(reinterpret_cast<const char *>(data),
                        n * sizeof(double));
}

void
CbfBuilder::addF64(const std::string &name, const std::vector<double> &v)
{
    addF64(name, v.data(), v.size());
}

void
CbfBuilder::addU64(const std::string &name, const std::uint64_t *data,
                   std::size_t n)
{
    std::string *payload = nextColumn(name, DType::U64, n);
    if (n)
        payload->assign(reinterpret_cast<const char *>(data),
                        n * sizeof(std::uint64_t));
}

void
CbfBuilder::addU64(const std::string &name,
                   const std::vector<std::uint64_t> &v)
{
    addU64(name, v.data(), v.size());
}

void
CbfBuilder::addI64(const std::string &name, const std::int64_t *data,
                   std::size_t n)
{
    std::string *payload = nextColumn(name, DType::I64, n);
    if (n)
        payload->assign(reinterpret_cast<const char *>(data),
                        n * sizeof(std::int64_t));
}

void
CbfBuilder::addI64(const std::string &name,
                   const std::vector<std::int64_t> &v)
{
    addI64(name, v.data(), v.size());
}

void
CbfBuilder::addU8(const std::string &name, const std::uint8_t *data,
                  std::size_t n)
{
    std::string *payload = nextColumn(name, DType::U8, n);
    if (n)
        payload->assign(reinterpret_cast<const char *>(data), n);
}

void
CbfBuilder::addU8(const std::string &name,
                  const std::vector<std::uint8_t> &v)
{
    addU8(name, v.data(), v.size());
}

void
CbfBuilder::addBytes(const std::string &name, const char *data,
                     std::size_t n)
{
    std::string *payload = nextColumn(name, DType::Bytes, n);
    if (n)
        payload->assign(data, n);
}

void
CbfBuilder::addBytes(const std::string &name, const std::string &bytes)
{
    addBytes(name, bytes.data(), bytes.size());
}

void
CbfBuilder::buildInto(std::string *out) const
{
    // Lay out payload sections after the table, each 8-byte aligned.
    // Offsets are cheap to recompute, so the layout is walked three
    // times (total size, table, payloads) instead of materializing an
    // offsets vector — buildInto on a warm output string allocates
    // nothing.
    const std::uint64_t table_bytes = used_ * kTableEntrySize;
    std::uint64_t cursor = kHeaderSize + table_bytes;
    for (std::size_t i = 0; i < used_; ++i) {
        cursor = align8(cursor);
        cursor += columns_[i].payload.size();
    }
    const std::uint64_t total = cursor;

    out->clear();
    out->reserve(total);
    out->append(kCbfMagic, sizeof kCbfMagic);
    appendInt(out, kCbfVersion);
    appendInt(out, static_cast<std::uint32_t>(used_));
    appendInt(out, total);
    appendInt(out, std::uint64_t{0}); // table checksum, patched below
    cursor = kHeaderSize + table_bytes;
    for (std::size_t i = 0; i < used_; ++i) {
        const Column &column = columns_[i];
        cursor = align8(cursor);
        char name[kNameSize] = {};
        std::memcpy(name, column.name.data(), column.name.size());
        out->append(name, kNameSize);
        out->push_back(static_cast<char>(column.dtype));
        out->append(7, '\0');
        appendInt(out, std::uint64_t{column.count});
        appendInt(out, cursor);
        appendInt(out, std::uint64_t{column.payload.size()});
        appendInt(out, xxhash64(column.payload.data(),
                                column.payload.size()));
        cursor += column.payload.size();
    }
    const std::uint64_t table_checksum =
        xxhash64(out->data() + kHeaderSize, table_bytes);
    std::memcpy(out->data() + 24, &table_checksum,
                sizeof table_checksum);
    for (std::size_t i = 0; i < used_; ++i) {
        out->append(align8(out->size()) - out->size(), '\0');
        out->append(columns_[i].payload);
    }
}

std::string
CbfBuilder::build() const
{
    std::string out;
    buildInto(&out);
    return out;
}

void
CbfBuilder::write(std::ostream &out) const
{
    const std::string data = build();
    out.write(data.data(),
              static_cast<std::streamsize>(data.size()));
}

bool
CbfBuilder::tryWriteFile(const std::string &path,
                         std::string *error) const
{
    const std::string data = build();
    // Process-unique temp + rename: concurrent readers never observe
    // a half-written file (same discipline as the profile cache).
    const std::string temp =
        path + "." + std::to_string(::getpid()) + ".tmp";
    std::ofstream out(temp, std::ios::binary);
    if (!out) {
        *error = "cannot open '" + temp + "' for writing";
        return false;
    }
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.close();
    std::error_code ec;
    if (!out.good()) {
        std::filesystem::remove(temp, ec);
        *error = "write to '" + temp + "' failed";
        return false;
    }
    std::filesystem::rename(temp, path, ec);
    if (ec) {
        std::filesystem::remove(temp, ec);
        *error = "cannot rename '" + temp + "' to '" + path +
                 "': " + ec.message();
        return false;
    }
    return true;
}

CbfFile::~CbfFile()
{
    reset();
}

void
CbfFile::reset()
{
    if (mapped_ && mapping_)
        ::munmap(mapping_, size_);
    mapping_ = nullptr;
    mapped_ = false;
    view_ = nullptr;
    size_ = 0;
    owned_.clear();
    columns_.clear();
}

CbfFile::CbfFile(CbfFile &&other) noexcept
    : owned_(std::move(other.owned_)), view_(other.view_),
      mapping_(other.mapping_), size_(other.size_),
      mapped_(other.mapped_), columns_(std::move(other.columns_))
{
    other.view_ = nullptr;
    other.mapping_ = nullptr;
    other.mapped_ = false;
    other.size_ = 0;
}

CbfFile &
CbfFile::operator=(CbfFile &&other) noexcept
{
    if (this != &other) {
        reset();
        owned_ = std::move(other.owned_);
        view_ = other.view_;
        mapping_ = other.mapping_;
        size_ = other.size_;
        mapped_ = other.mapped_;
        columns_ = std::move(other.columns_);
        other.view_ = nullptr;
        other.mapping_ = nullptr;
        other.mapped_ = false;
        other.size_ = 0;
    }
    return *this;
}

bool
CbfFile::tryParseView(const char *data, std::size_t size, CbfFile *out,
                      std::string *error)
{
    // Reuse *out in place: columns_ keeps its slot and name capacity,
    // so a warm re-parse of a same-schema payload allocates nothing.
    if (out->mapped_ && out->mapping_)
        ::munmap(out->mapping_, out->size_);
    out->mapping_ = nullptr;
    out->mapped_ = false;
    out->owned_.clear();
    out->view_ = data;
    out->size_ = size;
    if (!validateImage(data, size, &out->columns_, error)) {
        out->view_ = nullptr;
        out->size_ = 0;
        out->columns_.clear();
        return false;
    }
    return true;
}

bool
CbfFile::tryParse(std::string bytes, CbfFile *out, std::string *error)
{
    CbfFile parsed;
    parsed.owned_ = std::move(bytes);
    parsed.size_ = parsed.owned_.size();
    if (!validateImage(parsed.owned_.data(), parsed.size_,
                       &parsed.columns_, error))
        return false;
    *out = std::move(parsed);
    return true;
}

bool
CbfFile::tryLoad(const std::string &path, CbfFile *out,
                 std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *error = "cannot open '" + path + "'";
        return false;
    }
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad()) {
        *error = "read error on '" + path + "'";
        return false;
    }
    return tryParse(std::move(bytes), out, error);
}

bool
CbfFile::tryMap(const std::string &path, CbfFile *out,
                std::string *error, bool *unmapped)
{
    bool ignored;
    bool &failed_to_map = unmapped ? *unmapped : ignored;
    failed_to_map = true;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        *error = "cannot open '" + path + "'";
        return false;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        *error = "cannot stat '" + path + "'";
        return false;
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    if (size < kHeaderSize) {
        failed_to_map = false;
        ::close(fd);
        *error = util::format(
            "truncated file: %zu bytes, need at least %zu for the "
            "header (offset 0)", size, kHeaderSize);
        return false;
    }
    void *mapping =
        ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps its own reference
    if (mapping == MAP_FAILED) {
        *error = "mmap of '" + path + "' failed";
        return false;
    }
    failed_to_map = false;
    CbfFile parsed;
    parsed.mapping_ = mapping;
    parsed.mapped_ = true;
    parsed.size_ = size;
    if (!validateImage(static_cast<const char *>(mapping), size,
                       &parsed.columns_, error))
        return false; // parsed's destructor unmaps
    OBS_COUNTER_INC("io.mmap_hits");
    *out = std::move(parsed);
    return true;
}

const ColumnDesc *
CbfFile::find(std::string_view name) const
{
    for (const ColumnDesc &column : columns_)
        if (column.name == name)
            return &column;
    return nullptr;
}

const char *
CbfFile::columnData(const ColumnDesc &desc) const
{
    const char *base = mapped_ ? static_cast<const char *>(mapping_)
                     : view_   ? view_
                               : owned_.data();
    return base + desc.offset;
}

bool
CbfFile::typedColumn(std::string_view name, DType dtype,
                     const void **data, std::size_t *count,
                     std::string *error) const
{
    const ColumnDesc *desc = find(name);
    if (!desc) {
        *error = "missing column '" + std::string(name) + "'";
        return false;
    }
    if (desc->dtype != dtype) {
        *error = "column '" + std::string(name) + "' has dtype " +
                 dtypeName(desc->dtype) + ", expected " +
                 dtypeName(dtype);
        return false;
    }
    *data = columnData(*desc);
    *count = desc->count;
    return true;
}

bool
CbfFile::f64(std::string_view name, const double **data,
             std::size_t *count, std::string *error) const
{
    const void *raw;
    if (!typedColumn(name, DType::F64, &raw, count, error))
        return false;
    *data = static_cast<const double *>(raw);
    return true;
}

bool
CbfFile::u64(std::string_view name, const std::uint64_t **data,
             std::size_t *count, std::string *error) const
{
    const void *raw;
    if (!typedColumn(name, DType::U64, &raw, count, error))
        return false;
    *data = static_cast<const std::uint64_t *>(raw);
    return true;
}

bool
CbfFile::i64(std::string_view name, const std::int64_t **data,
             std::size_t *count, std::string *error) const
{
    const void *raw;
    if (!typedColumn(name, DType::I64, &raw, count, error))
        return false;
    *data = static_cast<const std::int64_t *>(raw);
    return true;
}

bool
CbfFile::u8(std::string_view name, const std::uint8_t **data,
            std::size_t *count, std::string *error) const
{
    const void *raw;
    if (!typedColumn(name, DType::U8, &raw, count, error))
        return false;
    *data = static_cast<const std::uint8_t *>(raw);
    return true;
}

bool
CbfFile::bytes(std::string_view name, const char **data,
               std::size_t *size, std::string *error) const
{
    const void *raw;
    if (!typedColumn(name, DType::Bytes, &raw, size, error))
        return false;
    *data = static_cast<const char *>(raw);
    return true;
}

namespace {

/** Checks an N+1 offset vector: starts at 0, ends at @p total, rises. */
bool
checkOffsets(const std::string &name, const std::uint64_t *offsets,
             std::size_t count, std::size_t total, std::string *error)
{
    if (count == 0 || offsets[0] != 0 || offsets[count - 1] != total) {
        *error = "column '" + name + ".off': bad offset vector";
        return false;
    }
    for (std::size_t i = 0; i + 1 < count; ++i) {
        if (offsets[i + 1] < offsets[i] || offsets[i + 1] > total) {
            *error = util::format(
                "column '%s.off': offset %zu out of order", name.c_str(),
                i + 1);
            return false;
        }
    }
    return true;
}

} // namespace

void
addStringColumn(CbfBuilder *builder, const std::string &name,
                const std::vector<std::string> &values)
{
    std::string blob;
    std::vector<std::uint64_t> offsets;
    offsets.reserve(values.size() + 1);
    offsets.push_back(0);
    for (const std::string &value : values) {
        blob += value;
        offsets.push_back(blob.size());
    }
    builder->addBytes(name, blob);
    builder->addU64(name + ".off", offsets);
}

bool
readStringColumn(const CbfFile &file, const std::string &name,
                 std::vector<std::string> *out, std::string *error)
{
    const char *blob;
    std::size_t blob_size;
    const std::uint64_t *offsets;
    std::size_t offset_count;
    if (!file.bytes(name, &blob, &blob_size, error) ||
        !file.u64(name + ".off", &offsets, &offset_count, error) ||
        !checkOffsets(name, offsets, offset_count, blob_size, error))
        return false;
    std::vector<std::string> values;
    values.reserve(offset_count - 1);
    for (std::size_t i = 0; i + 1 < offset_count; ++i)
        values.emplace_back(blob + offsets[i], offsets[i + 1] - offsets[i]);
    *out = std::move(values);
    return true;
}

void
addF64ListColumn(CbfBuilder *builder, const std::string &name,
                 const std::vector<std::vector<double>> &values)
{
    std::vector<double> flat;
    std::vector<std::uint64_t> offsets;
    offsets.reserve(values.size() + 1);
    offsets.push_back(0);
    for (const std::vector<double> &value : values) {
        flat.insert(flat.end(), value.begin(), value.end());
        offsets.push_back(flat.size());
    }
    builder->addF64(name, flat);
    builder->addU64(name + ".off", offsets);
}

bool
readF64ListColumn(const CbfFile &file, const std::string &name,
                  std::vector<std::vector<double>> *out,
                  std::string *error)
{
    const double *flat;
    std::size_t flat_count;
    const std::uint64_t *offsets;
    std::size_t offset_count;
    if (!file.f64(name, &flat, &flat_count, error) ||
        !file.u64(name + ".off", &offsets, &offset_count, error) ||
        !checkOffsets(name, offsets, offset_count, flat_count, error))
        return false;
    std::vector<std::vector<double>> values;
    values.reserve(offset_count - 1);
    for (std::size_t i = 0; i + 1 < offset_count; ++i)
        values.emplace_back(flat + offsets[i], flat + offsets[i + 1]);
    *out = std::move(values);
    return true;
}

bool
sniffFile(const std::string &path, FileFormat *format,
          std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *error = "cannot open '" + path + "'";
        return false;
    }
    char magic[sizeof kCbfMagic];
    in.read(magic, sizeof magic);
    *format = (in.gcount() ==
                   static_cast<std::streamsize>(sizeof magic) &&
               std::memcmp(magic, kCbfMagic, sizeof magic) == 0)
                  ? FileFormat::Cbf
                  : FileFormat::Text;
    return true;
}

bool
tryOpenCbf(const std::string &path, CbfFile *out, std::string *error)
{
    bool unmapped = false;
    if (CbfFile::tryMap(path, out, error, &unmapped))
        return true;
    return unmapped && CbfFile::tryLoad(path, out, error);
}

bool
tryLoadSniffed(
    const std::string &path,
    const std::function<bool(const CbfFile &, std::string *)> &from_cbf,
    const std::function<bool(std::istream &, std::string *)> &from_text,
    std::string *error)
{
    OBS_TIMER("io.load_us");
    FileFormat format;
    if (!sniffFile(path, &format, error))
        return false;
    bool ok;
    try {
        if (format == FileFormat::Cbf) {
            CbfFile file;
            ok = tryOpenCbf(path, &file, error) && from_cbf(file, error);
        } else {
            std::ifstream in(path);
            if (!in) {
                *error = "cannot open '" + path + "'";
                return false;
            }
            ok = from_text(in, error);
        }
    } catch (const std::exception &e) {
        // A loader must fail with an error, never unwind into its
        // caller (ceerd reloads models through here).
        *error = e.what();
        ok = false;
    }
    if (!ok)
        *error = path + ": " + *error;
    return ok;
}

} // namespace io
} // namespace ceer
