/**
 * @file
 * Tiny command-line flag parser for bench and example binaries.
 *
 * Supports `--name value` and `--name=value` forms plus boolean
 * `--name` switches (which also accept a separate `true`/`false`
 * token). A literal `--` ends flag parsing; everything after it is
 * positional. Unknown flags are fatal so typos do not silently
 * change an experiment.
 */

#ifndef CEER_UTIL_FLAGS_H
#define CEER_UTIL_FLAGS_H

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ceer {
namespace util {

/** Declarative flag set parsed from argv. */
class Flags
{
  public:
    /** Declares an integer flag with a default and help text. */
    void defineInt(const std::string &name, std::int64_t default_value,
                   const std::string &help);

    /** Declares a floating-point flag. */
    void defineDouble(const std::string &name, double default_value,
                      const std::string &help);

    /** Declares a string flag. */
    void defineString(const std::string &name,
                      const std::string &default_value,
                      const std::string &help);

    /** Declares a boolean switch (false unless present). */
    void defineBool(const std::string &name, bool default_value,
                    const std::string &help);

    /**
     * Parses argv; exits with usage text on `--help` and fatals on
     * unknown flags or malformed values.
     */
    void parse(int argc, char **argv);

    /** Returns the value of a declared integer flag. */
    std::int64_t getInt(const std::string &name) const;

    /**
     * Returns the value of a declared integer flag as @p T; fatal,
     * naming the flag, when the value does not fit in @p T (a
     * negative value for an unsigned @p T included), so a huge value
     * never wraps into a small one.
     */
    template <typename T>
    T
    getIntAs(const std::string &name) const
    {
        static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
        const std::int64_t value = getInt(name);
        if (!std::in_range<T>(value))
            rejectOutOfRange(name, value,
                             std::to_string(std::numeric_limits<T>::min()),
                             std::to_string(std::numeric_limits<T>::max()));
        return static_cast<T>(value);
    }

    /** Returns the value of a declared double flag. */
    double getDouble(const std::string &name) const;

    /** Returns the value of a declared string flag. */
    std::string getString(const std::string &name) const;

    /** Returns the value of a declared boolean flag. */
    bool getBool(const std::string &name) const;

    /** Positional (non-flag) arguments in order of appearance. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Renders usage text for --help. */
    std::string usage(const std::string &program) const;

  private:
    enum class Kind { Int, Double, String, Bool };

    struct Flag
    {
        Kind kind;
        std::string value;
        std::string defaultValue;
        std::string help;
    };

    const Flag &lookup(const std::string &name, Kind kind) const;

    [[noreturn]] static void rejectOutOfRange(const std::string &name,
                                              std::int64_t value,
                                              const std::string &min,
                                              const std::string &max);

    std::map<std::string, Flag> flags_;
    std::vector<std::string> positional_;
};

} // namespace util
} // namespace ceer

#endif // CEER_UTIL_FLAGS_H
