#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "util/logging.h"
#include "util/parse.h"
#include "util/strings.h"

namespace ceer {
namespace util {

namespace {

const char *
kindName(int kind)
{
    switch (kind) {
      case 0: return "int";
      case 1: return "double";
      case 2: return "string";
      case 3: return "bool";
    }
    return "?";
}

} // namespace

void
Flags::defineInt(const std::string &name, std::int64_t default_value,
                 const std::string &help)
{
    const std::string text = std::to_string(default_value);
    flags_[name] = Flag{Kind::Int, text, text, help};
}

void
Flags::defineDouble(const std::string &name, double default_value,
                    const std::string &help)
{
    const std::string text = format("%.17g", default_value);
    flags_[name] = Flag{Kind::Double, text, text, help};
}

void
Flags::defineString(const std::string &name,
                    const std::string &default_value,
                    const std::string &help)
{
    flags_[name] = Flag{Kind::String, default_value, default_value, help};
}

void
Flags::defineBool(const std::string &name, bool default_value,
                  const std::string &help)
{
    const std::string text = default_value ? "true" : "false";
    flags_[name] = Flag{Kind::Bool, text, text, help};
}

void
Flags::parse(int argc, char **argv)
{
    bool flags_ended = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (flags_ended || !startsWith(arg, "--")) {
            positional_.push_back(std::move(arg));
            continue;
        }
        if (arg == "--") {
            // End-of-flags terminator: everything after a literal "--"
            // is positional, so positionals that start with "--" are
            // representable.
            flags_ended = true;
            continue;
        }
        arg = arg.substr(2);
        if (arg == "help") {
            std::fputs(usage(argv[0]).c_str(), stdout);
            std::exit(0);
        }
        std::string name = arg;
        std::string value;
        bool have_value = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            have_value = true;
        }
        auto it = flags_.find(name);
        if (it == flags_.end())
            fatal("unknown flag --" + name + " (see --help)");
        Flag &flag = it->second;
        if (flag.kind == Kind::Bool && !have_value) {
            // A bool switch may still take a separate-token value:
            // `--flag false` must parse as flag=false, not as
            // flag=true plus a stray "false" positional.
            if (i + 1 < argc) {
                const std::string next = toLower(argv[i + 1]);
                if (next == "true" || next == "false") {
                    flag.value = next;
                    ++i;
                    continue;
                }
            }
            flag.value = "true";
            continue;
        }
        if (!have_value) {
            if (i + 1 >= argc)
                fatal("flag --" + name + " expects a value");
            value = argv[++i];
        }
        // Validate numeric values eagerly through the checked-parse
        // layer, so lookups never re-parse unvalidated text.
        if (flag.kind == Kind::Int) {
            if (!parseInt64(value).ok())
                fatal("flag --" + name + " expects an integer, got '" +
                      value + "'");
        } else if (flag.kind == Kind::Double) {
            if (!parseDouble(value).ok())
                fatal("flag --" + name + " expects a number, got '" +
                      value + "'");
        } else if (flag.kind == Kind::Bool) {
            const std::string lower = toLower(value);
            if (lower != "true" && lower != "false")
                fatal("flag --" + name + " expects true/false");
            value = lower;
        }
        flag.value = value;
    }
}

const Flags::Flag &
Flags::lookup(const std::string &name, Kind kind) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        panic("flag --" + name + " was never defined");
    if (it->second.kind != kind) {
        panic("flag --" + name + " accessed as " +
              kindName(static_cast<int>(kind)) + " but defined as " +
              kindName(static_cast<int>(it->second.kind)));
    }
    return it->second;
}

std::int64_t
Flags::getInt(const std::string &name) const
{
    const auto parsed = parseInt64(lookup(name, Kind::Int).value);
    if (!parsed.ok())
        panic("flag --" + name + " holds a non-integer value");
    return parsed.value;
}

void
Flags::rejectOutOfRange(const std::string &name, std::int64_t value,
                        const std::string &min, const std::string &max)
{
    fatal("flag --" + name + " expects a value in [" + min + ", " + max +
          "], got " + std::to_string(value));
}

double
Flags::getDouble(const std::string &name) const
{
    const auto parsed = parseDouble(lookup(name, Kind::Double).value);
    if (!parsed.ok())
        panic("flag --" + name + " holds a non-numeric value");
    return parsed.value;
}

std::string
Flags::getString(const std::string &name) const
{
    return lookup(name, Kind::String).value;
}

bool
Flags::getBool(const std::string &name) const
{
    return lookup(name, Kind::Bool).value == "true";
}

std::string
Flags::usage(const std::string &program) const
{
    std::string out = "usage: " + program + " [flags]\n";
    for (const auto &[name, flag] : flags_) {
        out += format("  --%-24s %s (default: %s)\n", name.c_str(),
                      flag.help.c_str(), flag.defaultValue.c_str());
    }
    return out;
}

} // namespace util
} // namespace ceer
