/**
 * @file
 * Table-driven subcommand flag parsing for sn40l_run, extracted into a
 * header so the parser is unit-testable (tests/test_flag_parser.cc).
 *
 * Each subcommand registers its flag specs (shared groups plus its
 * own), then parse() walks argv: "--flag value" and "--flag=value"
 * both work, "--help"/"-h" prints the subcommand help, a flag given
 * twice is rejected, an unrecognized flag fails with an error naming
 * the subcommand, and a value the flag's parseInt/parseDouble/...
 * cannot parse whole (or that overflows) fails naming the flag and the
 * value. Errors throw FlagUsageError instead of exiting, so the tool's
 * main() owns the exit path and tests can assert on messages.
 */

#ifndef SN40L_TOOLS_FLAG_PARSER_H
#define SN40L_TOOLS_FLAG_PARSER_H

#include <cstdint>
#include <functional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace sn40l::tools {

/**
 * A command-line usage error: unknown flag, missing value, duplicate
 * flag, or a failed cross-flag validation. what() is the message to
 * print; subcommand() names the subcommand whose --help to suggest.
 */
class FlagUsageError : public std::runtime_error
{
  public:
    FlagUsageError(std::string subcommand, const std::string &msg)
        : std::runtime_error(msg), subcommand_(std::move(subcommand))
    {
    }

    const std::string &subcommand() const { return subcommand_; }

  private:
    std::string subcommand_;
};

namespace detail {

/**
 * Run a std::sto* conversion and require it to consume all of @p s,
 * so "3x" or "1.5abc" is malformed rather than silently 3 or 1.5.
 */
template <typename T, typename Convert>
T
parseWhole(const std::string &s, Convert convert)
{
    std::size_t used = 0;
    T value = convert(s, &used);
    if (used != s.size())
        throw std::invalid_argument("trailing characters in '" + s + "'");
    return value;
}

} // namespace detail

/**
 * Whole-string numeric parsers for flag values. Malformed input
 * (including trailing garbage) throws std::invalid_argument and an
 * unrepresentable value std::out_of_range, which FlagParser::parse
 * turns into an error naming the flag and the value. parseDouble
 * still accepts "nan" and "inf"; the config validators reject them.
 */
inline int
parseInt(const std::string &s)
{
    return detail::parseWhole<int>(
        s, [](const std::string &v, std::size_t *n) {
            return std::stoi(v, n);
        });
}

inline std::int64_t
parseInt64(const std::string &s)
{
    return detail::parseWhole<std::int64_t>(
        s, [](const std::string &v, std::size_t *n) {
            return static_cast<std::int64_t>(std::stoll(v, n));
        });
}

/** A minus sign is malformed: std::stoull would wrap "-1" to 2^64-1. */
inline std::uint64_t
parseUint64(const std::string &s)
{
    if (s.find('-') != std::string::npos)
        throw std::invalid_argument("negative value '" + s + "'");
    return detail::parseWhole<std::uint64_t>(
        s, [](const std::string &v, std::size_t *n) {
            return static_cast<std::uint64_t>(std::stoull(v, n));
        });
}

inline double
parseDouble(const std::string &s)
{
    return detail::parseWhole<double>(
        s, [](const std::string &v, std::size_t *n) {
            return std::stod(v, n);
        });
}

/**
 * Flatten "--flag=value" arguments into "--flag value" so both
 * spellings parse through the same loop.
 */
inline std::vector<std::string>
splitEqualsArgs(const std::vector<std::string> &args)
{
    std::vector<std::string> out;
    out.reserve(args.size());
    for (const std::string &arg : args) {
        auto eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            out.push_back(arg.substr(0, eq));
            out.push_back(arg.substr(eq + 1));
        } else {
            out.push_back(arg);
        }
    }
    return out;
}

inline std::vector<std::string>
splitEqualsArgs(int argc, char **argv, int first)
{
    std::vector<std::string> raw;
    for (int i = first; i < argc; ++i)
        raw.emplace_back(argv[i]);
    return splitEqualsArgs(raw);
}

class FlagParser
{
  public:
    FlagParser(const char *subcommand, void (*help)(std::ostream &))
        : subcommand_(subcommand), help_(help)
    {
    }

    /** Register a value-less flag ("--prefetch"). */
    void
    flag(const char *name, std::function<void()> apply)
    {
        addSpec(name, false,
                [apply = std::move(apply)](const std::string &) {
                    apply();
                });
    }

    /** Register a flag that consumes the next argument. */
    void
    value(const char *name, std::function<void(const std::string &)> apply)
    {
        addSpec(name, true, std::move(apply));
    }

    /** Shared failure path for parse and cross-flag validation. */
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw FlagUsageError(subcommand_, msg);
    }

    /**
     * Parse an argument list; "--flag=value" and "--flag value" both
     * work. @return true if --help was printed (caller should
     * return 0).
     */
    bool
    parse(const std::vector<std::string> &raw_args,
          std::ostream &help_out)
    {
        std::vector<std::string> args = splitEqualsArgs(raw_args);
        for (Spec &s : specs_)
            s.seen = false;
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string &arg = args[i];
            if (arg == "--help" || arg == "-h") {
                help_(help_out);
                return true;
            }
            Spec *spec = nullptr;
            for (Spec &s : specs_) {
                if (arg == s.name) {
                    spec = &s;
                    break;
                }
            }
            if (!spec)
                fail("unknown " + std::string(subcommand_) + " flag '" +
                     arg + "'");
            if (spec->seen)
                fail("flag " + arg + " given more than once");
            spec->seen = true;
            if (spec->takesValue) {
                if (i + 1 >= args.size())
                    fail("flag " + arg + " expects a value");
                const std::string &v = args[++i];
                // parseInt/parseDouble/... inside apply: name the flag.
                try {
                    spec->apply(v);
                } catch (const std::invalid_argument &) {
                    fail("flag " + arg + ": malformed number '" + v + "'");
                } catch (const std::out_of_range &) {
                    fail("flag " + arg + ": value '" + v +
                         "' is out of range");
                }
            } else {
                spec->apply(std::string());
            }
        }
        return false;
    }

    /** Parse raw argv starting at index 2 (after the subcommand). */
    bool
    parse(int argc, char **argv, std::ostream &help_out)
    {
        std::vector<std::string> raw;
        for (int i = 2; i < argc; ++i)
            raw.emplace_back(argv[i]);
        return parse(raw, help_out);
    }

    const char *subcommand() const { return subcommand_; }

  private:
    struct Spec
    {
        std::string name;
        bool takesValue;
        std::function<void(const std::string &)> apply;
        bool seen = false;
    };

    void
    addSpec(const char *name, bool takes_value,
            std::function<void(const std::string &)> apply)
    {
        for (const Spec &s : specs_)
            if (s.name == name)
                throw std::logic_error(
                    std::string("FlagParser: flag '") + name +
                    "' registered twice on subcommand " + subcommand_);
        specs_.push_back({name, takes_value, std::move(apply), false});
    }

    const char *subcommand_;
    void (*help_)(std::ostream &);
    std::vector<Spec> specs_;
};

/** Parse a comma-separated list through @p parse; empty elements fail. */
template <typename T>
std::vector<T>
parseList(const FlagParser &p, const std::string &csv,
          T (*parse)(const std::string &))
{
    std::vector<T> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            p.fail("empty element in list '" + csv + "'");
        out.push_back(parse(item));
    }
    if (out.empty())
        p.fail("empty list argument");
    return out;
}

} // namespace sn40l::tools

#endif // SN40L_TOOLS_FLAG_PARSER_H
