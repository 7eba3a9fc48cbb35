/**
 * @file
 * Table-driven flag parsing for every binary that reads a command
 * line: sn40l_run and its subcommands, and the benches that take a
 * size or an output file. A header, so the parser is unit-testable
 * (tests/test_flag_parser.cc).
 *
 * A parser is made for one program name and subcommand ("" for none),
 * which --help's usage line and the error hint print. Each command
 * registers its flag specs (shared groups plus its own), each with a
 * metavar, one help line and a group heading, so --help is rendered
 * from the same table parse() walks. In argv,
 * "--flag value" and "--flag=value" both work, "--help"/"-h" prints
 * the help, a flag given twice (under either name of an alias pair)
 * is rejected, an unrecognized flag fails with an error naming the
 * subcommand, and a value the flag's parseInt/parseDouble/... cannot
 * parse whole (or that overflows) fails naming the flag and the
 * value. Errors throw FlagUsageError instead of exiting, so tests can
 * assert on messages, and every binary's main() is runMain(), the one
 * exit path: any exception it catches becomes "error: ..." on stderr
 * and exit status 1, never an abort.
 *
 * The parser is also the one record of what the command line said:
 * given("--flag") reports whether the last parse() saw a flag (under
 * either name of an alias pair), so no caller keeps its own "was it
 * set" booleans. Each flag group registers its cross-flag
 * contradictions with check(); parse() runs them in registration
 * order once every flag is applied, and never after --help.
 */

#ifndef SN40L_TOOLS_FLAG_PARSER_H
#define SN40L_TOOLS_FLAG_PARSER_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iostream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sn40l::tools {

/**
 * A command-line usage error: unknown flag, missing value, duplicate
 * flag, or a failed cross-flag validation. what() is the message to
 * print; command() is the command line whose --help to suggest
 * ("sn40l_run serve", "abl_chaos").
 */
class FlagUsageError : public std::runtime_error
{
  public:
    FlagUsageError(std::string command, const std::string &msg)
        : std::runtime_error(msg), command_(std::move(command))
    {
    }

    const std::string &command() const { return command_; }

  private:
    std::string command_;
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

class FlagParser
{
  public:
    /**
     * @p program and @p subcommand ("" for none) name the command on
     * the usage line and in errors; @p about is the paragraph --help
     * prints under the usage line.
     */
    FlagParser(const char *program, const char *subcommand,
               const char *about)
        : program_(program), subcommand_(subcommand), about_(about)
    {
    }

    /** List the flags registered from here on under @p heading. */
    void group(const char *heading) { group_ = heading; }

    /**
     * Register a value-less flag. @p names is one name or an alias
     * pair spelled as --help shows it ("-j, --jobs").
     */
    void
    flag(const char *names, std::string help, std::function<void()> apply)
    {
        addSpec(names, nullptr, std::move(help),
                [apply = std::move(apply)](const std::string &) {
                    apply();
                });
    }

    /** Register a flag that consumes the next argument (@p metavar). */
    void
    value(const char *names, const char *metavar, std::string help,
          std::function<void(const std::string &)> apply)
    {
        addSpec(names, metavar, std::move(help), std::move(apply));
    }

    /**
     * Register a contradiction check. parse() runs every check, in
     * registration order, after the last flag is applied; a check
     * rejects through fail(). --help skips them.
     */
    void check(std::function<void()> fn) { checks_.push_back(std::move(fn)); }

    /**
     * Whether the last parse() saw @p name; either name of an alias
     * pair counts. A name this parser never registered reads false,
     * so a shared check can ask about a flag one subcommand lacks.
     */
    bool
    given(const std::string &name) const
    {
        const Spec *spec = find(name);
        return spec && spec->seen;
    }

    /** Shared failure path for parse and cross-flag validation. */
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw FlagUsageError(command(), msg);
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
                printHelp(help_out);
                return true;
            }
            Spec *spec = find(arg);
            if (!spec)
                fail("unknown " + std::string(subcommand_) +
                     (*subcommand_ ? " " : "") + "flag '" + arg + "'");
            if (spec->seen)
                fail("flag " + spec->names + " given more than once");
            spec->seen = true;
            if (spec->metavar) {
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
        for (const std::function<void()> &c : checks_)
            c();
        return false;
    }

    /** Parse raw argv after the program name and the subcommand. */
    bool
    parse(int argc, char **argv, std::ostream &help_out)
    {
        return parse({argv + (*subcommand_ ? 2 : 1), argv + argc}, help_out);
    }

    /**
     * Print the usage line, the about paragraph, and one line per
     * flag under its group heading, groups in registration order.
     */
    void
    printHelp(std::ostream &os) const
    {
        os << "usage: " << command() << " [flags]\n\n"
           << about_ << "\n";
        std::vector<std::string> groups;
        for (const Spec &s : specs_)
            if (std::find(groups.begin(), groups.end(), s.group) ==
                groups.end())
                groups.push_back(s.group);
        for (const std::string &g : groups) {
            os << "\n" << g << ":\n";
            for (const Spec &s : specs_) {
                if (s.group != g)
                    continue;
                std::string left = s.names;
                if (s.metavar)
                    left += std::string(" ") + s.metavar;
                helpLine(os, left, s.help);
            }
        }
        os << "\n";
        helpLine(os, "-h, --help", "print this help and exit");
    }

    /** The program name, then the subcommand if there is one. */
    std::string
    command() const
    {
        return std::string(program_) + (*subcommand_ ? " " : "") +
            subcommand_;
    }

  private:
    struct Spec
    {
        std::string names;             ///< as --help shows: "-j, --jobs"
        std::vector<std::string> keys; ///< each name: "-j", "--jobs"
        const char *metavar;           ///< nullptr: a value-less flag
        std::string help;
        std::string group;
        std::function<void(const std::string &)> apply;
        bool seen = false;
    };

    /** Split a "-j, --jobs" spelling into its names. */
    static std::vector<std::string>
    splitNames(const std::string &names)
    {
        std::vector<std::string> keys;
        std::size_t pos = 0, comma;
        while ((comma = names.find(", ", pos)) != std::string::npos) {
            keys.push_back(names.substr(pos, comma - pos));
            pos = comma + 2;
        }
        keys.push_back(names.substr(pos));
        return keys;
    }

    const Spec *
    find(const std::string &arg) const
    {
        for (const Spec &s : specs_)
            if (std::find(s.keys.begin(), s.keys.end(), arg) != s.keys.end())
                return &s;
        return nullptr;
    }

    Spec *
    find(const std::string &arg)
    {
        return const_cast<Spec *>(std::as_const(*this).find(arg));
    }

    void
    addSpec(const char *names, const char *metavar, std::string help,
            std::function<void(const std::string &)> apply)
    {
        std::vector<std::string> keys = splitNames(names);
        for (const std::string &k : keys)
            if (find(k) || k == "--help" || k == "-h")
                throw std::logic_error("FlagParser: flag '" + k +
                                       "' registered twice on " +
                                       command());
        specs_.push_back({names, std::move(keys), metavar, std::move(help),
                          group_, std::move(apply), false});
    }

    /** "  --flag METAVAR   help", the help word-wrapped to 80 columns. */
    static void
    helpLine(std::ostream &os, const std::string &left,
             const std::string &help)
    {
        constexpr std::size_t kIndent = 26, kWidth = 80;
        os << "  " << left;
        std::size_t col = 2 + left.size();
        std::istringstream words(help);
        for (std::string w; words >> w;) {
            if (col < kIndent) {
                os << std::string(kIndent - col, ' ');
                col = kIndent;
            } else if (col > kIndent && col + 1 + w.size() > kWidth) {
                os << "\n" << std::string(kIndent, ' ');
                col = kIndent;
            } else {
                os << ' ';
                ++col;
            }
            os << w;
            col += w.size();
        }
        os << "\n";
    }

    const char *program_;
    const char *subcommand_;
    const char *about_;
    std::string group_ = "Flags";
    std::vector<Spec> specs_;
    std::vector<std::function<void()>> checks_;
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

/**
 * The one exit path of every binary that reads a command line:
 * `int main(int argc, char **argv) { return runMain(run, argc, argv); }`.
 * A FlagUsageError prints its message and a --help hint, any other
 * exception (a sim::fatal config error included) its message, each
 * after "error: " on stderr; all three exit 1.
 */
inline int
runMain(int (*body)(int, char **), int argc, char **argv)
{
    try {
        return body(argc, argv);
    } catch (const FlagUsageError &e) {
        std::cerr << "error: " << e.what() << "\n"
                  << "run `" << e.command()
                  << " --help` for the flag reference\n";
    } catch (const std::invalid_argument &) {
        std::cerr << "error: malformed numeric argument\n";
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
    }
    return 1;
}

} // namespace sn40l::tools

#endif // SN40L_TOOLS_FLAG_PARSER_H
